import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holonet.level_rank import (
    PairingError,
    branching_pairs,
    box_count,
    dual_weight,
    exp_set,
    transpose_weight,
    vacuum_pairing,
)
from holonet.modular import sun_datum
from holonet.weights import AffineWeight, enumerate_weights, weight_count

W = AffineWeight


def _pie_dual(w):
    """The level-rank dual by complementary slicing of the pie.

    Shifted labels k_i = extended_i + 1 sum to m+n; their suffix sums give a
    decreasing sequence r in {1, ..., m+n}; the complementary decreasing
    sequence rbar yields s_j = m + n + rbar_n - rbar_{n-j+1}, and successive
    differences minus one are the dual Dynkin labels.
    """
    m, n = w.n, w.k
    total = m + n
    kk = [a + 1 for a in w.extended]
    r = [sum(kk[j:m]) + kk[0] for j in range(1, m + 1)]
    rbar = [x for x in range(total, 0, -1) if x not in set(r)]
    s = [total + rbar[n - 1] - rbar[n - j] for j in range(1, n + 1)]
    return W(n, m, tuple(s[j - 1] - s[j] - 1 for j in range(1, n)))


def test_dual_weight_hand_run():
    # k = (4,1), r = (5,4), rbar = (3,2,1), s = (5,4,3), labels (0,0)
    assert _pie_dual(W(2, 3, (0,))) == W(3, 2, (0, 0))
    assert dual_weight(W(2, 3, (0,))) == W(3, 2, (0, 0))
    assert dual_weight(W(2, 10, (6,))) == W(10, 2, (0, 0, 0, 1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("m,n", itertools.product(range(2, 7), repeat=2))
def test_dual_weight_matches_pie_slicing(m, n):
    for w in enumerate_weights(m, n):
        assert dual_weight(w) == _pie_dual(w), w


def test_dual_weight_near_injective():
    # the raw dual collapses only the rotation-degenerate vacuum orbit;
    # the twisted partner table (tested below) is injective outright
    ws = enumerate_weights(2, 10)
    images = [dual_weight(w) for w in ws]
    assert len(set(images)) == len(ws) - 1
    assert dual_weight(W(2, 10, (0,))) == dual_weight(W(2, 10, (10,)))


def test_transpose_is_current_twist_of_dual():
    for m, n in [(2, 10), (3, 9), (4, 8)]:
        for w in enumerate_weights(m, n):
            t, d = transpose_weight(w), dual_weight(w)
            assert any(t.simple_current(a) == d for a in range(n))


def test_dual_round_trip_lands_in_current_orbit():
    for m, n in [(2, 3), (3, 9), (2, 10)]:
        for w in enumerate_weights(m, n):
            back = dual_weight(dual_weight(w))
            assert any(back == w.simple_current(a) for a in range(m))


def test_exp_sets():
    assert [w.labels[0] for w in exp_set(2, 10)] == [0, 2, 4, 6, 8, 10]
    assert len(exp_set(3, 9)) == 19
    assert len(exp_set(4, 8)) == 43
    # counts agree with the dual side, as the pairing requires
    assert len(exp_set(9, 3)) == 19
    assert len(exp_set(8, 4)) == 43


def test_exp_set_closed_under_fusion():
    datum = sun_datum(3, 9)
    members = set(exp_set(3, 9))
    for a, b in itertools.combinations_with_replacement(sorted(members), 2):
        assert set(datum.fuse(a, b)) <= members


def test_vacuum_pairing_printed_partners():
    p = vacuum_pairing(2, 10)
    assert p.partner(W(2, 10, (0,))) == W(10, 2, (0,) * 9)
    assert p.partner(W(2, 10, (6,))) == W(10, 2, (0, 0, 1, 0, 0, 0, 1, 0, 0))
    # the other pinned pairs of the (2,10) table
    assert p.partner(W(2, 10, (2,))) == W(10, 2, (1, 0, 0, 0, 0, 0, 0, 0, 1))
    assert p.partner(W(2, 10, (10,))) == W(10, 2, (0, 0, 0, 0, 2, 0, 0, 0, 0))

    p39 = vacuum_pairing(3, 9)
    x378 = W(9, 3, (0, 0, 1, 0, 0, 0, 1, 1))
    x468 = W(9, 3, (0, 0, 0, 1, 0, 1, 0, 1))
    orbit44 = [W(3, 9, (4, 4)).simple_current(i) for i in range(3)]
    orbit22 = [W(3, 9, (2, 2)).simple_current(i) for i in range(3)]
    assert {p39.partner(w) for w in orbit44} == {
        x378.simple_current(3 * i) for i in range(3)
    }
    assert x378 in {p39.partner(w) for w in orbit44}
    assert x468 in {p39.partner(w) for w in orbit22}

    p48 = vacuum_pairing(4, 8)
    v_part = W(8, 4, (0, 0, 0, 1, 1, 0, 1))
    w_part = W(8, 4, (0, 0, 1, 0, 0, 1, 1))
    orbit121 = [W(4, 8, (1, 2, 1)).simple_current(i) for i in range(4)]
    orbit113 = [W(4, 8, (1, 1, 3)).simple_current(i) for i in range(4)]
    assert {p48.partner(w) for w in orbit121} == {
        v_part.simple_current(2 * i) for i in range(4)
    }
    assert {p48.partner(w) for w in orbit113} == {
        w_part.simple_current(2 * i) for i in range(4)
    }


def test_resolved_labels_have_stated_weights():
    # the resolved vacuum-family partner has integer h; the twisted family
    # sits at 3/4 mod 1
    p48 = vacuum_pairing(4, 8)
    for i in range(4):
        v = p48.partner(W(4, 8, (1, 2, 1)).simple_current(i))
        assert v.conformal_weight() % 1 == 0
        t = p48.partner(W(4, 8, (1, 1, 3)).simple_current(i))
        assert t.conformal_weight() % 1 == Fraction(3, 4)


@pytest.mark.parametrize("m,n", [(2, 10), (3, 9), (4, 8), (2, 3)])
def test_pairing_invariants(m, n):
    table = vacuum_pairing(m, n)
    domain = table.domain
    assert set(domain) == set(exp_set(m, n))
    images = [table.partner(w) for w in domain]
    assert len(set(images)) == len(domain)
    for w in domain:
        v = table.partner(w)
        assert v.color == 0
        total = w.conformal_weight() + v.conformal_weight()
        assert total % 1 == 0 and total >= 0
        assert table.partner(w.conjugate()) == v.conjugate()


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(2, 12), st.integers(2, 12)).filter(
    lambda mn: max(weight_count(*mn), weight_count(*mn[::-1])) <= 2000
))
def test_vacuum_pairing_is_a_bijection_onto_color_zero(mn):
    m, n = mn
    pairs = vacuum_pairing(m, n).pairs
    assert sorted(pairs) == sorted(exp_set(m, n))
    assert sorted(pairs.values()) == sorted(exp_set(n, m))


@pytest.mark.parametrize("m,n", [(3, 9), (4, 8)])
def test_pairing_current_equivariance(m, n):
    table = vacuum_pairing(m, n)
    shift = n // m
    for w in table.domain:
        assert table.partner(w.simple_current(1)) == table.partner(
            w
        ).simple_current(-shift)


@pytest.mark.parametrize("m,n", [(2, 10), (3, 9), (4, 8)])
def test_pairing_is_fusion_ring_isomorphism(m, n):
    dot, ddot = sun_datum(m, n), sun_datum(n, m)
    table = vacuum_pairing(m, n).pairs
    domain = sorted(table)
    for a, b in itertools.combinations_with_replacement(domain, 2):
        left = dot.fuse(a, b)
        right = ddot.fuse(table[a], table[b])
        assert {table[c]: mult for c, mult in left.items()} == right


@pytest.mark.parametrize("m,n", [(3, 9), (4, 8)])
def test_pairing_unique_by_exhaustion(m, n):
    """The congruence-valid, ring-transporting table is unique (brute force)."""
    dot, ddot = sun_datum(m, n), sun_datum(n, m)
    domain = sorted(exp_set(m, n))
    h_amb = Fraction(0)
    cands = {}
    for w in domain:
        base = dual_weight(w)
        cs = []
        for t in range(n):
            c = base.simple_current(t)
            congruent = (w.conformal_weight() + c.conformal_weight()) % 1 == 0
            if c.color == 0 and congruent and c not in cs:
                cs.append(c)
        cands[w] = cs
    vac_m, vac_n = W(m, n, (0,) * (m - 1)), W(n, m, (0,) * (n - 1))
    solutions = []

    def consistent(assigned, inv, w, v):
        for a in assigned:
            left = dot.fuse(a, w)
            right = ddot.fuse(assigned[a], v)
            for c, mult in left.items():
                if c in assigned and right.get(assigned[c], 0) != mult:
                    return False
            for cc, mult in right.items():
                if cc in inv and left.get(inv[cc], 0) != mult:
                    return False
        return True

    def search(i, assigned, inv):
        if len(solutions) >= 2:
            return
        if i == len(domain):
            solutions.append(dict(assigned))
            return
        w = domain[i]
        options = [vac_n] if w == vac_m else cands[w]
        for v in options:
            if v in inv or v not in cands[w]:
                continue
            if not consistent(assigned, inv, w, v):
                continue
            assigned[w] = v
            inv[v] = w
            search(i + 1, assigned, inv)
            del assigned[w], inv[v]

    search(0, {}, {})
    assert len(solutions) == 1
    assert solutions[0] == vacuum_pairing(m, n).pairs


@pytest.mark.parametrize("m,n", [(2, 5), (3, 6), (4, 6), (5, 5)])
def test_pairing_generalizes_beyond_main_pairs(m, n):
    dot, ddot = sun_datum(m, n), sun_datum(n, m)
    table = vacuum_pairing(m, n).pairs
    for a, b in itertools.combinations_with_replacement(sorted(table), 2):
        left = dot.fuse(a, b)
        right = ddot.fuse(table[a], table[b])
        assert {table[c]: mult for c, mult in left.items()} == right


def test_mu_ratio_between_dual_theories(wzw_data):
    for m, n in [(2, 10), (3, 9), (4, 8)]:
        lhs = wzw_data[(n, m)].mu
        rhs = (n / m) * wzw_data[(m, n)].mu
        assert abs(lhs - rhs) / lhs < 1e-6


def test_box_count_and_color():
    for w in enumerate_weights(4, 8):
        assert box_count(w) % 4 == w.color


def test_nonvacuum_sector_pairing():
    # for coprime rank and level the n-ality filter pins every twist
    for ell in range(6):
        table = branching_pairs(2, 3, ell)
        h_amb = Fraction(ell * (6 - ell), 12)
        for w in table.domain:
            v = table.partner(w)
            assert w.color == ell % 2 and v.color == ell % 3
            assert (w.conformal_weight() + v.conformal_weight() - h_amb) % 1 == 0
    # elsewhere the congruences may leave several twists; that is reported
    with pytest.raises(PairingError):
        branching_pairs(2, 10, 3)
    with pytest.raises(PairingError):
        branching_pairs(4, 8, 8)


def test_weight_couples_into_stated_sector():
    # h((3)) + h(partner) lands on the h of the matching level-1 weight
    w = W(2, 10, (3,))
    partner = W(10, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0))
    total = w.conformal_weight() + partner.conformal_weight()
    h_sector3 = Fraction(3 * 17, 40)
    assert (total - h_sector3) % 1 == 0
    assert w.color == 3 % 2 and partner.color == 3 % 10


def _reference_pairs(m, n, ell):
    """The sector-ell partner table built weight by weight: the n twists of
    the pie-slicing dual, filtered by color and exact conformal-weight
    congruence, and at ell = 0 the box twist of the transpose, J^(-lambda_0)
    of the dual."""
    h_ell = Fraction(ell * (m * n - ell), 2 * m * n)
    pairs = {}
    for w in enumerate_weights(m, n):
        if w.color != ell % m:
            continue
        dual, h_w = _pie_dual(w), w.conformal_weight()

        def passes(v):
            return v.color == ell % n and (h_w + v.conformal_weight() - h_ell) % 1 == 0

        if ell == 0:
            pairs[w] = dual.simple_current(-w.label_zero - box_count(w) // m)
            if not passes(pairs[w]):
                raise PairingError(f"({m},{n}): canonical partner of {w} fails the congruence")
            continue
        cands = {v for v in map(dual.simple_current, range(n)) if passes(v)}
        if not cands:
            raise PairingError(f"({m},{n}) sector {ell}: no consistent partner for {w}")
        if len(cands) > 1:
            raise PairingError(
                f"({m},{n}) sector {ell}: partner of {w} underdetermined "
                f"by the congruences ({len(cands)} candidates)"
            )
        pairs[w] = cands.pop()
    if len(set(pairs.values())) != len(pairs):
        raise PairingError(f"({m},{n}) sector {ell}: partner map not injective")
    return pairs


def _pairs_or_message(build):
    try:
        return build()
    except PairingError as exc:
        return str(exc)


@pytest.mark.parametrize("m,n", itertools.product(range(2, 7), repeat=2))
def test_partner_tables_match_per_weight_reference(m, n):
    """Every sector of every (m, n) up to 6: the array build gives the
    reference's pairs, or raises its PairingError message."""
    for ell in range(m * n):
        got = _pairs_or_message(lambda: branching_pairs(m, n, ell).pairs)
        assert got == _pairs_or_message(lambda: _reference_pairs(m, n, ell)), ell
