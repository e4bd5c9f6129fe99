import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from holonet.catalogs import catalog, inclusion_table
from holonet.extensions import (
    LocalityError,
    _invariant_factors,
    abelian_table,
    coupling_matrix,
    current_image,
    find_local_system,
    induced_hom,
    is_simple_current,
    monodromy_trivial,
    quadratic_form_consistency,
    simple_current_spectrum,
    verify_coupling,
)
from holonet.level_one import level_one_datum
from holonet.modular import SectorVector, sun_datum
from holonet.products import ProductTheory, tensor_product
from holonet.weights import AffineWeight

W = AffineWeight


@pytest.fixture(scope="module")
def entry40_product(catalogs, level_one_data):
    return tensor_product(
        catalogs["su10_2"], level_one_data["su5_1"], level_one_data["spin7_1"]
    )


def test_simple_current_detection(wzw_data, level_one_data):
    d = wzw_data[(10, 2)]
    vac = d.vacuum
    assert is_simple_current(d, vac)
    assert is_simple_current(d, vac.simple_current(3))
    assert not is_simple_current(d, W(10, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0)))
    spin7 = level_one_data["spin7_1"]
    assert is_simple_current(spin7, "v")
    assert not is_simple_current(spin7, "s")


def test_monodromy_printed_values(entry40_product):
    prod = entry40_product
    u = ("j1", "y2", "v")
    assert prod.h_mod1(u) == 0  # h(u) = 9/10 + 3/5 + 1/2 = 2
    assert monodromy_trivial(prod, u, u)
    assert monodromy_trivial(prod, u, ("s0", "y3", "s"))
    assert monodromy_trivial(prod, u, ("j0", "y0", "v"))
    # the failing generator: h = 9/10 + 2/5 + 1/2 = 9/5, not an integer
    bad = ("j1", "y1", "v")
    assert prod.h_mod1(bad) == Fraction(4, 5)
    with pytest.raises(LocalityError):
        monodromy_trivial(prod, ("s0", "y0", "1"), u)  # dim != 1


def test_monodromy_entry27(catalogs, level_one_data):
    prod = tensor_product(
        catalogs["su9_3"], level_one_data["su3_1"], level_one_data["su3_1"]
    )
    x1, x2 = ("j1t0", "y1", "y1"), ("j0t1", "y1", "y2")
    # h(x1 x2) = h(j1t1) + 1/3 + 0 = 2/3 + 1/3 = 0 (mod 1) = h(x1) + h(x2)
    assert prod.h_mod1(x1) == 0 and prod.h_mod1(x2) == 0
    assert monodromy_trivial(prod, x1, x2)


def test_local_system_z10(entry40_product):
    system = find_local_system(entry40_product, [("j1", "y2", "v")])
    assert system.order == 10
    assert system.invariant_factors == [10]
    assert system.structure == "Z10"
    spec = simple_current_spectrum(system)
    assert spec.total_dim() == 10.0
    assert spec.total() == 10


def test_local_system_z3z3(catalogs, level_one_data):
    prod = tensor_product(
        catalogs["su9_3"], level_one_data["su3_1"], level_one_data["su3_1"]
    )
    system = find_local_system(
        prod, [("j1t0", "y1", "y1"), ("j0t1", "y1", "y2")]
    )
    assert system.invariant_factors == [3, 3]
    assert system.order == 9


def test_group_order_divides_generator_order_product(
    entry40_product, catalogs, level_one_data
):
    cases = [
        (entry40_product, [("j1", "y2", "v")]),
        (
            tensor_product(
                catalogs["su9_3"], level_one_data["su3_1"], level_one_data["su3_1"]
            ),
            [("j1t0", "y1", "y1"), ("j0t1", "y1", "y2")],
        ),
    ]
    for prod, gens in cases:
        system = find_local_system(prod, gens)
        product_of_orders = 1
        for g in gens:
            order, x = 1, g
            while x != prod.vacuum:
                x = current_image(prod, x, g)
                order += 1
            product_of_orders *= order
        assert product_of_orders % system.order == 0


def test_local_system_z2cubed(catalogs, level_one_data):
    su2 = level_one_data["su2_1"]
    prod = tensor_product(catalogs["su8_4"], su2, su2, su2)
    gens = [
        ("j1p0v0", "y1", "y0", "y0"),
        ("j0p1v0", "y0", "y1", "y0"),
        ("j0p1v1", "y0", "y0", "y1"),
    ]
    system = find_local_system(prod, gens)
    assert system.invariant_factors == [2, 2, 2]
    for a, b in itertools.product(system.elements, repeat=2):
        assert prod.h_mod1(current_image(prod, a, b)) == (
            prod.h_mod1(a) + prod.h_mod1(b)
        ) % 1
    conj_closed = {prod.conj(g) for g in system.elements}
    assert conj_closed == set(system.elements)


def test_local_system_failures(entry40_product):
    prod = entry40_product
    with pytest.raises(LocalityError, match="univalence"):
        find_local_system(prod, [("j1", "y1", "v")])
    with pytest.raises(LocalityError, match="not an automorphism"):
        find_local_system(prod, [("s0", "y3", "s")])


def test_trivial_system(wzw_data):
    d = wzw_data[(2, 10)]
    system = find_local_system(d, [d.vacuum])
    assert system.order == 1
    assert system.invariant_factors == []
    assert simple_current_spectrum(system).total_dim() == 1.0


def test_invariant_factors_on_wzw_currents(wzw_data):
    d = wzw_data[(9, 3)]
    j3 = d.vacuum.simple_current(3)
    system = find_local_system(d, [j3])
    assert system.invariant_factors == [3]


def test_charge_sum_dichotomy(entry40_product, catalogs, level_one_data):
    products = [
        entry40_product,
        tensor_product(
            catalogs["su9_3"], level_one_data["su3_1"], level_one_data["su3_1"]
        ),
        tensor_product(catalogs["su8_4"], *[level_one_data["su2_1"]] * 3),
    ]
    generator_sets = [
        [("j1", "y2", "v")],
        [("j1t0", "y1", "y1"), ("j0t1", "y1", "y2")],
        [
            ("j1p0v0", "y1", "y0", "y0"),
            ("j0p1v0", "y0", "y1", "y0"),
            ("j0p1v1", "y0", "y0", "y1"),
        ],
    ]
    for prod, gens in zip(products, generator_sets):
        system = find_local_system(prod, gens)
        code, den = prod.h_code, prod.h_den
        for label in prod.labels:
            # q(g) = h(g.label) - h(g) - h(label) mod 1, as a numerator over den
            charges = {
                g: (code(current_image(prod, g, label)) - code(g) - code(label)) % den
                for g in system.elements
            }
            # q is a homomorphism to Q/Z, exactly
            for g, h in itertools.product(system.elements, repeat=2):
                gh = current_image(prod, g, h)
                assert charges[gh] == (charges[g] + charges[h]) % den
            total = sum(np.exp(2j * np.pi * q / den) for q in charges.values())
            expected = system.order if not any(charges.values()) else 0
            assert abs(total - expected) < 1e-9


def test_index_and_mu_arithmetic(wzw_data, inclusions):
    vac_row = inclusions["su2_10-spin5_1"].rows["1"]
    index = vac_row.total_dim()
    assert abs(index - 4.7320508) < 1e-7
    mu = wzw_data[(2, 10)].mu / (index * index)
    assert abs(mu - 4) < 1e-9


def test_induced_hom_values(entry40_product, wzw_data, inclusions):
    prod = entry40_product
    system = find_local_system(prod, [("j1", "y2", "v")])
    spec = simple_current_spectrum(system)
    lam = ("s0", "y3", "s")
    assert induced_hom(prod, lam, lam, spec) == 2
    one = ("j0", "y0", "v")
    assert induced_hom(prod, one, one, spec) == 1
    assert induced_hom(prod, prod.vacuum, prod.vacuum, spec) == 1
    # base-level counts over the bundled vacuum spectrum of (3,9): the
    # same-side induction count differs from the coupling-matrix entry
    # <alpha, alpha^->, which is the one equal to 2
    su39 = wzw_data[(3, 9)]
    table = inclusions["su3_9-e6_1"]
    w22 = W(3, 9, (2, 2))
    assert induced_hom(su39, w22, w22, table.rows["1"]) == 6
    z = coupling_matrix(table)
    i22 = su39.index[w22]
    assert z[i22, i22] == 2


@pytest.mark.parametrize(
    "key", ["su2_10-spin5_1", "su3_9-e6_1", "su4_8-spin20_1"]
)
def test_coupling_matrices(key, inclusions):
    table = inclusions[key]
    z = coupling_matrix(table)
    assert z[0, 0] == 1
    assert z.min() >= 0
    assert (z == z.T).all()
    report = verify_coupling(table)
    assert report.passed, [c.details for c in report.failures()]
    by_name = {c.name: c for c in report.checks}
    assert by_name["commutes-with-s"].residual < 1e-8
    assert by_name["commutes-with-t"].residual < 1e-8


def test_coupling_detects_broken_branching(inclusions, wzw_data):
    from holonet.extensions import BranchingTable

    good = inclusions["su2_10-spin5_1"]
    rows = dict(good.rows)
    broken = SectorVector(good.base)
    broken.add(W(2, 10, (4,)), 1)
    broken.add(W(2, 10, (8,)), 1)  # wrong partner: h(8) = 5/3 != 1/2 mod 1
    rows["v"] = broken
    bad = BranchingTable("broken", good.ambient, good.base, rows)
    report = verify_coupling(bad)
    assert not report.passed
    names = {c.name for c in report.failures()}
    assert "weight-congruence" in names and "commutes-with-t" in names


def test_quadratic_form_klein_vs_z4():
    h_klein = {
        "1": Fraction(0),
        "a": Fraction(1, 2),
        "d1": Fraction(0),
        "d2": Fraction(0),
    }
    coords = {"1": (0, 0), "a": (1, 1), "d1": (1, 0), "d2": (0, 1)}
    back = {v: k for k, v in coords.items()}
    klein = {
        (x, y): back[tuple((p + q) % 2 for p, q in zip(coords[x], coords[y]))]
        for x in coords
        for y in coords
    }
    assert quadratic_form_consistency(h_klein, klein).passed
    order = ["1", "d1", "a", "d2"]  # would force d1^2 = a
    z4 = {
        (x, y): order[(order.index(x) + order.index(y)) % 4]
        for x in order
        for y in order
    }
    report = quadratic_form_consistency(h_klein, z4)
    assert not report.passed
    assert "h(d1^2)" in report.checks[0].details


def test_quadratic_form_su8_4_eliminations(catalogs):
    cat = catalogs["su8_4"]
    auts = cat.automorphism_labels()
    h_map = {a: cat.h_mod1(a) for a in auts}
    mul = {(a, b): next(iter(cat.fuse(a, b))) for a in auts for b in auts}
    assert quadratic_form_consistency(h_map, mul).passed

    # a Z2 x Z4 table placing (1/2) = p^2 is inconsistent: 4 h(p) = 0 != 1/2
    p, v, q = "j0p1v0", "j0p0v1", "j0p1v1"
    z2z4_order = ["j0p0v0", p, v, q]
    cyc = {
        (x, y): z2z4_order[(z2z4_order.index(x) + z2z4_order.index(y)) % 4]
        for x in z2z4_order
        for y in z2z4_order
    }
    sub = {x: h_map[x] for x in z2z4_order}
    assert not quadratic_form_consistency(sub, cyc).passed
    # a Z8 generator is impossible for the same reason: 4 h(g) = 0 mod 1
    # never reaches the h = 1/2 class required of the order-2 element
    half_class = [x for x in auts if h_map[x] == Fraction(1, 2)]
    for g in auts:
        if g == "j0p0v0":
            continue
        assert (4 * h_map[g]) % 1 == 0
        assert all((4 * h_map[g]) % 1 != h_map[x] for x in half_class)


def test_spectrum_translation(entry40_product):
    prod = entry40_product
    system = find_local_system(prod, [("j1", "y2", "v")])
    spec = simple_current_spectrum(system)
    assert {current_image(prod, ("j1", "y2", "v"), x) for x in spec.mult} == set(
        spec.mult
    )
    orbit = system.orbit(("s0", "y3", "s"))
    assert len(orbit) == 5


KLEIN = {"1": (0, 0), "a": (1, 1), "d1": (1, 0), "d2": (0, 1)}


def test_abelian_table_laws():
    klein = abelian_table(KLEIN, (2, 2))
    assert len(klein) == 16
    assert klein[("d1", "d2")] == "a" and klein[("a", "d1")] == "d2"
    assert all(klein[(x, x)] == "1" for x in KLEIN)
    z4 = abelian_table({"1": (0,), "d1": (1,), "a": (2,), "d2": (3,)}, (4,))
    assert z4[("d1", "d1")] == "a" and z4[("d1", "d2")] == "1"
    assert all(z4[(x, y)] == z4[(y, x)] for x, y in z4)


def test_quadratic_form_biadditivity_alone_fails():
    # every square is 1 and 4 h = 0 everywhere, so the power rule holds;
    # b(a, d1) = h(d2) - h(a) - h(d1) = 1/4, yet b(a.a, d1) = b(1, d1) = 0
    h_map = {x: Fraction(0) for x in KLEIN} | {"d2": Fraction(1, 4)}
    report = quadratic_form_consistency(h_map, abelian_table(KLEIN, (2, 2)))
    by_name = {c.name: c for c in report.checks}
    assert by_name["power-rule"].passed
    assert not by_name["biadditive-pairing"].passed
    assert by_name["biadditive-pairing"].details == "pairing not additive at (a, a; d1)"


def test_quadratic_form_needs_identity():
    h_map = {"x": Fraction(0), "y": Fraction(0)}
    no_identity = {(x, y): "x" for x in h_map for y in h_map} | {("x", "x"): "y"}
    with pytest.raises(ValueError, match="no identity"):
        quadratic_form_consistency(h_map, no_identity)


def test_closure_stops_at_group_order_cap(entry40_product, monkeypatch):
    import holonet.extensions

    monkeypatch.setattr(holonet.extensions, "MAX_GROUP_ORDER", 5)
    with pytest.raises(LocalityError, match="group-order cap"):
        find_local_system(entry40_product, [("j1", "y2", "v")])


G3 = ("j3", "y1", "v")  # g^3 for the entry-40 generator g = (j1, y2, v)
OUTSIDE = ("s0", "y0", "1")  # not in the closure of g


@pytest.mark.parametrize(
    "method,broken,witness",
    [
        (
            "h_code",
            lambda orig: lambda self, x: 1 if x == G3 else orig(self, x),
            "elements (('j1', 'y2', 'v'), ('j2', 'y4', '1')) have nontrivial "
            "monodromy",
        ),
        (
            "conj",
            lambda orig: lambda self, x: OUTSIDE if x == G3 else orig(self, x),
            "closure not conjugation-closed at ('j3', 'y1', 'v')",
        ),
        (
            "fuse",
            lambda orig: lambda self, a, b: (
                {OUTSIDE: 1} if (a, b) == (G3, ("j5", "y0", "v")) else orig(self, a, b)
            ),
            "closure not a group: ('j3', 'y1', 'v') x ('j5', 'y0', 'v') escapes",
        ),
    ],
)
def test_closure_witness_negative_controls(
    entry40_product, monkeypatch, method, broken, witness
):
    monkeypatch.setattr(
        ProductTheory, method, broken(getattr(ProductTheory, method))
    )
    with pytest.raises(LocalityError, match=f"^{re.escape(witness)}$"):
        find_local_system(entry40_product, [("j1", "y2", "v")])


@pytest.mark.parametrize(
    "relations,factors",
    [
        ([[2, 1], [0, 2]], [4]),
        ([[4, 0], [0, 6]], [12, 2]),
        ([[12, 8], [8, 12]], [20, 4]),
        ([[1]], []),
    ],
)
def test_invariant_factors_of_relations(relations, factors):
    assert _invariant_factors(relations) == factors


def reference_invariant_factors(theory, elements):
    """Invariant factors rebuilt by brute force from the counts
    #{x : x^(p^k) = 1}: log_p of the count at p^k less that at p^(k-1) is
    the number of factors whose p-part is at least p^k."""
    orders = []
    for g in elements:
        x, order = g, 1
        while x != theory.vacuum:
            x, order = current_image(theory, g, x), order + 1
        orders.append(order)
    exponent, factors = math.lcm(*orders), [1] * len(elements)
    for p in range(2, exponent + 1):
        if exponent % p or any(p % q == 0 for q in range(2, p)):
            continue
        logs, k = [0], 1
        while exponent % p**k == 0:
            logs.append(round(math.log(sum(p**k % n == 0 for n in orders), p)))
            for i in range(logs[-1] - logs[-2]):
                factors[i] *= p
            k += 1
    return [d for d in factors if d > 1]


SMALL_LEVEL_ONE = [
    "su2_1", "su3_1", "su4_1", "su6_1", "su8_1", "spin7_1", "spin8_1",
    "spin12_1", "spin16_1", "e6_1",
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invariant_factors_match_element_order_counts(data):
    tokens = data.draw(
        st.lists(st.sampled_from(SMALL_LEVEL_ONE), min_size=2, max_size=3)
    )
    prod = tensor_product(*(level_one_datum(t) for t in tokens))
    currents = [
        x
        for x in prod.labels[1:]
        if prod.h_code(x) == 0 and is_simple_current(prod, x)
    ]
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):  # each local with the ones before
        local = [x for x in currents if all(monodromy_trivial(prod, g, x) for g in gens)]
        assume(local)
        gens.append(data.draw(st.sampled_from(local)))
    try:
        system = find_local_system(prod, gens)
    except LocalityError:
        assume(False)
    assert system.invariant_factors == reference_invariant_factors(
        prod, system.elements
    )
    assert math.prod(system.invariant_factors) == system.order
