import copy
from math import comb
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from holonet import modular
from holonet.level_one import level_one_datum
from holonet.modular import (
    MODULAR_TOL,
    UNITARITY_TOL,
    ModularDatum,
    NumericalIntegrityError,
    SectorVector,
    central_charge,
    s_matrix,
    sun_datum,
)
from holonet.weights import AffineWeight, enumerate_weights, simple_current_table

from conftest import WZW_CASES

RNG_SEED = 20240811


def su2_closed_form_s(k):
    """sqrt(2/(k+2)) sin(pi (a+1)(b+1) / (k+2)), the argument reduced in integers."""
    kk = k + 2
    shifted = np.arange(1, k + 2)
    arg = np.outer(shifted, shifted) % (2 * kk)
    return np.sqrt(2.0 / kk) * np.sin(np.pi * arg / kk)


def su2_fusion_rule(k, a, b):
    # combinatorial truncated Clebsch-Gordan rule, as an independent oracle
    out = {}
    for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
        out[c] = 1
    return out


def test_su2_s_matrix_matches_closed_form():
    for k in (1, 4, 10):
        assert np.abs(s_matrix(2, k)[0] - su2_closed_form_s(k)).max() < 1e-12


def test_su2_conformal_weights_closed_form():
    for k in (3, 10):
        for a in range(k + 1):
            w = AffineWeight(2, k, (a,))
            assert w.conformal_weight() == Fraction(a * (a + 2), 4 * (k + 2))


def test_su2_10_fusion_against_two_oracles(wzw_data):
    datum = wzw_data[(2, 10)]
    S = su2_closed_form_s(10)
    for a in range(11):
        for b in range(a, 11):
            # oracle 1: Verlinde sum over the closed-form S
            verlinde = {}
            for c in range(11):
                val = sum(S[a, d] * S[b, d] * S[c, d] / S[0, d] for d in range(11))
                r = int(round(val))
                assert abs(val - r) < 1e-9
                if r:
                    verlinde[c] = r
            # oracle 2: the truncated angular-momentum rule
            rule = su2_fusion_rule(10, a, b)
            got = {
                label.labels[0]: m
                for label, m in datum.fuse(
                    AffineWeight(2, 10, (a,)), AffineWeight(2, 10, (b,))
                ).items()
            }
            assert got == verlinde == rule


def test_central_charges():
    assert central_charge(10, 2) == Fraction(33, 2)
    assert central_charge(2, 1) == 1
    assert central_charge(9, 3) == 20
    assert central_charge(8, 4) == 21
    with pytest.raises(ValueError):
        central_charge(1, 1)


def test_printed_exact_weights_su10_2():
    expected = [
        ((0, 0, 1, 0, 0, 0, 0, 0, 0), Fraction(77, 80)),
        ((1, 0, 0, 1, 0, 0, 0, 0, 0), Fraction(25, 16)),
        ((0, 0, 0, 0, 1, 0, 0, 1, 0), Fraction(157, 80)),
        ((0, 0, 1, 0, 0, 1, 0, 0, 0), Fraction(173, 80)),
        ((0, 0, 0, 1, 0, 0, 1, 0, 0), Fraction(173, 80)),
        ((0, 0, 1, 0, 0, 0, 1, 0, 0), Fraction(2)),
    ]
    for labels, h in expected:
        assert AffineWeight(10, 2, labels).conformal_weight() == h
    seed = AffineWeight(10, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0))
    sigma_values = [seed.simple_current(i).conformal_weight() for i in range(5)]
    assert sigma_values == [
        Fraction(77, 80),
        Fraction(25, 16),
        Fraction(157, 80),
        Fraction(173, 80),
        Fraction(173, 80),
    ]


def test_printed_exact_weights_su9_3_su4_8():
    assert AffineWeight(9, 3, (3, 0, 0, 0, 0, 0, 0, 0)).conformal_weight() == Fraction(4, 3)
    assert AffineWeight(9, 3, (0, 3, 0, 0, 0, 0, 0, 0)).conformal_weight() == Fraction(7, 3)
    assert AffineWeight(9, 3, (0, 0, 0, 1, 0, 1, 0, 1)).conformal_weight() == Fraction(7, 3)
    assert AffineWeight(9, 3, (0, 0, 1, 0, 0, 0, 1, 1)).conformal_weight() == 2
    assert AffineWeight(4, 8, (1, 1, 3)).conformal_weight() == Fraction(5, 4)
    assert AffineWeight(4, 8, (1, 2, 1)).conformal_weight() == 1
    assert AffineWeight(2, 10, (6,)).conformal_weight() == 1


@pytest.mark.parametrize("pair", [(2, 10), (10, 2), (9, 3), (8, 4), (4, 8), (3, 9)])
def test_wzw_datum_invariants(pair, wzw_data):
    datum = wzw_data[pair]
    r = datum.residuals
    assert r["unitarity"] < 1e-9
    assert r["symmetry"] < 1e-9
    assert r["s_squared"] < 1e-9
    assert r["modular_relation"] < 1e-8
    assert (datum.S[0].real > 0).all()
    assert datum.h[0] == 0
    assert (datum.d >= 1 - 1e-9).all()
    # mu = sum of squared dimensions
    assert abs(datum.mu - (datum.d**2).sum()) / datum.mu < 1e-6


def test_mu_values_closed_form(wzw_data):
    mu_su2_10 = 48 + 24 * np.sqrt(3.0)
    assert abs(wzw_data[(2, 10)].mu - mu_su2_10) < 1e-9
    assert abs(wzw_data[(10, 2)].mu - 5 * mu_su2_10) < 1e-8


def _sample_pairs(datum, count):
    rng = np.random.default_rng(RNG_SEED)
    size = datum.size
    return {
        (int(i), int(j))
        for i, j in zip(rng.integers(0, size, count), rng.integers(0, size, count))
    }


@pytest.mark.parametrize("pair", [(2, 10), (10, 2), (9, 3), (8, 4), (4, 8), (3, 9)])
def test_fusion_properties(pair, wzw_data):
    datum = wzw_data[pair]
    if datum.size <= 60:
        pairs = {(i, j) for i in range(datum.size) for j in range(i, datum.size)}
    else:
        pairs = _sample_pairs(datum, 120)
    for i, j in pairs:
        a, b = datum.labels[i], datum.labels[j]
        coeffs = datum.fusion_coeffs(a, b)
        assert coeffs.min() >= 0
        assert (coeffs == datum.fusion_coeffs(b, a)).all()
        total = float(coeffs @ datum.d)
        ref = datum.dim(a) * datum.dim(b)
        assert abs(total - ref) / ref < 1e-6
    vac = datum.vacuum
    for i in range(0, datum.size, max(1, datum.size // 25)):
        label = datum.labels[i]
        assert datum.fuse(vac, label) == {label: 1}


def test_simple_current_fusion_rows(wzw_data):
    datum = wzw_data[(10, 2)]
    j = datum.labels[0].simple_current()
    for mu in datum.labels:
        assert datum.fuse(j, mu) == {mu.simple_current(): 1}


def test_univalence_and_quantum_dim(wzw_data):
    datum = wzw_data[(2, 10)]
    vac = datum.vacuum
    assert datum.h_code(vac) == 0
    assert datum.dim(vac) == 1
    six = AffineWeight(2, 10, (6,))
    assert abs(datum.dim(six) - (2 + np.sqrt(3.0))) < 1e-12
    lam3 = AffineWeight(10, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0))
    w10 = wzw_data[(10, 2)]
    assert w10.h_mod1(lam3) == Fraction(77, 80)


def test_fusion_integrity_error():
    datum = sun_datum(2, 3)
    broken = type(datum).__new__(type(datum))
    broken.__dict__.update(datum.__dict__)
    broken._fusion_cache = {}
    broken.S = datum.S + 0.01
    with pytest.raises(NumericalIntegrityError):
        broken.fusion_coeffs(broken.labels[1], broken.labels[1])


def test_fusion_cache_is_bounded_lru(monkeypatch):
    datum = sun_datum(2, 10)
    full = {(a, b): datum.fusion_coeffs(a, b) for a in datum.labels for b in datum.labels}
    capped = type(datum).__new__(type(datum))
    capped.__dict__.update(datum.__dict__)
    capped._fusion_cache = {}
    monkeypatch.setattr(modular, "FUSION_CACHE_SIZE", 4)
    first = (capped.labels[0], capped.labels[1])
    for a, b in full:
        capped.fusion_coeffs(*first)  # kept in use, never evicted
        assert np.array_equal(capped.fusion_coeffs(a, b), full[(a, b)])
        assert len(capped._fusion_cache) <= 4
    assert (0, 1) in capped._fusion_cache
    last = capped.index[capped.labels[-1]]
    assert list(capped._fusion_cache)[-1] == (last, last)


def test_fresh_fusion_does_not_copy_s():
    datum = sun_datum(8, 4)
    fresh = type(datum).__new__(type(datum))
    fresh.__dict__.update(datum.__dict__)
    fresh._fusion_cache = {}
    a, b = datum.labels[5], datum.labels[17]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fresh.fusion_coeffs(a, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < datum.S.nbytes / 4  # S.conj() would copy all of S


def test_sector_vector_arithmetic(wzw_data):
    datum = wzw_data[(2, 10)]
    a = SectorVector(datum, {AffineWeight(2, 10, (0,)): 1})
    b = SectorVector(datum, {AffineWeight(2, 10, (6,)): 1})
    both = a + b
    assert both.total() == 2
    assert abs(both.total_dim() - (3 + np.sqrt(3.0))) < 1e-12
    assert both.conjugate() == both
    with pytest.raises(ValueError):
        SectorVector(datum, {AffineWeight(2, 10, (0,)): -1})
    with pytest.raises(KeyError):
        SectorVector(datum, {AffineWeight(2, 3, (0,)): 1})


# -- the S-matrix from simple-current orbits ---------------------------------


def all_pairs_s_matrix(n, k):
    """Reference: one Kac-Peterson determinant for every pair of labels."""
    ws = enumerate_weights(n, k)
    big = len(ws)
    kappa = k + n
    part = np.array([w.partition for w in ws], dtype=np.int64)
    coords = part + np.arange(n - 1, -1, -1, dtype=np.int64)
    root = np.exp(-2j * np.pi * np.arange(kappa) / kappa)
    raw = np.empty((big, big), dtype=complex)
    chunk = max(1, (1 << 21) // (big * n * n))
    for lo in range(0, big, chunk):
        block = coords[lo : lo + chunk]
        prod = (block[:, None, :, None] * coords[None, :, None, :]) % kappa
        raw[lo : lo + chunk] = np.linalg.det(root[prod])
    tot = coords.sum(axis=1)
    mod = n * kappa
    pre = np.exp(2j * np.pi * np.arange(mod) / mod)
    raw *= pre[(tot[:, None] * tot[None, :]) % mod]
    scale = np.sqrt(np.einsum("ij,ij->", raw, raw.conj()).real / big)
    raw /= scale
    z = raw[0, 0]
    raw *= z.conjugate() / abs(z)
    return raw


def levels_up_to(n, max_labels):
    k = 1
    while comb(n - 1 + k, n - 1) <= max_labels:
        yield k
        k += 1


@pytest.mark.parametrize("n", range(2, 13))
def test_orbit_s_matrix_matches_all_pairs_reference(n):
    reference = su2_closed_form_s if n == 2 else lambda k: all_pairs_s_matrix(n, k)
    for k in levels_up_to(n, 500):
        resid = np.abs(s_matrix(n, k)[0] - reference(k)).max()
        assert resid <= 1e-13, (n, k, resid)


SMALL_THEORIES = [(n, k) for n in range(2, 9) for k in levels_up_to(n, 300)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_THEORIES), st.integers(0, 299), st.integers(0, 299),
       st.integers(0, 299))
def test_verlinde_fusion_ring_axioms(pair, i, j, k):
    """Verlinde fusion over small SU(n)_k: integer, nonnegative, symmetric
    (also N_ab^c = N_{a cbar}^{bbar}), the vacuum is the unit, and the
    dimensions are a character of the ring."""
    datum = sun_datum(*pair)
    a, b, c = (datum.labels[x % datum.size] for x in (i, j, k))
    coeffs = datum.fusion_coeffs(a, b)
    assert coeffs.dtype.kind == "i" and coeffs.min() >= 0
    assert np.array_equal(coeffs, datum.fusion_coeffs(b, a))
    cbar_row = datum.fusion_coeffs(a, datum.conj(c))
    assert coeffs[datum.index[c]] == cbar_row[datum.index[datum.conj(b)]]
    unit = datum.fusion_coeffs(datum.vacuum, a)
    assert unit[datum.index[a]] == 1 and unit.sum() == 1
    total = float(coeffs @ datum.d)
    assert abs(total - datum.dim(a) * datum.dim(b)) <= 1e-9 * total


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_THEORIES))
def test_simple_current_phase_law(pair):
    n, k = pair
    datum = sun_datum(n, k)
    S = datum.S
    shifted = [datum.index[w.simple_current()] for w in datum.labels]
    colors = np.array([w.color for w in datum.labels])
    phase = np.exp(2j * np.pi * colors / n)
    assert np.abs(S[shifted] - phase[None, :] * S).max() <= 1e-13


def orbit_positions(labels):
    """(representative index, power a) with J^a rep = label, by AffineWeight."""
    index = {w: i for i, w in enumerate(labels)}
    out = {}
    for w in labels:
        if index[w] in out:
            continue
        for a in range(w.n):
            out.setdefault(index[w.simple_current(a)], (index[w], a))
    return [out[i] for i in range(len(labels))]


@pytest.mark.parametrize("pair", [(3, 4), (4, 4), (6, 4)])
def test_wrong_sign_phase_law_is_rejected(pair):
    n, k = pair
    good = sun_datum(n, k)
    colors = np.array([w.color for w in good.labels])
    bad = good.S.copy()
    for i, (rep, a) in enumerate(orbit_positions(good.labels)):
        bad[i] = np.exp(-2j * np.pi * a * colors / n) * good.S[rep]
    with pytest.raises(NumericalIntegrityError):
        ModularDatum(
            good.name, good.labels, good.h, good.c_num, good.h_den, bad, good.conj_perm
        )


def reference_orbit_s_matrix(n, k):
    """Reference: the orbit construction with an N x N index array for the fill.

    The determinant entries come from an outer product of shifted
    coordinates reduced mod kappa, and the phase of entry (x, y) from the
    N x N integer array turn = a(x) color(y) + color(r(x)) b(y) mod n.
    The scale comes from one einsum over the whole matrix
    (`whole_matrix_norm_sq`), not from the slices of `modular._norm_sq`.
    """
    ws = enumerate_weights(n, k)
    lab = np.array([w.labels for w in ws], dtype=np.int64)
    big = len(lab)
    kappa = k + n
    color = lab @ np.arange(1, n) % n
    jtab = simple_current_table(np.column_stack([k - lab.sum(axis=1), lab]))
    rep = jtab.min(axis=0)
    power = (jtab[:, rep] == np.arange(big)).argmax(axis=0)
    reps = np.flatnonzero(rep == np.arange(big))
    part = np.array([ws[r].partition for r in reps], dtype=np.int64)
    coords = part + np.arange(n - 1, -1, -1, dtype=np.int64)
    root = np.exp(-2j * np.pi * np.arange(kappa) / kappa)
    prod = (coords[:, None, :, None] * coords[None, :, None, :]) % kappa
    block = np.linalg.det(root[prod])
    tot = coords.sum(axis=1)
    mod = n * kappa
    pre = np.exp(2j * np.pi * np.arange(mod) / mod)
    block *= pre[(tot[:, None] * tot[None, :]) % mod]
    orbit = np.searchsorted(reps, rep)
    turn = (power[:, None] * color[None, :] + color[rep][:, None] * power[None, :]) % n
    raw = block[orbit[:, None], orbit[None, :]]
    raw *= np.exp(2j * np.pi * np.arange(n) / n)[turn]
    raw /= np.sqrt(whole_matrix_norm_sq(raw) / big)
    z = raw[0, 0]
    raw *= z.conjugate() / abs(z)
    return raw, jtab[1]


def whole_matrix_norm_sq(raw):
    """Reference: the sum of |S|^2 from one einsum over S and its conjugate copy."""
    return np.einsum("ij,ij->", raw, raw.conj()).real


def assert_same_s_bits(n, k):
    S, current = s_matrix(n, k)
    ref, ref_current = reference_orbit_s_matrix(n, k)
    assert np.array_equal(S.view(float), ref.view(float)), (n, k)
    assert np.array_equal(current, ref_current), (n, k)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_THEORIES))
def test_s_matrix_bits_match_index_array_reference(pair):
    assert_same_s_bits(*pair)


# the perfbench sun_sweep ladder, then the six theories of the paper
@pytest.mark.parametrize("pair", [(6, 4), (10, 3), (12, 3), (6, 6), (8, 5)] + WZW_CASES)
def test_s_matrix_bits_match_index_array_reference_at_scale(pair):
    assert_same_s_bits(*pair)


@pytest.mark.parametrize("size", [50, 90, 91, 128, 792])
def test_sliced_norm_matches_whole_matrix_einsum(size):
    # below one 8,192-entry slice, a multiple of it, and sizes with a remainder
    rng = np.random.default_rng(size)
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    assert modular._norm_sq(raw) == whole_matrix_norm_sq(raw)


def traced_peak(call):
    """The result of call() and the peak of traced memory above the start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def test_s_matrix_memory_is_bounded():
    for n, k in [(8, 5), (6, 6)]:
        lab = np.array([w.labels for w in enumerate_weights(n, k)], dtype=np.int64)
        (S, _), peak = traced_peak(lambda: s_matrix(n, k, lab))
        # S and buffers: no conjugate copy for the norm, no N x N index array
        assert peak <= 1.5 * S.nbytes, (n, k)


def test_sun_datum_build_memory_is_bounded():
    datum, peak = traced_peak(lambda: sun_datum.__wrapped__(8, 5))  # uncached
    assert peak <= 1.5 * datum.S.nbytes


def test_one_determinant_per_pair_of_orbits(monkeypatch):
    det = np.linalg.det
    count = 0

    def counting_det(a):
        nonlocal count
        count += int(np.prod(np.shape(a)[:-2]))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    datum = sun_datum.__wrapped__(8, 4)  # uncached build
    assert datum.size == 330
    assert count == 43 * 43


# -- validation from the orbit columns ----------------------------------------

LEVEL_ONE_TABLES = (
    [f"su{m}_1" for m in range(2, 13)] + [f"spin{m}_1" for m in range(3, 21)] + ["e6_1"]
)


def dense_residuals(datum):
    """The four residuals as dense N x N matrices give them: four products."""
    S = datum.S
    eye = np.eye(datum.size)
    s2 = S @ S
    st = S * datum.t_diagonal()[None, :]
    return {
        "unitarity": np.abs(S @ S.conj().T - eye).max(),
        "symmetry": np.abs(S - S.T).max(),
        "s_squared": np.abs(s2 - eye[datum.conj_perm]).max(),
        "modular_relation": np.abs(st @ st @ st - s2).max(),
    }


def assert_residuals_bound_dense(datum):
    for key, value in dense_residuals(datum).items():
        assert datum.residuals[key] >= value, (datum.name, key)
    for key, value in datum.residuals.items():
        assert value <= (MODULAR_TOL if key == "modular_relation" else UNITARITY_TOL)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_THEORIES))
def test_residuals_bound_dense_quantities(pair):
    assert_residuals_bound_dense(sun_datum(*pair))


def test_level_one_residuals_bound_dense_quantities():
    for kind in LEVEL_ONE_TABLES:
        assert_residuals_bound_dense(level_one_datum(kind))


@pytest.mark.parametrize("pair", [(3, 4), (4, 4), (6, 4)])
def test_wrong_sign_with_current_fails_phase_law(pair):
    n, k = pair
    good = sun_datum(n, k)
    colors = np.array([w.color for w in good.labels])
    bad = good.S.copy()
    for i, (rep, a) in enumerate(orbit_positions(good.labels)):
        bad[i] = np.exp(-2j * np.pi * a * colors / n) * good.S[rep]
    with pytest.raises(NumericalIntegrityError, match=r"phase_law residual \d"):
        ModularDatum(
            good.name, good.labels, good.h, good.c_num, good.h_den, bad, good.conj_perm,
            current_perm=good.current_perm,
        )


@pytest.mark.parametrize(
    "swap, message",
    [
        (((1, 0), (0, 1)), r"phase_law residual \d"),  # a conjugate pair: C = JCJ holds
        (((1, 0), (1, 1)), "C = J C J"),
    ],
)
def test_current_that_is_not_simple_is_rejected(swap, message):
    good = sun_datum(3, 4)
    a, b = (good.index[AffineWeight(3, 4, labels)] for labels in swap)
    current = np.arange(good.size)
    current[[a, b]] = b, a
    with pytest.raises(NumericalIntegrityError, match=message):
        ModularDatum(
            good.name, good.labels, good.h, good.c_num, good.h_den, good.S, good.conj_perm,
            current_perm=current,
        )


def test_validate_memory_is_bounded():
    datum = sun_datum(8, 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        datum.validate()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= datum.S.nbytes


def test_validate_orbit_products_reuse_their_buffers():
    datum = sun_datum(8, 5)
    _, peak = traced_peak(datum.validate)
    # N x R blocks (R = 99 orbits): the columns, one product, one temporary
    assert peak <= 0.45 * datum.S.nbytes


def whole_matrix_residuals(S, cur, conj, t):
    """Reference: the elementwise residuals and rho from whole N x N arrays."""
    r = {}
    diff = S[cur]
    diff *= (t[cur[0]] / t[0] * t / t[cur]).conj()
    diff -= S
    r["phase_law"] = np.abs(diff).max()
    np.subtract(S, S.T, out=diff)
    r["symmetry"] = np.abs(diff).max()
    diff = S[conj]
    np.conjugate(diff, out=diff)
    diff -= S
    r["conjugation"] = np.abs(diff).max()
    sq = np.abs(S)
    sq *= sq
    rho = np.sqrt(max(sq.sum(axis=0).max(), sq.sum(axis=1).max()))
    return r, rho


def assert_band_residuals_match_whole_matrix(datum):
    reference = copy.copy(datum)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modular, "_elementwise_residuals", whole_matrix_residuals)
        reference.validate()
    assert datum.residuals.keys() == reference.residuals.keys()
    for key, value in datum.residuals.items():
        assert value == reference.residuals[key], (datum.name, key)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_THEORIES))
def test_band_residuals_match_whole_matrix(pair):
    assert_band_residuals_match_whole_matrix(sun_datum(*pair))


def test_level_one_band_residuals_match_whole_matrix():
    for kind in LEVEL_ONE_TABLES:
        assert_band_residuals_match_whole_matrix(level_one_datum(kind))


@pytest.mark.parametrize("k", [63, 64, 100, 200])  # 64, 65, 101 and 201 labels
def test_band_residuals_match_whole_matrix_across_band_edges(k):
    assert_band_residuals_match_whole_matrix(sun_datum(2, k))


# -- one negative control per validate check ------------------------------------


def symmetric_copy(datum):
    """A copy of `datum` with S exactly symmetric and J the identity."""
    out = copy.copy(datum)
    out.S = (datum.S + datum.S.T) / 2
    out.current_perm = np.arange(datum.size)
    return out


def asymmetry(i, j):
    """S[i, j] and S[j, i] put on a 2^-20 grid, then S[i, j] raised by 2^-10."""

    def mutate(datum):
        datum = symmetric_copy(datum)
        value = np.round(datum.S[j, i].real * 2**20) / 2**20
        datum.S[j, i] = value
        datum.S[i, j] = value + 2.0**-10
        return datum

    return mutate


def conjugation_fault(datum):
    datum = symmetric_copy(datum)
    datum.S[5, 5] += 1e-3j  # S stays symmetric; row 5 alone differs from conj(S[C 5])
    return datum


def phase_law_fault(datum):
    datum = copy.copy(datum)
    image = datum.current_perm[1]  # J applied to a weight that is not the vacuum
    datum.S = datum.S.copy()
    datum.S[image, 1:] += 1e-3
    return datum


def vacuum_sign_fault(datum):
    datum = copy.copy(datum)
    datum.S = datum.S.copy()
    datum.S[0, 3] *= -1
    return datum


def vacuum_weight_fault(datum):
    datum = copy.copy(datum)
    datum.h = datum.h.copy()
    datum.h[0] = 1
    return datum


def conjugation_not_involution(datum):
    datum = copy.copy(datum)
    datum.conj_perm = datum.conj_perm.copy()
    datum.conj_perm[[1, 2, 3]] = 2, 3, 1
    return datum


def current_not_permutation(datum):
    datum = copy.copy(datum)
    datum.current_perm = datum.current_perm.copy()
    datum.current_perm[1] = datum.current_perm[2]
    return datum


# SU(2)_100 has 101 labels: rows 0-63 are the first band, 64-100 the last
VALIDATE_CONTROLS = [
    ("symmetry-first-band", (2, 100), asymmetry(1, 2), r"symmetry residual"),
    ("symmetry-last-band", (2, 100), asymmetry(70, 100), r"symmetry residual"),
    ("symmetry-below-diagonal", (2, 100), asymmetry(90, 3), r"symmetry residual"),
    ("conjugation", (2, 100), conjugation_fault, r"conjugation residual"),
    ("phase-law", (3, 4), phase_law_fault, r"phase_law residual"),
    ("vacuum-row-sign", (3, 4), vacuum_sign_fault, r"vacuum row not positive"),
    ("vacuum-weight", (3, 4), vacuum_weight_fault, r"vacuum weight 1/42 != 0"),
    ("C-involution", (2, 100), conjugation_not_involution, r"not an involution"),
    ("J-permutation", (3, 4), current_not_permutation, r"J is not a permutation"),
]


@pytest.mark.parametrize(
    "pair, mutate, message",
    [row[1:] for row in VALIDATE_CONTROLS],
    ids=[row[0] for row in VALIDATE_CONTROLS],
)
def test_each_validate_check_has_a_negative_control(pair, mutate, message):
    datum = mutate(sun_datum(*pair))
    with pytest.raises(NumericalIntegrityError, match=message):
        datum.validate()
    if message == "symmetry residual":
        assert datum.residuals["symmetry"] == 2.0**-10


def test_oversized_theory_refused_before_enumeration(monkeypatch):
    def never(n, k):
        raise AssertionError(f"enumerate_weights({n}, {k}) called")

    monkeypatch.setattr(modular, "enumerate_weights", never)
    with pytest.raises(ValueError, match="su12_12 has 1,352,078 labels: its "
                       "S-matrix needs 29,249,838,689,344 bytes"):
        sun_datum(12, 12)
    # one byte under what SU(13)_3 needs: 16 * 455^2 = 3,312,400 bytes
    monkeypatch.setattr(modular, "MAX_S_BYTES", 16 * 455**2 - 1)
    with pytest.raises(ValueError, match="su13_3 has 455 labels: its S-matrix "
                       "needs 3,312,400 bytes, over the 3,312,399-byte limit"):
        sun_datum(13, 3)
