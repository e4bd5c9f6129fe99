"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else:
  modular relations 1e-8, other modular-data residuals 1e-9, fusion
  integrality 1e-6, dimension sums 1e-6 (relative), coupling commutators
  1e-8, spectrum S-invariance 1e-8, negative-control residuals must exceed
  1e-3, and every conformal-weight statement is exact rational arithmetic
  with zero tolerance.  The library holds its own checks to fixed constants;
  the residuals it reports are asserted here against these.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from holonet.catalogs import catalog, inclusion_table, mirror_spectrum
from holonet.extensions import (
    LocalityError,
    coupling_matrix,
    find_local_system,
    verify_coupling,
)
from holonet.level_one import level_one_datum
from holonet.level_rank import vacuum_pairing
from holonet.modular import sun_datum
from holonet.products import tensor_product
from holonet.verifier import (
    build_entry,
    perturbation_residuals,
    verify_entry,
)
from holonet.weights import AffineWeight

W = AffineWeight

MODULAR_TOL = 1e-8
UNITARITY_TOL = 1e-9
FUSION_TOL = 1e-6
DIM_TOL = 1e-6
COUPLING_TOL = 1e-8
S_TOL = 1e-8
CONTROL_FLOOR = 1e-3

WZW_LIST = [(2, 10), (10, 2), (9, 3), (8, 4), (4, 8), (3, 9)]
LEVEL_ONE_LIST = ["su2_1", "su3_1", "su5_1", "spin5_1", "spin7_1", "spin20_1", "e6_1"]


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def _all_data():
    data = [sun_datum(*pair) for pair in WZW_LIST]
    data += [level_one_datum(kind) for kind in LEVEL_ONE_LIST]
    return data


def test_criterion_1_modular_data_suite():
    worst_rel = 0.0
    worst_fusion = 0.0
    for datum in _all_data():
        r = datum.validate()
        for key, value in r.items():
            limit = MODULAR_TOL if key == "modular_relation" else UNITARITY_TOL
            assert value <= limit, (datum.name, key, value)
        worst_rel = max(worst_rel, *r.values())
        size = datum.size
        if size <= 60:
            pairs = [(i, j) for i in range(size) for j in range(i, size)]
        else:
            rng = np.random.default_rng(11)
            pairs = list(
                zip(rng.integers(0, size, 150).tolist(),
                    rng.integers(0, size, 150).tolist())
            )
        for i, j in pairs:
            a, b = datum.labels[i], datum.labels[j]
            w = datum.S[i] * datum.S[j] / datum.S[0]
            vec = datum.S.conj() @ w
            coeffs = np.rint(vec.real)
            resid = np.abs(vec - coeffs).max()
            worst_fusion = max(worst_fusion, resid)
            assert resid < FUSION_TOL
            assert coeffs.min() >= 0
        mu_ref = float((datum.d**2).sum())
        assert abs(datum.mu - mu_ref) / mu_ref < DIM_TOL
    assert worst_rel < MODULAR_TOL
    _report(
        1,
        f"13 data sets; worst relation residual {worst_rel:.2e}, "
        f"worst fusion residual {worst_fusion:.2e}",
    )


def test_criterion_2_exact_weights():
    s_family = W(10, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0))
    assert [s_family.simple_current(i).conformal_weight() for i in range(5)] == [
        Fraction(77, 80),
        Fraction(25, 16),
        Fraction(157, 80),
        Fraction(173, 80),
        Fraction(173, 80),
    ]
    vac10 = W(10, 2, (0,) * 9)
    for i in range(10):
        assert vac10.simple_current(i).conformal_weight() == Fraction(
            i * (10 - i), 10
        )
    # order-3 current powers and the twisted family of SU(9)_3; the larger
    # printed representatives match modulo 1 exactly
    assert W(9, 3, (3, 0, 0, 0, 0, 0, 0, 0)).conformal_weight() == Fraction(4, 3)
    assert W(9, 3, (0, 3, 0, 0, 0, 0, 0, 0)).conformal_weight() == Fraction(7, 3)
    x468 = W(9, 3, (0, 0, 0, 1, 0, 1, 0, 1))
    assert x468.conformal_weight() == Fraction(7, 3)
    cat93 = catalog("su9_3")
    assert cat93.h_mod1("j1t1") == Fraction(11, 3) % 1
    assert cat93.h_mod1("j2t1") == Fraction(14, 3) % 1
    for j in range(3):
        assert x468.simple_current(3 * j + 1).conformal_weight() % 1 == Fraction(
            11, 3
        ) % 1
        assert x468.simple_current(3 * j + 2).conformal_weight() % 1 == Fraction(
            14, 3
        ) % 1
    # the (8, 4) catalog weights, mod 1
    cat84 = catalog("su8_4")
    w84 = {
        "j1p0v0": Fraction(7, 4),
        "j0p1v0": Fraction(3, 4),
        "j0p0v1": Fraction(1, 2),
        "j1p1v0": Fraction(5, 2),
        "j1p0v1": Fraction(9, 4),
    }
    for label, value in w84.items():
        assert cat84.h_mod1(label) == value % 1
    # exact appearances of the mod-1 classes in the restriction orbits
    w_part = W(8, 4, (0, 0, 1, 0, 0, 1, 1))
    assert w_part.conformal_weight() == Fraction(7, 4)
    orbit_h = {w_part.simple_current(i).conformal_weight() for i in range(1, 8, 2)}
    assert Fraction(5, 2) in orbit_h
    assert W(8, 4, (0, 0, 1, 0, 1, 0, 0)).simple_current(1).conformal_weight() == (
        Fraction(9, 4)
    )
    _report(2, "every printed conformal weight reproduced as exact rationals")


def test_criterion_3_level_rank():
    for m, n in [(2, 10), (3, 9), (4, 8)]:
        lhs = sun_datum(n, m).mu
        rhs = (n / m) * sun_datum(m, n).mu
        assert abs(lhs - rhs) / lhs < DIM_TOL
    p = vacuum_pairing(2, 10)
    assert p.partner(W(2, 10, (0,))) == W(10, 2, (0,) * 9)
    assert p.partner(W(2, 10, (6,))) == W(10, 2, (0, 0, 1, 0, 0, 0, 1, 0, 0))
    p39 = vacuum_pairing(3, 9)
    partners44 = {
        p39.partner(W(3, 9, (4, 4)).simple_current(i)) for i in range(3)
    }
    x378 = W(9, 3, (0, 0, 1, 0, 0, 0, 1, 1))
    assert partners44 == {x378.simple_current(3 * i) for i in range(3)}
    partners22 = {
        p39.partner(W(3, 9, (2, 2)).simple_current(i)) for i in range(3)
    }
    assert W(9, 3, (0, 0, 0, 1, 0, 1, 0, 1)) in partners22
    # the (4, 8) labels resolve to weights of exact integer conformal weight
    p48 = vacuum_pairing(4, 8)
    v_part = W(8, 4, (0, 0, 0, 1, 1, 0, 1))
    resolved = {p48.partner(W(4, 8, (1, 2, 1)).simple_current(i)) for i in range(4)}
    assert resolved == {v_part.simple_current(2 * i) for i in range(4)}
    for weight in resolved:
        assert weight.conformal_weight() % 1 == 0
    assert v_part.conformal_weight() == 2
    _report(3, "mu ratios within 1e-6; partner tables reproduce the printed weights")


def test_criterion_4_catalog_dimensions():
    expected = {"su10_2": 20, "su9_3": 9, "su8_4": 8}
    for name, mu in expected.items():
        cat = catalog(name)
        total = sum((ir.dim_sq for ir in cat.irreps.values()), Fraction(0))
        assert total == mu == cat.mu_exact
        index_sq = cat.extension_index() ** 2
        rel = abs(index_sq - cat.base.mu / cat.mu) / index_sq
        assert rel < DIM_TOL
    _report(4, "sum dim^2 = 20, 9, 8 exactly; index^2 = mu(base)/mu within 1e-6")


def test_criterion_5_coupling_matrices():
    worst = 0.0
    for key in ("su2_10-spin5_1", "su3_9-e6_1", "su4_8-spin20_1"):
        table = inclusion_table(key)
        z = coupling_matrix(table)
        assert z[0, 0] == 1
        report = verify_coupling(table)
        assert report.passed, [c.name for c in report.failures()]
        residuals = [c.residual for c in report.checks if c.residual is not None]
        assert len(residuals) == 2 and max(residuals) < COUPLING_TOL
        worst = max(worst, *residuals)
    _report(5, f"three inclusions commute with S and T; worst {worst:.2e}")


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_criterion_6_entries(entry):
    report = verify_entry(entry)
    assert [c.name for c in report.checks] == [
        "local-systems",
        "mu-ledger",
        "central-charge",
        "spectrum-reference",
        "integer-weights",
        "s-invariance",
        "multiplicities",
    ]
    assert report.passed, [(c.name, c.details) for c in report.failures()]
    terms = {40: 30, 27: 36, 18: 48}[entry]
    cons = build_entry(entry)
    assert cons.spectrum.total() == terms
    groups = {40: [10], 27: [3, 3], 18: [2, 2, 2]}
    assert cons.systems[0][1].invariant_factors == groups[entry]
    residual = next(c.residual for c in report.checks if c.name == "s-invariance")
    assert residual < S_TOL
    _report(
        f"6 (entry {entry})",
        f"7/7 checks, {terms} terms, S residual {residual:.2e}",
    )


def test_criterion_7_negative_controls():
    floors = []
    for entry in (40, 27, 18):
        floor = perturbation_residuals(build_entry(entry))
        assert floor > CONTROL_FLOOR
        floors.append(floor)
    prod = tensor_product(
        catalog("su10_2"), level_one_datum("su5_1"), level_one_datum("spin7_1")
    )
    bad = ("j1", "y1", "v")
    assert prod.h_mod1(bad) == Fraction(9, 10) + Fraction(2, 5) + Fraction(1, 2) - 1
    with pytest.raises(LocalityError, match="univalence"):
        find_local_system(prod, [bad])
    _report(
        7,
        "all single perturbations break S-invariance "
        f"(min residual {min(floors):.3f}); bad generator rejected exactly",
    )
