import json
import re
import tracemalloc
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

from holonet import verifier
from holonet.catalogs import CatalogError
from holonet.extensions import LocalSystem, find_local_system, simple_current_spectrum
from holonet.level_one import level_one_datum
from holonet.modular import SectorVector, sun_datum
from holonet.products import ProductTheory, tensor_product
from holonet.reporting import report_emit
from holonet.verifier import (
    ENTRY_CONFIGS,
    ConstructionError,
    build_entry,
    perturbation_residuals,
    reference_spectrum,
    restrict_to_base,
    s_invariance_residual,
    verify_all,
    verify_entry,
    wzw_base,
)

EXPECTED_TERMS = {40: 30, 27: 36, 18: 48}
EXPECTED_CHECKS = [
    "local-systems",
    "mu-ledger",
    "central-charge",
    "spectrum-reference",
    "integer-weights",
    "s-invariance",
    "multiplicities",
]


@pytest.fixture(scope="module")
def constructions():
    return {entry: build_entry(entry) for entry in (40, 27, 18)}


@pytest.fixture(scope="module")
def reports():
    return {entry: verify_entry(entry) for entry in (40, 27, 18)}


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_entries_pass_all_seven_checks(entry, reports):
    report = reports[entry]
    assert [c.name for c in report.checks] == EXPECTED_CHECKS
    assert report.passed, [(c.name, c.details) for c in report.failures()]


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_spectrum_sizes_and_multiplicities(entry, constructions):
    cons = constructions[entry]
    spec = cons.spectrum
    assert spec.total() == EXPECTED_TERMS[entry]
    assert set(spec.mult.values()) == {1}
    assert spec.mult[cons.wzw_product.vacuum] == 1
    # closed under label-wise conjugation
    conjugated = spec.conjugate()
    assert conjugated == spec


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_mu_ledger_exact(entry, constructions):
    cons = constructions[entry]
    assert cons.final_mu == 1
    assert cons.mu_ledger[0][1] == {40: 400, 27: 81, 18: 64}[entry]
    assert cons.c_total == 24


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_fixed_point_total_dimension(entry, constructions):
    # S v = v forces sum(v_l d_l) = sqrt(mu of the base product)
    cons = constructions[entry]
    total = cons.spectrum.total_dim()
    expected = np.sqrt(cons.wzw_product.mu)
    assert abs(total - expected) / expected < 1e-6


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_integer_weights_exact(entry, constructions):
    cons = constructions[entry]
    for label in cons.spectrum.mult:
        h = cons.wzw_product.h_exact(label)
        assert h % 1 == 0 and h >= 0


def test_entry40_specific_terms(constructions):
    cons = constructions[40]
    from holonet.weights import AffineWeight

    x36 = AffineWeight(10, 2, (0, 0, 1, 0, 0, 1, 0, 0, 0))
    # h(L3+L6) + h(y4) + 7/16 = 173/80 + 2/5 + 7/16 = 3
    label = (x36, "y4", "s")
    assert cons.spectrum.mult.get(label) == 1
    total = cons.wzw_product.h_exact(label)
    assert total == 3


def test_entry27_specific_terms(constructions):
    cons = constructions[27]
    from holonet.weights import AffineWeight

    jvac = AffineWeight(9, 3, (3, 0, 0, 0, 0, 0, 0, 0))
    label = (jvac, "y1", "y1")
    assert cons.spectrum.mult.get(label) == 1
    assert cons.wzw_product.h_exact(label) == Fraction(4, 3) + Fraction(2, 3)


def test_entry18_generator_relation(constructions):
    # h(z2 z3) = 1/2 + 1/4 + 1/4 = 1, consistent with h(z2) + h(z3) = 2 mod 1
    prod = constructions[18].catalog_product
    z2, z3 = ("j0p1v0", "y0", "y1", "y0"), ("j0p1v1", "y0", "y0", "y1")
    z2z3 = ("j0p0v1", "y0", "y1", "y1")
    assert prod.fuse(z2, z3) == {z2z3: 1}
    pieces = Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 4)
    assert pieces == 1
    assert prod.h_mod1(z2z3) == pieces % 1
    assert prod.h_mod1(z2) == 1 % 1 and prod.h_mod1(z3) == 1 % 1


def test_s_invariance_negative_control_vacuum_vector():
    from holonet.level_one import level_one_datum
    from holonet.modular import SectorVector
    from holonet.products import tensor_product

    su2 = level_one_datum("su2_1")
    prod = tensor_product(su2, su2)
    vac_only = SectorVector(prod, {prod.vacuum: 1})
    assert s_invariance_residual(prod, vac_only) > 1e-3


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_single_multiplicity_perturbations_break_s(entry, constructions):
    assert perturbation_residuals(constructions[entry]) > 1e-3


def per_column_floor(prod, v):
    """Reference for perturbation_residuals: one np.kron column per label."""
    base_residual = prod.apply_s(v) - v
    scale = np.abs(v).max()
    worst = np.inf
    for i, label in enumerate(prod.labels):
        column = reduce(np.kron, [f.S[:, f.index[x]] for f, x in zip(prod.factors, label)])
        column[i] -= 1.0
        worst = min(worst, np.abs(base_residual + column).max() / scale)
        if v[i] >= 1:
            worst = min(worst, np.abs(base_residual - column).max() / scale)
    return float(worst)


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_perturbation_residuals_match_per_column_reference(entry, constructions):
    cons = constructions[entry]
    floor = per_column_floor(cons.wzw_product, cons.spectrum.as_vector())
    assert perturbation_residuals(cons) == floor


@pytest.mark.parametrize("seed", range(4))
def test_perturbation_residuals_random_vectors(seed):
    rng = np.random.default_rng(seed)
    factors = [sun_datum(3, 2), level_one_datum("su2_1"), level_one_datum("su3_1")]
    prod = tensor_product(*factors[: 2 + seed % 2])
    mults = rng.integers(0, 3, size=prod.size)
    mults[0] += 1
    spectrum = SectorVector(prod, dict(zip(prod.labels, mults.tolist())))
    cons = SimpleNamespace(wzw_product=prod, spectrum=spectrum)
    assert perturbation_residuals(cons) == per_column_floor(prod, spectrum.as_vector())


# seeds 40 ... 2706 are the cases of a 3000-seed sweep in which a bound
# that prunes 0.05 too eagerly changes the floor
@pytest.mark.parametrize(
    "seed", [*range(6), 40, 308, 316, 1174, 1200, 1334, 1522, 1770, 2272, 2660, 2706]
)
def test_perturbation_residuals_sparse_spectra(seed):
    rng = np.random.default_rng(seed)
    factors = [
        sun_datum(3, 2), sun_datum(2, 3), level_one_datum("su2_1"), level_one_datum("su3_1")
    ]
    picks = rng.integers(0, len(factors), size=2 + seed % 2)
    prod = tensor_product(*(factors[i] for i in picks))
    mults = rng.integers(1, 3, size=prod.size) * (rng.random(prod.size) < 0.2)
    mults[0] += 1
    spectrum = SectorVector(prod, dict(zip(prod.labels, mults.tolist())))
    cons = SimpleNamespace(wzw_product=prod, spectrum=spectrum)
    assert perturbation_residuals(cons) == per_column_floor(prod, spectrum.as_vector())


@pytest.mark.parametrize("entry", [40, 27, 18])
def test_perturbation_residuals_build_few_blocks(entry, constructions, monkeypatch):
    built = []
    s_block = ProductTheory.s_block
    monkeypatch.setattr(
        ProductTheory, "s_block", lambda self, a: built.append(a) or s_block(self, a)
    )
    perturbation_residuals(constructions[entry])
    assert 1 <= len(built) <= 2


def test_perturbation_residuals_hold_few_blocks(constructions):
    cons = constructions[18]
    prod = cons.wzw_product
    block_bytes = prod.size * (prod.size // prod.shape[0]) * 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        perturbation_residuals(cons)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * block_bytes


def test_reference_spectra_well_formed():
    for entry in (40, 27, 18):
        ref = reference_spectrum(entry)
        assert ref.total() == EXPECTED_TERMS[entry]
        assert set(ref.mult.values()) == {1}


def test_alternative_generators_entry27():
    # the swapped generator pair gives the same list up to the outer
    # automorphism (conjugation) of the last level-1 factor
    std = build_entry(27)
    prod, wzw = std.catalog_product, wzw_base(27)
    system = find_local_system(prod, [("j1t0", "y1", "y2"), ("j0t1", "y1", "y1")])
    alt = restrict_to_base(prod, simple_current_spectrum(system), wzw)
    assert alt != std.spectrum
    last = wzw.factors[-1]
    relabeled = SectorVector(
        wzw, {label[:-1] + (last.conj(label[-1]),): m for label, m in alt.mult.items()}
    )
    assert relabeled == std.spectrum


def test_unknown_entry():
    with pytest.raises(CatalogError, match="unknown entry"):
        verify_entry(99)
    with pytest.raises(CatalogError):
        build_entry("nope")


def test_verify_all(reports):
    all_reports = verify_all()
    assert [r.subject for r in all_reports] == ["entry-18", "entry-27", "entry-40"]
    assert all(r.passed for r in all_reports)


def test_report_emit_formats(reports):
    report = reports[27]
    as_json = report_emit(report, "json", reproducible=True)
    payload = json.loads(as_json)
    assert payload["subject"] == "entry-27"
    assert len(payload["checks"]) == 7
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert "generated" not in payload
    # deterministic under --reproducible
    assert as_json == report_emit(report, "json", reproducible=True)
    stamped = json.loads(report_emit(report, "json"))
    assert "generated" in stamped

    text = report_emit(report, "text", reproducible=True)
    assert "entry-27: PASS" in text
    csv_text = report_emit(report, "csv")
    assert csv_text.count("\n") == 8  # header + 7 checks
    lists = report_emit([reports[40], reports[27]], "json", reproducible=True)
    assert isinstance(json.loads(lists), list)


def test_verifier_reports_failure_on_broken_generator(monkeypatch):
    import holonet.verifier as v

    broken = {**v.ENTRY_CONFIGS[27], "generators": [("j1t0", "y1", "y0"),
                                                    ("j0t1", "y1", "y2")]}
    monkeypatch.setitem(v.ENTRY_CONFIGS, 27, broken)
    report = v.verify_entry(27)
    assert not report.passed
    assert report.checks[0].name == "local-systems"
    assert "univalence" in report.checks[0].details


def test_mismatched_group_is_reported(monkeypatch):
    import holonet.verifier as v

    broken = {**v.ENTRY_CONFIGS[18], "group": [4, 2]}
    monkeypatch.setitem(v.ENTRY_CONFIGS, 18, broken)
    report = v.verify_entry(18)
    assert not report.passed
    assert "expected Z4 x Z2" in report.checks[0].details


def test_wzw_base_shapes():
    assert wzw_base(40).shape == (55, 5, 3)
    assert wzw_base(27).shape == (165, 3, 3)
    assert wzw_base(18).shape == (330, 2, 2, 2)


@pytest.mark.parametrize(
    "role, label, witness",
    [
        ("twisted", ("j0", "y0", "s"), "not local with ('j1', 'y2', 'v')"),
        ("twisted", ("j0", "y0", "v"), "<a,a> = 1 != 2"),
        ("plain", ("s0", "y3", "s"), "not irreducible"),
        ("plain", ("j0", "y0", "1"), "Z4 alternative not excluded"),
    ],
)
def test_stage_two_rejects_bad_sectors(monkeypatch, role, label, witness):
    import holonet.verifier as v

    stage = {**v.ENTRY_CONFIGS[40]["second_stage"], role: label}
    monkeypatch.setitem(v.ENTRY_CONFIGS[40], "second_stage", stage)
    with pytest.raises(ConstructionError, match=re.escape(witness)):
        build_entry(40)


TWISTED = ("s0", "y3", "s")


@pytest.mark.parametrize(
    "cls, name, patch, witness",
    [
        pytest.param(
            ProductTheory, "mu_exact",
            lambda real: property(lambda self: 2 * real.fget(self)),
            "intermediate mu 8 != 4",
            id="intermediate-mu",
        ),
        pytest.param(
            ProductTheory, "h_mod1",
            lambda real: lambda self, x: Fraction(1, 3) if x == TWISTED else real(self, x),
            "stage-2 group inconsistent: h(d1^2) = 0 != 2^2 h(d1) = 1/3",
            id="klein",
        ),
        pytest.param(
            ProductTheory, "dim",
            lambda real: lambda self, x: 2 * real(self, x) if x == TWISTED else real(self, x),
            "sector dimensions (2.000000000, 1.000000000) are not 1",
            id="sector-dimensions",
        ),
        pytest.param(
            LocalSystem, "orbit",
            lambda real: lambda self, x: real(self, x)[:-1],
            "has size 4, inconsistent with <a,a> = 2",
            id="orbit-size",
        ),
    ],
)
def test_stage_two_checks_on_patched_theory(monkeypatch, cls, name, patch, witness):
    monkeypatch.setattr(cls, name, patch(vars(cls)[name]))
    with pytest.raises(ConstructionError, match=re.escape(witness)):
        build_entry(40)


def _patched(owner, name, change):
    """A step replacing owner.name by change(its current value)."""
    return lambda mp: mp.setattr(owner, name, change(vars(owner)[name]))


def _restricted(change):
    """A step passing every restriction to the WZW base through `change`."""
    return _patched(verifier, "restrict_to_base", lambda real: lambda *a: change(real(*a)))


# check -> (break entry 27 for it, expected witness)
VERIFIER_CONTROLS = {
    "mu-ledger": (
        _patched(ProductTheory, "mu_exact",
                 lambda real: property(lambda self: 2 * real.fget(self))),
        "mu(base) = 9*3*3 = 162; / 9^2 -> 2",
    ),
    "central-charge": (
        _patched(ProductTheory, "c", lambda real: property(lambda self: real.fget(self) + 1)),
        "c = 25",
    ),
    "spectrum-reference": (
        lambda mp: mp.setitem(ENTRY_CONFIGS[27], "terms", 35),
        "36 terms",
    ),
    "s-invariance": (
        _restricted(lambda spec: SectorVector(spec.theory, spec.items()[:-1])), "",
    ),
    "multiplicities": (
        _restricted(lambda spec: spec.add(spec.theory.vacuum)), "vacuum multiplicity 2",
    ),
}


@pytest.mark.parametrize("check", sorted(VERIFIER_CONTROLS))
def test_verifier_check_negative_controls(check, monkeypatch):
    """Each named verifier check fails on entry 27 broken for it."""
    breaker, witness = VERIFIER_CONTROLS[check]
    breaker(monkeypatch)
    checks = {c.name: c for c in verify_entry(27).checks}
    assert not checks[check].passed
    assert checks[check].details == witness
    if check == "s-invariance":
        assert checks[check].residual > 1e-3
