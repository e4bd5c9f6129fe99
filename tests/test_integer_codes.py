"""Conformal weights as integer codes over one denominator per theory.

Property tests of the SU(n)_k numerators, a negative control for each
integer-congruence check (pinned to its witness text), a guard that the
exact paths (the level-rank pairings among them) build no Fraction, and
the T phase reduction.
"""

import json
import os
import shutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_modular import SMALL_THEORIES, levels_up_to

import holonet.verifier as verifier
from holonet.catalogs import (
    CATALOG_INCLUSIONS,
    CatalogError,
    _parse_catalog,
    _reading,
    catalog,
    data_dir,
    verify_catalog,
)
from holonet.extensions import (
    BranchingTable,
    LocalityError,
    congruent_mod1,
    find_local_system,
    quadratic_form_consistency,
    verify_coupling,
)
from holonet.level_one import level_one_datum
from holonet.level_rank import vacuum_pairing
from holonet.modular import SectorVector, sun_datum
from holonet.products import tensor_product
from holonet.weights import AffineWeight, enumerate_weights, h_numerators

W = AffineWeight


def reference_weight(w):
    """h = (|x|^2 + (x, 2 rho)) / 2(k+n) in orthonormal coordinates x_i =
    p_i - |p|/n of the partition p, where 2 rho = (n+1-2i)_i."""
    n, p = w.n, w.partition
    x = [Fraction(pi) - Fraction(sum(p), n) for pi in p]
    casimir = sum(xi * xi + xi * (n + 1 - 2 * i) for i, xi in enumerate(x, start=1))
    return casimir / (2 * (w.k + n))


# -- properties over (n, k) ---------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_THEORIES))
def test_numerators_are_the_conformal_weights(pair):
    n, k = pair
    datum = sun_datum(n, k)
    assert datum.h_den == 2 * n * (k + n)
    for w, num in zip(datum.labels, datum.h):
        h = Fraction(int(num), datum.h_den)
        assert h == w.conformal_weight() == reference_weight(w)
        assert datum.h_code(w) == num % datum.h_den


def matrix_h_numerators(lab, n):
    """Reference: lambda M lambda^T + n sum_j j(n-j) lambda_j, with M_ij =
    min(i, j)(n - max(i, j)) n times the inverse Cartan matrix; O(n^2) per weight."""
    j = np.arange(1, n)
    M = np.minimum.outer(j, j) * (n - np.maximum.outer(j, j))
    return ((lab @ M) * lab).sum(axis=1) + lab @ (n * j * (n - j))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_THEORIES))
def test_numerators_match_the_matrix_formula(pair):
    n, k = pair
    lab = np.array([w.labels for w in enumerate_weights(n, k)], dtype=np.int64)
    assert np.array_equal(h_numerators(lab, n), matrix_h_numerators(lab, n))


def test_numerators_match_the_matrix_formula_at_rank_499():
    # the shape of the SU(499)_2 partner array of vacuum_pairing(2, 499)
    lab = np.random.default_rng(499).integers(0, 3, size=(250, 498))
    assert np.array_equal(h_numerators(lab, 499), matrix_h_numerators(lab, 499))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_THEORIES))
def test_conj_perm_is_the_conjugate_weight(pair):
    datum = sun_datum(*pair)
    assert list(datum.conj_perm) == [datum.index[w.conjugate()] for w in datum.labels]


PAIRINGS = [(m, n) for m in range(2, 9) for n in levels_up_to(m, 500) if n >= 2]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(PAIRINGS))
def test_level_rank_partners_have_opposite_weights(pair):
    m, n = pair
    table = vacuum_pairing(m, n)
    domain = table.domain
    lab = np.array([w.labels for w in domain])
    partners = np.array([table.partner(w).labels for w in domain])
    codes = h_numerators(lab, m)
    partner_codes = h_numerators(partners, n)
    den, partner_den = 2 * m * (n + m), 2 * n * (m + n)
    for a, b in zip(codes, partner_codes):
        assert congruent_mod1(int(a), den, -int(b), partner_den)


def test_t_phase_reduced_before_exp():
    # h reaches 64.75 here; unreduced phases gave a phase_law residual of 1.4e-14
    assert sun_datum(2, 259).residuals["phase_law"] <= 1e-15


# -- negative controls of the congruences, with their witness text ----------


def test_generator_pair_monodromy_control():
    su2 = level_one_datum("su2_1")
    prod = tensor_product(catalog("su8_4"), su2, su2, su2)
    gens = [("j0p0v1", "y0", "y1", "y1"), ("j0p0v1", "y1", "y0", "y1")]
    assert all(prod.h_code(g) == 0 for g in gens)
    with pytest.raises(LocalityError) as err:
        find_local_system(prod, gens)
    assert str(err.value) == (
        "generators (('j0p0v1', 'y0', 'y1', 'y1'), ('j0p0v1', 'y1', 'y0', 'y1')) "
        "have nontrivial monodromy: h(('j0p0v0', 'y1', 'y1', 'y0')) = 1/2 "
        "!= 0 + 0 (mod 1)"
    )


def test_restriction_weights_control(tmp_path, monkeypatch):
    with open(os.path.join(data_dir(), "su10_2.json")) as fh:
        payload = json.load(fh)
    (s0,) = [rec for rec in payload["irreps"] if rec["label"] == "s0"]
    s0["h_mod1"] = "17/80"  # tabulated 77/80
    (tmp_path / "su10_2.json").write_text(json.dumps(payload))
    shutil.copy(os.path.join(data_dir(), "inclusions.json"), tmp_path)
    monkeypatch.setenv("HOLONET_CATALOG_DIR", str(tmp_path))
    with pytest.raises(CatalogError, match="fails invariants: restriction-weights$"):
        catalog("su10_2")
    with _reading("su10_2.json") as parsed:
        report = verify_catalog(_parse_catalog(parsed))
    (failure,) = report.failures()
    assert failure.name == "restriction-weights"
    assert failure.details == (
        "s0: component 0,0,0,0,1,0,0,1,0 has h = 157/80 != 17/80 (mod 1)"
    )


def test_integer_weights_control(monkeypatch):
    restrict = verifier.restrict_to_base
    stray = (W(10, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0)), "y1", "s")

    def with_stray_term(prod, spec, wzw):
        return restrict(prod, spec, wzw).add(stray, 1)

    monkeypatch.setattr(verifier, "restrict_to_base", with_stray_term)
    report = verifier.verify_entry(40)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["integer-weights"].passed
    assert by_name["integer-weights"].details == (
        "non-integer h at (AffineWeight(n=10, k=2, labels=(0, 0, 1, 0, 0, 0, 0, 0, 0)), "
        "'y1', 's')"
    )


def test_weight_congruence_control(inclusions):
    good = inclusions["su2_10-spin5_1"]
    broken = SectorVector(good.base, {W(2, 10, (4,)): 1, W(2, 10, (8,)): 1})
    bad = BranchingTable("broken", good.ambient, good.base, {**good.rows, "v": broken})
    by_name = {c.name: c for c in verify_coupling(bad).checks}
    assert not by_name["weight-congruence"].passed
    assert by_name["weight-congruence"].details == "h(8) = 2/3 != 1/2 = h(v) (mod 1)"


# -- no Fraction on the exact paths -------------------------------------------


def fractions_built(monkeypatch, call):
    """Run `call` and count the Fraction objects built meanwhile."""
    count = 0
    make = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return make(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting_new))
        call()
    return count


def test_fraction_counter_sees_arithmetic(monkeypatch):
    assert fractions_built(monkeypatch, lambda: Fraction(1, 2) + Fraction(1, 3)) == 3


def test_exact_paths_build_no_fraction(monkeypatch):
    assert fractions_built(monkeypatch, lambda: sun_datum.__wrapped__(8, 5)) == 0
    for entry, cfg in verifier.ENTRY_CONFIGS.items():
        prod = tensor_product(
            catalog(cfg["catalog"]), *map(level_one_datum, cfg["level_one"])
        )
        gens = [tuple(g) for g in cfg["generators"]]
        assert fractions_built(monkeypatch, lambda: find_local_system(prod, gens)) == 0
        cat = catalog(cfg["catalog"])
        auts = cat.automorphism_labels()
        h_map = {a: cat.h_mod1(a) for a in auts}
        mul = {(a, b): next(iter(cat.fuse(a, b))) for a in auts for b in auts}
        count = fractions_built(
            monkeypatch, lambda: quadratic_form_consistency(h_map, mul)
        )
        assert count == 0, entry
        m, n, _ = CATALOG_INCLUSIONS[cfg["catalog"]]
        assert fractions_built(monkeypatch, lambda: vacuum_pairing(m, n)) == 0, (m, n)
