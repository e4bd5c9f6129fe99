import copy
import json
from fractions import Fraction

import numpy as np
import pytest

from holonet.catalogs import (
    CatalogError,
    catalog,
    data_dir,
    inclusion_table,
    mirror_mu,
    mirror_spectrum,
    verify_catalog,
)
from holonet.level_rank import vacuum_pairing
from holonet.modular import SectorVector, sun_datum
from holonet.products import UnsupportedFusionError
from holonet.weights import AffineWeight

W = AffineWeight


@pytest.mark.parametrize("name", ["su10_2", "su9_3", "su8_4"])
def test_catalog_full_verification(name, catalogs):
    report = verify_catalog(catalogs[name])
    assert report.passed, [(c.name, c.details) for c in report.failures()]


def test_global_dimensions_exact(catalogs):
    assert sum(ir.dim_sq for ir in catalogs["su10_2"].irreps.values()) == 20
    assert sum(ir.dim_sq for ir in catalogs["su9_3"].irreps.values()) == 9
    assert sum(ir.dim_sq for ir in catalogs["su8_4"].irreps.values()) == 8
    assert catalogs["su10_2"].mu_exact == 20


def test_su10_2_structure(catalogs):
    cat = catalogs["su10_2"]
    assert len(cat.labels) == 15
    assert cat.vacuum == "j0"
    assert cat.h_mod1("s0") == Fraction(77, 80)
    assert cat.h_mod1("s1") == Fraction(25, 16) % 1
    assert cat.h_mod1("s2") == Fraction(157, 80) % 1
    assert cat.h_mod1("s3") == Fraction(173, 80) % 1
    assert cat.h_mod1("s4") == cat.h_mod1("s3")
    for i in range(10):
        assert cat.h_mod1(f"j{i}") == Fraction(i * (10 - i), 10) % 1
    # printed relations: conj(s) = j2 s, j5 s = s, s sbar = 1 + j5
    assert cat.conj("s0") == "s2"
    assert cat.fuse("j5", "s0") == {"s0": 1}
    assert cat.fuse("s0", "s2") == {"j0": 1, "j5": 1}
    assert cat.dim_sq_of("s0") == 2
    assert abs(cat.extension_index() - 4.7320508) < 1e-7
    # restriction of the vacuum = extension spectrum, index matches base mu
    assert abs(cat.extension_index() ** 2 - cat.base.mu / 20.0) < 1e-9


def test_su9_3_structure(catalogs):
    cat = catalogs["su9_3"]
    assert len(cat.labels) == 9
    assert all(ir.automorphism for ir in cat.irreps.values())
    assert cat.h_mod1("j1t0") == Fraction(4, 3) % 1
    assert cat.h_mod1("j0t1") == Fraction(7, 3) % 1
    assert cat.h_mod1("j1t1") == Fraction(11, 3) % 1
    assert cat.h_mod1("j2t1") == Fraction(14, 3) % 1
    assert cat.fuse("j0t1", "j0t1") == {"j0t2": 1}
    assert cat.conj("j0t1") == "j0t2"
    # restriction of a twisted irrep: one current family of color-0 weights
    rest = cat.restriction("j0t1")
    assert rest.total() == 3
    assert all(w.color == 0 for w in rest.mult)


def test_su8_4_structure(catalogs):
    cat = catalogs["su8_4"]
    assert len(cat.labels) == 8
    assert cat.h_mod1("j1p0v0") == Fraction(7, 4) % 1
    assert cat.h_mod1("j0p1v0") == Fraction(3, 4)
    assert cat.h_mod1("j0p0v1") == Fraction(1, 2)
    assert cat.h_mod1("j1p1v0") == Fraction(5, 2) % 1
    assert cat.h_mod1("j1p0v1") == Fraction(9, 4) % 1
    # printed relation [(1/2)(3/4)_1] = [(3/4)_2], self-conjugacy
    assert cat.fuse("j0p0v1", "j0p1v0") == {"j0p1v1": 1}
    assert cat.conj("j0p1v0") == "j0p1v0"
    rest = cat.restriction("j0p0v1")
    assert rest.total() == 8
    assert {w.conformal_weight() % 1 for w in rest.mult} == {Fraction(1, 2)}


def test_restriction_weight_values(catalogs):
    # h-uniformity with the exact printed values on the sigma family
    cat = catalogs["su10_2"]
    rest = cat.restriction("s0")
    values = sorted(w.conformal_weight() for w in rest.mult)
    assert values == [Fraction(77, 80), Fraction(157, 80)]


def test_mirror_mu_values(catalogs, wzw_data):
    for name, (m, n, amb_mu) in {
        "su10_2": (2, 10, 4.0),
        "su9_3": (3, 9, 3.0),
        "su8_4": (4, 8, 4.0),
    }.items():
        got = mirror_mu(amb_mu, wzw_data[(m, n)].mu, wzw_data[(n, m)].mu)
        assert abs(got - catalogs[name].mu) / catalogs[name].mu < 1e-6


def test_mirror_spectrum_examples(inclusions, catalogs):
    # transported vacuum rows equal the catalogs' extension spectra
    for name, (key, m, n) in {
        "su10_2": ("su2_10-spin5_1", 2, 10),
        "su9_3": ("su3_9-e6_1", 3, 9),
        "su8_4": ("su4_8-spin20_1", 4, 8),
    }.items():
        vac_row = inclusions[key].rows["1"]
        mirrored = mirror_spectrum(vac_row, vacuum_pairing(m, n))
        assert mirrored == catalogs[name].extension_spectrum()


def test_mirror_spectrum_identity():
    base = sun_datum(2, 10)
    vac_only = SectorVector(base, {W(2, 10, (0,)): 1})
    out = mirror_spectrum(vac_only, vacuum_pairing(2, 10))
    assert out.mult == {W(10, 2, (0,) * 9): 1}


def test_mirror_spectrum_preconditions():
    base = sun_datum(2, 10)
    pairing = vacuum_pairing(2, 10)
    odd = SectorVector(base, {W(2, 10, (3,)): 1})
    with pytest.raises(ValueError, match="outside the pairing domain"):
        mirror_spectrum(odd, pairing)
    base39 = sun_datum(3, 9)
    lopsided = SectorVector(base39, {W(3, 9, (9, 0)): 1})
    with pytest.raises(ValueError, match="conjugation"):
        mirror_spectrum(lopsided, vacuum_pairing(3, 9))


def test_mirror_preserves_multiplicity_and_conjugation(inclusions):
    vac_row = inclusions["su3_9-e6_1"].rows["1"]
    mirrored = mirror_spectrum(vac_row, vacuum_pairing(3, 9))
    assert mirrored.total() == vac_row.total()
    assert mirrored.conjugate() == mirrored


def test_catalog_fusion_refusals(catalogs):
    cat = catalogs["su10_2"]
    with pytest.raises(UnsupportedFusionError):
        cat.fuse("s0", "s1")  # not a stored row


def test_unknown_catalog():
    with pytest.raises(CatalogError, match="unknown catalog"):
        catalog("su6_6")


def test_corrupted_catalog_rejected(tmp_path, monkeypatch):
    import shutil

    with open(f"{data_dir()}/su9_3.json") as fh:
        src = json.load(fh)
    # breaking one restriction weight must trip the verifier on load
    assert src["irreps"][0]["label"] == "j0t0"
    src["irreps"][0]["restriction"][0][0] = [3, 0, 0, 0, 0, 0, 0, 0]
    (tmp_path / "su9_3.json").write_text(json.dumps(src))
    shutil.copy(f"{data_dir()}/inclusions.json", tmp_path / "inclusions.json")
    monkeypatch.setenv("HOLONET_CATALOG_DIR", str(tmp_path))
    with pytest.raises(CatalogError):
        catalog("su9_3")


def test_catalog_dir_change_after_load(tmp_path, monkeypatch):
    cat, inc = catalog("su10_2"), inclusion_table("su3_9-e6_1")
    with open(f"{data_dir()}/su10_2.json") as fh:
        broken = json.load(fh)
    broken["mu"] = "10"
    (tmp_path / "su10_2.json").write_text(json.dumps(broken))
    with open(f"{data_dir()}/inclusions.json") as fh:
        inclusions = json.load(fh)
    del inclusions["su3_9-e6_1"]
    (tmp_path / "inclusions.json").write_text(json.dumps(inclusions))
    monkeypatch.setenv("HOLONET_CATALOG_DIR", str(tmp_path))
    with pytest.raises(CatalogError, match="fails invariants"):
        catalog("su10_2")
    with pytest.raises(CatalogError, match="unknown inclusion"):
        inclusion_table("su3_9-e6_1")
    monkeypatch.delenv("HOLONET_CATALOG_DIR")
    assert catalog("su10_2") is cat
    assert inclusion_table("su3_9-e6_1") is inc


def test_automorphism_closure_fails_with_witness(catalogs):
    cat = copy.copy(catalogs["su10_2"])
    cat._fusion = dict(cat._fusion)
    cat._fusion[("j1", "j2")] = cat._fusion[("j2", "j1")] = {"s0": 1}
    checks = {c.name: c for c in verify_catalog(cat).checks}
    assert checks["automorphism-closure"].details == (
        "j1 x j2 = {'s0': 1}, not one automorphism"
    )
    assert not checks["quadratic-form"].passed
    assert checks["quadratic-form"].details == "needs a closed group"


def _raise_term(cat, label, weight):
    """Give irrep `label` of `cat` one more copy of the base weight `weight`."""
    ir = copy.copy(cat.irreps[label])
    ir.restriction = ir.restriction + SectorVector(cat.base, {weight: 1})
    cat.irreps[label] = ir


def _shift_h_code(cat, label):
    ir = copy.copy(cat.irreps[label])
    ir.h_code += 1
    cat.irreps[label] = ir


def _extra_mirror_term(cat, monkeypatch, tmp_path):
    with open(f"{data_dir()}/inclusions.json") as fh:
        inclusions = json.load(fh)
    inclusions["su2_10-spin5_1"]["rows"]["1"].append([[2], 1])
    (tmp_path / "inclusions.json").write_text(json.dumps(inclusions))
    monkeypatch.setenv("HOLONET_CATALOG_DIR", str(tmp_path))


# check -> (break the su10_2 copy, expected witness, expected residual)
CATALOG_CONTROLS = {
    "global-dimension": (
        lambda cat, mp, tmp: setattr(cat, "mu_exact", Fraction(21)),
        "sum dim^2 = 20, mu = 21", None,
    ),
    "index-squared": (
        lambda cat, mp, tmp: setattr(cat, "mu", 21.0), "index = 4.7320508", 1 / 21,
    ),
    "vacuum-restriction": (
        lambda cat, mp, tmp: _raise_term(cat, "j0", cat.base.vacuum),
        "spectrum 2*[0,0,0,0,0,0,0,0,0] + [0,0,1,0,0,0,1,0,0]", None,
    ),
    "restriction-dimensions": (
        lambda cat, mp, tmp: _raise_term(cat, "s1", W(10, 2, (1, 0, 0, 1, 0, 0, 0, 0, 0))),
        "", 0.5,
    ),
    "fusion-dimensions": (
        lambda cat, mp, tmp: cat._fusion.update({("s0", "s2"): {"j0": 2, "j5": 1}}),
        "", 0.5,
    ),
    "quadratic-form": (
        lambda cat, mp, tmp: _shift_h_code(cat, "j1"),
        "h(j1^2) = 3/5 != 2^2 h(j1) = 13/20", None,
    ),
    "conjugation": (
        lambda cat, mp, tmp: cat._conj.pop("s1"), "conjugate of s1 missing", None,
    ),
    "mirror-mu": (
        lambda cat, mp, tmp: mp.setattr(
            "holonet.catalogs.mirror_mu", lambda *args: 2 * mirror_mu(*args)
        ),
        "", 1.0,
    ),
    "mirror-index": (_extra_mirror_term, "", 3 ** -0.5),
}


@pytest.mark.parametrize("check", sorted(CATALOG_CONTROLS))
def test_catalog_check_negative_controls(check, catalogs, monkeypatch, tmp_path):
    """Each named catalog check fails on a su10_2 copy broken for it."""
    cat = copy.copy(catalogs["su10_2"])
    cat.irreps, cat._fusion, cat._conj = dict(cat.irreps), dict(cat._fusion), dict(cat._conj)
    breaker, witness, residual = CATALOG_CONTROLS[check]
    breaker(cat, monkeypatch, tmp_path)
    checks = {c.name: c for c in verify_catalog(cat).checks}
    assert not checks[check].passed
    assert witness in checks[check].details
    if residual is None:
        assert checks[check].residual is None
    else:
        assert checks[check].residual == pytest.approx(residual, rel=1e-9)
    if check == "mirror-index":
        assert not checks["mirror-spectrum"].passed
