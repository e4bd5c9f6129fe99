"""Bundled extension catalogs and mirror-extension spectra.

A catalog records the representation theory of a finite-index extension at
data level: irreducibles with squared dimensions, exact h mod 1,
restrictions to the base SU(n)_k theory, and the stored fusion rows (the
full automorphism group plus the conjugate pairs of the dimension-sqrt(2)
family).  Catalogs answer the theory members of ModularDatum, but with
S = None and h_exact None (only h mod 1 is tabulated); S-dependent
operations refuse them.
"""

import json
import os
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, wraps
from importlib import resources

from .extensions import BranchingTable, quadratic_form_consistency
from .level_one import level_one_datum
from .level_rank import vacuum_pairing
from .modular import SectorVector, sun_datum
from .products import UnsupportedFusionError
from .reporting import VerificationReport
from .weights import AffineWeight

DIM_TOL = 1e-6


class CatalogError(RuntimeError):
    """Unknown catalog, or a catalog failing its own invariants on load."""


# catalog name -> (m, n, inclusion key) of the source conformal inclusion:
# the catalog of SU(n)_m is the mirror of the inclusion SU(m)_n in ambient.
CATALOG_INCLUSIONS = {
    "su10_2": (2, 10, "su2_10-spin5_1"),
    "su9_3": (3, 9, "su3_9-e6_1"),
    "su8_4": (4, 8, "su4_8-spin20_1"),
}


def data_dir():
    """Directory holding the bundled JSON data; HOLONET_CATALOG_DIR wins."""
    override = os.environ.get("HOLONET_CATALOG_DIR")
    if override:
        return override
    return str(resources.files("holonet").joinpath("data"))


@contextmanager
def _reading(fname):
    """Yield the parsed JSON of a data file.  Bad data met while the block
    reads it, a missing key or an out-of-range value, raises CatalogError
    naming the file and the key or value."""
    path = os.path.join(data_dir(), fname)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise CatalogError(f"missing data file {path}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed data file {path}: {exc}") from exc
    try:
        yield payload
    except KeyError as exc:
        raise CatalogError(f"data file {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"bad data file {path}: {exc}") from exc


class CatalogIrrep:
    def __init__(self, label, dim_sq, h_mod1, automorphism, restriction):
        self.label = label
        self.dim_sq = Fraction(dim_sq)
        self.h_mod1 = Fraction(h_mod1) % 1
        self.automorphism = bool(automorphism)
        self.restriction = restriction

    @property
    def dim(self):
        return float(self.dim_sq) ** 0.5


class ExtensionCatalog:
    """Data-level representation theory of one finite-index extension."""

    def __init__(self, name, base, mu, index_sq, irreps, fusion_rows):
        self.key = name
        self.name = f"ext({name})"
        self.base = base
        self.mu_exact = Fraction(mu)
        self.mu = float(self.mu_exact)
        self.index_sq = float(index_sq)
        self.irreps = {ir.label: ir for ir in irreps}
        self.labels = [ir.label for ir in irreps]
        self.index = {label: i for i, label in enumerate(self.labels)}
        self._fusion = {}
        for row in fusion_rows:
            a, b, c, mult = row
            for label in (a, b, c):
                if label not in self.irreps:
                    raise ValueError(
                        f"fusion row {row} names unknown irrep {label!r}"
                    )
            self._fusion.setdefault((a, b), {})[c] = int(mult)
            if a != b:
                self._fusion.setdefault((b, a), {})[c] = int(mult)
        self._conj = {}
        vac = self.vacuum
        for (a, b), row in self._fusion.items():
            if row.get(vac) == 1:
                self._conj[a] = b
        self.c = base.c
        self.S = None

    # -- theory interface ---------------------------------------------------

    @property
    def vacuum(self):
        for ir in self.irreps.values():
            if ir.automorphism and ir.h_mod1 == 0 and self._restricts_to_vacuum(ir):
                return ir.label
        raise CatalogError(f"{self.key}: no irrep restricts to the base vacuum")

    def _restricts_to_vacuum(self, ir):
        return any(weight == self.base.vacuum for weight, _ in ir.restriction)

    @property
    def size(self):
        return len(self.labels)

    def h_mod1(self, label):
        return self.irreps[label].h_mod1

    def h_exact(self, label):
        """None: a catalog tabulates h mod 1 only."""
        return None

    def dim(self, label):
        return self.irreps[label].dim

    def dim_sq_of(self, label):
        return self.irreps[label].dim_sq

    def fuse(self, a, b):
        try:
            return dict(self._fusion[(a, b)])
        except KeyError:
            raise UnsupportedFusionError(
                f"{self.name}: fusion ({a!r}, {b!r}) not in the stored table"
            ) from None

    def conj(self, label):
        try:
            return self._conj[label]
        except KeyError:
            raise UnsupportedFusionError(
                f"{self.name}: conjugate of {label!r} not determined"
            ) from None

    def restriction(self, label):
        """Restriction of a catalog irrep as a SectorVector over the base."""
        out = SectorVector(self.base)
        for weight, mult in self.irreps[label].restriction:
            out.add(weight, mult)
        return out

    def automorphism_labels(self):
        return [l for l in self.labels if self.irreps[l].automorphism]

    def extension_spectrum(self):
        return self.restriction(self.vacuum)

    def extension_index(self):
        return self.extension_spectrum().total_dim()

    def __repr__(self):
        return f"ExtensionCatalog({self.name}, {self.size} irreps)"


def _parse_catalog(payload):
    base = sun_datum(payload["base"]["rank"], payload["base"]["level"])
    n, k = payload["base"]["rank"], payload["base"]["level"]
    irreps = []
    for rec in payload["irreps"]:
        restriction = [
            (AffineWeight(n, k, tuple(labels)), int(mult))
            for labels, mult in rec["restriction"]
        ]
        irreps.append(
            CatalogIrrep(
                rec["label"],
                rec["dim_sq"],
                rec["h_mod1"],
                rec["automorphism"],
                restriction,
            )
        )
    return ExtensionCatalog(
        payload["name"], base, payload["mu"], payload["index_sq"],
        irreps, payload["fusion"],
    )


def _cached_per_data_dir(load):
    """Cache `load(key)` per key and data_dir(), read at each call, so a
    change of HOLONET_CATALOG_DIR after the first load is honoured; the
    wrapper exposes `cache_clear` and `cache_info` as `lru_cache` does."""
    cached = lru_cache(maxsize=None)(lambda key, directory: load(key))

    @wraps(load)
    def call(key):
        return cached(key, data_dir())

    call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
    return call


@_cached_per_data_dir
def catalog(name):
    """Load a bundled catalog by name and check its basic invariants."""
    if name not in CATALOG_INCLUSIONS:
        raise CatalogError(
            f"unknown catalog {name!r}; have {sorted(CATALOG_INCLUSIONS)}"
        )
    with _reading(f"{name}.json") as payload:
        cat = _parse_catalog(payload)
    report = verify_catalog(cat)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise CatalogError(f"catalog {name} fails invariants: {names}")
    return cat


@_cached_per_data_dir
def inclusion_table(key):
    """A bundled conformal-inclusion branching as a BranchingTable."""
    with _reading("inclusions.json") as payload:
        if key not in payload:
            raise CatalogError(f"unknown inclusion {key!r}; have {sorted(payload)}")
        rec = payload[key]
        ambient = level_one_datum(rec["ambient"])
        base = sun_datum(rec["base"]["rank"], rec["base"]["level"])
        n, k = rec["base"]["rank"], rec["base"]["level"]
        rows = {}
        for amb_label, terms in rec["rows"].items():
            vec = SectorVector(base)
            for labels, mult in terms:
                vec.add(AffineWeight(n, k, tuple(labels)), int(mult))
            rows[amb_label] = vec
    if set(rows) != set(ambient.labels):
        raise CatalogError(f"inclusion {key}: rows do not match ambient labels")
    return BranchingTable(key, ambient, base, rows)


def mirror_mu(mu_extension, mu_base, mu_mirror_base):
    """mu of the mirror extension: mu(mirror base) * mu(ext) / mu(base)."""
    return mu_mirror_base * mu_extension / mu_base


def mirror_spectrum(spec, pairing):
    """Transport a spectrum through the level-rank partner table.

    The support must lie in the pairing domain (color-0 weights for the
    vacuum table) and be conjugation-symmetric; multiplicities carry over.
    """
    target = sun_datum(pairing.n, pairing.m)
    out = SectorVector(target)
    for weight, mult in spec.mult.items():
        if weight not in pairing.pairs:
            raise ValueError(
                f"spectrum term {weight} lies outside the pairing domain"
            )
        if spec.mult.get(weight.conjugate(), 0) != mult:
            raise ValueError(
                f"spectrum not conjugation-symmetric at {weight}"
            )
        out.add(pairing.partner(weight), mult)
    return out


def verify_catalog(cat):
    """Full invariant suite for a catalog, including the mirror cross-check."""
    report = VerificationReport(subject=f"catalog {cat.key}")

    total = sum((ir.dim_sq for ir in cat.irreps.values()), Fraction(0))
    report.add(
        "global-dimension",
        total == cat.mu_exact,
        details=f"sum dim^2 = {total}, mu = {cat.mu_exact}",
    )

    spectrum = cat.extension_spectrum()
    report.add(
        "vacuum-restriction",
        spectrum.mult.get(cat.base.vacuum) == 1,
        details=f"spectrum {spectrum}",
    )

    index = cat.extension_index()
    rel = abs(index * index - cat.base.mu / cat.mu) / (index * index)
    report.add(
        "index-squared",
        rel < DIM_TOL,
        residual=float(rel),
        details=f"index = {index:.7f}",
    )

    ok, witness = True, ""
    for ir in cat.irreps.values():
        for weight, _ in ir.restriction:
            if weight.conformal_weight() % 1 != ir.h_mod1:
                ok = False
                witness = (
                    f"{ir.label}: component {weight} has h = "
                    f"{weight.conformal_weight()} != {ir.h_mod1} (mod 1)"
                )
    report.add("restriction-weights", ok, details=witness)

    worst = 0.0
    for ir in cat.irreps.values():
        got = cat.restriction(ir.label).total_dim()
        want = ir.dim * index
        worst = max(worst, abs(got - want) / want)
    report.add("restriction-dimensions", worst < DIM_TOL, residual=worst)

    worst = 0.0
    for (a, b), row in cat._fusion.items():
        got = sum(m * cat.dim(c) for c, m in row.items())
        want = cat.dim(a) * cat.dim(b)
        worst = max(worst, abs(got - want) / want)
    report.add("fusion-dimensions", worst < DIM_TOL, residual=worst)

    auts = cat.automorphism_labels()
    closed = all(
        set(cat.fuse(a, b)) <= set(auts) for a in auts for b in auts
    )
    report.add("automorphism-closure", closed)
    h_map = {a: cat.h_mod1(a) for a in auts}
    mul = {
        (a, b): next(iter(cat.fuse(a, b))) for a in auts for b in auts
    }
    qf = quadratic_form_consistency(h_map, mul, subject=f"{cat.name} group")
    report.add(
        "quadratic-form",
        qf.passed,
        details="; ".join(c.details for c in qf.failures()),
    )

    ok, witness = True, ""
    for label in cat.labels:
        try:
            conj_label = cat.conj(label)
        except UnsupportedFusionError:
            ok, witness = False, f"conjugate of {label} missing"
            break
        left = cat.restriction(label).conjugate()
        right = cat.restriction(conj_label)
        if left != right:
            ok, witness = False, f"conj(restriction) mismatch at {label}"
            break
    report.add("conjugation", ok, details=witness)

    m, n, key = CATALOG_INCLUSIONS[cat.key]
    inc = inclusion_table(key)
    pairing = vacuum_pairing(m, n)
    vac_row = inc.rows[inc.ambient.vacuum]
    try:
        ok = mirror_spectrum(vac_row, pairing) == spectrum
        witness = f"mirror of {key} vacuum row"
    except ValueError as exc:  # the bundled vacuum row cannot be transported
        ok, witness = False, str(exc)
    report.add("mirror-spectrum", ok, details=witness)
    side_index = vac_row.total_dim()
    rel = abs(side_index - index) / index
    report.add("mirror-index", rel < DIM_TOL, residual=float(rel))

    want = mirror_mu(inc.ambient.mu, inc.base.mu, cat.base.mu)
    rel = abs(want - cat.mu) / cat.mu
    report.add("mirror-mu", rel < DIM_TOL, residual=float(rel))
    return report
