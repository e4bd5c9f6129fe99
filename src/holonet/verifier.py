"""End-to-end assembly and verification of the three holomorphic spectra.

Each entry is a product of one bundled extension catalog with level-1
factors, extended along the verified local system of its generators;
entry 40 needs a second stage through the order-4 intermediate theory.
The final spectrum is restricted to the WZW base and checked seven ways:
local systems, an exact mu ledger ending at 1, central charge 24, multiset
agreement with the bundled reference list, exact integer conformal
weights, S-invariance of the character vector, and multiplicity-freeness.
A LocalityError met while closing a local system fails `local-systems`
with its witness; any other assembly failure fails `construction`.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .catalogs import CatalogError, _reading, catalog
from .extensions import (
    LocalityError,
    LocalSystem,
    abelian_table,
    find_local_system,
    induced_hom,
    monodromy_trivial,
    quadratic_form_consistency,
    simple_current_spectrum,
)
from .level_one import level_one_datum
from .modular import SectorVector, sun_datum
from .products import tensor_product
from .reporting import VerificationReport
from .weights import AffineWeight

S_TOL = 1e-8

ENTRY_CONFIGS = {
    40: {
        "catalog": "su10_2",
        "level_one": ["su5_1", "spin7_1"],
        "generators": [("j1", "y2", "v")],
        "group": [10],
        "second_stage": {
            "twisted": ("s0", "y3", "s"),
            "plain": ("j0", "y0", "v"),
        },
        "terms": 30,
    },
    27: {
        "catalog": "su9_3",
        "level_one": ["su3_1", "su3_1"],
        "generators": [("j1t0", "y1", "y1"), ("j0t1", "y1", "y2")],
        "group": [3, 3],
        "second_stage": None,
        "terms": 36,
        "notes": [
            "current-orbit families are summed over i mod 9 "
            "(the order of the current), giving 36 distinct terms"
        ],
    },
    18: {
        "catalog": "su8_4",
        "level_one": ["su2_1", "su2_1", "su2_1"],
        "generators": [
            ("j1p0v0", "y1", "y0", "y0"),
            ("j0p1v0", "y0", "y1", "y0"),
            ("j0p1v1", "y0", "y0", "y1"),
        ],
        "group": [2, 2, 2],
        "second_stage": None,
        "terms": 48,
    },
}


class ConstructionError(RuntimeError):
    """A locality or consistency check failed while assembling an entry."""


@dataclass
class HolomorphicConstruction:
    entry: int
    catalog_product: object
    wzw_product: object
    systems: list
    mu_ledger: list            # (description, exact value after the step)
    c_total: Fraction
    spectrum: object           # SectorVector over the WZW base
    notes: list = field(default_factory=list)

    @property
    def final_mu(self):
        return self.mu_ledger[-1][1]


def _entry_config(entry):
    try:
        return ENTRY_CONFIGS[int(entry)]
    except (KeyError, ValueError, TypeError):
        raise CatalogError(
            f"unknown entry {entry!r}; supported: {sorted(ENTRY_CONFIGS)}"
        ) from None


def wzw_base(entry):
    """The WZW product theory underlying an entry (one shared instance)."""
    _entry_config(entry)
    return _wzw_base(int(entry))


@lru_cache(maxsize=None)
def _wzw_base(entry):
    cfg = _entry_config(entry)
    cat = catalog(cfg["catalog"])
    n, k = cat.base.labels[0].n, cat.base.labels[0].k
    factors = [sun_datum(n, k)] + [level_one_datum(t) for t in cfg["level_one"]]
    return tensor_product(*factors)


def restrict_to_base(catalog_product, spec, wzw_product):
    """Push a spectrum over catalog x level-1 down to the WZW base."""
    cat = catalog_product.factors[0]
    out = SectorVector(wzw_product)
    for label, mult in spec.mult.items():
        for weight, m in cat.restriction(label[0]).mult.items():
            out.add((weight,) + tuple(label[1:]), mult * m)
    return out


def build_entry(entry):
    """Assemble one construction, aborting with a witness on any failure."""
    cfg = _entry_config(entry)
    cat = catalog(cfg["catalog"])
    lvl = [level_one_datum(t) for t in cfg["level_one"]]
    prod = tensor_product(cat, *lvl)

    system = find_local_system(prod, [tuple(g) for g in cfg["generators"]])
    if system.invariant_factors != cfg["group"]:
        raise ConstructionError(
            f"entry {entry}: local system is {system.structure}, expected "
            + " x ".join(f"Z{d}" for d in cfg["group"])
        )
    spectrum = simple_current_spectrum(system)
    mu = prod.mu_exact
    factored = "*".join(str(f.mu_exact) for f in prod.factors)
    ledger = [(f"mu(base) = {factored} = {mu}", mu)]
    mu = mu / system.order**2
    ledger.append((f"/ {system.order}^2 -> {mu}", mu))
    systems = [("stage 1", system)]
    notes = list(cfg.get("notes", []))

    if cfg["second_stage"]:
        twisted = cfg["second_stage"]["twisted"]
        plain = cfg["second_stage"]["plain"]
        for gen in system.generators:
            for label in (twisted, plain):
                if not monodromy_trivial(prod, gen, label):
                    raise ConstructionError(
                        f"entry {entry}: {label} not local with {gen}"
                    )
        pairs = induced_hom(prod, twisted, twisted, spectrum)
        if pairs != 2:
            raise ConstructionError(
                f"entry {entry}: <a,a> = {pairs} != 2 for {twisted}"
            )
        if induced_hom(prod, plain, plain, spectrum) != 1:
            raise ConstructionError(f"entry {entry}: {plain} not irreducible")

        index = spectrum.total_dim()
        twisted_orbit = system.orbit(twisted)
        stabilizer = system.order // len(twisted_orbit)
        if stabilizer * len(twisted_orbit) != system.order or stabilizer != pairs:
            raise ConstructionError(
                f"entry {entry}: orbit of {twisted} has size "
                f"{len(twisted_orbit)}, inconsistent with <a,a> = {pairs}"
            )
        half_dim = prod.dim(twisted) * len(twisted_orbit) / index
        plain_dim = prod.dim(plain) * len(system.orbit(plain)) / index
        if abs(half_dim - 1) > 1e-9 or abs(plain_dim - 1) > 1e-9:
            raise ConstructionError(
                f"entry {entry}: stage-2 sector dimensions "
                f"({half_dim:.9f}, {plain_dim:.9f}) are not 1"
            )
        # the four intermediate sectors 1, a, d1, d2 with d1 d2 = a form the
        # Klein group; a cyclic group of order 4 is excluded by the
        # quadratic form since 4 h(d1) != h(a) mod 1
        h_map = {
            "1": Fraction(0),
            "a": prod.h_mod1(plain),
            "d1": prod.h_mod1(twisted),
            "d2": prod.h_mod1(twisted),
        }
        klein = abelian_table(
            {"1": (0, 0), "a": (1, 1), "d1": (1, 0), "d2": (0, 1)}, (2, 2)
        )
        qf = quadratic_form_consistency(h_map, klein, subject="stage-2 group")
        if not qf.passed:
            raise ConstructionError(
                f"entry {entry}: stage-2 group inconsistent: "
                + "; ".join(c.details for c in qf.failures())
            )
        z4 = abelian_table({"1": (0,), "d1": (1,), "a": (2,), "d2": (3,)}, (4,))
        if quadratic_form_consistency(h_map, z4, subject="Z4").passed:
            raise ConstructionError(
                f"entry {entry}: Z4 alternative not excluded"
            )
        if mu != 4:  # 1 + a + d1 + d2, all of dimension 1
            raise ConstructionError(f"entry {entry}: intermediate mu {mu} != 4")
        half = SectorVector(prod, {g: 1 for g in twisted_orbit})
        spectrum = spectrum + half
        mu = mu / 4
        ledger.append((f"/ 2^2 -> {mu}", mu))
        # Z2 of intermediate-theory sectors; that theory is never built
        systems.append(("stage 2", LocalSystem(None, ["1", "d1"], ["d1"], [2])))
        notes.append(
            "stage 2 extends by the order-2 sector supported on the "
            f"orbit of {twisted}; the twin sector gives the same spectrum"
        )

    wzw = wzw_base(entry)
    final = restrict_to_base(prod, spectrum, wzw)
    return HolomorphicConstruction(
        entry=int(entry),
        catalog_product=prod,
        wzw_product=wzw,
        systems=systems,
        mu_ledger=ledger,
        c_total=wzw.c,
        spectrum=final,
        notes=notes,
    )


def reference_spectrum(entry):
    """The bundled reference list for an entry, over its WZW base."""
    cfg = _entry_config(entry)
    wzw = wzw_base(entry)
    base = catalog(cfg["catalog"]).base
    n, k = base.labels[0].n, base.labels[0].k
    out = SectorVector(wzw)
    with _reading(f"entry{int(entry)}_spectrum.json") as payload:
        for term, mult in payload["terms"]:
            weight = AffineWeight(n, k, tuple(term[0]))
            out.add((weight,) + tuple(term[1:]), int(mult))
    return out


def s_invariance_residual(product, spec):
    """max |S v - v| / max |v| under the factorized S action."""
    v = spec.as_vector()
    image = product.apply_s(v)
    return float(np.abs(image - v).max() / np.abs(v).max())


def perturbation_residuals(construction):
    """S-invariance residuals after every single +-1 multiplicity change.

    Returns the minimum residual over all perturbed vectors; a healthy
    spectrum keeps this far above the verification tolerance.  A change at
    label j moves r = S v - v by +-(S e_j - e_j), with residual max_i
    |r_i +- (S_ij - delta_ij)| / max |v|, read off one `s_block` (the columns
    of one first-factor label) at a time.  The term i = j (S_jj multiplied as
    in `s_block`: the same bits) bounds it below.  Blocks go by ascending
    least bound; the first whose bound is not below the running minimum
    cannot lower it, nor can any later one, so the walk stops there.
    """
    prod = construction.wzw_product
    v = construction.spectrum.as_vector()
    base_residual = prod.apply_s(v) - v
    scale = np.abs(v).max()
    diag = reduce(np.multiply.outer, [np.diagonal(f.S) for f in prod.factors]).ravel()
    up = np.abs(base_residual + (diag - 1.0))
    down = np.where(v >= 1, np.abs(base_residual - (diag - 1.0)), np.inf)
    bound = (np.minimum(up, down) / scale).reshape(prod.shape[0], -1).min(axis=1)
    worst = np.inf
    for a in np.argsort(bound):
        if bound[a] >= worst:
            break
        block = prod.s_block(prod.factors[0].labels[a])
        cols = np.arange(block.shape[1])
        rows = a * len(cols) + cols  # the labels of the block's columns
        block[rows, cols] -= 1.0
        up = np.abs(base_residual[:, None] + block).max(axis=0) / scale
        worst = min(worst, up.min())
        held = v[rows] >= 1
        if held.any():
            down = np.abs(base_residual[:, None] - block[:, held]).max(axis=0) / scale
            worst = min(worst, down.min())
    return float(worst)


def verify_entry(entry):
    """Run the seven named checks for one entry."""
    report = VerificationReport(subject=f"entry-{int(entry)}")
    cfg = _entry_config(entry)
    try:
        cons = build_entry(entry)
    except (LocalityError, ConstructionError) as exc:
        failed = "local-systems" if isinstance(exc, LocalityError) else "construction"
        report.add(failed, False, details=str(exc))
        return report

    stage_text = "; ".join(
        f"{name}: {system.structure}" for name, system in cons.systems
    )
    report.add("local-systems", True, details=stage_text)

    ledger_text = "; ".join(step for step, _ in cons.mu_ledger)
    report.add(
        "mu-ledger",
        cons.final_mu == 1,
        details=ledger_text,
    )

    report.add(
        "central-charge",
        cons.c_total == 24,
        details=f"c = {cons.c_total}",
    )

    reference = reference_spectrum(entry)
    match = cons.spectrum == reference
    report.add(
        "spectrum-reference",
        match and cons.spectrum.total() == cfg["terms"],
        details=f"{cons.spectrum.total()} terms",
    )

    bad = [
        label
        for label in cons.spectrum.mult
        if cons.wzw_product.h_code(label)
    ]
    report.add(
        "integer-weights",
        not bad,
        details="" if not bad else f"non-integer h at {bad[0]}",
    )

    residual = s_invariance_residual(cons.wzw_product, cons.spectrum)
    report.add("s-invariance", residual < S_TOL, residual=residual)

    mults = set(cons.spectrum.mult.values())
    vac_mult = cons.spectrum.mult.get(cons.wzw_product.vacuum, 0)
    report.add(
        "multiplicities",
        vac_mult == 1 and mults <= {1},
        details=f"vacuum multiplicity {vac_mult}",
    )

    report.notes.extend(cons.notes)
    return report


def verify_all():
    return [verify_entry(e) for e in sorted(ENTRY_CONFIGS)]
