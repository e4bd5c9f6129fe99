"""Command-line surface: modular-data, level-rank, local-system, coupling,
catalog and verify.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage or data
error.  Theory products are written as factor tokens joined by 'x', e.g.
"cat:su10_2 x su5_1 x spin7_1"; tuple labels join their components with
':' (WZW weights keep their comma form inside a component).  A 'cat:'
token loads a bundled catalog; every other token, and the theory that
modular-data forms from --algebra/--rank/--level, is resolved by
`level_one.theory_datum`, the one parser of the token grammar.  An SU(n)_k
whose S would exceed `modular.MAX_S_BYTES`, and a product over
`products.MAX_PRODUCT_LABELS` labels, are refused with exit 2.
"""

import argparse
import json
import re
import sys

from .catalogs import CatalogError, catalog, inclusion_table, verify_catalog
from .extensions import LocalityError, coupling_matrix, find_local_system, verify_coupling
from .level_one import theory_datum
from .level_rank import PairingError, branching_pairs, dual_weight, transpose_weight
from .products import ProductTheory, tensor_product
from .reporting import report_emit
from .verifier import verify_all, verify_entry
from .weights import AffineWeight, weight_from_text

USAGE_ERROR = 2
CHECK_FAILED = 1


def _fail(msg, code=USAGE_ERROR):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _label_text(label):
    if isinstance(label, tuple):
        return ":".join(_label_text(x) for x in label)
    return str(label)


# ----------------------------------------------------------------------
# modular-data
# ----------------------------------------------------------------------

def main_modular_data(argv=None):
    parser = argparse.ArgumentParser(
        prog="modular-data",
        description="Emit labels, exact conformal weights, dimensions and "
        "the S-matrix of one rational theory.",
    )
    parser.add_argument("--algebra", default="su", choices=["su", "spin", "e6"])
    parser.add_argument("--rank", type=int, help="n for su(n); N for spin(N)")
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--out", help="write JSON here (default stdout)")
    parser.add_argument("--csv", help="also write a label/h/d table as CSV")
    parser.add_argument(
        "--with-s", action="store_true", help="include S as [re, im] pairs"
    )
    args = parser.parse_args(argv)
    size = "" if args.rank is None or args.algebra == "e6" else args.rank
    try:
        datum = theory_datum(f"{args.algebra}{size}_{args.level}")
    except ValueError as exc:
        return _fail(exc)

    payload = {
        "name": datum.name,
        "labels": [
            list(l.labels) if isinstance(l, AffineWeight) else str(l)
            for l in datum.labels
        ],
        "h": [str(datum.h_exact(label)) for label in datum.labels],
        "c": str(datum.c),
        "d": [float(x) for x in datum.d],
        "mu": datum.mu,
    }
    if args.with_s:
        payload["S"] = [
            [[float(z.real), float(z.imag)] for z in row] for row in datum.S
        ]
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if args.csv:
        lines = ["label,h,d"]
        for label, d in zip(datum.labels, datum.d):
            lines.append(f"\"{_label_text(label)}\",{datum.h_exact(label)},{float(d)!r}")
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# level-rank
# ----------------------------------------------------------------------

def main_level_rank(argv=None):
    parser = argparse.ArgumentParser(
        prog="level-rank",
        description="Level-rank duals and partner tables for SU(m)_n.",
    )
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--weight", help="Dynkin labels 'a1,a2,...' of SU(m)_n")
    parser.add_argument(
        "--pairing", action="store_true", help="print the full partner table"
    )
    parser.add_argument(
        "--sector", type=int, default=0, help="level-1 label of SU(mn)"
    )
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        if args.weight is not None:
            w = weight_from_text(args.m, args.n, args.weight)
            payload = {
                "weight": str(w),
                "dual": str(dual_weight(w)),
                "transpose": str(transpose_weight(w)),
                "h": str(w.conformal_weight()),
                "color": w.color,
            }
            if args.pairing or args.sector:
                table = branching_pairs(args.m, args.n, args.sector)
                payload["partner"] = str(table.partner(w))
        elif args.pairing:
            table = branching_pairs(args.m, args.n, args.sector)
            payload = {
                "m": args.m,
                "n": args.n,
                "sector": table.level_one_label,
                "pairs": {str(w): str(v) for w, v in sorted(table.pairs.items())},
            }
        else:
            return _fail("give --weight and/or --pairing")
    except (ValueError, KeyError, PairingError) as exc:
        return _fail(exc)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ----------------------------------------------------------------------
# local-system
# ----------------------------------------------------------------------

def _resolve_factor(token):
    token = token.strip()
    if token.startswith("cat:"):
        return catalog(token[4:])
    return theory_datum(token)


def _resolve_theory(spec):
    tokens = [t for t in re.split(r"[x*]", spec) if t.strip()]
    factors = [_resolve_factor(t) for t in tokens]
    if len(factors) == 1:
        return factors[0]
    return tensor_product(*factors)


def _resolve_label(theory, text):
    parts = text.split(":")
    if not isinstance(theory, ProductTheory):
        if len(parts) != 1:
            raise ValueError(f"{text!r}: theory is not a product")
        return _component_label(theory, parts[0])
    if len(parts) != len(theory.factors):
        raise ValueError(
            f"{text!r}: expected {len(theory.factors)} ':'-separated components"
        )
    return tuple(_component_label(f, p) for f, p in zip(theory.factors, parts))


def _component_label(factor, text):
    text = text.strip()
    if text in factor.index:
        return text
    first = factor.labels[0]
    if isinstance(first, AffineWeight):
        return weight_from_text(first.n, first.k, text)
    raise ValueError(f"{text!r} is not a label of {factor.name}")


def main_local_system(argv=None):
    parser = argparse.ArgumentParser(
        prog="local-system",
        description="Close generators into a local system of automorphisms "
        "and print the group with its witness checks.",
    )
    parser.add_argument(
        "--theory",
        required=True,
        help="factor tokens joined by 'x', e.g. 'cat:su10_2 x su5_1 x spin7_1'",
    )
    parser.add_argument(
        "--generators",
        required=True,
        help="';'-separated labels; components of each joined by ':'",
    )
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        theory = _resolve_theory(args.theory)
        gens = [
            _resolve_label(theory, g)
            for g in args.generators.split(";")
            if g.strip()
        ]
    except (ValueError, KeyError, CatalogError) as exc:
        return _fail(exc)
    if not gens:
        return _fail("no generators given")
    try:
        system = find_local_system(theory, gens)
    except LocalityError as exc:
        _emit(
            json.dumps(
                {"theory": theory.name, "local_system": None, "witness": str(exc)},
                indent=2,
            )
            + "\n",
            args.out,
        )
        return CHECK_FAILED
    payload = {
        "theory": theory.name,
        "generators": [_label_text(g) for g in system.generators],
        "order": system.order,
        "structure": system.structure,
        "elements": [_label_text(g) for g in system.elements],
        "weights_mod_1": {
            _label_text(g): str(theory.h_mod1(g)) for g in system.elements
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ----------------------------------------------------------------------
# coupling
# ----------------------------------------------------------------------

def main_coupling(argv=None):
    parser = argparse.ArgumentParser(
        prog="coupling",
        description="Coupling matrix Z = B^T B of a bundled conformal "
        "inclusion and its commutation residuals with S and T.",
    )
    parser.add_argument(
        "--inclusion",
        required=True,
        help="su2_10-spin5_1 | su3_9-e6_1 | su4_8-spin20_1",
    )
    parser.add_argument("--with-z", action="store_true", help="include Z entries")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        table = inclusion_table(args.inclusion)
    except CatalogError as exc:
        return _fail(exc)
    report = verify_coupling(table)
    payload = json.loads(report_emit(report, "json", reproducible=True))
    if args.with_z:
        payload["Z"] = coupling_matrix(table).tolist()
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if report.passed else CHECK_FAILED


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def main_catalog(argv=None):
    parser = argparse.ArgumentParser(
        prog="catalog",
        description="Inspect or re-verify a bundled extension catalog.",
    )
    parser.add_argument("--name", required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--format", default="json", choices=["json", "text", "csv"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        cat = catalog(args.name)
    except CatalogError as exc:
        if args.check and exc.report is not None:
            _emit(report_emit(exc.report, args.format, reproducible=True), args.out)
        return _fail(exc)
    if args.check:
        report = verify_catalog(cat)
        _emit(report_emit(report, args.format, reproducible=True), args.out)
        return 0 if report.passed else CHECK_FAILED
    payload = {
        "name": cat.key,
        "base": cat.base.name,
        "mu": str(cat.mu_exact),
        "index": cat.extension_index(),
        "irreps": [
            {
                "label": label,
                "dim_sq": str(cat.dim_sq_of(label)),
                "h_mod1": str(cat.h_mod1(label)),
                "automorphism": cat.irreps[label].automorphism,
                "restriction": str(cat.restriction(label)),
            }
            for label in cat.labels
        ],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def main_verify(argv=None):
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Verify the holomorphic constructions (entries 18, 27, 40).",
    )
    parser.add_argument("--entry", default="all", help="18 | 27 | 40 | all")
    parser.add_argument("--format", default="text", choices=["json", "text", "csv"])
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="suppress the timestamp so repeated runs are byte-identical",
    )
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        if args.entry == "all":
            reports = verify_all()
        else:
            reports = [verify_entry(int(args.entry))]
    except (CatalogError, ValueError) as exc:
        return _fail(exc)
    payload = reports if args.entry == "all" else reports[0]
    _emit(report_emit(payload, args.format, reproducible=args.reproducible), args.out)
    return 0 if all(r.passed for r in reports) else CHECK_FAILED


if __name__ == "__main__":  # python -m holonet.cli verify ...
    cmd = sys.argv[1] if len(sys.argv) > 1 else ""
    mains = {
        "modular-data": main_modular_data,
        "level-rank": main_level_rank,
        "local-system": main_local_system,
        "coupling": main_coupling,
        "catalog": main_catalog,
        "verify": main_verify,
    }
    if cmd not in mains:
        print(f"usage: python -m holonet.cli {{{'|'.join(mains)}}} ...", file=sys.stderr)
        sys.exit(USAGE_ERROR)
    sys.exit(mains[cmd](sys.argv[2:]))
