"""Output checks, one per workload.  Each returns a list of problems; an op
whose check returns any problem counts as failed."""

import json
import math


def check_verify_report(text, golden_text, s_tol):
    """Compare a `verify --entry all --format json` report with the golden one.

    Subject, overall status, check names, statuses, details and notes must
    agree exactly.  A residual must be present where the golden report has
    one and below `s_tol`; its digits may differ, since a correct change
    to S can move the last bits.
    """
    try:
        got = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    want = json.loads(golden_text)
    if not isinstance(got, list) or len(got) != len(want):
        return [f"expected a list of {len(want)} reports"]
    problems = []
    for g, w in zip(got, want):
        subject = w["subject"]
        if not isinstance(g, dict):
            problems.append(f"{subject}: report is not an object")
            continue
        for key in ("subject", "overall", "notes"):
            if g.get(key) != w[key]:
                problems.append(f"{subject}: {key} {g.get(key)!r} != {w[key]!r}")
        g_checks = g.get("checks") or []
        if [c.get("name") for c in g_checks] != [c["name"] for c in w["checks"]]:
            problems.append(f"{subject}: check names differ")
            continue
        for gc, wc in zip(g_checks, w["checks"]):
            for key in ("status", "details"):
                if gc.get(key) != wc[key]:
                    problems.append(
                        f"{subject}/{wc['name']}: {key} {gc.get(key)!r} != {wc[key]!r}"
                    )
            res = gc.get("residual")
            if wc["residual"] is None:
                if res is not None:
                    problems.append(f"{subject}/{wc['name']}: unexpected residual")
            elif not isinstance(res, (int, float)) or not res < s_tol:
                problems.append(
                    f"{subject}/{wc['name']}: residual {res!r} not below {s_tol}"
                )
    return problems


def check_sun_datum(datum, n, k, expected_count, ref_dims, unitarity_tol,
                    modular_tol, dim_tol):
    """Label count, validation residuals and dimension row of one SU(n)_k."""
    name = f"su{n}_{k}"
    problems = []
    if len(datum.labels) != expected_count:
        problems.append(f"{name}: {len(datum.labels)} labels != {expected_count}")
    if not datum.residuals:
        problems.append(f"{name}: no validation residuals")
    for key, value in datum.residuals.items():
        tol = modular_tol if key == "modular_relation" else unitarity_tol
        if not value <= tol:
            problems.append(f"{name}: residual {key} = {value!r} > {tol}")
    if len(ref_dims) != len(datum.labels):
        problems.append(f"{name}: reference has {len(ref_dims)} labels")
    for label, d in zip(datum.labels, datum.d):
        want = ref_dims.get(str(label))
        if want is None:
            problems.append(f"{name}: label {label} not in the reference")
        elif not abs(d - want) <= dim_tol * max(1.0, abs(want)):
            problems.append(f"{name}: dim({label}) = {d!r} != {want!r}")
        if len(problems) > 5:
            break
    return problems


def check_reports(reports, entries):
    """Every verification report passes, one per entry."""
    subjects = [r.subject for r in reports]
    problems = [] if subjects == [f"entry-{e}" for e in entries] else [
        f"report subjects {subjects}"
    ]
    for r in reports:
        for c in r.checks:
            if not c.passed:
                problems.append(f"{r.subject}/{c.name} failed: {c.details}")
    return problems


def check_perturbations(residuals, s_tol):
    """Every negative control must stay far above the verification tolerance."""
    return [
        f"perturbation residual {i} = {r!r} not above {s_tol}"
        for i, r in enumerate(residuals)
        if not r > s_tol
    ]


def check_fusion(dim, queries, results, swapped, rel_tol=1e-8):
    """Verlinde products: positive integers, symmetric, dimensions multiply.

    `results[i]` is the product for `queries[i] = (a, b)`, `swapped[i]` the
    product for `(b, a)`; `dim` maps a label to its quantum dimension.
    """
    problems = []
    for (a, b), out, other in zip(queries, results, swapped):
        if out != other:
            problems.append(f"N({a}, {b}) != N({b}, {a})")
        if not all(type(m) is int and m > 0 for m in out.values()):
            problems.append(f"N({a}, {b}) has a non-positive or non-integer entry")
            continue
        got = math.fsum(m * dim(c) for c, m in out.items())
        want = dim(a) * dim(b)
        if not abs(got - want) <= rel_tol * want:
            problems.append(f"sum N({a}, {b})^c d_c = {got!r} != d_a d_b = {want!r}")
        if len(problems) > 5:
            break
    return problems
