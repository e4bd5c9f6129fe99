"""holonet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify_cold|sun_sweep|warm_reads \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; holonet is imported from its
`src` directory, never from an installed copy.  The last line of standard
output is the result, a JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it holds the details (machine facts, op
count, fail ratio, tail percentile, caches cleared, exact counts).

With --trace 0 the run measures the end-to-end metrics: set-up time,
median and tail wall time per op, and peak RSS of the process doing the
work.  With --trace 1 it runs half the time untraced and half traced, and
reports per-layer self times and counts, taken as medians over the
traced ops, with the tracing overhead.  See workloads.py for the workloads.
"""

import argparse
import compileall
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10          # op_tail_s has at least this many ops above it
MIN_OPS = TAIL_BEYOND + 1
TRACE_MIN_OPS = 3
HARD_STOP_S = 140         # start no op after this, so a run ends within 180 s
START_REPEATS = 5         # bare interpreter and bare import samples

CALL_COUNTS = ["weights.conformal_weight", "modular.fusion_coeffs",
               "products.apply_s", "products.s_column"]
EXACT_SUFFIXES = (".calls", ".dets", ".triples")


def closed_loop(workload, seconds, min_ops, tracer, deadline):
    """One client, one op in flight, for `seconds` and at least `min_ops`."""
    from time import perf_counter

    start = perf_counter()
    ops = []
    while workload.has_next() and perf_counter() < deadline and (
        perf_counter() - start < seconds or len(ops) < min_ops
    ):
        ops.append(workload.op(tracer))
    return ops


def tail(walls):
    """The highest percentile with TAIL_BEYOND ops above it, and that percentile."""
    ordered = sorted(walls)
    if len(ordered) < MIN_OPS:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def layer_metrics(traced, untraced, ctx, bytes_identical):
    """Per-layer metrics: medians over the traced ops, plus start-up probes."""
    import spans

    rows = []
    for op in traced:
        st = op.stats
        if st is None:
            continue
        row = {f"{name}.self_s": st["self_s"].get(name, 0.0) for name in spans.SPAN_NAMES}
        for name in CALL_COUNTS:
            row[f"{name}.calls"] = st["calls"].get(name, 0)
        row[spans.DETS] = st["counts"].get(spans.DETS, 0)
        row[spans.TRIPLES] = st["counts"].get(spans.TRIPLES, 0)
        fusions = row["modular.fusion_coeffs.calls"]
        hits = st["counts"].get(spans.FUSION_HITS, 0)
        row["modular.fusion.hit_ratio"] = hits / fusions if fusions else 0.0
        row["other.self_s"] = op.wall - st["top_s"]
        rows.append(row)
    if not rows:
        raise RuntimeError("no traced op succeeded")
    counts = [k for k in rows[0] if k.endswith(EXACT_SUFFIXES)]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    exact = {k: statistics.median_low(r[k] for r in rows) for k in counts}
    metrics.update(exact)
    same = all(r[k] == exact[k] for r in rows for k in counts)
    interp = [ctx.python("pass").wall for _ in range(START_REPEATS)]
    imp = [ctx.python("import holonet").wall for _ in range(START_REPEATS)]
    metrics["cli.interpreter_s"] = statistics.median(interp)
    metrics["cli.import_s"] = statistics.median(imp)
    metrics["trace.overhead_ratio"] = (
        statistics.median(op.wall for op in traced)
        / statistics.median(op.wall for op in untraced)
    )
    metrics["verify.bytes_identical"] = bytes_identical
    return metrics, {"per_op": exact, "same_on_every_op": same}


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify_cold", "sun_sweep", "warm_reads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    from time import perf_counter

    deadline = perf_counter() + HARD_STOP_S
    src = ROOT / "src"
    if not (src / "holonet" / "__init__.py").is_file():
        print(f"error: no holonet sources under {src}", file=sys.stderr)
        return 2

    import machine

    machine.cap_blas_threads(os.environ)
    os.environ.pop("HOLONET_CATALOG_DIR", None)
    # Only the package's own modules: data/ is never imported, and a cache
    # left there would sit among the bundled data files.
    compileall.compile_dir(str(src / "holonet"), maxlevels=0, quiet=1)
    sys.path.insert(0, str(src))
    import holonet

    import spans
    import workloads

    ctx = workloads.Context(ROOT)
    if not ctx.pinned(holonet.__file__):
        print(f"error: holonet imported from {holonet.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ctx, args.seed)

    details = {"workload": args.workload, "machine": machine.facts(ROOT, args.seed)}
    if args.trace:
        workload.prepare()
        untraced = closed_loop(workload, args.seconds / 2, TRACE_MIN_OPS, None, deadline)
        tracer = spans.Tracer()  # verify_cold traces inside its children
        if workload.in_process:
            tracer.install()
        traced = closed_loop(workload, args.seconds / 2, TRACE_MIN_OPS, tracer, deadline)
        if workload.in_process:
            tracer.uninstall()
            span_file = ctx.out / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(span_file)
            details["span_file"] = str(span_file.relative_to(ROOT))
        ops = untraced + traced
        extra = workload.details()
        metrics, exact = layer_metrics(
            traced, untraced, ctx, extra.get("verify.bytes_identical", 0)
        )
        details["exact_counts"] = exact
        details["traced_ops"] = len(traced)
    else:
        setup = [workload.setup_sample() for _ in range(SETUP_REPEATS)]
        workload.prepare()
        ops = closed_loop(workload, args.seconds, MIN_OPS, None, deadline)
        walls = [op.wall for op in ops]
        tail_s, tail_pct = tail(walls)
        if workload.in_process:
            import resource

            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            rss = statistics.median(op.rss_mb for op in ops)
        metrics = {
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        }
        details["op_tail"] = {"percentile": tail_pct, "ops": len(walls)}
        details["setup_samples_s"] = setup
        extra = workload.details()

    failed = [op for op in ops if op.problems]
    details.update(extra)
    details["ops"] = len(ops)
    details["fail_ratio"] = len(failed) / len(ops)
    details["problems"] = [p for op in failed[:3] for p in op.problems[:3]]
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
