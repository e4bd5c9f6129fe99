"""The three workloads: set-up, one op, and the check of the op's output.

Every op is one closed-loop request from a single client; the next op
starts only after the previous one has been checked.

- verify_cold: a fresh `python -m holonet.cli verify --entry all
  --reproducible --format json` process.  The paper's reproduction as a
  user runs it; every layer pays its cold cost once.
- sun_sweep: every holonet cache emptied, then `sun_datum` built for five
  (n, k) from 126 to 792 labels.  S construction and validation only, so it
  exercises S-kernel changes and is the control for exact-check changes.
- warm_reads: warm caches; `verify_all()`, the perturbation controls of the
  three entries and Verlinde `fuse` queries on SU(8)_4.  It reads the cached
  S three ways and builds none, so it catches an S that is faster to build
  but slower to read, and is the control for S-build changes.
"""

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import namedtuple
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from holonet import modular, verifier, weights

import checks
import spans

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CHILD_TIMEOUT_S = 120

ENTRIES = (18, 27, 40)
VERIFY_ARGS = ["verify", "--entry", "all", "--reproducible", "--format", "json"]
LADDER = ((6, 4), (10, 3), (12, 3), (6, 6), (8, 5))
DIM_TOL = 1e-9
FUSION_THEORY = (8, 4)
FUSION_FRESH = 300    # per op, pairs never issued before in the process
FUSION_REPEATS = 100  # per op, a pair issued earlier in the same op, reversed

Child = namedtuple("Child", "wall code stdout stderr rss_mb")
Op = namedtuple("Op", "wall problems rss_mb stats")


class Context:
    """Paths and the child environment of one benchmark run."""

    def __init__(self, root):
        self.root = Path(root)
        self.src = self.root / "src"
        self.package = self.src / "holonet" / "__init__.py"
        self.out = self.root / ".perfbench_out"
        self.work = self.out / "tmp"
        self.work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env.pop("HOLONET_CATALOG_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env

    def pinned(self, path):
        return Path(path).resolve() == self.package.resolve()

    def run_child(self, argv):
        """Run `argv` in a fresh empty directory; wall time and peak RSS."""
        cwd = tempfile.mkdtemp(dir=self.work)
        try:
            with tempfile.TemporaryFile(dir=self.work) as out, \
                    tempfile.TemporaryFile(dir=self.work) as err:
                t0 = perf_counter()
                proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                        stdout=out, stderr=err)
                timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                    code, rss = os.waitstatus_to_exitcode(status), usage.ru_maxrss
                except ChildProcessError:  # reaped by kill() on timeout
                    code, rss = -9, 0
                finally:
                    timer.cancel()
                    timer.join()
                wall = perf_counter() - t0
                proc.returncode = code
                out.seek(0)
                err.seek(0)
                return Child(wall, code, out.read(), err.read(), rss / 1024)
        finally:
            shutil.rmtree(cwd)

    def python(self, code):
        return self.run_child([sys.executable, "-c", code])


def _setup_code(fill):
    return (
        "import time\nt = time.perf_counter()\nimport holonet\n"
        f"{fill}\nt = time.perf_counter() - t\nimport json, sys\n"
        "sys.stdout.write(json.dumps([holonet.__file__, t]))\n"
    )


def timed(tracer, call):
    """Time `call`; under a tracer, also return the op's span statistics."""
    gc.collect()
    scope = tracer.op() if tracer else nullcontext()
    t0 = perf_counter()
    try:
        with scope:
            out = call()
        error = None
    except Exception as exc:  # the op fails; the run goes on
        out, error = None, f"raised {exc!r}"
    wall = perf_counter() - t0
    stats = spans.op_stats(tracer.spans, *tracer.ops[-1]) if tracer else None
    return wall, out, error, stats


class Workload:
    name = ""
    setup_fill = ""
    setup_is_wall = False  # setup_s is the child's wall time, not its own timer
    in_process = True

    def __init__(self, ctx, seed):
        self.ctx = ctx
        self.seed = seed

    def setup_sample(self):
        """One set-up in a fresh interpreter, in seconds."""
        child = self.ctx.python(_setup_code(self.setup_fill))
        if child.code != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.decode()[-500:]}")
        path, inner = json.loads(child.stdout)
        if not self.ctx.pinned(path):
            raise RuntimeError(f"child imported holonet from {path}")
        return child.wall if self.setup_is_wall else inner

    def prepare(self):
        pass

    def has_next(self):
        return True

    def details(self):
        return {}


class VerifyCold(Workload):
    name = "verify_cold"
    setup_is_wall = True
    in_process = False

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.golden = (GOLDEN / "verify_all.json").read_bytes()
        self.bytes_identical = 0
        self.ops = 0
        self.span_dir = ctx.out / f"spans-{self.name}-seed{seed}"

    def op(self, tracer):
        self.ops += 1
        if tracer is None:
            argv = [sys.executable, "-m", "holonet.cli", *VERIFY_ARGS]
        else:
            self.span_dir.mkdir(exist_ok=True)
            span_file = self.span_dir / f"op{self.ops}.json"
            argv = [sys.executable, str(HERE / "trace_child.py"), str(span_file),
                    *VERIFY_ARGS]
        child = self.ctx.run_child(argv)
        problems = [] if child.code == 0 else [
            f"exit code {child.code}: {child.stderr.decode()[-500:]}"
        ]
        problems += checks.check_verify_report(
            child.stdout.decode(), self.golden.decode(), verifier.S_TOL
        )
        if child.stdout == self.golden:
            self.bytes_identical += 1
        stats = None
        if tracer is not None and child.code == 0:
            stats = spans.load_op_stats(span_file)[0]
        return Op(child.wall, problems, child.rss_mb, stats)

    def details(self):
        return {"verify.bytes_identical": self.bytes_identical}


class SunSweep(Workload):
    name = "sun_sweep"

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        with open(GOLDEN / "sun_dims.json") as fh:
            self.ref = json.load(fh)
        self.caches = spans.find_caches()

    def op(self, tracer):
        for _, cache in self.caches:
            cache.cache_clear()
        wall, data, error, stats = timed(
            tracer, lambda: [modular.sun_datum(n, k) for n, k in LADDER]
        )
        problems = [error] if error else []
        for (n, k), datum in zip(LADDER, data or ()):
            problems += checks.check_sun_datum(
                datum, n, k, weights.weight_count(n, k), self.ref[f"{n},{k}"],
                modular.UNITARITY_TOL, modular.MODULAR_TOL, DIM_TOL,
            )
        return Op(wall, problems, None, stats)

    def details(self):
        return {"caches_cleared": [name for name, _ in self.caches]}


class WarmReads(Workload):
    name = "warm_reads"
    setup_fill = "holonet.verify_all()"

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.rng = random.Random(seed)
        self.issued = 0

    def prepare(self):
        verifier.verify_all()
        datum = modular.sun_datum(*FUSION_THEORY)
        self.labels = sorted(datum.labels)
        size = len(self.labels)
        self.pool = [(i, j) for i in range(size) for j in range(i, size)]
        self.rng.shuffle(self.pool)

    def has_next(self):
        return self.issued + FUSION_FRESH <= len(self.pool)

    def queries(self):
        """FUSION_FRESH new pairs, with FUSION_REPEATS of them asked again,
        reversed, at a later point of the same op."""
        fresh = self.pool[self.issued:self.issued + FUSION_FRESH]
        self.issued += FUSION_FRESH
        keyed = [(float(i), pair) for i, pair in enumerate(fresh)]
        for _ in range(FUSION_REPEATS):
            src = self.rng.randrange(FUSION_FRESH)
            i, j = fresh[src]
            keyed.append((self.rng.uniform(src + 0.5, FUSION_FRESH), (j, i)))
        keyed.sort(key=lambda kv: kv[0])
        return [(self.labels[i], self.labels[j]) for _, (i, j) in keyed]

    def op(self, tracer):
        queries = self.queries()

        def call():
            reports = verifier.verify_all()
            floors = [verifier.perturbation_residuals(verifier.build_entry(e))
                      for e in ENTRIES]
            datum = modular.sun_datum(*FUSION_THEORY)
            return reports, floors, datum, [datum.fuse(a, b) for a, b in queries]

        wall, out, error, stats = timed(tracer, call)
        if error:
            return Op(wall, [error], None, stats)
        reports, floors, datum, fused = out
        swapped = [datum.fuse(b, a) for a, b in queries]
        problems = (
            checks.check_reports(reports, ENTRIES)
            + checks.check_perturbations(floors, verifier.S_TOL)
            + checks.check_fusion(datum.dim, queries, fused, swapped)
        )
        return Op(wall, problems, None, stats)

    def details(self):
        return {
            "fusion_queries_per_op": FUSION_FRESH + FUSION_REPEATS,
            "fusion_repeat_share": FUSION_REPEATS / (FUSION_FRESH + FUSION_REPEATS),
            "fusion_pairs_issued": self.issued,
            "fusion_pairs_available": len(self.pool),
        }


WORKLOADS = {w.name: w for w in (VerifyCold, SunSweep, WarmReads)}
