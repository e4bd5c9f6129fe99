"""Each workload's output check counts a wrong output as a failed op."""

import json
from types import SimpleNamespace

import pytest

import checks
import run
import workloads
from holonet import modular, verifier, weights

GOLDEN = (workloads.GOLDEN / "verify_all.json").read_text()
S_TOL = verifier.S_TOL


def _mutated(edit):
    reports = json.loads(GOLDEN)
    edit(reports)
    return json.dumps(reports, indent=2) + "\n"


def _set_check(entry, name, key, value):
    def edit(reports):
        report = next(r for r in reports if r["subject"] == f"entry-{entry}")
        check = next(c for c in report["checks"] if c["name"] == name)
        check[key] = value
    return edit


# -- verify_cold ------------------------------------------------------------

def test_golden_report_passes():
    assert checks.check_verify_report(GOLDEN, GOLDEN, S_TOL) == []


def test_residual_digits_may_move():
    text = _mutated(_set_check(18, "s-invariance", "residual", 1e-12))
    assert checks.check_verify_report(text, GOLDEN, S_TOL) == []


@pytest.mark.parametrize("edit", [
    _set_check(18, "s-invariance", "status", "fail"),
    _set_check(27, "central-charge", "details", "c = 23"),
    _set_check(40, "s-invariance", "residual", 2 * S_TOL),
    _set_check(40, "s-invariance", "residual", None),
    _set_check(18, "mu-ledger", "residual", 0.0),
    lambda reports: reports[0]["checks"].pop(),
    lambda reports: reports[2]["notes"].clear(),
    lambda reports: reports.pop(),
    lambda reports: reports[1].update(subject="entry-28"),
])
def test_wrong_report_fails(edit):
    assert checks.check_verify_report(_mutated(edit), GOLDEN, S_TOL)


def test_unparseable_report_fails():
    assert checks.check_verify_report("{", GOLDEN, S_TOL)


def _fake_holonet(root, body):
    pkg = root / "src" / "holonet"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(body)
    return workloads.Context(root)


@pytest.mark.parametrize("body", [
    f"import sys\nsys.stdout.write({GOLDEN.replace('pass', 'fail', 1)!r})\n",
    f"import sys\nsys.stdout.write({GOLDEN!r})\nsys.exit(1)\n",
])
def test_verify_cold_op_counts_wrong_output(tmp_path, body):
    workload = workloads.VerifyCold(_fake_holonet(tmp_path, body), seed=0)
    ops = run.closed_loop(workload, 0, 2, None, float("inf"))
    assert len(ops) == 2 and all(op.problems for op in ops)


def test_verify_cold_op_counts_byte_identity(tmp_path):
    body = f"import sys\nsys.stdout.write({GOLDEN.replace('  ', ' ')!r})\n"
    workload = workloads.VerifyCold(_fake_holonet(tmp_path, body), seed=0)
    op = workload.op(None)
    assert op.problems == [] and workload.bytes_identical == 0


# -- sun_sweep ----------------------------------------------------------------

@pytest.fixture(scope="module")
def su6_4():
    return modular.sun_datum(6, 4)


@pytest.fixture(scope="module")
def ref_dims():
    with open(workloads.GOLDEN / "sun_dims.json") as fh:
        return json.load(fh)["6,4"]


def _check_datum(datum, ref):
    return checks.check_sun_datum(
        datum, 6, 4, weights.weight_count(6, 4), ref,
        modular.UNITARITY_TOL, modular.MODULAR_TOL, workloads.DIM_TOL,
    )


def test_sun_datum_passes(su6_4, ref_dims):
    assert _check_datum(su6_4, ref_dims) == []


@pytest.mark.parametrize("change", [
    lambda d: {"labels": d.labels[:-1], "d": d.d[:-1]},
    lambda d: {"d": d.d * (1 + 1e-7)},
    lambda d: {"residuals": dict(d.residuals, unitarity=1e-6)},
    lambda d: {"residuals": dict(d.residuals, modular_relation=1e-7)},
    lambda d: {"residuals": {}},
])
def test_wrong_sun_datum_fails(su6_4, ref_dims, change):
    fields = {"labels": su6_4.labels, "d": su6_4.d, "residuals": su6_4.residuals}
    fields.update(change(su6_4))
    assert _check_datum(SimpleNamespace(**fields), ref_dims)


def test_sun_sweep_op_counts_wrong_output(monkeypatch, tmp_path):
    real = modular.sun_datum

    def scaled(n, k):
        datum = real(n, k)
        return SimpleNamespace(labels=datum.labels, residuals=datum.residuals,
                               d=datum.d * 1.01)

    workload = workloads.SunSweep(workloads.Context(tmp_path), seed=0)
    monkeypatch.setattr(workloads, "LADDER", ((6, 4),))
    assert workload.op(None).problems == []
    monkeypatch.setattr(modular, "sun_datum", scaled)
    assert workload.op(None).problems


# -- warm_reads ---------------------------------------------------------------

def test_failed_report_fails():
    good = SimpleNamespace(subject="entry-18", checks=[
        SimpleNamespace(name="x", passed=True, details="")
    ])
    bad = SimpleNamespace(subject="entry-27", checks=[
        SimpleNamespace(name="x", passed=False, details="")
    ])
    assert checks.check_reports([good], (18,)) == []
    assert checks.check_reports([good, bad], (18, 27))
    assert checks.check_reports([good], (18, 27))


def test_perturbation_floor_must_exceed_tolerance():
    assert checks.check_perturbations([0.9, 0.95], S_TOL) == []
    assert checks.check_perturbations([0.9, S_TOL / 2], S_TOL)


@pytest.mark.parametrize("good, swapped", [
    ({"e": 1}, None),
    ({"c": 2}, None),
    ({"c": 1.0, "d": 1}, None),
    ({"c": -1, "d": 2}, None),
    ({"c": 1, "d": 1}, {"d": 1, "c": 2}),
])
def test_wrong_fusion_fails(good, swapped):
    dims = {"a": 2.0, "b": 1.5, "c": 1.0, "d": 2.0, "e": 2.0}
    query = [("a", "b")]
    assert checks.check_fusion(dims.get, query, [{"c": 1, "d": 1}], [{"c": 1, "d": 1}]) == []
    assert checks.check_fusion(dims.get, query, [good], [swapped or good])


def test_fusion_queries_repeat_only_within_an_op(tmp_path):
    workload = workloads.WarmReads(workloads.Context(tmp_path), seed=3)
    workload.prepare()
    seen = set()
    for _ in range(3):
        queries = workload.queries()
        assert len(queries) == workloads.FUSION_FRESH + workloads.FUSION_REPEATS
        pairs = [frozenset(q) for q in queries]
        assert len(set(pairs)) == workloads.FUSION_FRESH
        assert seen.isdisjoint(pairs)
        first = {}
        for i, (pair, query) in enumerate(zip(pairs, queries)):
            if pair in first:  # a repeat comes after, with the pair reversed
                assert query == queries[first[pair]][::-1]
            first.setdefault(pair, i)
        seen.update(pairs)


def test_warm_reads_op_counts_wrong_output(monkeypatch, tmp_path):
    workload = workloads.WarmReads(workloads.Context(tmp_path), seed=0)
    workload.prepare()
    assert workload.op(None).problems == []
    monkeypatch.setattr(verifier, "perturbation_residuals", lambda cons: 0.0)
    assert workload.op(None).problems


def test_warm_reads_op_counts_wrong_fusion(monkeypatch, tmp_path):
    workload = workloads.WarmReads(workloads.Context(tmp_path), seed=0)
    workload.prepare()
    real = modular.ModularDatum.fuse
    monkeypatch.setattr(modular.ModularDatum, "fuse",
                        lambda self, a, b: {**real(self, a, b), self.vacuum: 1})
    assert workload.op(None).problems


# -- the loop ---------------------------------------------------------------

def test_raising_op_is_a_failed_op():
    def boom():
        raise ValueError("broken")

    wall, out, error, stats = workloads.timed(None, boom)
    assert out is None and "broken" in error and wall >= 0


def test_tail_has_ten_ops_beyond():
    walls = [float(i) for i in range(40)]
    value, pct = run.tail(walls)
    assert sum(w > value for w in walls) == run.TAIL_BEYOND
    assert value == 29.0 and pct == 75.0
