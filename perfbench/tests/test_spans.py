"""The tracer: self times, rebinding of every binding, exact counts."""

import numpy
import pytest

import spans
from holonet import catalogs, modular, verifier


def test_self_time_excludes_children():
    rows = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 4.0, 5.5, 1],
        ["c", 7.0, 9.0, 0],
    ]
    st = spans.op_stats(rows, 0, len(rows), {"n": 3})
    assert st["self_s"] == {"a": 2.5, "b": 2.5, "c": 2.0}
    assert st["calls"] == {"a": 1, "b": 2, "c": 1}
    assert st["top_s"] == 7.0 and st["wall_s"] == 10.0 and st["counts"] == {"n": 3}


def test_install_rebinds_every_binding_and_uninstall_restores():
    original = modular.sun_datum
    det = numpy.linalg.det
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (modular, catalogs, verifier):
            assert module.sun_datum is not original
            assert module.sun_datum.__wrapped__ is original
        assert numpy.linalg.det is not det
    finally:
        tracer.uninstall()
    assert modular.sun_datum is original and catalogs.sun_datum is original
    assert numpy.linalg.det is det


def test_find_caches_walks_modules():
    names = [name for name, _ in spans.find_caches()]
    for expected in ("holonet.modular.sun_datum", "holonet.catalogs.catalog",
                     "holonet.verifier._wzw_base"):
        assert expected in names


@pytest.fixture
def traced_build():
    caches = spans.find_caches()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            for _, cache in caches:
                cache.cache_clear()
            with tracer.op():
                modular.sun_datum(5, 3)
            numpy.linalg.det(numpy.eye(3))  # outside any op: not recorded
    finally:
        tracer.uninstall()
    return [spans.op_stats(tracer.spans, *op) for op in tracer.ops]


def test_counts_repeat_exactly(traced_build):
    first, second = traced_build
    assert first["calls"] == second["calls"] and first["counts"] == second["counts"]
    assert first["counts"][spans.DETS] == 35 * 35  # one det per S entry
    assert first["calls"]["weights.conformal_weight"] == 35
    for name in ("modular.sun_datum", "modular.s_matrix", "modular.det",
                 "modular.validate", "weights.enumerate_weights"):
        assert first["self_s"][name] > 0


def test_det_is_traced_only_inside_s_matrix(traced_build):
    rows = traced_build[0]
    assert rows["calls"]["modular.det"] >= 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op():
            numpy.linalg.det(numpy.eye(3))
    finally:
        tracer.uninstall()
    assert spans.op_stats(tracer.spans, *tracer.ops[0])["calls"] == {}
