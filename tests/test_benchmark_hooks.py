"""The benchmark tracer (perfbench/spans.py) wraps holonet layers by name;
every name it lists must resolve, or a traced benchmark run crashes."""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # executed from its source text, so nothing is written beside it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_functions_resolve(spans):
    for name, modname, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), name


def test_traced_methods_resolve(spans):
    for name, modname, clsname, attr in spans.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(vars(cls)[attr]), name
