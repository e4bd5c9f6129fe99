"""Span tracer that wraps holonet's layer functions from outside the package.

`Tracer.install()` rebinds every attribute of every loaded holonet module
that names a layer function, so `from .x import y` bindings are covered as
well as the defining module; it replaces the layer methods on their classes
and wraps `numpy.linalg.det` so that the calls made inside
`modular.s_matrix` get a span of their own.  Spans are recorded only inside
`Tracer.op()`.  They stay in memory as `[name, start, end, parent]` rows and
`Tracer.dump()` writes them out.
"""

import json
import sys
from contextlib import contextmanager
from functools import wraps
from math import prod
from time import perf_counter

import numpy

# (span name, module, attribute): module-level layer functions.
FUNCTIONS = [
    ("weights.enumerate_weights", "holonet.weights", "enumerate_weights"),
    ("modular.s_matrix", "holonet.modular", "s_matrix"),
    ("modular.sun_datum", "holonet.modular", "sun_datum"),
    ("level_one.level_one_datum", "holonet.level_one", "level_one_datum"),
    ("level_rank.vacuum_pairing", "holonet.level_rank", "vacuum_pairing"),
    ("catalogs.catalog", "holonet.catalogs", "catalog"),
    ("catalogs.inclusion_table", "holonet.catalogs", "inclusion_table"),
    ("catalogs.verify_catalog", "holonet.catalogs", "verify_catalog"),
    ("extensions.quadratic_form_consistency", "holonet.extensions",
     "quadratic_form_consistency"),
    ("extensions.find_local_system", "holonet.extensions", "find_local_system"),
    ("products.tensor_product", "holonet.products", "tensor_product"),
    ("verifier.build_entry", "holonet.verifier", "build_entry"),
    ("verifier.restrict_to_base", "holonet.verifier", "restrict_to_base"),
    ("verifier.reference_spectrum", "holonet.verifier", "reference_spectrum"),
    ("verifier.verify_entry", "holonet.verifier", "verify_entry"),
    ("verifier.perturbation_residuals", "holonet.verifier",
     "perturbation_residuals"),
    ("reporting.report_emit", "holonet.reporting", "report_emit"),
]

# (span name, module, class, method): layer methods, replaced on the class.
METHODS = [
    ("weights.conformal_weight", "holonet.weights", "AffineWeight",
     "conformal_weight"),
    ("modular.validate", "holonet.modular", "ModularDatum", "validate"),
    ("modular.fusion_coeffs", "holonet.modular", "ModularDatum", "fusion_coeffs"),
    ("products.apply_s", "holonet.products", "ProductTheory", "apply_s"),
    ("products.s_column", "holonet.products", "ProductTheory", "s_column"),
]

DET = "modular.det"
S_MATRIX = "modular.s_matrix"
SPAN_NAMES = [name for name, *_ in FUNCTIONS + METHODS] + [DET]

# Exact per-op counts recorded at the layer boundaries.
DETS = "modular.dets"
TRIPLES = "extensions.quadratic_form_consistency.triples"
FUSION_HITS = "modular.fusion.hits"


def _holonet_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "holonet" or name.startswith("holonet."))
    ]


def _fusion_hit(args, kwargs):
    datum, a, b = args[:3]
    i, j = datum.index[a], datum.index[b]
    key = (i, j) if i <= j else (j, i)
    return FUSION_HITS, int(key in getattr(datum, "_fusion_cache", ()))


def _triples(args, kwargs):
    h_map = args[0] if args else kwargs["h_map"]
    return TRIPLES, len(h_map) ** 3


COUNTERS = {
    "modular.fusion_coeffs": _fusion_hit,
    "extensions.quadratic_form_consistency": _triples,
}


class Tracer:
    """Records nested spans of the wrapped layers, one root span per op."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.ops = []     # (root index, stop index, {count name: value})
        self._stack = []
        self._counts = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    @property
    def active(self):
        return self._counts is not None

    def _count(self, name, value):
        self._counts[name] = self._counts.get(name, 0) + value

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        row = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = perf_counter()
        return row

    def _close(self, row):
        row[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """Trace everything the wrapped layers do inside this block."""
        if self.active:
            raise RuntimeError("ops do not nest")
        root = len(self.spans)
        self._counts = {}
        row = self._open("op")
        try:
            yield
        finally:
            self._close(row)
            self.ops.append((root, len(self.spans), self._counts))
            self._counts = None

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._counts is None:
                return fn(*args, **kwargs)
            if counter:
                self._count(*counter(args, kwargs))
            row = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row)

        return traced

    def _wrap_det(self, det):
        @wraps(det)
        def traced_det(a, *args, **kwargs):
            if self._counts is None or not any(
                self.spans[i][0] == S_MATRIX for i in self._stack
            ):
                return det(a, *args, **kwargs)
            self._count(DETS, prod(numpy.shape(a)[:-2]))
            row = self._open(DET)
            try:
                return det(a, *args, **kwargs)
            finally:
                self._close(row)

        return traced_det

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer; holonet must already be imported."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _holonet_modules()
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._set(cls, attr, self._wrap(name, vars(cls)[attr]))
        self._set(numpy.linalg, "det", self._wrap_det(numpy.linalg.det))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "ops": self.ops}, fh,
                      separators=(",", ":"))


def load_op_stats(path):
    """Per-op statistics from a file written by `Tracer.dump`."""
    with open(path) as fh:
        data = json.load(fh)
    return [op_stats(data["spans"], root, stop, counts)
            for root, stop, counts in data["ops"]]


def op_stats(spans, root, stop, counts):
    """Self time and calls per span name for the op rooted at `root`.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.  `top`
    is the time covered by the root's direct children, i.e. by any layer.
    """
    dur = [spans[i][2] - spans[i][1] for i in range(root, stop)]
    own = list(dur)
    for i in range(root + 1, stop):
        own[spans[i][3] - root] -= dur[i - root]
    self_s, calls = {}, {}
    top = 0.0
    for i in range(root + 1, stop):
        name = spans[i][0]
        self_s[name] = self_s.get(name, 0.0) + own[i - root]
        calls[name] = calls.get(name, 0) + 1
        if spans[i][3] == root:
            top += dur[i - root]
    return {"self_s": self_s, "calls": calls, "counts": dict(counts),
            "top_s": top, "wall_s": dur[0]}


def find_caches():
    """Every functools cache reachable from holonet's modules and classes.

    Returns (qualified name, cache) pairs, found by walking module
    attributes and class dictionaries and following `__wrapped__` chains,
    so a cache added later is found without a list to maintain.
    """
    found = {}

    def visit(obj):
        seen = set()
        while obj is not None and id(obj) not in seen:
            seen.add(id(obj))
            if callable(getattr(obj, "cache_clear", None)) and hasattr(
                obj, "cache_info"
            ):
                qual = getattr(obj, "__qualname__", repr(obj))
                found.setdefault(id(obj), (f"{obj.__module__}.{qual}", obj))
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            else:
                obj = getattr(obj, "__wrapped__", None)

    for mod in _holonet_modules():
        for value in list(vars(mod).values()):
            visit(value)
            if isinstance(value, type) and value.__module__.startswith("holonet"):
                for member in list(vars(value).values()):
                    visit(member)
    return sorted(found.values(), key=lambda pair: pair[0])
