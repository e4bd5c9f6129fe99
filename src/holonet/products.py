"""Tensor products of theories with a factorized S action.

Labels of a product are tuples of factor labels; h and c add, dimensions
and fusion multiply componentwise; h mod 1 is a numerator over the lcm of
the factors' denominators.  The product S-matrix is never built whole:
`apply_s` contracts factor by factor along the corresponding tensor axis,
which keeps the 2640-label products cheap and accurate, and `s_block`
gives the columns of one first-factor label at a time, as a Kronecker
fold of that factor's S column with the other factors' S.
"""

import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np


# The most labels a product may have; a larger one is refused before they are
# enumerated.  The verifier's largest has 2,640; 2**18 labels take about 70 MB
# (about 270 bytes each in `labels` and `index`) and under a second to build.
MAX_PRODUCT_LABELS = 1 << 18


class UnsupportedFusionError(KeyError):
    """Fusion requested outside a catalog's stored table."""


class ProductTheory:
    """Tensor product of modular data and/or extension catalogs."""

    def __init__(self, factors):
        if len(factors) < 2:
            raise ValueError("a tensor product needs at least 2 factors")
        self.factors = tuple(factors)
        self.name = " (x) ".join(f.name for f in factors)
        self.shape = tuple(len(f.labels) for f in factors)
        if math.prod(self.shape) > MAX_PRODUCT_LABELS:
            raise ValueError(
                f"a product of {len(factors)} factors has "
                f"{math.prod(self.shape):,} labels, over the "
                f"{MAX_PRODUCT_LABELS:,}-label limit"
            )
        self.labels = list(itertools.product(*(f.labels for f in factors)))
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.h_den = math.lcm(*(f.h_den for f in self.factors))

    @property
    def size(self):
        return len(self.labels)

    @property
    def vacuum(self):
        return tuple(f.vacuum for f in self.factors)

    @property
    def mu(self):
        return float(np.prod([f.mu for f in self.factors]))

    @property
    def mu_exact(self):
        return _exact([f.mu_exact for f in self.factors], math.prod)

    @property
    def c(self):
        return sum((f.c for f in self.factors), Fraction(0))

    def h_code(self, label):
        den, parts = self.h_den, zip(self.factors, label)
        return sum(f.h_code(x) * (den // f.h_den) for f, x in parts) % den

    def h_mod1(self, label):
        return Fraction(self.h_code(label), self.h_den)

    def h_exact(self, label):
        return _exact([f.h_exact(x) for f, x in zip(self.factors, label)], sum)

    def dim(self, label):
        return float(np.prod([f.dim(x) for f, x in zip(self.factors, label)]))

    def dim_sq_of(self, label):
        parts = [f.dim_sq_of(x) for f, x in zip(self.factors, label)]
        return _exact([p for p in parts if p != 1], math.prod)  # skip units: no Fraction

    def conj(self, label):
        return tuple(f.conj(x) for f, x in zip(self.factors, label))

    def fuse(self, a, b):
        """Componentwise fusion; {label: multiplicity} over tuple labels."""
        per_factor = [
            f.fuse(x, y) for f, x, y in zip(self.factors, a, b)
        ]
        out = {}
        for combo in itertools.product(*(d.items() for d in per_factor)):
            label = tuple(x for x, _ in combo)
            m = 1
            for _, mm in combo:
                m *= mm
            out[label] = out.get(label, 0) + m
        return out

    # -- factorized linear algebra ----------------------------------------

    def _require_s(self):
        if any(f.S is None for f in self.factors):
            raise UnsupportedFusionError(
                f"{self.name}: a factor has no S-matrix"
            )

    def apply_s(self, vec):
        """Apply the (symmetric) product S-matrix to a vector, factor-wise."""
        self._require_s()
        cube = np.asarray(vec, dtype=complex).reshape(self.shape)
        for axis, f in enumerate(self.factors):
            cube = np.tensordot(f.S, cube, axes=([1], [axis]))
            cube = np.moveaxis(cube, 0, axis)
        return cube.reshape(-1)

    def s_block(self, a):
        """The product-S columns whose first component is factor-0 label `a`.

        A size x (size // shape[0]) array, columns in label order: the left
        Kronecker fold of that factor-0 column with the other factors' S.
        """
        self._require_s()
        first, *rest = self.factors
        return reduce(np.kron, [f.S for f in rest], first.S[:, [first.index[a]]])

    def s_column(self, label):
        """Column of the product S-matrix at `label`, sliced from its block."""
        block = self.s_block(label[0])
        return block[:, self.index[label] % block.shape[1]]

    def __repr__(self):
        return f"ProductTheory({self.name}, {self.size} labels)"


def _exact(parts, combine):
    """combine(parts), or None where a factor has no exact value."""
    return None if any(p is None for p in parts) else combine(parts)


def tensor_product(*factors):
    """Tensor product of two or more theories."""
    return ProductTheory(factors)
