"""Dominant weights of affine SU(n) at level k and their combinatorics.

A weight is stored by its Dynkin labels (lambda_1, ..., lambda_{n-1}); the
affine label lambda_0 = k - sum(labels) is implicit and must be >= 0.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np


@dataclass(frozen=True, order=True)
class AffineWeight:
    """A level-k dominant weight of SU(n), given by Dynkin labels."""

    n: int
    k: int
    labels: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"rank must be >= 2, got n={self.n}")
        if self.k < 1:
            raise ValueError(f"level must be >= 1, got k={self.k}")
        labels = tuple(int(a) for a in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} labels, got {len(labels)}")
        if any(a < 0 for a in labels):
            raise ValueError(f"negative Dynkin label in {labels}")
        if sum(labels) > self.k:
            raise ValueError(f"labels {labels} exceed level {self.k}")

    @property
    def label_zero(self):
        """The affine label lambda_0 = k - sum(labels)."""
        return self.k - sum(self.labels)

    @property
    def extended(self):
        """All n labels (lambda_0, lambda_1, ..., lambda_{n-1})."""
        return (self.label_zero,) + self.labels

    def simple_current(self, power=1):
        """Rotate the extended labels by `power` steps.

        The generator J sends (lambda_1, ..., lambda_{n-1}) to
        (lambda_0, lambda_1, ..., lambda_{n-2}); J^n is the identity.
        """
        ext = self.extended
        a = power % self.n
        rotated = ext[-a:] + ext[:-a] if a else ext
        return AffineWeight(self.n, self.k, rotated[1:])

    def conjugate(self):
        """The conjugate weight: labels reversed."""
        return AffineWeight(self.n, self.k, self.labels[::-1])

    @property
    def color(self):
        """The n-ality sum(i * lambda_i) mod n; 0 on the root lattice."""
        return sum(i * a for i, a in enumerate(self.labels, start=1)) % self.n

    @property
    def partition(self):
        """Partition coordinates p_i = lambda_i + ... + lambda_{n-1}, p_n = 0."""
        p = []
        total = 0
        for a in reversed(self.labels):
            total += a
            p.append(total)
        p.reverse()
        return tuple(p) + (0,)

    def conformal_weight(self):
        """Exact conformal weight h, over 2n(k+n) as `h_numerators` gives it."""
        num = h_numerators(np.array([self.labels]), self.n)[0]
        return Fraction(int(num), 2 * self.n * (self.k + self.n))

    def __str__(self):
        return ",".join(str(a) for a in self.labels)


def enumerate_weights(n, k):
    """All level-k dominant weights of SU(n), lexicographic, vacuum first."""
    if n < 2:
        raise ValueError(f"rank must be >= 2, got n={n}")
    if k < 1:
        raise ValueError(f"level must be >= 1, got k={k}")
    out = []

    def fill(prefix, budget, slots):
        if slots == 0:
            out.append(AffineWeight(n, k, prefix))
            return
        for a in range(budget + 1):
            fill(prefix + (a,), budget - a, slots - 1)

    fill((), k, n - 1)
    return out


def partitions(lab):
    """Partition coordinates p_i = lambda_i + ... + lambda_{n-1}, one row per weight.

    `lab` holds Dynkin labels, one row per weight; the n-th coordinate,
    p_n = 0, is left out.
    """
    return np.cumsum(lab[:, ::-1], axis=1)[:, ::-1]


def h_numerators(lab, n):
    """Conformal weights of SU(n)_k as integer numerators over 2n(k+n).

    `lab` holds Dynkin labels, one row per weight.  h = (lambda, lambda +
    2 rho) / 2(k+n), and in the partition coordinates p of `partitions`,
    n (lambda, lambda + 2 rho) = n sum p_i^2 - (sum p_i)^2 + n sum (n + 1 -
    2i) p_i, which costs O(n) per weight.
    """
    p = partitions(lab)
    total = p.sum(axis=1)
    i = np.arange(1, n)
    return n * (p * p).sum(axis=1) - total * total + p @ (n * (n + 1 - 2 * i))


def simple_current_table(ext):
    """Positions of J^a(w) in a lexicographic weight list, for a = 0..n-1.

    `ext` holds one row of extended labels (lambda_0, ..., lambda_{n-1}) per
    weight, in `enumerate_weights` order.  J^a rolls a row by a places, the
    rotation of `AffineWeight.simple_current`; the rolled rows are found by
    `lex_positions`.  Entry [a, i] of the (n, len(ext)) result is the
    position of J^a of weight i.
    """
    lab = ext[:, 1:]
    return np.stack(
        [lex_positions(lab, np.roll(ext, a, axis=1)[:, 1:]) for a in range(ext.shape[1])]
    )


def lex_positions(lab, rows):
    """Position of each row of `rows` in the lexicographic label array `lab`.

    Big-endian unsigned bytes compare as the integers they encode, so the
    raw bytes of a row sort like the row itself, with no overflow for any
    rank or level; `searchsorted` on those byte keys finds the rows.
    """
    keys = [np.ascontiguousarray(a, dtype=">u8") for a in (lab, rows)]
    keys = [a.view(f"V{a.itemsize * a.shape[1]}").ravel() for a in keys]
    return np.searchsorted(*keys)


def weight_count(n, k):
    """Number of level-k dominant weights of SU(n) (stars and bars)."""
    return comb(n - 1 + k, n - 1)


def weight_from_text(n, k, text):
    """Parse the text form 'a1,a2,...' into an AffineWeight."""
    parts = [s for s in text.strip().split(",") if s != ""]
    return AffineWeight(n, k, tuple(int(s) for s in parts))
