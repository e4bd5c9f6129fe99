"""Table-driven level-1 modular data: SU(m)_1, Spin(N)_1, (E6)_1.

Pointed (all dimensions 1) theories give each label its exponent vector in
the fusion group (Z_m, Z_3, Z_4 or Z_2 x Z_2); extensions.abelian_table
turns those into the group law.  The S-matrix comes from the quadratic
form on that group, S_ab = theta(a) theta(b) / (theta(ab) sqrt(|G|)),
the sign forced by (ST)^3 = S^2; the odd-Spin series uses the standard
three-label Ising-shaped block.  Conformal weights and central charges are
tabulated as integer numerators over one denominator per family (2m, 16,
3).  Every table is validated against the full ModularDatum invariants on
construction.

This module also owns the theory-token grammar shared by the library and
the command line: 'su<n>_<k>', 'spin<N>_<k>' and 'e6_<k>'.  `theory_datum`
resolves a token to SU(n)_k from first principles when k > 1 and to a
level-1 table otherwise; `level_one_datum` accepts level-1 tokens only.
"""

import re
from functools import lru_cache

import numpy as np

from .extensions import abelian_table
from .modular import ModularDatum, sun_datum


def _pointed_datum(name, coords, orders, h, c_num, h_den):
    """Datum of a pointed theory whose labels are the keys of `coords`,
    each with its exponent vector in the fusion group (see abelian_table)."""
    labels = list(coords)
    index = {label: i for i, label in enumerate(labels)}
    law = abelian_table(coords, orders)
    size = len(labels)
    theta = np.exp(2j * np.pi * (np.array(h) % h_den / h_den))
    S = np.empty((size, size), dtype=complex)
    for a, x in enumerate(labels):
        for b, y in enumerate(labels):
            S[a, b] = theta[a] * theta[b] / theta[index[law[(x, y)]]]
    S /= np.sqrt(size)
    inverse = [
        next(b for b, y in enumerate(labels) if law[(x, y)] == labels[0])
        for x in labels
    ]
    return ModularDatum(
        name, labels, h, c_num, h_den, S, conj_perm=inverse, dim_sq=[1] * size
    )


@lru_cache(maxsize=None)
def su_level_one(m):
    """SU(m)_1: labels y0..y{m-1}, h(yj) = j(m-j)/2m, Z_m fusion."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    coords = {f"y{j}": (j,) for j in range(m)}
    h = [j * (m - j) for j in range(m)]
    return _pointed_datum(f"su{m}_1", coords, (m,), h, (m - 1) * 2 * m, 2 * m)


@lru_cache(maxsize=None)
def spin_level_one(N):
    """Spin(N)_1 with h = (0, 1/2, N/16[, N/16]) and c = N/2, over 16.

    Odd N: three labels 1, v, s with Ising-shaped S and [s.s] = [1]+[v].
    Even N: four dimension-1 labels; fusion Z_4 when N = 2 mod 4 and
    Z_2 x Z_2 when N = 0 mod 4.
    """
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    h = [0, 8, N, N]
    if N % 2 == 1:
        r2 = np.sqrt(2.0)
        S = 0.5 * np.array([[1, 1, r2], [1, 1, -r2], [r2, -r2, 0]], dtype=complex)
        return ModularDatum(
            f"spin{N}_1", ["1", "v", "s"], h[:3], 8 * N, 16, S,
            conj_perm=[0, 1, 2], dim_sq=[1, 1, 2],
        )
    if N % 4 == 2:  # s generates Z_4 with s^2 = v
        coords, orders = {"1": (0,), "v": (2,), "s": (1,), "s'": (3,)}, (4,)
    else:  # Klein group: v = s.s'
        coords = {"1": (0, 0), "v": (1, 1), "s": (1, 0), "s'": (0, 1)}
        orders = (2, 2)
    return _pointed_datum(f"spin{N}_1", coords, orders, h, 8 * N, 16)


@lru_cache(maxsize=None)
def e6_level_one():
    """(E6)_1: three labels with h = (0, 2/3, 2/3), c = 6 over 3, Z_3 fusion."""
    coords = {"1": (0,), "27": (1,), "27*": (2,)}
    return _pointed_datum("e6_1", coords, (3,), [0, 2, 2], 18, 3)


_TOKEN = re.compile(r"^(su|spin|e6)(\d*)_(\d+)$")


def _parse(token):
    """Split a theory token 'su<n>_<k>', 'spin<N>_<k>' or 'e6_<k>' (any
    case) into (family, size, level); size is None for e6."""
    m = _TOKEN.match(token.strip().lower())
    if not m or (m.group(1) == "e6") == bool(m.group(2)):
        raise ValueError(f"cannot parse theory token {token!r}")
    family, size, level = m.groups()
    return family, int(size) if size else None, int(level)


def level_one_datum(kind):
    """Resolve a token like 'su5_1', 'spin7_1' or 'e6_1' to its datum."""
    family, size, level = _parse(kind)
    if level != 1:
        raise ValueError(f"{kind!r}: only level 1 is table-driven")
    if family == "su":
        return su_level_one(size)
    if family == "spin":
        return spin_level_one(size)
    return e6_level_one()


def theory_datum(token):
    """Resolve any theory token: 'su<n>_<k>' with k > 1 is SU(n)_k computed
    by `sun_datum`, every other token names a level-1 table."""
    family, size, level = _parse(token)
    if family == "su" and level > 1:
        return sun_datum(size, level)
    return level_one_datum(token)
