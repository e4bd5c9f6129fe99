"""Modular data (S, T, fusion, dimensions) for rational theories.

SU(n)_k data is computed from first principles: integer-coded conformal
weights, and the Kac-Peterson S-matrix as n x n determinants over roots of
unity (the alternating sum over the symmetric group is a Leibniz expansion
of a determinant, so 10! terms collapse to an O(n^3) determinant).  Only
pairs of simple-current orbit representatives get a determinant, R^2 for R
orbits of J; the rest of S is filled exactly from the phase laws
S[J^a x, y] = exp(+2*pi*i*a*color(y)/n) S[x, y] on rows and, by symmetry,
S[x, J^b y] = exp(+2*pi*i*b*color(x)/n) S[x, y] on columns (Schellekens and
Yankielowicz 1990).  The determinant entries are read from a table of
R*n*kappa root-of-unity powers, and the fill takes one phase row per
(J-power, orbit color) key, at most n^2 rows; no N x N integer index array
is formed.  `ModularDatum.validate` checks the symmetry, the conjugation
and the phase law of J on every entry, one band of rows at a time with no
N x N temporary, and the products S^2 and STS on the columns of the orbit
representatives only; the phase law carries that check to every other
column.  The normalization is no closed form: unitarity fixes its modulus
and the positive vacuum row its phase.  |S|^2 is summed in einsum's own
8,192-entry slices, so S keeps einsum's bits, with no second N x N array.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .weights import (
    enumerate_weights,
    h_numerators,
    lex_positions,
    partitions,
    simple_current_table,
    weight_count,
)

UNITARITY_TOL = 1e-9
MODULAR_TOL = 1e-8
FUSION_TOL = 1e-6
# Fusion vectors kept per datum, least recently used dropped first: enough
# for every pair the verifier asks of its theories, while a long stream of
# user queries on a large theory holds memory flat instead of growing with it.
FUSION_CACHE_SIZE = 1024
# S bytes sun_datum may build: 1 GiB, 8,192 labels; peak ~1.4 x S at SU(8)_5.
MAX_S_BYTES = 1 << 30


class NumericalIntegrityError(RuntimeError):
    """A numeric result violated an exactness guarantee (bad S-matrix)."""


def central_charge(n, k):
    """Central charge k(n^2-1)/(k+n) of SU(n) at level k, exact."""
    if n < 2 or k < 1:
        raise ValueError(f"invalid rank/level ({n}, {k})")
    return Fraction(k * (n * n - 1), k + n)


def _shifted_coordinates(lab):
    """Strictly decreasing coordinates l_i = p_i + (n - i) of lambda + rho.

    `lab` holds Dynkin labels, one row per weight; p are the partition
    coordinates, with p_n = 0.
    """
    part = np.pad(partitions(lab), ((0, 0), (0, 1)))
    return part + np.arange(lab.shape[1], -1, -1)


def _bands(size):
    """Slices of 64 rows that cover range(size): a band of S stays in cache."""
    return [slice(lo, lo + 64) for lo in range(0, size, 64)]


def _norm_sq(a):
    """Sum of |a|^2: the bits of einsum("ij,ij->", a, a.conj()), not its copy of a."""
    # einsum sums in buffers of 8,192 entries, in order; so do these slices
    parts = np.split(a.reshape(-1), range(8192, a.size, 8192))
    return sum(np.einsum("i,i->", p, p.conj()).real for p in parts)


def s_matrix(n, k, lab=None):
    """Kac-Peterson S-matrix of SU(n)_k over the lexicographic weight list.

    `lab` is the Dynkin-label array of that list, one row per weight, as
    `sun_datum` builds it; without it the weights are enumerated here.
    Returns S and the permutation J of the weight list (entry i is the
    position of J applied to weight i), the simple current whose orbits
    the construction below fills.

    Entry (x, y) is exp(2*pi*i*|l||m|/(n*kappa)) * det[exp(-2*pi*i*l_i*m_j/kappa)]
    with kappa = k + n and l, m the shifted coordinates of x and y, all in
    [0, kappa).  Only the representatives of the simple-current orbits (the
    first weight of each orbit in the list) get a determinant: R^2 of them
    for R orbits, e.g. 99^2 instead of 792^2 at SU(8)_5.  Their entries are
    read from one power table, powers[r, i, m] = exp(-2*pi*i*(l_ri*m mod
    kappa)/kappa) with R*n*kappa entries, at m = l_sj.  Every other entry
    follows exactly from the phase law of J and the symmetry of S.  For
    x = J^a r and y = J^b s with r, s representatives and w = exp(+2*pi*i/n),

        S[J^a r, y] = w^(a * color(y)) * S[r, y]      (rows)
        S[r, J^b s] = w^(b * color(r)) * S[r, s]      (columns)

    so S[x, y] = w^(a * color(y) + b * color(r)) * S[r, s].  With w^-1 in
    place of w the filled matrix fails validation.  On a short orbit any a
    with J^a r = x gives the same entry.  The phase of row x depends on x
    only through its key (a, color(r)), so a table of one phase row per
    key (at most n^2 of them) serves every row; S is filled one band of
    rows at a time, the orbit block taken along rows and columns, then
    multiplied by the phase row of each key.  S is then rescaled to be
    unitary with a positive vacuum row; `_norm_sq` sums |S|^2 for that
    without a conjugate copy of S, in einsum's slices so as to keep its
    bits.  All phase arguments are reduced in integer arithmetic (mod
    kappa, n*kappa and n) before exponentiation, so every entry is an
    exact sum of roots of unity up to double rounding.
    """
    if lab is None:
        lab = np.array([w.labels for w in enumerate_weights(n, k)], dtype=np.int64)
    big = len(lab)
    kappa = k + n
    color = lab @ np.arange(1, n) % n
    jtab = simple_current_table(np.column_stack([k - lab.sum(axis=1), lab]))
    rep = jtab.min(axis=0)
    power = (jtab[:, rep] == np.arange(big)).argmax(axis=0)
    reps = np.flatnonzero(rep == np.arange(big))
    orbits = len(reps)

    coords = _shifted_coordinates(lab[reps])
    root = np.exp(-2j * np.pi * np.arange(kappa) / kappa)
    powers = root[coords[:, :, None] * np.arange(kappa) % kappa]
    block = np.empty((orbits, orbits), dtype=complex)
    chunk = max(1, (1 << 21) // (orbits * n * n))
    for lo in range(0, orbits, chunk):
        entries = np.take(powers[lo : lo + chunk], coords, axis=2)  # [r, i, s, j]
        block[lo : lo + chunk] = np.linalg.det(entries.transpose(0, 2, 1, 3))
    del entries  # R^2 n^2 entries, not held while S is filled
    tot = coords.sum(axis=1)
    mod = n * kappa
    pre = np.exp(2j * np.pi * np.arange(mod) / mod)
    block *= pre[(tot[:, None] * tot[None, :]) % mod]

    # row key a * n + color(r); phase[key, y] = w^(a * color(y) + b(y) * color(r))
    keys, key_of = np.unique(power * n + color[rep], return_inverse=True)
    turn = (keys[:, None] // n * color + keys[:, None] % n * power) % n
    phase = np.exp(2j * np.pi * np.arange(n) / n)[turn]
    orbit = np.searchsorted(reps, rep)
    raw = np.empty((big, big), dtype=complex)
    for band in _bands(big):
        out = raw[band]
        # orbit is in range; mode="clip" writes to `out` without a buffer
        np.take(block[orbit[band]], orbit, axis=1, out=out, mode="clip")
        out *= phase[key_of[band]]
    scale = np.sqrt(_norm_sq(raw) / big)
    raw /= scale
    z = raw[0, 0]
    raw *= z.conjugate() / abs(z)
    return raw, jtab[1]


class SectorVector:
    """Finitely supported nonnegative-integer combination of labels."""

    def __init__(self, theory, mult=None):
        self.theory = theory
        self.mult = {}
        if mult:
            for label, m in dict(mult).items():
                self.add(label, m)

    def add(self, label, m=1):
        if m < 0:
            raise ValueError(f"negative multiplicity {m} for {label}")
        if m == 0:
            return self
        if label not in self.theory.index:
            raise KeyError(f"label {label!r} not in theory {self.theory.name}")
        self.mult[label] = self.mult.get(label, 0) + m
        return self

    def items(self):
        idx = self.theory.index
        return sorted(self.mult.items(), key=lambda kv: idx[kv[0]])

    def total(self):
        return sum(self.mult.values())

    def total_dim(self):
        return float(sum(m * self.theory.dim(l) for l, m in self.mult.items()))

    def conjugate(self):
        out = SectorVector(self.theory)
        for label, m in self.mult.items():
            out.add(self.theory.conj(label), m)
        return out

    def as_vector(self):
        v = np.zeros(len(self.theory.labels))
        for label, m in self.mult.items():
            v[self.theory.index[label]] = m
        return v

    def __add__(self, other):
        if other.theory is not self.theory:
            raise ValueError("sector vectors over different theories")
        out = SectorVector(self.theory, self.mult)
        for label, m in other.mult.items():
            out.add(label, m)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SectorVector)
            and self.theory is other.theory
            and self.mult == other.mult
        )

    def __repr__(self):
        terms = " + ".join(
            (f"{m}*" if m != 1 else "") + f"[{label}]" for label, m in self.items()
        )
        return terms or "0"


class ModularDatum:
    """Labels, exact conformal weights, S-matrix and fusion of one theory.

    `h` (int64, one per label) and `c_num` are the integer numerators of
    the conformal weights and of c over one denominator `h_den`, 2n(k+n)
    for SU(n)_k; a Fraction is built only to show a value (`h_exact`,
    `h_mod1`, `c`).  `conj_perm` and `current_perm` give the positions of
    the conjugate and of the image under a simple current J of each label;
    without a current, J is the identity.
    """

    def __init__(
        self, name, labels, h, c_num, h_den, S, conj_perm, dim_sq=None, current_perm=None
    ):
        self.name = name
        self.labels = list(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.h = np.asarray(h, dtype=np.int64)
        self.c_num, self.h_den = int(c_num), int(h_den)
        self.S = np.asarray(S, dtype=complex)
        self.conj_perm = np.asarray(conj_perm, dtype=int)
        self.current_perm = np.asarray(
            range(len(self.labels)) if current_perm is None else current_perm, dtype=int
        )
        self.dim_sq = None if dim_sq is None else [Fraction(x) for x in dim_sq]
        self.d = self.S[0].real / self.S[0, 0].real
        self.mu = float(1.0 / self.S[0, 0].real ** 2)
        self._fusion_cache = {}
        self.residuals = {}
        self.validate()

    # -- identity and structure ------------------------------------------

    @property
    def size(self):
        return len(self.labels)

    @property
    def vacuum(self):
        return self.labels[0]

    @property
    def c(self):
        return Fraction(self.c_num, self.h_den)

    @property
    def mu_exact(self):
        if self.dim_sq is None:
            return None
        return sum(self.dim_sq, Fraction(0))

    def h_code(self, label):
        return int(self.h[self.index[label]]) % self.h_den

    def h_exact(self, label):
        return Fraction(int(self.h[self.index[label]]), self.h_den)

    def h_mod1(self, label):
        return Fraction(self.h_code(label), self.h_den)

    def dim(self, label):
        return float(self.d[self.index[label]])

    def dim_sq_of(self, label):
        """Exact squared dimension where tabulated, else None."""
        if self.dim_sq is None:
            return None
        return self.dim_sq[self.index[label]]

    def conj(self, label):
        return self.labels[self.conj_perm[self.index[label]]]

    def t_diagonal(self):
        """exp(2 pi i (h - c/24)), the phase reduced mod 1 in integers first."""
        mod = 24 * self.h_den
        return np.exp(2j * np.pi * ((24 * self.h - self.c_num) % mod / mod))

    # -- fusion -----------------------------------------------------------

    def fusion_coeffs(self, a, b):
        """Verlinde coefficients N_{ab}^c for all c, as an integer vector."""
        i, j = self.index[a], self.index[b]
        key = (i, j) if i <= j else (j, i)
        cache = self._fusion_cache
        out = cache.pop(key, None)
        if out is None:
            w = self.S[key[0]] * self.S[key[1]] / self.S[0]
            vec = np.conj(self.S @ np.conj(w))  # S.conj() @ w, S not copied
            out = np.rint(vec.real).astype(int)
            resid = np.abs(vec - out).max()
            if resid >= FUSION_TOL:
                raise NumericalIntegrityError(
                    f"{self.name}: fusion rounding residual {resid:.3g} "
                    f"for ({a}, {b})"
                )
            if out.min() < 0:
                raise NumericalIntegrityError(
                    f"{self.name}: negative fusion coefficient for ({a}, {b})"
                )
            if len(cache) >= FUSION_CACHE_SIZE:
                del cache[next(iter(cache))]
        cache[key] = out
        return out

    def fuse(self, a, b):
        """Fusion product as a {label: multiplicity} dict."""
        coeffs = self.fusion_coeffs(a, b)
        nonzero = np.flatnonzero(coeffs).tolist()
        return dict(zip([self.labels[i] for i in nonzero], coeffs[nonzero].tolist()))

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check that S, T, C and J are modular data; store and return residuals.

        Exact checks come first: h(vacuum) = 0, C is an involution that
        keeps every conformal weight (so T C = C T), J is a permutation and
        C = J C J.  Then three O(N^2) elementwise residuals, measured one
        band of rows at a time (`_elementwise_residuals`), with no N x N
        temporary:

          phase_law     max |S[Jx, y] - e(Q(y)) S[x, y]|, where the charge
                        Q(y) = h(J0) + h(y) - h(Jy) mod 1 is read off the
                        T diagonal: e(Q(y)) = t(J0) t(y) / (t(0) t(Jy))
          symmetry      max |S - S^T|
          conjugation   max |conj(S) - C S|

        and two products on the columns of the R orbit representatives of
        J: D = S^2 - C and P = STS - T^-1 S T^-1.  The phase law gives
        D[x, Jy] = D[Jx, y] and P[x, Jy] = P[Jx, y] up to the per-step
        errors e_D = sqrt(N) rho (2 symmetry + 2 phase) and e_P = e_D +
        2 symmetry + 2 phase, where phase is phase_law + 16 u rho for the
        rounding of e(Q), so a column J^b r (b < L, the longest orbit)
        is the column r permuted, to within b e_D or b e_P.  Here rho is
        the largest row or column 2-norm of S.  The other keys are upper
        bounds, exact to first order in the unit roundoff u, of what the
        dense matrices would give:

          s_squared         max |S^2 - C|: the block maximum + (L - 1) e_D
                            + w, where w = 4 (N + 2) u rho^2 covers the
                            rounding of a product entry, here and in the
                            dense product
          unitarity         max |S S^H - I|: s_squared + sqrt(N) rho
                            (conjugation + symmetry), since S S^H = S^2 C
                            up to those terms
          modular_relation  max |(ST)^3 - S^2|: 2 s_squared + sqrt(N) rho
                            max|P|, with max|P| bounded as s_squared is,
                            since (ST)^3 - S^2 = T^-1 D T - D + P T S T

        With J the identity, R = N and L = 1.  `modular_relation` is held
        to MODULAR_TOL, every other residual to UNITARITY_TOL.
        """
        S, conj, cur, h = self.S, self.conj_perm, self.current_perm, self.h
        size = self.size
        identity = np.arange(size)
        if h[0] != 0:
            raise NumericalIntegrityError(
                f"{self.name}: vacuum weight {self.h_exact(self.vacuum)} != 0"
            )
        if not (S[0].real > 0).all() or np.abs(S[0].imag).max() > UNITARITY_TOL:
            raise NumericalIntegrityError(f"{self.name}: vacuum row not positive")
        if not np.array_equal(conj[conj], identity) or not np.array_equal(h[conj], h):
            raise NumericalIntegrityError(
                f"{self.name}: conjugation is not an involution keeping h"
            )
        if not np.array_equal(np.sort(cur), identity) or not np.array_equal(
            cur[conj[cur]], conj
        ):
            raise NumericalIntegrityError(
                f"{self.name}: J is not a permutation with C = J C J"
            )

        t = self.t_diagonal()
        r, rho = _elementwise_residuals(S, cur, conj, t)

        # The lowest label on each orbit of J, and the longest orbit L.
        low, image, longest = identity.copy(), cur.copy(), 1
        moving = image != identity
        while moving.any():
            np.minimum(low, image, out=low)
            image = cur[image]
            longest += 1
            moving &= image != identity
        reps = np.flatnonzero(low == identity)
        cols = S[:, reps]
        block = S @ cols
        block[conj[reps], np.arange(len(reps))] -= 1
        d_max = np.abs(block).max()
        np.matmul(S, t[:, None] * cols, out=block)
        cols /= t[:, None]
        cols /= t[reps]
        block -= cols
        p_max = np.abs(block).max()

        u = np.finfo(float).eps / 2
        root = np.sqrt(size) * rho
        step = 2 * (r["symmetry"] + r["phase_law"] + 16 * u * rho)
        rounding = 4 * (size + 2) * u * rho * rho
        r["s_squared"] = d_max + (longest - 1) * root * step + rounding
        r["unitarity"] = r["s_squared"] + root * (r["conjugation"] + r["symmetry"])
        p_bound = p_max + (longest - 1) * (root + 1) * step + rounding
        r["modular_relation"] = 2 * r["s_squared"] + root * p_bound
        self.residuals = r
        for key, value in r.items():
            limit = MODULAR_TOL if key == "modular_relation" else UNITARITY_TOL
            if not value <= limit:
                raise NumericalIntegrityError(
                    f"{self.name}: {key} residual {value:.3g} > {limit}"
                )
        return r

    def __repr__(self):
        return f"ModularDatum({self.name}, {self.size} labels)"


def _elementwise_residuals(S, cur, conj, t):
    """The phase_law, symmetry and conjugation residuals of `validate`, and rho.

    Each is the maximum over bands of 64 rows of the same entrywise
    difference a whole-matrix pass would form, so the values are the same
    floats.  S - S^T is antisymmetric, so `symmetry` reads only the bands
    on and above the diagonal.  rho is the largest row or column 2-norm;
    the squared column norms are summed one row after another, the order
    in which numpy sums a whole matrix along its first axis.
    """
    size = len(S)
    law = (t[cur[0]] / t[0] * t / t[cur]).conj()
    bands = _bands(size)
    peaks = np.empty((len(bands), 4))
    col_sq = np.zeros(size)
    for peak, band in zip(peaks, bands):
        diff = S[cur[band]]
        diff *= law
        diff -= S[band]
        peak[0] = np.abs(diff).max()
        lo = band.start
        peak[1] = np.abs(S[band, lo:] - S[lo:, band].T).max()
        diff = S[conj[band]]
        np.conjugate(diff, out=diff)
        diff -= S[band]
        peak[2] = np.abs(diff).max()
        sq = np.abs(S[band])
        sq *= sq
        peak[3] = sq.sum(axis=1).max()
        for row in sq:
            col_sq += row
    phase_law, symmetry, conjugation, row_sq = peaks.max(axis=0)
    rho = np.sqrt(max(col_sq.max(), row_sq))
    return {"phase_law": phase_law, "symmetry": symmetry, "conjugation": conjugation}, rho


@lru_cache(maxsize=None)
def sun_datum(n, k):
    """The SU(n)_k modular datum, computed from first principles and cached.

    A theory whose S would exceed MAX_S_BYTES is refused with a ValueError
    before any weight is enumerated.
    """
    size = weight_count(n, k) if n > 1 and k > 0 else 0  # else enumeration refuses
    if 16 * size * size > MAX_S_BYTES:
        raise ValueError(
            f"su{n}_{k} has {size:,} labels: its S-matrix needs "
            f"{16 * size * size:,} bytes, over the {MAX_S_BYTES:,}-byte limit"
        )
    ws = enumerate_weights(n, k)
    lab = np.array([w.labels for w in ws], dtype=np.int64)
    S, current_perm = s_matrix(n, k, lab)
    return ModularDatum(
        name=f"su{n}_{k}",
        labels=ws,
        h=h_numerators(lab, n),
        c_num=2 * n * k * (n * n - 1),  # c = k(n^2-1)/(k+n) over 2n(k+n)
        h_den=2 * n * (k + n),
        S=S,
        conj_perm=lex_positions(lab, lab[:, ::-1]),
        current_perm=current_perm,
    )
