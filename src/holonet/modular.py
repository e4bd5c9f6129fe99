"""Modular data (S, T, fusion, dimensions) for rational theories.

SU(n)_k data is computed from first principles: exact rational conformal
weights, and the Kac-Peterson S-matrix as n x n determinants over roots of
unity (the alternating sum over the symmetric group is a Leibniz expansion
of a determinant, so 10! terms collapse to an O(n^3) determinant).  Only
pairs of simple-current orbit representatives get a determinant, R^2 for R
orbits of J; the rest of S is filled exactly from the phase laws
S[J^a x, y] = exp(+2*pi*i*a*color(y)/n) S[x, y] on rows and, by symmetry,
S[x, J^b y] = exp(+2*pi*i*b*color(x)/n) S[x, y] on columns (Schellekens and
Yankielowicz 1990).  `ModularDatum.validate` still checks every entry.
The normalization constant is not taken from a closed form: its modulus is
fixed by unitarity and its phase by positivity of the vacuum row.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .weights import enumerate_weights, simple_current_table

UNITARITY_TOL = 1e-9
MODULAR_TOL = 1e-8
FUSION_TOL = 1e-6
# Fusion vectors kept per datum, least recently used dropped first: enough
# for every pair the verifier asks of its theories, while a long stream of
# user queries on a large theory holds memory flat instead of growing with it.
FUSION_CACHE_SIZE = 1024


class NumericalIntegrityError(RuntimeError):
    """A numeric result violated an exactness guarantee (bad S-matrix)."""


def central_charge(n, k):
    """Central charge k(n^2-1)/(k+n) of SU(n) at level k, exact."""
    if n < 2 or k < 1:
        raise ValueError(f"invalid rank/level ({n}, {k})")
    return Fraction(k * (n * n - 1), k + n)


def _shifted_coordinates(lab):
    """Strictly decreasing coordinates l_i = p_i + (n - i) of lambda + rho.

    `lab` holds Dynkin labels, one row per weight; p_i = lambda_i + ... +
    lambda_{n-1} are the partition coordinates, with p_n = 0.
    """
    part = np.pad(np.cumsum(lab[:, ::-1], axis=1)[:, ::-1], ((0, 0), (0, 1)))
    return part + np.arange(lab.shape[1], -1, -1)


def s_matrix(n, k):
    """Kac-Peterson S-matrix of SU(n)_k over the lexicographic weight list.

    Entry (x, y) is exp(2*pi*i*|l||m|/(n*kappa)) * det[exp(-2*pi*i*l_i*m_j/kappa)]
    with kappa = k + n and l, m the shifted coordinates of x and y.  Only the
    representatives of the simple-current orbits (the first weight of each
    orbit in the list) get a determinant: R^2 of them for R orbits, e.g.
    99^2 instead of 792^2 at SU(8)_5.  Every other entry follows exactly from
    the phase law of J and the symmetry of S.  For x = J^a r and y = J^b s
    with r, s representatives and w = exp(+2*pi*i/n),

        S[J^a r, y] = w^(a * color(y)) * S[r, y]      (rows)
        S[r, J^b s] = w^(b * color(r)) * S[r, s]      (columns)

    so S[x, y] = w^(a * color(y) + b * color(r)) * S[r, s].  With w^-1 in
    place of w the filled matrix fails validation.  On a short orbit any a
    with J^a r = x gives the same entry.  The matrix is then globally rescaled to a unitary matrix with
    positive vacuum row.  All phase arguments are reduced in integer
    arithmetic (mod kappa, n*kappa and n) before exponentiation, so every
    entry is an exact sum of roots of unity up to double rounding.
    """
    ws = enumerate_weights(n, k)
    big = len(ws)
    kappa = k + n
    lab = np.array([w.labels for w in ws], dtype=np.int64)
    color = lab @ np.arange(1, n) % n
    jtab = simple_current_table(np.column_stack([k - lab.sum(axis=1), lab]))
    rep = jtab.min(axis=0)
    power = (jtab[:, rep] == np.arange(big)).argmax(axis=0)
    reps = np.flatnonzero(rep == np.arange(big))
    orbits = len(reps)

    coords = _shifted_coordinates(lab[reps])
    root = np.exp(-2j * np.pi * np.arange(kappa) / kappa)
    block = np.empty((orbits, orbits), dtype=complex)
    chunk = max(1, (1 << 21) // (orbits * n * n))
    for lo in range(0, orbits, chunk):
        rows = coords[lo : lo + chunk]
        prod = (rows[:, None, :, None] * coords[None, :, None, :]) % kappa
        block[lo : lo + chunk] = np.linalg.det(root[prod])
    tot = coords.sum(axis=1)
    mod = n * kappa
    pre = np.exp(2j * np.pi * np.arange(mod) / mod)
    block *= pre[(tot[:, None] * tot[None, :]) % mod]

    orbit = np.searchsorted(reps, rep)
    turn = (power[:, None] * color[None, :] + color[rep][:, None] * power[None, :]) % n
    raw = block[orbit[:, None], orbit[None, :]]
    raw *= np.exp(2j * np.pi * np.arange(n) / n)[turn]
    scale = np.sqrt(np.einsum("ij,ij->", raw, raw.conj()).real / big)
    raw /= scale
    z = raw[0, 0]
    raw *= z.conjugate() / abs(z)
    return raw


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

    @property
    def support(self):
        return [label for label, _ in self.items()]

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

    def __len__(self):
        return len(self.mult)

    def __repr__(self):
        terms = " + ".join(
            (f"{m}*" if m != 1 else "") + f"[{label}]" for label, m in self.items()
        )
        return terms or "0"


class ModularDatum:
    """Labels, exact conformal weights, S-matrix and fusion of one theory."""

    def __init__(self, name, labels, h, c, S, conj_perm, dim_sq=None):
        self.name = name
        self.labels = list(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.h = [Fraction(x) for x in h]
        self.c = Fraction(c)
        self.S = np.asarray(S, dtype=complex)
        self.conj_perm = np.asarray(conj_perm, dtype=int)
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
    def mu_exact(self):
        if self.dim_sq is None:
            return None
        return sum(self.dim_sq, Fraction(0))

    def h_exact(self, label):
        return self.h[self.index[label]]

    def h_mod1(self, label):
        return self.h[self.index[label]] % 1

    def dim(self, label):
        return float(self.d[self.index[label]])

    def dim_sq_of(self, label):
        """Exact squared dimension where tabulated, else None."""
        if self.dim_sq is None:
            return None
        return self.dim_sq[self.index[label]]

    def conj(self, label):
        return self.labels[self.conj_perm[self.index[label]]]

    def univalence(self, label):
        return np.exp(2j * np.pi * float(self.h_mod1(label)))

    def t_diagonal(self):
        phases = [float(h - self.c / 24) for h in self.h]
        return np.exp(2j * np.pi * np.array(phases))

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
        return {self.labels[i]: int(m) for i, m in enumerate(coeffs) if m}

    # -- validation --------------------------------------------------------

    def validate(self, tol=UNITARITY_TOL, modular_tol=MODULAR_TOL):
        S = self.S
        eye = np.eye(self.size)
        r = {}
        r["unitarity"] = np.abs(S @ S.conj().T - eye).max()
        r["symmetry"] = np.abs(S - S.T).max()
        s2 = S @ S
        r["s_squared"] = np.abs(s2 - eye[self.conj_perm]).max()
        st = S * self.t_diagonal()[None, :]
        r["modular_relation"] = np.abs(st @ st @ st - s2).max()
        self.residuals = r
        if self.h[0] != 0:
            raise NumericalIntegrityError(f"{self.name}: vacuum weight {self.h[0]} != 0")
        if not (S[0].real > 0).all() or np.abs(S[0].imag).max() > tol:
            raise NumericalIntegrityError(f"{self.name}: vacuum row not positive")
        for key in ("unitarity", "symmetry", "s_squared"):
            if r[key] > tol:
                raise NumericalIntegrityError(
                    f"{self.name}: {key} residual {r[key]:.3g} > {tol}"
                )
        if r["modular_relation"] > modular_tol:
            raise NumericalIntegrityError(
                f"{self.name}: (ST)^3 = S^2 residual {r['modular_relation']:.3g}"
            )
        return r

    def __repr__(self):
        return f"ModularDatum({self.name}, {self.size} labels)"


@lru_cache(maxsize=None)
def sun_datum(n, k):
    """The SU(n)_k modular datum, computed from first principles and cached."""
    ws = enumerate_weights(n, k)
    index = {w: i for i, w in enumerate(ws)}
    conj_perm = [index[w.conjugate()] for w in ws]
    return ModularDatum(
        name=f"su{n}_{k}",
        labels=ws,
        h=[w.conformal_weight() for w in ws],
        c=central_charge(n, k),
        S=s_matrix(n, k),
        conj_perm=conj_perm,
    )
