"""Simple-current machinery: locality tests, local systems, extension
spectra, abelian group tables and the quadratic-form check on them,
induction counts and coupling matrices.

Every theory gives h mod 1 as an integer code over its denominator D
(`h_code`, `h_den`).  The monodromy charge is additive in the current
(Schellekens and Yankielowicz 1990), so every locality and quadratic-form
check is an integer congruence mod D on weights of currents and labels,
with no tolerance; a Fraction is built only for a witness.  Only scalar
monodromies are supported: the acting label must be a simple current
(dimension 1), so composition with it is a permutation of the irreducibles,
and locality is tested against one label at a time.  A local system keeps
its elements and the invariant factors of the relations met in its closure.
"""

import itertools
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .modular import SectorVector
from .reporting import VerificationReport

MAX_GROUP_ORDER = 4096
COUPLING_TOL = 1e-8  # the commutators of Z with S and T


class LocalityError(RuntimeError):
    """A generator set fails to be a local system; carries the witness."""


def is_simple_current(theory, label):
    """True iff fusion with the conjugate gives exactly the vacuum."""
    exact = theory.dim_sq_of(label)
    if exact is not None:
        return exact == 1
    return theory.fuse(label, theory.conj(label)) == {theory.vacuum: 1}


def congruent_mod1(a, a_den, b, b_den):
    """a / a_den = b / b_den (mod 1), in integers."""
    return (a * b_den - b * a_den) % (a_den * b_den) == 0


def current_image(theory, current, label):
    """The single label current x label; errors if current has dim > 1."""
    prod = theory.fuse(current, label)
    if len(prod) != 1 or next(iter(prod.values())) != 1:
        raise LocalityError(f"{current!r} does not act as a simple current")
    return next(iter(prod))


def monodromy_trivial(theory, current, label):
    """Scalar locality test of a simple current against one label.

    True iff h(current x label) = h(current) + h(label) (mod 1) exactly.
    """
    if not is_simple_current(theory, current):
        raise LocalityError(
            f"monodromy test needs a dimension-1 label, got {current!r} "
            f"with dim {theory.dim(current):.8f}"
        )
    code = theory.h_code
    image = current_image(theory, current, label)
    return (code(image) - code(current) - code(label)) % theory.h_den == 0


@dataclass
class LocalSystem:
    """A finite abelian group of local simple currents of one theory."""

    theory: object
    elements: list
    generators: list
    invariant_factors: list

    @property
    def order(self):
        return len(self.elements)

    @property
    def structure(self):
        return " x ".join(f"Z{d}" for d in self.invariant_factors) or "Z1"

    def orbit(self, label):
        """Orbit of a theory label under fusion with the group."""
        images = {current_image(self.theory, g, label) for g in self.elements}
        return sorted(images, key=self.theory.index.__getitem__)


def find_local_system(theory, generators):
    """Close dimension-1 generators into a verified local system.

    Checks, exactly: every generator is a simple current with integer
    conformal weight; every pair of generators, then every pair of
    elements, has trivial monodromy; the closure is an abelian group
    closed under conjugation.  Raises LocalityError naming the witness
    otherwise.  Every element then has h = 0: each is y = g.x for a
    generator g, and the pair (g, x) gives h(y) = h(x).

    The closure gives each element its exponent vector in the generators.
    A step g_i.x that lands on a known element y gives the relation
    exponents[x] + e_i - exponents[y], and the invariant factors are those
    of Z^r modulo these relations.
    """
    gens = list(generators)
    if not gens:
        raise LocalityError("no generators given")
    for g in gens:
        if not is_simple_current(theory, g):
            raise LocalityError(
                f"generator {g!r} is not an automorphism: dim^2 "
                f"{theory.dim(g) ** 2:.8f} != 1"
            )
        if theory.h_code(g):
            raise LocalityError(
                f"generator {g!r} has nontrivial univalence: "
                f"h = {theory.h_mod1(g)} (mod 1) != 0"
            )
    for a, b in itertools.combinations_with_replacement(gens, 2):
        if not monodromy_trivial(theory, a, b):
            image = current_image(theory, a, b)
            raise LocalityError(
                f"generators ({a!r}, {b!r}) have nontrivial monodromy: "
                f"h({image!r}) = {theory.h_mod1(image)} != "
                f"{theory.h_mod1(a)} + {theory.h_mod1(b)} (mod 1)"
            )

    exponents, relations = {theory.vacuum: [0] * len(gens)}, []
    frontier = [theory.vacuum]
    while frontier:
        x = frontier.pop()
        for i, g in enumerate(gens):
            y = current_image(theory, g, x)
            step = [e + (j == i) for j, e in enumerate(exponents[x])]
            if y in exponents:
                relations.append([a - b for a, b in zip(step, exponents[y])])
            elif len(exponents) >= MAX_GROUP_ORDER:
                raise LocalityError("closure exceeds the group-order cap")
            else:
                exponents[y] = step
                frontier.append(y)
    elements = sorted(exponents, key=theory.index.__getitem__)

    code = {g: theory.h_code(g) for g in elements}
    for a, b in itertools.product(elements, repeat=2):
        c = current_image(theory, a, b)
        if c not in exponents:
            raise LocalityError(f"closure not a group: {a!r} x {b!r} escapes")
        if (code[c] - code[a] - code[b]) % theory.h_den:
            raise LocalityError(
                f"elements ({a!r}, {b!r}) have nontrivial monodromy"
            )
    for g in elements:
        if theory.conj(g) not in exponents:
            raise LocalityError(f"closure not conjugation-closed at {g!r}")
    return LocalSystem(theory, elements, gens, _invariant_factors(relations))


def _invariant_factors(relations):
    """Invariant factors of the finite group Z^r / <relations>, largest first.

    Smith reduction: the least nonzero entry is the pivot; row operations,
    then column operations (row operations on the transpose), reduce its
    column and row modulo it.  Once both are clear it is a diagonal entry.
    (gcd, lcm) swaps then make each entry divide the next.
    """
    m, d = [list(row) for row in relations], []
    while any(map(any, m)):
        _, i, j = min(
            (abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v
        )
        for _ in range(2):
            pivot = m[i]
            for k, row in enumerate(m):
                if k != i:
                    q = row[j] // pivot[j]
                    row[:] = [a - q * b for a, b in zip(row, pivot)]
            m, i, j = [list(col) for col in zip(*m)], j, i
        if sum(map(bool, m[i])) + sum(bool(row[j]) for row in m) == 2:
            d.append(abs(m[i][j]))
            m = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
    for a, b in itertools.combinations(range(len(d)), 2):
        d[a], d[b] = gcd(d[a], d[b]), lcm(d[a], d[b])
    return [x for x in reversed(d) if x > 1]


def simple_current_spectrum(system):
    """Multiplicity-1 spectrum of the extension along a local system."""
    return SectorVector(system.theory, {g: 1 for g in system.elements})


def induced_hom(theory, a, b, spectrum):
    """<alpha_a, alpha_b> = <a . spectrum, b>: fusion counted against it."""
    total = 0
    for nu, m in spectrum.mult.items():
        total += m * theory.fuse(a, nu).get(b, 0)
    return total


@dataclass
class BranchingTable:
    """Restriction of a finite extension's irreps to a base theory."""

    name: str
    ambient: object
    base: object
    rows: dict  # ambient label -> SectorVector over base


def coupling_matrix(branching):
    """Z = B^T B over the base labels; integer, symmetric, Z[0,0] = 1."""
    b = np.array([branching.rows[a].as_vector() for a in branching.ambient.labels])
    return (b.T @ b).astype(int)


def verify_coupling(branching):
    """Commutation of Z with the base S and T plus exact h congruences."""
    report = VerificationReport(subject=f"coupling {branching.name}")
    base, ambient = branching.base, branching.ambient
    z = coupling_matrix(branching)

    report.add("vacuum-entry", z[0, 0] == 1, details=f"Z[0,0] = {z[0, 0]}")
    report.add(
        "nonnegative-integers", z.min() >= 0, details=f"min entry {z.min()}"
    )

    ok, witness = True, ""
    for a in ambient.labels:
        ha = ambient.h_code(a)
        for lam in branching.rows[a].mult:
            if not congruent_mod1(base.h_code(lam), base.h_den, ha, ambient.h_den):
                ok = False
                witness = (
                    f"h({lam}) = {base.h_mod1(lam)} != "
                    f"{ambient.h_mod1(a)} = h({a}) (mod 1)"
                )
    report.add("weight-congruence", ok, details=witness)

    s = base.S
    rs = np.abs(z @ s - s @ z).max()
    report.add("commutes-with-s", rs < COUPLING_TOL, residual=float(rs))
    t = base.t_diagonal()
    rt = np.abs(z * t[None, :] - t[:, None] * z).max()
    report.add("commutes-with-t", rt < COUPLING_TOL, residual=float(rt))
    return report


def abelian_table(coords, orders):
    """The full law {(x, y): x.y} of a finite abelian group.

    `coords` maps each element to its exponent vector in
    Z_orders[0] x Z_orders[1] x ...; products add exponents modulo `orders`.
    """
    back = {tuple(v): x for x, v in coords.items()}
    return {
        (x, y): back[tuple((p + q) % n for p, q, n in zip(cx, cy, orders))]
        for x, cx in coords.items()
        for y, cy in coords.items()
    }


def quadratic_form_consistency(h_map, mul, subject="quadratic form"):
    """Check that h mod 1 is a quadratic form on a candidate abelian group.

    `h_map` assigns each element its exact h mod 1 (Fractions or ints);
    `mul` is the full composition table {(x, y): x.y} over those elements.
    Both checks are integer congruences mod the common denominator D of
    the weights, each one numpy broadcast over the table: the power rule
    h(g^2) = 4 h(g) (mod 1) for every g, and biadditivity of the pairing
    b(x, y) = h(xy) - h(x) - h(y), b(xy, z) = b(x, z) + b(y, z) (mod 1)
    for every triple.  Together they give h(g^a) = a^2 h(g) for every
    power a, since b(g, g) = 2 h(g) and h(g^(a+1)) = h(g^a) + h(g) +
    a b(g, g).  The first offending element, or triple, is the witness.
    """
    report = VerificationReport(subject=subject)
    elements = list(h_map)
    size, pos = len(elements), {x: i for i, x in enumerate(elements)}
    m = np.array([pos[mul[(x, y)]] for x in elements for y in elements], dtype=int)
    m = m.reshape(size, size)
    if not (m == np.arange(size)).all(axis=1).any():
        raise ValueError("candidate table has no identity element")
    den = lcm(*(x.denominator for x in h_map.values()))
    h = np.array([x.numerator * (den // x.denominator) % den for x in h_map.values()])

    bad, witness = np.flatnonzero(h[m.diagonal()] != 4 * h % den), ""
    if bad.size:
        g = elements[bad[0]]
        square, expected = h_map[mul[(g, g)]] % 1, 4 * h_map[g] % 1
        witness = f"h({g}^2) = {square} != 2^2 h({g}) = {expected}"
    report.add("power-rule", not bad.size, details=witness)

    b = (h[m] - h[:, None] - h[None, :]) % den
    bad, witness = np.flatnonzero(b[m] != (b[:, None, :] + b[None, :, :]) % den), ""
    if bad.size:
        g1, g2, g3 = (elements[i] for i in np.unravel_index(bad[0], (size,) * 3))
        witness = f"pairing not additive at ({g1}, {g2}; {g3})"
    report.add("biadditive-pairing", not bad.size, details=witness)
    return report
