"""Simple-current machinery: locality tests, local systems, extension
spectra, index arithmetic, induction counts and coupling matrices.

All locality checks are exact congruences on rational conformal weights;
no tolerance enters.  Only scalar monodromies are supported: the acting
label must be a simple current (dimension 1), so composition with it is a
permutation of the irreducibles.
"""

import itertools
from dataclasses import dataclass
from math import lcm

import numpy as np

from .modular import SectorVector
from .reporting import VerificationReport

MAX_GROUP_ORDER = 4096


class LocalityError(RuntimeError):
    """A generator set fails to be a local system; carries the witness."""


def is_simple_current(theory, label):
    """True iff fusion with the conjugate gives exactly the vacuum."""
    exact = theory.dim_sq_of(label)
    if exact is not None:
        return exact == 1
    return theory.fuse(label, theory.conj(label)) == {theory.vacuum: 1}


def current_image(theory, current, label):
    """The single label current x label; errors if current has dim > 1."""
    prod = theory.fuse(current, label)
    if len(prod) != 1 or next(iter(prod.values())) != 1:
        raise LocalityError(f"{current!r} does not act as a simple current")
    return next(iter(prod))


def monodromy_trivial(theory, current, other):
    """Scalar locality test of a simple current against a (sum of) label(s).

    True iff h(current x comp) = h(current) + h(comp) (mod 1) exactly for
    every irreducible component.
    """
    if not is_simple_current(theory, current):
        raise LocalityError(
            f"monodromy test needs a dimension-1 label, got {current!r} "
            f"with dim {theory.dim(current):.8f}"
        )
    if isinstance(other, SectorVector):
        components = list(other.mult)
    else:
        components = [other]
    hc = theory.h_mod1(current)
    for label in components:
        image = current_image(theory, current, label)
        if (theory.h_mod1(image) - hc - theory.h_mod1(label)) % 1 != 0:
            return False
    return True


@dataclass
class LocalSystem:
    """A finite abelian group of local simple currents of one theory."""

    theory: object
    elements: list
    generators: list
    mul: dict
    invariant_factors: list

    @property
    def order(self):
        return len(self.elements)

    @property
    def structure(self):
        return " x ".join(f"Z{d}" for d in self.invariant_factors) or "Z1"

    def product(self, a, b):
        return self.mul[(a, b)]

    def orbit(self, label):
        """Orbit of a theory label under fusion with the group."""
        seen = []
        for g in self.elements:
            image = current_image(self.theory, g, label)
            if image not in seen:
                seen.append(image)
        idx = self.theory.index
        return sorted(seen, key=idx.__getitem__)

    def monodromy_charges(self, label):
        """Exact charge q(g) = h(g.label) - h(g) - h(label) mod 1, per g."""
        th = self.theory
        hl = th.h_mod1(label)
        return {
            g: (th.h_mod1(current_image(th, g, label)) - th.h_mod1(g) - hl) % 1
            for g in self.elements
        }


def find_local_system(theory, generators):
    """Close dimension-1 generators into a verified local system.

    Checks, exactly: every generator is a simple current with integer
    conformal weight; every pair of generators (hence of elements) has
    trivial monodromy; the closure is an abelian group closed under
    conjugation.  Raises LocalityError naming the witness otherwise.
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
        hg = theory.h_mod1(g)
        if hg != 0:
            raise LocalityError(
                f"generator {g!r} has nontrivial univalence: "
                f"h = {hg} (mod 1) != 0"
            )
    for a, b in itertools.combinations_with_replacement(gens, 2):
        if not monodromy_trivial(theory, a, b):
            image = current_image(theory, a, b)
            raise LocalityError(
                f"generators ({a!r}, {b!r}) have nontrivial monodromy: "
                f"h({image!r}) = {theory.h_mod1(image)} != "
                f"{theory.h_mod1(a)} + {theory.h_mod1(b)} (mod 1)"
            )

    vacuum = theory.vacuum
    members = {vacuum}
    frontier = [vacuum]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = current_image(theory, g, x)
            if y not in members:
                if len(members) >= MAX_GROUP_ORDER:
                    raise LocalityError("closure exceeds the group-order cap")
                members.add(y)
                frontier.append(y)
    elements = sorted(members, key=theory.index.__getitem__)

    mul = {}
    for a, b in itertools.product(elements, repeat=2):
        c = current_image(theory, a, b)
        if c not in members:
            raise LocalityError(f"closure not a group: {a!r} x {b!r} escapes")
        mul[(a, b)] = c
        if (theory.h_mod1(c) - theory.h_mod1(a) - theory.h_mod1(b)) % 1 != 0:
            raise LocalityError(
                f"elements ({a!r}, {b!r}) have nontrivial monodromy"
            )
    for g in elements:
        if theory.h_mod1(g) != 0:
            raise LocalityError(f"element {g!r} has h = {theory.h_mod1(g)} != 0")
        if theory.conj(g) not in members:
            raise LocalityError(f"closure not conjugation-closed at {g!r}")

    factors = _invariant_factors(elements, mul, vacuum)
    return LocalSystem(theory, elements, gens, mul, factors)


def _order_of(g, mul, identity):
    n, x = 1, g
    while x != identity:
        x = mul[(x, g)]
        n += 1
    return n


def _invariant_factors(elements, mul, identity):
    """Invariant factors d1 >= d2 >= ... (each dividing the previous)."""
    if len(elements) == 1:
        return []
    orders = {g: _order_of(g, mul, identity) for g in elements}
    exponent = lcm(*orders.values())
    g = next(x for x in elements if orders[x] == exponent)
    cyclic = [identity]
    x = g
    while x != identity:
        cyclic.append(x)
        x = mul[(x, g)]
    cyclic_set = set(cyclic)
    # quotient by <g>: partition into cosets with induced multiplication
    coset_of, reps = {}, []
    for x in elements:
        if x in coset_of:
            continue
        rep = x
        members = [mul[(x, c)] for c in cyclic]
        for y in members:
            coset_of[y] = rep
        reps.append(rep)
    if len(reps) == 1:
        return [exponent]
    qmul = {
        (a, b): coset_of[mul[(a, b)]] for a, b in itertools.product(reps, repeat=2)
    }
    qid = coset_of[identity]
    reps = [qid] + [r for r in reps if r != qid]
    return [exponent] + _invariant_factors(reps, qmul, qid)


def simple_current_spectrum(system):
    """Multiplicity-1 spectrum of the extension along a local system."""
    return SectorVector(system.theory, {g: 1 for g in system.elements})


def extension_index(spec):
    """Index of the extension with this spectrum: sum of m * dim."""
    return spec.total_dim()


def mu_after(mu_base, index):
    """The mu-index after an index-`index` extension: mu / index^2."""
    return mu_base / (index * index)


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

    def coupling_entries(self):
        amb = [self.rows[a].as_vector() for a in self.ambient.labels]
        return np.array(amb)


def coupling_matrix(branching):
    """Z = B^T B over the base labels; integer, symmetric, Z[0,0] = 1."""
    b = branching.coupling_entries()
    return (b.T @ b).astype(int)


def verify_coupling(branching, tol=1e-8):
    """Commutation of Z with the base S and T plus exact h congruences."""
    report = VerificationReport(subject=f"coupling {branching.name}")
    base, ambient = branching.base, branching.ambient
    z = coupling_matrix(branching)

    report.add("vacuum-entry", z[0, 0] == 1, details=f"Z[0,0] = {z[0, 0]}")
    report.add(
        "nonnegative-integers", z.min() >= 0, details=f"min entry {z.min()}"
    )

    congruent = True
    witness = ""
    for a in ambient.labels:
        ha = ambient.h_mod1(a)
        for lam in branching.rows[a].mult:
            if base.h_mod1(lam) != ha:
                congruent = False
                witness = (
                    f"h({lam}) = {base.h_mod1(lam)} != {ha} = h({a}) (mod 1)"
                )
    report.add("weight-congruence", congruent, details=witness)

    s = base.S
    rs = np.abs(z @ s - s @ z).max()
    report.add("commutes-with-s", rs < tol, residual=float(rs))
    t = base.t_diagonal()
    rt = np.abs(z * t[None, :] - t[:, None] * z).max()
    report.add("commutes-with-t", rt < tol, residual=float(rt))
    return report


def quadratic_form_consistency(h_map, mul, subject="quadratic form"):
    """Check that h mod 1 is a quadratic form on a candidate abelian group.

    `h_map` assigns each element its exact h mod 1; `mul` is the candidate
    composition.  Verifies h(g^a) = a^2 h(g) (mod 1) for all powers, and
    that b(g, h) = h(gh) - h(g) - h(h) is biadditive (mod 1).  Violations
    are reported with the offending element and power, or pair.
    """
    report = VerificationReport(subject=subject)
    elements = list(h_map)
    identity = next(
        (g for g in elements if _is_identity(g, elements, mul)), None
    )
    if identity is None:
        raise ValueError("candidate table has no identity element")

    ok, witness = True, ""
    for g in elements:
        power, a = g, 1
        while True:
            expected = (a * a * h_map[g]) % 1
            if h_map[power] % 1 != expected:
                ok = False
                witness = (
                    f"h({g}^{a}) = {h_map[power] % 1} != {a}^2 h({g}) = {expected}"
                )
                break
            if power == identity and a > 0:
                break
            a += 1
            power = mul[(power, g)] if (power, g) in mul else mul[(g, power)]
            if a > len(elements) + 1:
                ok = False
                witness = f"{g} does not have finite order under the table"
                break
        if not ok:
            break
    report.add("power-rule", ok, details=witness)

    def pairing(a, b):
        ab = mul[(a, b)] if (a, b) in mul else mul[(b, a)]
        return (h_map[ab] - h_map[a] - h_map[b]) % 1

    ok, witness = True, ""
    for g1, g2, h in itertools.product(elements, repeat=3):
        g12 = mul[(g1, g2)] if (g1, g2) in mul else mul[(g2, g1)]
        if pairing(g12, h) != (pairing(g1, h) + pairing(g2, h)) % 1:
            ok = False
            witness = f"pairing not additive at ({g1}, {g2}; {h})"
            break
    report.add("biadditive-pairing", ok, details=witness)
    return report


def _is_identity(g, elements, mul):
    for x in elements:
        prod = mul.get((g, x), mul.get((x, g)))
        if prod != x:
            return False
    return True
