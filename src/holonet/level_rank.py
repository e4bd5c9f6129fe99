"""Level-rank duality between SU(m) at level n and SU(n) at level m.

`dual_weight` is the combinatorial bijection built from complementary
decreasing sequences in {1, ..., m+n} ("complementary slicing of the pie");
`transpose_weight` is the Young-diagram transpose, a current twist of it.

`branching_pairs` assembles, for one level-1 label of SU(mn), the table of
partner weights inside that SU(mn)_1 sector.  Any valid partner is a current
twist of the dual weight, constrained by the n-ality of both sides and the
exact conformal-weight congruence

    h(w) + h(partner) = h(level-1 label)   (mod 1).

For the vacuum sector those congruences leave a residual twist freedom
whenever gcd(m, n) > 1, but the partner map is also an isomorphism of the
color-0 fusion rings, which pins it completely (verified by exhaustive
search in the test suite): the unique consistent table is

    partner(w) = J^(-|w|/m) (transpose of w)

with |w| the box count of the reduced Young diagram.  The table is
re-verified on construction: every partner passes the color and congruence
filters and the map is injective, else PairingError.
"""

from dataclasses import dataclass, field

import numpy as np

from .extensions import congruent_mod1
from .weights import AffineWeight, enumerate_weights, h_numerators


class PairingError(RuntimeError):
    """The partner table could not be pinned down consistently."""


def dual_weight(w):
    """The level-rank dual of an SU(m) level-n weight, in SU(n) level m.

    Shifted labels k_i = extended_i + 1 sum to m+n; their suffix sums give a
    decreasing sequence r in {1, ..., m+n}; the complementary decreasing
    sequence rbar yields s_j = m + n + rbar_n - rbar_{n-j+1}, and successive
    differences minus one are the dual Dynkin labels.
    """
    m, n = w.n, w.k
    total = m + n
    kk = [a + 1 for a in w.extended]
    r = [sum(kk[j:m]) + kk[0] for j in range(1, m + 1)]
    taken = set(r)
    rbar = [x for x in range(total, 0, -1) if x not in taken]
    s = [total + rbar[n - 1] - rbar[n - j] for j in range(1, n + 1)]
    labels = tuple(s[j - 1] - s[j] - 1 for j in range(1, n))
    return AffineWeight(n, m, labels)


def transpose_weight(w):
    """Young-diagram transpose of an SU(m) level-n weight, in SU(n) level m.

    A current twist of `dual_weight`.  Label differences strip the full
    columns of the transposed diagram implicitly.
    """
    m, n = w.n, w.k
    rows = [x for x in w.partition if x > 0]
    cols = rows[0] if rows else 0
    q = [sum(1 for x in rows if x >= i) for i in range(1, cols + 1)]
    q += [0] * (n - len(q))
    labels = tuple(q[j] - q[j + 1] for j in range(n - 1))
    return AffineWeight(n, m, labels)


def box_count(w):
    """Boxes of the reduced Young diagram; box_count mod m is the color."""
    return sum(w.partition)


def exp_set(m, n):
    """All color-0 (root lattice) weights of SU(m) at level n."""
    return [w for w in enumerate_weights(m, n) if w.color == 0]


@dataclass
class PairingTable:
    """Partner table for one level-1 sector of SU(mn)."""

    m: int
    n: int
    level_one_label: int
    pairs: dict = field(default_factory=dict)

    def partner(self, w):
        return self.pairs[w]

    @property
    def domain(self):
        return sorted(self.pairs)

    def __len__(self):
        return len(self.pairs)


def _congruent(ws, images, m, n, ell):
    """h(w) + h(image) = h(ell) = ell(mn - ell) / 2mn (mod 1), per pair."""
    def codes(xs, r):  # numerators of h over 2r(m+n)
        return h_numerators(np.array([x.labels for x in xs]).reshape(-1, r - 1), r)

    den = 2 * m * n
    total = (codes(ws, m) * n + codes(images, n) * m).tolist()  # over den (m + n)
    return [congruent_mod1(t, den * (m + n), ell * (m * n - ell), den) for t in total]


def _twist_candidates(w, n, ell):
    base = dual_weight(w)
    out = []
    for t in range(n):
        image = base.simple_current(t)
        if image.color == ell % n and image not in out:
            out.append(image)
    return [x for x, ok in zip(out, _congruent([w] * len(out), out, w.n, n, ell)) if ok]


def branching_pairs(m, n, level_one_label=0):
    """Partner table of the SU(mn)_1 sector `level_one_label` under SU(m)xSU(n).

    Domain: SU(m)_n weights of color = label (mod m).  The vacuum sector uses
    the box-twisted transpose (see module docstring); other sectors are only
    provided where the color and weight congruences already pin the twist.
    """
    if m < 2 or n < 2:
        raise ValueError(f"need m, n >= 2, got ({m}, {n})")
    ell = level_one_label % (m * n)
    domain = [w for w in enumerate_weights(m, n) if w.color == ell % m]

    table = PairingTable(m, n, ell)
    if ell == 0:
        images = [transpose_weight(w).simple_current(-(box_count(w) // m)) for w in domain]
        for w, image, ok in zip(domain, images, _congruent(domain, images, m, n, 0)):
            if image.color != 0 or not ok:
                raise PairingError(
                    f"({m},{n}): canonical partner of {w} fails the congruence"
                )
            table.pairs[w] = image
    else:
        for w in domain:
            cands = _twist_candidates(w, n, ell)
            if not cands:
                raise PairingError(
                    f"({m},{n}) sector {ell}: no consistent partner for {w}"
                )
            if len(cands) > 1:
                raise PairingError(
                    f"({m},{n}) sector {ell}: partner of {w} underdetermined "
                    f"by the congruences ({len(cands)} candidates)"
                )
            table.pairs[w] = cands[0]

    images = set(table.pairs.values())
    if len(images) != len(domain):
        raise PairingError(f"({m},{n}) sector {ell}: partner map not injective")
    return table


def vacuum_pairing(m, n):
    """Partner table inside the vacuum of SU(mn)_1."""
    return branching_pairs(m, n, 0)
