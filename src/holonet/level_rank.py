"""Level-rank duality between SU(m) at level n and SU(n) at level m.

`transpose_weight` is the Young-diagram transpose, and `dual_weight` the
level-rank dual: that transpose twisted by the simple current J^(lambda_0),
lambda_0 the affine label of the weight.

`branching_pairs` assembles, for one level-1 label ell of SU(mn), the table
of partner weights inside that SU(mn)_1 sector, on label arrays.  A partner
of w is a current twist J^a v of its transpose v of color ell (mod n) that
meets the exact conformal-weight congruence

    h(w) + h(J^a v) = h(ell) = ell(mn - ell) / 2mn   (mod 1).

The simple-current laws (Schellekens and Yankielowicz 1990) give the color
and the h numerator over 2n(m+n) of every twist from v and t = color(v):

    color(J^a v) = t + a m   (mod n),
    code(J^a v) = code(v) + (m+n)(a m (n-1) - 2 a t - m a(a-1))  (mod 2n(m+n)),

so one boolean mask over (w, a) serves every sector.  Off the vacuum, a
partner exists where exactly one distinct twist passes.

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

from .weights import AffineWeight, enumerate_weights, h_numerators, partitions


class PairingError(RuntimeError):
    """The partner table could not be pinned down consistently."""


def dual_weight(w):
    """The level-rank dual of an SU(m) level-n weight, in SU(n) level m."""
    return transpose_weight(w).simple_current(w.label_zero)


def transpose_weight(w):
    """Young-diagram transpose of an SU(m) level-n weight, in SU(n) level m."""
    return AffineWeight(w.k, w.n, _transpose(np.array([w.labels]), w.k)[0])


def _transpose(lab, n):
    """Young-diagram transposes of SU(m) level-n weights, one row of Dynkin
    labels each: column i has q_i = #{j : p_j >= i} boxes, and the SU(n)
    labels are q_i - q_{i+1}, which strips the full columns implicitly."""
    q = (partitions(lab)[:, :, None] >= np.arange(1, n + 1)).sum(axis=1)
    return q[:, :-1] - q[:, 1:]


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
    lab = np.array([w.labels for w in domain]).reshape(-1, m - 1)
    trans = _transpose(lab, n)
    ext = np.hstack([m - trans.sum(axis=1, keepdims=True), trans])
    a, t = np.arange(n), (trans @ np.arange(1, n) % n)[:, None]
    shift = (m + n) * (a * m * (n - 1) - 2 * a * t - m * a * (a - 1))  # code(J^a v) - code(v)
    # h(w) + h(J^a v) as a numerator over 2mn(m+n)
    total = (h_numerators(lab, m) * n + h_numerators(trans, n) * m)[:, None] + shift * m
    mask = ((t + a * m - ell) % n == 0) & (
        (total - ell * (m * n - ell) * (m + n)) % (2 * m * n * (m + n)) == 0
    )

    rows = np.arange(len(domain))
    if ell == 0:
        twist = -partitions(lab).sum(axis=1) // m % n
        for i in np.flatnonzero(~mask[rows, twist])[:1]:
            raise PairingError(
                f"({m},{n}): canonical partner of {domain[i]} fails the congruence"
            )
    else:
        orbit = np.full(len(domain), n)
        for d in range(n - 1, 0, -1):
            if n % d == 0:
                orbit[(np.roll(ext, d, axis=1) == ext).all(axis=1)] = d
        count = mask.sum(axis=1) * orbit // n  # distinct passing twists
        for i in np.flatnonzero(count != 1)[:1]:
            if not count[i]:
                raise PairingError(
                    f"({m},{n}) sector {ell}: no consistent partner for {domain[i]}"
                )
            raise PairingError(
                f"({m},{n}) sector {ell}: partner of {domain[i]} underdetermined "
                f"by the congruences ({count[i]} candidates)"
            )
        twist = mask.argmax(axis=1)
    rolled = ext[rows[:, None], (a - twist[:, None]) % n][:, 1:]

    pairs = {w: AffineWeight(n, m, v) for w, v in zip(domain, rolled.tolist())}
    if len(set(pairs.values())) != len(domain):
        raise PairingError(f"({m},{n}) sector {ell}: partner map not injective")
    return PairingTable(m, n, ell, pairs)


def vacuum_pairing(m, n):
    """Partner table inside the vacuum of SU(mn)_1."""
    return branching_pairs(m, n, 0)
