"""Modular data of SU(n)_k from first principles, plus the level-1 tables.

Walks through the S-matrix construction, the exact conformal weights, the
Verlinde fusion rules and the global dimension for a few of the theories
used elsewhere in the package.
"""

import numpy as np

from holonet import SectorVector, level_one_datum, sun_datum
from holonet.weights import AffineWeight

# -- SU(2) at level 10: everything has a closed form to compare against ----

su2 = sun_datum(2, 10)
print(f"{su2.name}: {su2.size} weights, c = {su2.c}")
print("residuals:", {k: f"{v:.1e}" for k, v in su2.residuals.items()})

closed = np.array(
    [
        [np.sqrt(1 / 6) * np.sin((a + 1) * (b + 1) * np.pi / 12) for b in range(11)]
        for a in range(11)
    ]
)
print("S vs sin closed form:", f"{np.abs(su2.S - closed).max():.2e}")

six = AffineWeight(2, 10, (6,))
print(f"h((6)) = {six.conformal_weight()}, d((6)) = {su2.dim(six):.7f}")
print(f"mu = {su2.mu:.6f} = 48 + 24*sqrt(3) = {48 + 24 * np.sqrt(3):.6f}")

one = AffineWeight(2, 10, (1,))
print(f"(1) x (1) = {SectorVector(su2, su2.fuse(one, one))}")

# -- SU(10) at level 2: 55 weights, determinant-sized entries --------------

su10 = sun_datum(10, 2)
print(f"\n{su10.name}: {su10.size} weights, c = {su10.c}")
print("residuals:", {k: f"{v:.1e}" for k, v in su10.residuals.items()})
lam3 = AffineWeight(10, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0))
print(f"h(L0+L3) = {lam3.conformal_weight()} (exact rational)")
print(f"mu ratio to su2_10: {su10.mu / su2.mu:.9f}  (level-rank predicts 5)")

# the basic current permutes the weight list
j = su10.vacuum.simple_current()
print("current row acts as a permutation:",
      all(su10.fuse(j, m) == {m.simple_current(): 1} for m in su10.labels))

# -- table-driven level-1 data ---------------------------------------------

for kind in ("su5_1", "spin7_1", "spin20_1", "e6_1"):
    d = level_one_datum(kind)
    hs = ", ".join(str(d.h_exact(label)) for label in d.labels)
    print(f"\n{d.name}: c = {d.c}, mu = {d.mu:.1f}, h = ({hs})")
    if kind == "spin7_1":
        print("  Ising-shaped fusion: s x s =", d.fuse("s", "s"))
    if kind == "spin20_1":
        print("  Klein fusion: s x s' =", d.fuse("s", "s'"))
