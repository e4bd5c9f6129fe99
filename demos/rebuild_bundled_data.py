"""Regenerate the bundled data files (catalogs, inclusions, spectra).

The three extension catalogs are data: irreducibles with exact h mod 1,
squared dimensions, restrictions to the base SU(n)_k theory, and the
fusion rows that the automorphism group and the conjugate pairs determine.
Every stored weight is a simple-current image J^a of one of the J-orbit
seeds typed below; the rows are assembled from those orbits, and the group
laws of the pointed parts come from `extensions.abelian_table`.  The seeds
themselves are typed, not derived: `sanity_check` checks the ones that are
level-rank partners against `vacuum_pairing`, and the library re-verifies
every catalog on load and every spectrum against its construction.  Run
with --out to write elsewhere; by default it refreshes src/holonet/data/.

Usage: python demos/rebuild_bundled_data.py [--out DIR]
"""

import argparse
import json
from fractions import Fraction
from pathlib import Path

from holonet.extensions import abelian_table
from holonet.level_rank import vacuum_pairing
from holonet.weights import AffineWeight


def frac(x):
    return str(Fraction(x))


def w(n, k, labels):
    return AffineWeight(n, k, tuple(labels))


def orbit(seed):
    """The J-orbit of an SU(n) weight, J^0 first."""
    return [seed.simple_current(a) for a in range(seed.n)]


def orbit_terms(seed, powers):
    return [[list(seed.simple_current(a).labels), 1] for a in powers]


def group_rows(coords, orders):
    """The fusion rows x.y of an abelian group, one per pair in label order."""
    rank = {x: i for i, x in enumerate(coords)}
    return [
        [x, y, z, 1]
        for (x, y), z in abelian_table(coords, orders).items()
        if rank[x] <= rank[y]
    ]


# J-orbit seeds of the three WZW bases
VAC10 = w(10, 2, [0] * 9)
X37 = w(10, 2, (0, 0, 1, 0, 0, 0, 1, 0, 0))     # partner of (6)
X36 = w(10, 2, (0, 0, 1, 0, 0, 1, 0, 0, 0))
S_SEED = w(10, 2, (0, 0, 1, 0, 0, 0, 0, 0, 0))  # h = 77/80 family seed
VAC9 = w(9, 3, [0] * 8)
X378 = w(9, 3, (0, 0, 1, 0, 0, 0, 1, 1))        # a partner of the (4,4) orbit
X468 = w(9, 3, (0, 0, 0, 1, 0, 1, 0, 1))
VAC8 = w(8, 4, [0] * 7)
V_PART = w(8, 4, (0, 0, 0, 1, 1, 0, 1))         # partner of (1,2,1), h = 2
W_PART = w(8, 4, (0, 0, 1, 0, 0, 1, 1))         # partner of (1,1,3), h = 7/4
X1 = w(8, 4, (0, 0, 1, 0, 1, 0, 0))             # h = 3/2
X2 = w(8, 4, (0, 0, 0, 0, 2, 0, 2))             # h = 5/2
# ... and of the small sides of the conformal inclusions
E6_44 = w(3, 9, (4, 4))
SPIN20_121 = w(4, 8, (1, 2, 1))
SPIN20_113 = w(4, 8, (1, 1, 3))


# ----------------------------------------------------------------------
# catalog su10_2: the index-(3 + sqrt(3)) extension of SU(10)_2
# ----------------------------------------------------------------------

def build_su10_2():
    js = {f"j{i}": (i,) for i in range(10)}
    irreps = [
        {
            "label": label,
            "dim_sq": "1",
            "h_mod1": frac(Fraction(i * (10 - i), 10) % 1),
            "automorphism": True,
            "restriction": orbit_terms(VAC10, [i]) + orbit_terms(X37, [i]),
        }
        for label, (i,) in js.items()
    ]
    for i in range(5):
        irreps.append(
            {
                "label": f"s{i}",
                "dim_sq": "2",
                "h_mod1": frac(S_SEED.simple_current(i).conformal_weight() % 1),
                "automorphism": False,
                "restriction": orbit_terms(S_SEED, [i, i + 5]),
            }
        )
    fusion = group_rows(js, [10])
    for a in range(10):
        for i in range(5):
            fusion.append([f"j{a}", f"s{i}", f"s{(a + i) % 5}", 1])
    for i in range(5):
        conj = (2 - i) % 5
        fusion.append([f"s{i}", f"s{conj}", "j0", 1])
        fusion.append([f"s{i}", f"s{conj}", "j5", 1])
    return {
        "name": "su10_2",
        "base": {"rank": 10, "level": 2},
        "mu": "20",
        "irreps": irreps,
        "fusion": fusion,
    }


# ----------------------------------------------------------------------
# catalog su9_3: the Z3 x Z3 pointed extension of SU(9)_3
# ----------------------------------------------------------------------

def build_su9_3():
    coords = {f"j{a}t{b}": (a, b) for a in range(3) for b in range(3)}
    irreps = []
    for label, (a, b) in coords.items():
        seeds = [VAC9, X378] if b == 0 else [X468]
        irreps.append(
            {
                "label": label,
                "dim_sq": "1",
                "h_mod1": frac(seeds[0].simple_current(a).conformal_weight() % 1),
                "automorphism": True,
                "restriction": [
                    t for seed in seeds for t in orbit_terms(seed, [a, a + 3, a + 6])
                ],
            }
        )
    return {
        "name": "su9_3",
        "base": {"rank": 9, "level": 3},
        "mu": "9",
        "irreps": irreps,
        "fusion": group_rows(coords, [3, 3]),
    }


# ----------------------------------------------------------------------
# catalog su8_4: the Z2 x Z2 x Z2 pointed extension of SU(8)_4
# ----------------------------------------------------------------------

def build_su8_4():
    coords = {
        f"j{a}p{b}v{c}": (a, b, c) for a in range(2) for b in range(2) for c in range(2)
    }
    irreps = []
    for label, (a, b, c) in coords.items():
        if b == 1:
            seeds = [W_PART]
        elif c == 1:
            seeds = [X1, X2]
        else:
            seeds = [VAC8, V_PART]
        evens = [2 * i + a for i in range(4)]
        irreps.append(
            {
                "label": label,
                "dim_sq": "1",
                "h_mod1": frac(seeds[0].simple_current(a).conformal_weight() % 1),
                "automorphism": True,
                "restriction": [t for seed in seeds for t in orbit_terms(seed, evens)],
            }
        )
    return {
        "name": "su8_4",
        "base": {"rank": 8, "level": 4},
        "mu": "8",
        "irreps": irreps,
        "fusion": group_rows(coords, [2, 2, 2]),
    }


# ----------------------------------------------------------------------
# the three conformal-inclusion branching tables
# ----------------------------------------------------------------------

def build_inclusions():
    def rows(table):
        return {
            amb: [[list(weight.labels), 1] for weight in weights]
            for amb, weights in table.items()
        }

    su2 = {
        "1": [w(2, 10, (0,)), w(2, 10, (6,))],
        "v": [w(2, 10, (4,)), w(2, 10, (10,))],
        "s": [w(2, 10, (3,)), w(2, 10, (7,))],
    }
    e6_charged = orbit(w(3, 9, (2, 2)))
    spin20_spinor = orbit(SPIN20_113)
    return {
        "su2_10-spin5_1": {
            "ambient": "spin5_1",
            "base": {"rank": 2, "level": 10},
            "rows": rows(su2),
        },
        "su3_9-e6_1": {
            "ambient": "e6_1",
            "base": {"rank": 3, "level": 9},
            "rows": rows({
                "1": orbit(w(3, 9, (0, 0))) + orbit(E6_44),
                "27": e6_charged,
                "27*": e6_charged,
            }),
        },
        "su4_8-spin20_1": {
            "ambient": "spin20_1",
            "base": {"rank": 4, "level": 8},
            "rows": rows({
                "1": orbit(w(4, 8, (0, 0, 0))) + orbit(SPIN20_121),
                "v": orbit(w(4, 8, (0, 2, 0))) + orbit(w(4, 8, (0, 3, 2))),
                "s": spin20_spinor,
                "s'": spin20_spinor,
            }),
        },
    }


# ----------------------------------------------------------------------
# the three holomorphic spectra over their WZW bases
# ----------------------------------------------------------------------

def build_spectra():
    terms40 = []
    for i in range(10):
        spin = "v" if i % 2 else "1"
        terms40.append([[list(VAC10.simple_current(i).labels), f"y{(2 * i) % 5}", spin], 1])
        terms40.append([[list(X37.simple_current(i).labels), f"y{(2 * i) % 5}", spin], 1])
        terms40.append([[list(X36.simple_current(i).labels), f"y{(2 * i + 4) % 5}", "s"], 1])

    terms27 = []
    for i in range(9):
        terms27.append([[list(VAC9.simple_current(i).labels), f"y{i % 3}", f"y{i % 3}"], 1])
        terms27.append([[list(X468.simple_current(i).labels), f"y{(i - 1) % 3}", f"y{(i + 1) % 3}"], 1])
        terms27.append([[list(X468.simple_current(i).labels), f"y{(i + 1) % 3}", f"y{(i - 1) % 3}"], 1])
        terms27.append([[list(X378.simple_current(i).labels), f"y{i % 3}", f"y{i % 3}"], 1])

    terms18 = []
    for i in range(8):
        m = f"y{i % 2}"
        terms18.append([[list(VAC8.simple_current(i).labels), m, "y0", "y0"], 1])
        terms18.append([[list(V_PART.simple_current(i).labels), m, "y0", "y0"], 1])
        terms18.append([[list(X2.simple_current(i).labels), m, "y1", "y1"], 1])
        terms18.append([[list(X1.simple_current(i).labels), m, "y1", "y1"], 1])
        terms18.append([[list(W_PART.simple_current(i).labels), m, "y0", "y1"], 1])
        terms18.append([[list(W_PART.simple_current(i).labels), m, "y1", "y0"], 1])

    return {
        40: {
            "entry": 40,
            "base": {"wzw": [10, 2], "level_one": ["su5_1", "spin7_1"]},
            "terms": terms40,
        },
        27: {
            "entry": 27,
            "base": {"wzw": [9, 3], "level_one": ["su3_1", "su3_1"]},
            "terms": terms27,
        },
        18: {
            "entry": 18,
            "base": {"wzw": [8, 4], "level_one": ["su2_1", "su2_1", "su2_1"]},
            "terms": terms18,
        },
    }


def sanity_check():
    """The seeds that are level-rank partners must match the partner tables."""
    assert vacuum_pairing(2, 10).partner(w(2, 10, (6,))) == X37
    p = vacuum_pairing(3, 9)
    assert X378 in map(p.partner, orbit(E6_44))
    p = vacuum_pairing(4, 8)
    assert V_PART in map(p.partner, orbit(SPIN20_121))
    assert W_PART in map(p.partner, orbit(SPIN20_113))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    default = Path(__file__).resolve().parent.parent / "src" / "holonet" / "data"
    parser.add_argument("--out", type=Path, default=default)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    sanity_check()
    files = {
        "su10_2.json": build_su10_2(),
        "su9_3.json": build_su9_3(),
        "su8_4.json": build_su8_4(),
        "inclusions.json": build_inclusions(),
    }
    for entry, payload in build_spectra().items():
        files[f"entry{entry}_spectrum.json"] = payload
    for fname, payload in files.items():
        path = args.out / fname
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
