"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_golden.py

- golden/verify_all.json: the bytes of `verify --entry all --reproducible
  --format json`, as produced by the source tree it is run on.
- golden/sun_dims.json: the quantum dimensions of every label of the
  sun_sweep ladder, computed here from the Weyl product formula
  d(lambda) = prod_{i<j} sin(pi (l_i - l_j) / kappa) / sin(pi (j - i) / kappa)
  over the shifted coordinates l = partition + rho; not from holonet's S.
  Written only if holonet's dimension rows agree with it to 1e-9.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def weyl_dim(partition, n, k):
    kappa = n + k
    shifted = [p + n - 1 - i for i, p in enumerate(partition)]
    out = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            out *= math.sin(math.pi * (shifted[i] - shifted[j]) / kappa)
            out /= math.sin(math.pi * (j - i) / kappa)
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from holonet import modular, weights

    from workloads import DIM_TOL, LADDER, VERIFY_ARGS

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HOLONET_CATALOG_DIR", None)
    report = subprocess.run(
        [sys.executable, "-m", "holonet.cli", *VERIFY_ARGS],
        env=env, check=True, capture_output=True,
    ).stdout
    (HERE / "golden" / "verify_all.json").write_bytes(report)

    dims = {}
    for n, k in LADDER:
        row = {str(w): weyl_dim(w.partition, n, k) for w in weights.enumerate_weights(n, k)}
        datum = modular.sun_datum(n, k)
        for label, d in zip(datum.labels, datum.d):
            want = row[str(label)]
            if abs(d - want) > DIM_TOL * max(1.0, abs(want)):
                raise SystemExit(f"su{n}_{k}: holonet dim({label}) = {d} != {want}")
        dims[f"{n},{k}"] = row
    with open(HERE / "golden" / "sun_dims.json", "w") as fh:
        json.dump(dims, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
