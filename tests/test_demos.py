import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_modular_data.py", "02_level_rank.py", "03_extension_catalogs.py",
         "04_holomorphic_entries.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.startswith("04"):
        assert proc.stdout.splitlines()[-1] == (
            "minimum S residual over all single +-1 perturbations: "
            "{40: '0.966', 27: '0.952', 18: '0.952'}"
        )
