import os
import subprocess
import sys
from pathlib import Path

import holonet
from holonet.catalogs import data_dir

REBUILD = Path(__file__).resolve().parent.parent / "demos" / "rebuild_bundled_data.py"


def test_rebuild_reproduces_bundled_data_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.delenv("HOLONET_CATALOG_DIR", raising=False)
    src = str(Path(holonet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REBUILD), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    bundled = sorted(Path(data_dir()).glob("*.json"))
    assert len(bundled) == 7
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in bundled]
    for p in bundled:
        assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name
