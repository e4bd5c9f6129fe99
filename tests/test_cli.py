import json
import os
import shutil
import subprocess
import sys

import pytest

from holonet.catalogs import data_dir
from holonet.cli import (
    main_catalog,
    main_coupling,
    main_level_rank,
    main_local_system,
    main_modular_data,
    main_verify,
)


def test_modular_data_json_and_csv(tmp_path, capsys):
    out = tmp_path / "su2_10.json"
    csv_path = tmp_path / "table.csv"
    code = main_modular_data(
        ["--rank", "2", "--level", "10", "--out", str(out), "--csv", str(csv_path)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["name"] == "su2_10"
    assert payload["labels"][0] == [0]
    assert payload["labels"][6] == [6]
    assert payload["h"][6] == "1"
    assert payload["c"] == "5/2"
    assert abs(payload["mu"] - 89.5692193816) < 1e-8
    assert "S" not in payload
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "label,h,d"
    assert len(lines) == 12


def test_modular_data_with_s(capsys):
    assert main_modular_data(["--rank", "2", "--level", "1", "--with-s"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "su2_1"
    assert len(payload["S"]) == 2


def test_modular_data_spin_and_errors(capsys):
    assert main_modular_data(["--algebra", "spin", "--rank", "7", "--level", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h"] == ["0", "1/2", "7/16"]
    assert main_modular_data(["--algebra", "spin", "--rank", "7", "--level", "2"]) == 2
    assert main_modular_data(["--algebra", "su", "--level", "2"]) == 2


def test_level_rank_cli(capsys):
    assert main_level_rank(["--m", "2", "--n", "10", "--weight", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dual"] == "0,0,0,1,0,0,0,0,0"
    assert payload["h"] == "1"
    assert main_level_rank(["--m", "2", "--n", "10", "--pairing"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["pairs"]["6"] == "0,0,1,0,0,0,1,0,0"
    assert len(table["pairs"]) == 6
    assert main_level_rank(["--m", "2", "--n", "10"]) == 2
    assert main_level_rank(["--m", "4", "--n", "8", "--pairing", "--sector", "8"]) == 2


def test_local_system_cli(capsys):
    code = main_local_system(
        [
            "--theory",
            "cat:su9_3 x su3_1 x su3_1",
            "--generators",
            "j1t0:y1:y1;j0t1:y1:y2",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["structure"] == "Z3 x Z3"
    assert payload["order"] == 9
    assert all(h == "0" for h in payload["weights_mod_1"].values())


def test_local_system_cli_failure_witness(capsys):
    code = main_local_system(
        ["--theory", "cat:su10_2 x su5_1 x spin7_1", "--generators", "j1:y1:v"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["local_system"] is None
    assert "univalence" in payload["witness"]


def test_local_system_wzw_weight_labels(capsys):
    code = main_local_system(
        ["--theory", "su9_3", "--generators", "3,0,0,0,0,0,0,0"]
    )
    assert code == 1  # h(J vac) = 4/3, not integral
    payload = json.loads(capsys.readouterr().out)
    assert "univalence" in payload["witness"]
    code = main_local_system(
        ["--theory", "su9_3", "--generators", "0,0,3,0,0,0,0,0"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["structure"] == "Z3"


def test_coupling_cli(capsys):
    assert main_coupling(["--inclusion", "su2_10-spin5_1", "--with-z"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] == "pass"
    assert payload["Z"][0][0] == 1
    assert main_coupling(["--inclusion", "bogus"]) == 2


def test_catalog_cli(capsys):
    assert main_catalog(["--name", "su10_2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "su10_2"
    assert len(payload["irreps"]) == 15
    assert main_catalog(["--name", "su10_2", "--check", "--format", "text"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main_catalog(["--name", "nope"]) == 2


def test_verify_cli_single_and_all(capsys):
    assert main_verify(["--entry", "27", "--format", "json", "--reproducible"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subject"] == "entry-27"
    assert main_verify(["--entry", "all", "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.count("\n") == 22  # header + 3 x 7 checks
    assert main_verify(["--entry", "7"]) == 2


def test_verify_cli_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main_verify(["--entry", "18", "--format", "json", "--reproducible",
                        "--out", str(a)]) == 0
    assert main_verify(["--entry", "18", "--format", "json", "--reproducible",
                        "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "command,args",
    [
        ("modular-data", ["--rank", "2", "--level", "3"]),
        ("level-rank", ["--m", "2", "--n", "3", "--pairing"]),
    ],
)
def test_console_scripts_exist(command, args):
    exe = shutil.which(command)
    if exe is None:
        pytest.skip(f"{command} not on PATH")
    proc = subprocess.run([exe, *args], capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_catalog_dir_override(tmp_path):
    for fname in os.listdir(data_dir()):
        shutil.copy(os.path.join(data_dir(), fname), tmp_path / fname)
    env = dict(os.environ, HOLONET_CATALOG_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "holonet.cli", "verify", "--entry", "27",
         "--format", "json", "--reproducible"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["overall"] == "pass"
    # a corrupted override directory is a data error (exit 2)
    broken = json.loads((tmp_path / "su9_3.json").read_text())
    broken["mu"] = "10"
    (tmp_path / "su9_3.json").write_text(json.dumps(broken))
    proc = subprocess.run(
        [sys.executable, "-m", "holonet.cli", "catalog", "--name", "su9_3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "fails invariants" in proc.stderr


def test_untransportable_vacuum_row_exits_2(tmp_path):
    for fname in os.listdir(data_dir()):
        shutil.copy(os.path.join(data_dir(), fname), tmp_path / fname)
    inclusions = json.loads((tmp_path / "inclusions.json").read_text())
    inclusions["su3_9-e6_1"]["rows"]["1"].pop()  # conjugation symmetry lost
    (tmp_path / "inclusions.json").write_text(json.dumps(inclusions))
    proc = subprocess.run(
        [sys.executable, "-m", "holonet.cli", "catalog", "--name", "su9_3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, HOLONET_CATALOG_DIR=str(tmp_path)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "mirror-spectrum" in proc.stderr
    assert "Traceback" not in proc.stderr


def _corrupt_copy(tmp_path, fname, corrupt):
    """Copy the bundled data to tmp_path and apply `corrupt` to one file."""
    for name in os.listdir(data_dir()):
        shutil.copy(os.path.join(data_dir(), name), tmp_path / name)
    payload = json.loads((tmp_path / fname).read_text())
    corrupt(payload)
    (tmp_path / fname).write_text(json.dumps(payload))
    return dict(os.environ, HOLONET_CATALOG_DIR=str(tmp_path))


def _cli(env, *args):
    return subprocess.run(
        [sys.executable, "-m", "holonet.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_catalog_missing_key_exits_2(tmp_path):
    env = _corrupt_copy(tmp_path, "su8_4.json", lambda p: p.pop("fusion"))
    proc = _cli(env, "catalog", "--name", "su8_4")
    assert proc.returncode == 2, proc.stderr
    assert "su8_4.json" in proc.stderr and "'fusion'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_reference_spectrum_missing_key_exits_2(tmp_path):
    env = _corrupt_copy(tmp_path, "entry27_spectrum.json", lambda p: p.pop("terms"))
    proc = _cli(env, "verify", "--entry", "27")
    assert proc.returncode == 2, proc.stderr
    assert "entry27_spectrum.json" in proc.stderr and "'terms'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_inclusion_weight_out_of_range_exits_2(tmp_path):
    def corrupt(payload):
        payload["su3_9-e6_1"]["rows"]["1"][0][0] = [99, 0]

    env = _corrupt_copy(tmp_path, "inclusions.json", corrupt)
    for args in (("catalog", "--name", "su9_3"),
                 ("coupling", "--inclusion", "su3_9-e6_1")):
        proc = _cli(env, *args)
        assert proc.returncode == 2, proc.stderr
        assert "inclusions.json" in proc.stderr and "(99, 0)" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("position", [0, 2])  # an operand, the product
def test_catalog_fusion_row_unknown_irrep_exits_2(tmp_path, position):
    def corrupt(payload):
        payload["fusion"][0][position] = "nope"

    env = _corrupt_copy(tmp_path, "su8_4.json", corrupt)
    proc = _cli(env, "catalog", "--name", "su8_4")
    assert proc.returncode == 2, proc.stderr
    assert "su8_4.json" in proc.stderr and "unknown irrep 'nope'" in proc.stderr
    assert "Traceback" not in proc.stderr
