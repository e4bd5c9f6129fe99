import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    if exe is not None:
        argv = [exe, *args]
    else:  # not installed: call the entry point as the generated script would
        module, _, attr = _console_scripts()[command].partition(":")
        call = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        argv = [sys.executable, "-c", call, *args]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)


def test_catalog_dir_override(tmp_path):
    env = _corrupt_copy(tmp_path, "su9_3.json", lambda payload: None)  # intact
    proc = _cli(env, "verify", "--entry", "27", "--format", "json", "--reproducible")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["overall"] == "pass"
    # a corrupted override directory is a data error (exit 2)
    env = _corrupt_copy(tmp_path, "su9_3.json", lambda payload: payload.update(mu="10"))
    proc = _cli(env, "catalog", "--name", "su9_3")
    assert proc.returncode == 2
    assert "fails invariants" in proc.stderr


def test_untransportable_vacuum_row_exits_2(tmp_path):
    def corrupt(payload):
        payload["su3_9-e6_1"]["rows"]["1"].pop()  # conjugation symmetry lost

    env = _corrupt_copy(tmp_path, "inclusions.json", corrupt)
    proc = _cli(env, "catalog", "--name", "su9_3")
    assert proc.returncode == 2, proc.stderr
    assert "mirror-spectrum" in proc.stderr
    assert "Traceback" not in proc.stderr


def _corrupt_copy(tmp_path, fname, corrupt):
    """Copy the bundled JSON data to tmp_path and apply `corrupt` to one file."""
    for path in Path(data_dir()).glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
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


def _break_j1_j2_row(replace):
    def corrupt(payload):
        rows = payload["fusion"]
        i = next(i for i, row in enumerate(rows) if row[:2] == ["j1", "j2"])
        if replace:
            rows[i][2] = "s0"
        else:
            del rows[i]

    return corrupt


@pytest.mark.parametrize(
    "replace, row",
    [(True, "{'s0': 1}"), (False, "not stored")],
    ids=["row-to-s0", "row-deleted"],
)
def test_broken_automorphism_row_fails_closure(tmp_path, replace, row):
    env = _corrupt_copy(tmp_path, "su10_2.json", _break_j1_j2_row(replace))
    proc = _cli(env, "catalog", "--name", "su10_2", "--check", "--format", "text")
    assert proc.returncode == 2, proc.stderr
    assert "fails invariants" in proc.stderr
    assert "automorphism-closure" in proc.stderr
    assert "Traceback" not in proc.stderr
    # --check prints the failing report with its witness
    assert "== catalog su10_2: FAIL ==" in proc.stdout
    assert f"j1 x j2 = {row}, not one automorphism" in proc.stdout
    # without --check only the one-line error is printed
    proc = _cli(env, "catalog", "--name", "su10_2")
    assert proc.returncode == 2 and proc.stdout == ""


def test_negative_restriction_multiplicity_exits_2(tmp_path):
    def corrupt(payload):
        payload["irreps"][-1]["restriction"][0][1] = -1

    env = _corrupt_copy(tmp_path, "su9_3.json", corrupt)
    proc = _cli(env, "catalog", "--name", "su9_3", "--check")
    assert proc.returncode == 2, proc.stderr
    assert "su9_3.json" in proc.stderr and "negative multiplicity -1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_malformed_theory_token_exits_2(capsys):
    assert main_local_system(["--theory", "su_2", "--generators", "0"]) == 2
    assert "cannot parse theory token 'su_2'" in capsys.readouterr().err
    assert main_modular_data(["--algebra", "su", "--level", "2"]) == 2
    assert "cannot parse theory token 'su_2'" in capsys.readouterr().err


def test_oversized_theory_exits_2(capsys, monkeypatch):
    def never(n, k):
        raise AssertionError(f"enumerate_weights({n}, {k}) called")

    monkeypatch.setattr("holonet.modular.enumerate_weights", never)
    assert main_modular_data(["--rank", "12", "--level", "12"]) == 2
    assert "su12_12 has 1,352,078 labels" in capsys.readouterr().err
    assert main_local_system(["--theory", "su12_12 x su2_1", "--generators", "0"]) == 2
    assert "su12_12 has 1,352,078 labels" in capsys.readouterr().err
    theory = " x ".join(["su2_1"] * 19)
    assert main_local_system(["--theory", theory, "--generators", "y1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a product of 19 factors has 524,288 labels")


@pytest.mark.parametrize(
    "main, argv",
    [
        (main_verify, ["--entry", "18", "--tolerance", "-1", "--reproducible"]),
        (main_coupling, ["--inclusion", "su2_10-spin5_1", "--tolerance", "nan"]),
    ],
    ids=["verify", "coupling"],
)
def test_tolerance_is_not_an_option(main, argv, capsys):
    """The check bounds are fixed constants: a --tolerance is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --tolerance" in captured.err
    assert captured.out == ""


def test_empty_generator_list_is_a_usage_error(capsys):
    theory = "cat:su10_2 x su5_1 x spin7_1"
    for gens in ("", ";", " ; "):
        assert main_local_system(["--theory", theory, "--generators", gens]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no generators given\n"
        assert captured.out == ""


def _console_scripts():
    """The [project.scripts] table of pyproject.toml: command -> "module:function"."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]["scripts"]


def test_console_script_table_resolves():
    scripts = _console_scripts()
    assert set(scripts) == {
        "modular-data", "level-rank", "local-system", "coupling", "catalog", "verify"
    }
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert module == "holonet.cli", target
        assert callable(getattr(importlib.import_module(module), attr)), target


# -- fuzz: every command at small sizes, garbage mixed in ------------------

_INT = st.sampled_from([str(i) for i in range(-1, 6)] + ["", "x", "2.5"])
_TOKEN = st.sampled_from(
    ["su2_1", "su3_1", "su4_1", "spin7_1", "spin8_1", "e6_1", "su2_3", "su3_2",
     "cat:su10_2", "cat:nope", "su1_2", "spin2_1", "e6_2", "su_2", "", "7"]
)
_COMPONENT = st.sampled_from(
    ["y0", "y1", "y2", "1", "v", "s", "s'", "27", "j1", "0", "2,1", "1,0",
     "-1", "", ",", "?"]
)
_LABEL = st.lists(_COMPONENT, min_size=1, max_size=3).map(":".join)


def _optional(flag, values):
    return st.one_of(st.just([]), _required(flag, values))


def _required(flag, values):
    return values.map(lambda v: [flag, v])


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_COMMANDS = {
    main_modular_data: _argv(
        _optional("--algebra", st.sampled_from(["su", "spin", "e6", "so"])),
        _optional("--rank", _INT),
        _required("--level", st.sampled_from(["-1", "0", "1", "2", "3", "x"])),
        _switch("--with-s"),
    ),
    main_level_rank: _argv(
        _required("--m", _INT),
        _required("--n", _INT),
        _optional("--weight", st.one_of(_LABEL, st.just("1,1,1,1"))),
        _switch("--pairing"),
        _optional("--sector", st.integers(-2, 6).map(str)),
    ),
    main_local_system: _argv(
        _required("--theory", st.lists(_TOKEN, min_size=1, max_size=3).map(" x ".join)),
        _required("--generators", st.lists(_LABEL, max_size=3).map(";".join)),
    ),
    main_coupling: _argv(
        _required(
            "--inclusion",
            st.sampled_from(["su2_10-spin5_1", "su3_9-e6_1", "su4_8-spin20_1", "x"]),
        ),
        _optional("--tolerance", st.sampled_from(["1e-8", "0", "-1", "nan", "x"])),
        _switch("--with-z"),
    ),
    main_catalog: _argv(
        _required("--name", st.sampled_from(["su10_2", "su9_3", "su8_4", "x", ""])),
        _switch("--check"),
        _optional("--format", st.sampled_from(["json", "text", "csv", "x"])),
    ),
    main_verify: _argv(
        _optional("--entry", st.sampled_from(["18", "27", "40", "all", "7", "x"])),
        _optional("--format", st.sampled_from(["json", "text", "csv", "x"])),
        _switch("--reproducible"),
    ),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_COMMANDS)).flatmap(
    lambda main: st.tuples(st.just(main), _COMMANDS[main])
))
def test_cli_fuzz_exit_codes(case):
    main, argv = case
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            assert exc.code == 2, (main.__name__, argv)
            return
    assert code in (0, 1, 2), (main.__name__, argv)
