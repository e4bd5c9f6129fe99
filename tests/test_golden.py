"""The outputs of record, byte for byte.

Each file under tests/golden/ is the output of one CLI invocation, written
through its --out option.  A change that moves any byte of them changes a
result of the library, not only its code.
"""

from pathlib import Path

import pytest

from holonet.cli import main_catalog, main_coupling, main_level_rank, main_verify

GOLDEN = Path(__file__).resolve().parent / "golden"
CATALOGS = ["su10_2", "su9_3", "su8_4"]
INCLUSIONS = ["su2_10-spin5_1", "su3_9-e6_1", "su4_8-spin20_1"]

CASES = {
    "verify_all.txt": (main_verify, ["--entry", "all", "--reproducible"]),
    **{
        f"verify_all.{fmt}": (
            main_verify, ["--entry", "all", "--reproducible", "--format", fmt]
        )
        for fmt in ("json", "csv")
    },
    **{f"catalog_{name}.json": (main_catalog, ["--name", name]) for name in CATALOGS},
    **{
        f"catalog_{name}_check.txt": (
            main_catalog, ["--name", name, "--check", "--format", "text"]
        )
        for name in CATALOGS
    },
    **{
        f"coupling_{key}.json": (main_coupling, ["--inclusion", key, "--with-z"])
        for key in INCLUSIONS
    },
    **{
        f"level_rank_{m}_{n}_pairing.json": (
            main_level_rank, ["--m", str(m), "--n", str(n), "--pairing"]
        )
        for m, n in [(2, 10), (3, 9), (4, 8)]
    },
    "level_rank_2_10_weight_6.json": (
        main_level_rank, ["--m", "2", "--n", "10", "--weight", "6"]
    ),
}


@pytest.mark.parametrize("fname", sorted(CASES))
def test_output_of_record(fname, tmp_path):
    main, argv = CASES[fname]
    out = tmp_path / fname
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / fname).read_bytes()
