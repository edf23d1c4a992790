import ast
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from tropicalc.cli import run


EXPECTED_TABLE = """\
location,order,kind,multiplicity
-2,2,pole,7
-2,3,root,2
-1,1,pole,2
-1,2,root,1
0,2,root,2
1,1,pole,5
1,2,pole,1
2,1,pole,5
2,2,root,3
2,3,root,3
"""


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_csv_table(capsys):
    rc, out, err = invoke(
        capsys, "--manifest", "showcase", "--csv", "analyze", "--fn", "f"
    )
    assert rc == 0
    assert out == EXPECTED_TABLE


def test_analyze_json_classification(capsys):
    rc, out, _ = invoke(capsys, "--manifest", "showcase", "analyze", "--fn", "f")
    assert rc == 0
    doc = json.loads(out)
    assert doc["classification"]["entire"] is False
    assert len(doc["rows"]) == 10
    assert doc["rows"][0] == {
        "location": "-2",
        "order": 2,
        "kind": "pole",
        "multiplicity": "7",
    }


def test_analyze_unknown_function(capsys):
    rc, _, err = invoke(capsys, "--manifest", "showcase", "analyze", "--fn", "nope")
    assert rc == 2
    assert "error:" in err


def test_unknown_manifest_name(capsys):
    rc, _, err = invoke(capsys, "--manifest", "ghost", "analyze", "--fn", "f")
    assert rc == 2
    assert "error:" in err


def test_argparse_failures_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["analyze"])  # missing --fn
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# jensen / pj


def test_jensen_report_json(capsys):
    rc, out, _ = invoke(
        capsys, "--manifest", "showcase", "jensen", "--fn", "f", "--r", "5/2"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["boundary_mean"] == "9/16"
    assert doc["root_sum"] == "129/16"
    assert doc["pole_sum"] == "17/2"
    assert doc["reconstructed"] == "1" == doc["reference"]
    assert doc["residual"] == "0"
    assert doc["passed"] is True


def test_pj_report_json(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "showcase",
        "pj", "--fn", "f", "--x=-3/2", "--r", "11/4",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["residual"] == "0"
    assert doc["passed"] is True
    assert len(doc["contributions"]) > 0


def test_jensen_rejects_nonpositive_radius(capsys):
    rc, _, err = invoke(
        capsys, "--manifest", "showcase", "jensen", "--fn", "f", "--r", "0"
    )
    assert rc == 2
    assert "radius" in err


# ---------------------------------------------------------------------------
# characteristic profiles


def test_characteristic_csv_grid(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "parabola_train", "--csv",
        "characteristic", "--fn", "train", "--r-max", "5",
    )
    assert rc == 0
    assert out == (
        "r,m,N1,N2,T\n"
        "1,0,0,0,0\n"
        "2,0,1,0,1\n"
        "3,0,3,0,3\n"
        "4,0,6,0,6\n"
        "5,0,10,0,10\n"
    )


def test_characteristic_closed_form_and_flags(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "parabola_train",
        "characteristic", "--fn", "train", "--r-max", "5",
    )
    assert rc == 0
    doc = json.loads(out)
    t = doc["closed_forms"]["T"]
    assert t["breakpoints"] == ["1", "2", "3", "4"]
    assert t["segments"] == [
        ["0", "1/2", "-1/2"],
        ["-2", "5/2", "-1/2"],
        ["-6", "9/2", "-1/2"],
        ["-12", "13/2", "-1/2"],
        ["-20", "17/2", "-1/2"],
    ]
    assert doc["flags"] == {
        "convex": False,
        "non_decreasing": False,
        "non_negative": True,
    }


def test_characteristic_numeric_grid(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "showcase", "--csv",
        "characteristic", "--fn", "f", "--r-max", "4", "--grid", "1:4:1",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,m,N1,N2,N3,T"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["--manifest", "showcase", "characteristic", "--fn", "f", "--r-max", "4",
         "--grid", "nonsense"],
        ["--manifest", "showcase", "characteristic", "--fn", "f", "--r-max", "4",
         "--grid", "1:2:1/0"],
        ["--manifest", "showcase", "characteristic", "--fn", "f", "--r-max", "4",
         "--grid", "1:4:0/0"],
        ["verify", "lemma44", "--hyperexp", "2:1/0:-4:4:8", "--c", "1",
         "--alpha", "2", "--grid", "5:6:1"],
        ["verify", "jensen-sweep", "--count", "-3"],
    ],
    ids=["nonsense", "zero-step-denominator", "zero-over-zero-step",
         "hyperexp-zero-denominator", "negative-count"],
)
def test_bad_grid_spec(capsys, argv):
    rc, _, err = invoke(capsys, *argv)
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# special hyperexp


def test_hyperexp_payload(capsys):
    rc, out, _ = invoke(
        capsys,
        "special", "hyperexp",
        "--n", "2", "--alpha", "2", "--window", "-6", "6", "--tail", "64",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["tail_bound"] == "131/18446744073709551616"
    assert doc["classification"]["entire"] is True
    assert doc["classification"]["well_defined"] is True
    by_key = {(row["m"], row["order"]): row["omega"] for row in doc["omega_table"]}
    assert by_key[(0, 2)] == "1/2"
    assert by_key[(3, 1)] == "24"
    assert by_key[(3, 2)] == "4"


def test_hyperexp_table_reads_the_stored_profiles(capsys, monkeypatch):
    import tropicalc.cli as cli
    import tropicalc.singular as singular

    calls = []
    for module in (singular, cli):
        original = getattr(module, "omega_at", None)
        if original is None:
            continue

        def counted(f, x, *rest, _original=original, **kwargs):
            calls.append(x)
            return _original(f, x, *rest, **kwargs)

        monkeypatch.setattr(module, "omega_at", counted)
    rc, out, _ = invoke(
        capsys,
        "special", "hyperexp",
        "--n", "2", "--alpha", "2", "--window", "-8", "8", "--tail", "64",
    )
    assert rc == 0
    assert sorted(calls) == list(range(-7, 8))  # once at each interior integer
    ms = [row["m"] for row in json.loads(out)["omega_table"]]
    assert ms == sorted(ms) and set(ms) == set(range(-7, 8))


# ---------------------------------------------------------------------------
# curve subcommands


def test_curve_cartan_values(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "mirror_parabolas",
        "curve", "cartan", "--curve", "mirror", "--r-max", "4", "--grid", "1:4:1",
    )
    assert rc == 0
    doc = json.loads(out)
    values = {row["r"]: row["T"] for row in doc["values"]}
    assert values == {"1": "1", "2": "4", "3": "9", "4": "16"}
    assert doc["reduced"] is True


def test_curve_casoratian_display(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "mirror_parabolas",
        "curve", "casoratian", "--curve", "mirror",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["function"]["display"] == (
        "[-2x - 1 | x <= -1 ; 2x^2 + 2x + 1 | -1 < x <= 0 ; 2x + 1 | 0 < x]"
    )
    grid = doc["singularities"]
    assert grid["locations"] == ["-1", "0"]
    by_kind = {(row["kind"], row["order"]): row["cells"] for row in grid["rows"]}
    assert by_kind[("pole", 2)] == ["2", None]
    assert by_kind[("root", 2)] == [None, "2"]


def test_curve_compose_fermat(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "fermat_flat",
        "curve", "compose", "--curve", "flat", "--poly", "Q",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["function"]["display"] == "[8x^2]"


# ---------------------------------------------------------------------------
# verifiers and exit codes


def test_verify_smt_passes(capsys):
    rc, out, err = invoke(
        capsys,
        "--manifest", "envelope_curve",
        "verify", "smt", "--curve", "env", "--poly", "P", "--grid", "3:9:2",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["band"] == ["0", "0"]
    assert doc["passed"] is True
    for row in doc["rows"]:
        assert row["residual"] == "0"
        assert row["in_band"] is True
        assert row["poles_sum"].startswith("~")


def test_verify_fermat_failure_exits_1(capsys):
    rc, out, err = invoke(
        capsys,
        "--manifest", "fermat_flat",
        "verify", "fermat", "--curve", "flat", "--poly", "Q", "--grid", "10:40:15",
    )
    assert rc == 1
    assert "FAIL" in err
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["rows"][0]["ratio"] == "8"


def test_verify_fermat_with_every_row_unchecked_exits_0(capsys, tmp_path):
    manifest = {
        "functions": {
            "zero": {"breakpoints": [], "segments": [["0"]]},
            "one": {"breakpoints": [], "segments": [["1"]]},
        },
        "curves": {"flat": ["zero", "one"]},
        "polynomials": {"Q": {"kind": "fermat", "power": 2, "weights": ["1", "2"]}},
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    rc, out, err = invoke(
        capsys,
        "--manifest", str(path),
        "verify", "fermat", "--curve", "flat", "--poly", "Q", "--grid", "1:3:1",
    )
    assert rc == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [row["in_window"] for row in doc["rows"]] == [None, None, None]
    assert [row["cartan"] for row in doc["rows"]] == ["0", "0", "0"]


def test_verify_fermat_staircase_passes(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "fermat_staircase",
        "verify", "fermat", "--curve", "h", "--poly", "P1", "--grid", "10:40:10",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"][0]["ratio"] == "81/41"


def test_verify_casoratian_balance(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "mirror_parabolas",
        "verify", "casoratian-balance", "--curve", "mirror", "--grid", "2:10:4",
    )
    assert rc == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["lhs"] == "4"
    assert row["shift_pole_block"] == "3"
    assert row["window_block"] == "1"
    assert row["excess"] == "0"


def test_verify_jensen_sweep(capsys):
    rc, out, _ = invoke(
        capsys, "verify", "jensen-sweep", "--count", "10", "--seed", "11"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["count"] == 10
    assert doc["radii_per_function"] == 5
    assert doc["failures"] == []


def test_verify_lemma44_hyperexp(capsys):
    rc, out, _ = invoke(
        capsys,
        "verify", "lemma44",
        "--hyperexp", "2:2:-40:40:64", "--c", "1", "--alpha", "2",
        "--grid", "8:16:4",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [row["r"] for row in doc["rows"]] == ["8", "12", "16"]


# ---------------------------------------------------------------------------
# output plumbing


def test_decimal_rendering(capsys):
    rc, out, _ = invoke(
        capsys,
        "--manifest", "showcase", "--decimal", "6",
        "jensen", "--fn", "f", "--r", "5/2",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["boundary_mean"] == "0.562500"


@pytest.mark.parametrize("prec", ["-1", "two"])
def test_bad_decimal_precision_exits_2(capsys, prec):
    with pytest.raises(SystemExit) as exc:
        run(["--manifest", "showcase", "--decimal", prec, "jensen", "--fn", "f",
             "--r", "5/2"])
    assert exc.value.code == 2
    assert "--decimal" in capsys.readouterr().err


def test_out_directory_matches_stdout(capsys, tmp_path):
    rc, out, _ = invoke(
        capsys, "--manifest", "showcase", "jensen", "--fn", "f", "--r", "5/2"
    )
    assert rc == 0
    rc2, out2, _ = invoke(
        capsys,
        "--manifest", "showcase", "--out", str(tmp_path),
        "jensen", "--fn", "f", "--r", "5/2",
    )
    assert rc2 == 0
    assert out2 == ""  # everything lands in the directory
    assert (tmp_path / "jensen.json").read_text(encoding="utf-8") == out


def test_out_directory_writes_csv_too(capsys, tmp_path):
    invoke(
        capsys,
        "--manifest", "showcase", "--out", str(tmp_path),
        "analyze", "--fn", "f",
    )
    assert (tmp_path / "analyze.csv").read_text(encoding="utf-8") == EXPECTED_TABLE
    assert (tmp_path / "analyze.json").exists()


@pytest.mark.parametrize("under", ["file", "file/sub"])
def test_unusable_out_directory_exits_2(capsys, tmp_path, under):
    (tmp_path / "file").write_text("taken\n", encoding="utf-8")
    rc, out, err = invoke(
        capsys,
        "--out", str(tmp_path / under),
        "special", "hyperexp", "--n", "2", "--alpha", "2",
        "--window", "-2", "2", "--tail", "4",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_byte_determinism(capsys):
    args = (
        "--manifest", "envelope_curve",
        "verify", "smt", "--curve", "env", "--poly", "P", "--grid", "3:9:2",
    )
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_manifest_from_path(capsys, tmp_path):
    from importlib import resources

    text = (
        resources.files("tropicalc").joinpath("data", "showcase.json").read_text()
    )
    path = tmp_path / "local.json"
    path.write_text(text, encoding="utf-8")
    rc, out, _ = invoke(
        capsys, "--manifest", str(path), "--csv", "analyze", "--fn", "f"
    )
    assert rc == 0
    assert out == EXPECTED_TABLE


REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "benchmark" / "cli_demo_golden.json"
DEMO_COMMANDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_demo_script_runs_the_golden_commands_in_order():
    """scripts/run_demo.py and the byte-identity golden list the same argv."""
    script = ast.parse((REPO / "scripts" / "run_demo.py").read_text(encoding="utf-8"))
    commands = next(
        ast.literal_eval(node.value)
        for node in script.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets)
    )
    assert commands == [entry["argv"] for entry in DEMO_COMMANDS]


@pytest.mark.parametrize(
    "entry", DEMO_COMMANDS, ids=[" ".join(e["argv"]) for e in DEMO_COMMANDS]
)
def test_demo_stdout_matches_golden(capsys, entry):
    rc, out, _ = invoke(capsys, *entry["argv"])
    assert rc == 0
    assert out == entry["stdout"]
