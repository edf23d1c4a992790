"""Tests of the benchmark itself.

    python3 -m pytest benchmark/test_benchmark.py -q

Every check must reject a deliberately wrong value, two traced runs with the
same seed must give identical counts, and the benchmark must refuse to run
without the library's sources.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.use_source_tree()

import workloads as W  # noqa: E402  (needs the source tree on sys.path)
from tropicalc import nevanlinna as nev  # noqa: E402
from tropicalc import polyseg  # noqa: E402

SEED = 7


def rejects(check, case, result) -> bool:
    try:
        check(case, result)
    except W.CheckFailed:
        return True
    return False


def shifted(fn, c):
    """fn + c, as the library would build it."""
    return polyseg.linear_combine(fn, polyseg.constant(c), 1, 1)


# ---------------------------------------------------------------------------
# jensen_sweep


@pytest.fixture(scope="module")
def jensen():
    # a function with breakpoints inside the disk, so every sum is non-trivial
    case = next(
        c for c in W.build_jensen(SEED)
        if sum(1 for bp in c.f.breakpoints if abs(bp) < c.radii[0]) >= 2
    )
    return case, W.run_jensen(case)


def test_jensen_check_accepts_the_library_result(jensen):
    case, result = jensen
    W.check_jensen(case, result)


@pytest.mark.parametrize(
    "field", ["residual", "root_sum", "pole_sum", "boundary_mean", "reference"]
)
def test_jensen_check_rejects_a_wrong_jensen_field(jensen, field):
    case, (reports, pj, t) = jensen
    wrong = dataclasses.replace(
        reports[0], **{field: getattr(reports[0], field) + Fraction(1, 7)}
    )
    assert rejects(W.check_jensen, case, ([wrong, *reports[1:]], pj, t))


@pytest.mark.parametrize("field", ["residual", "reference", "boundary_mean"])
def test_jensen_check_rejects_a_wrong_poisson_jensen_field(jensen, field):
    case, (reports, pj, t) = jensen
    wrong = dataclasses.replace(pj, **{field: getattr(pj, field) + Fraction(1, 7)})
    assert rejects(W.check_jensen, case, (reports, wrong, t))


def test_jensen_check_rejects_a_wrong_characteristic(jensen):
    case, (reports, pj, t) = jensen
    assert rejects(W.check_jensen, case, (reports, pj, t + Fraction(1, 7)))


def test_own_jump_weights_match_the_library(jensen):
    case, _ = jensen
    f = case.f
    for z in [*f.breakpoints, Fraction(0)]:
        library = nev.omega_at(f, z, W.degree_bound(f)).omega
        assert list(library) == W.jump_weights(f, z)


# ---------------------------------------------------------------------------
# staircase_profile


@pytest.fixture(scope="module")
def staircase():
    case = W.build_staircase(SEED)[0]
    return case, W.run_staircase(case)


def test_staircase_check_accepts_the_library_result(staircase):
    case, result = staircase
    W.check_staircase(case, result)


def test_staircase_closed_form_matches_the_constructed_function(staircase):
    case, _ = staircase
    f0 = W.staircase_value_at_zero(case.n, case.alpha, case.cutoff)
    assert f0 != 0
    assert polyseg.evaluate(case.f, 0) == f0


def test_staircase_check_rejects_a_wrong_profile(staircase):
    case, (bundle, t_neg, flags, rows) = staircase
    wrong = dataclasses.replace(t_neg, profile=shifted(t_neg.profile, Fraction(1, 7)))
    assert rejects(W.check_staircase, case, (bundle, wrong, flags, rows))


def test_staircase_check_rejects_a_wrong_value_at_zero(staircase):
    case, result = staircase
    wrong = dataclasses.replace(case, cutoff=case.cutoff + 1)
    assert rejects(W.check_staircase, wrong, result)


def test_staircase_check_rejects_a_failed_lemma_row(staircase):
    case, (bundle, t_neg, flags, rows) = staircase
    wrong = [dataclasses.replace(rows[0], passed=False), *rows[1:]]
    assert rejects(W.check_staircase, case, (bundle, t_neg, flags, wrong))


def test_staircase_check_rejects_a_wrong_flag(staircase):
    case, (bundle, t_neg, flags, rows) = staircase
    wrong = dataclasses.replace(flags, convex=False)
    assert rejects(W.check_staircase, case, (bundle, t_neg, wrong, rows))


# ---------------------------------------------------------------------------
# curve_algebra


@pytest.fixture(scope="module")
def curve_cases():
    cases = W.build_curves(SEED)
    smt = next(c for c in cases if c.kind == "smt")
    casoratian = next(c for c in cases if c.kind == "casoratian" and c.curve.arity == 3)
    return {
        "smt": (smt, W.run_curves(smt)),
        "casoratian": (casoratian, W.run_curves(casoratian)),
    }


@pytest.mark.parametrize("kind", ["smt", "casoratian"])
def test_curve_check_accepts_the_library_result(curve_cases, kind):
    case, result = curve_cases[kind]
    W.check_curves(case, result)


@pytest.mark.parametrize("kind", ["smt", "casoratian"])
def test_curve_check_rejects_a_function_off_by_one(curve_cases, kind):
    case, (fn, report) = curve_cases[kind]
    assert rejects(W.check_curves, case, (shifted(fn, 1), report))


@pytest.mark.parametrize(
    "field, value", [("identity_gap", Fraction(1, 7)), ("in_band", False)]
)
def test_curve_check_rejects_a_wrong_band_row(curve_cases, field, value):
    case, (fn, report) = curve_cases["smt"]
    rows = (dataclasses.replace(report.rows[0], **{field: value}), *report.rows[1:])
    assert rejects(W.check_curves, case, (fn, dataclasses.replace(report, rows=rows)))


def test_curve_check_rejects_unequal_tail_slopes(curve_cases):
    case, (fn, report) = curve_cases["casoratian"]
    wrong = dataclasses.replace(report, tail_slopes_equal=False)
    assert rejects(W.check_curves, case, (fn, wrong))


# ---------------------------------------------------------------------------
# cli_demo


@pytest.fixture(scope="module")
def jensen_command():
    argv = next(list(a) for a in W.DEMO_COMMANDS if "jensen" in a)
    return argv, W.run_cli(argv)


def test_cli_check_accepts_the_golden_output(jensen_command):
    argv, result = jensen_command
    W.check_cli(argv, result)


def test_cli_check_rejects_a_changed_byte(jensen_command):
    argv, (code, stdout) = jensen_command
    assert rejects(W.check_cli, argv, (code, stdout.replace("5/2", "5/3", 1)))


def test_cli_check_rejects_a_failed_verdict(jensen_command):
    argv, (code, stdout) = jensen_command
    assert '"passed": true' in stdout
    failed = stdout.replace('"passed": true', '"passed": false')
    assert W.verdicts(failed) == [False]
    assert rejects(W.check_cli, argv, (code, failed))


def test_cli_check_rejects_a_non_zero_exit(jensen_command):
    argv, (_, stdout) = jensen_command
    assert rejects(W.check_cli, argv, (1, stdout))


def test_csv_verdicts_read_the_passed_column():
    assert W.verdicts("r,passed\n1,True\n2,False\n") == [True, False]
    assert W.verdicts("location,order\n0,1\n") == []


# ---------------------------------------------------------------------------
# the traced run and the runner


def prefix(name: str, count: int) -> W.Workload:
    full = W.WORKLOADS[name]
    return W.Workload(lambda seed: full.build(seed)[:count], full.run, full.check)


def traced(name: str) -> tuple[dict, dict]:
    """(call counts, all metrics) of one traced round."""
    result = run.trace(name, SEED)
    assert result["correct"] and result["failed"] == 0
    counts = {
        key: m["value"] for key, m in result["metrics"].items() if m["unit"] == "count"
    }
    return counts, result["metrics"]


def per_layer_names() -> set[str]:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in declared["per_layer"]}


@pytest.mark.parametrize(
    "name, count",
    [("jensen_sweep", 40), ("staircase_profile", 2), ("curve_algebra", 10), ("cli_demo", 14)],
)
def test_traced_counts_repeat_exactly(monkeypatch, name, count):
    monkeypatch.setitem(W.WORKLOADS, name, prefix(name, count))
    first, metrics = traced(name)
    second, _ = traced(name)
    assert first == second
    assert set(metrics) == per_layer_names()
    if name != "cli_demo":
        assert metrics["manifest.self_s"]["value"] == 0
        assert metrics["cli.self_s"]["value"] == 0
    if name == "jensen_sweep":
        assert first["numeric.real_roots_in.calls"] == 0
        assert first["polyseg.tropical_plus.calls"] == 0


def test_percentile_agrees_with_plain_quantiles_on_smooth_data():
    rnd = random.Random(SEED)
    ordered = sorted(rnd.random() for _ in range(2000))
    deciles = statistics.quantiles(ordered, n=10)
    assert run.percentile(ordered, 0.5) == pytest.approx(deciles[4], abs=0.01)
    assert run.percentile(ordered, 0.9) == pytest.approx(deciles[8], abs=0.01)


def test_percentile_is_smooth_across_a_gap():
    # 14 commands, half fast and half slow: no single order statistic is
    # the median, and the estimate sits between the two groups.
    ordered = [1.0] * 70 + [3.0] * 70
    assert run.percentile(ordered, 0.5) == pytest.approx(2.0)
    assert run.percentile(ordered[:-1] + [30.0], 0.5) == pytest.approx(2.0, abs=1e-6)


def test_reference_seconds_cancel_the_machine_speed():
    # the same work on a machine half as fast: twice the time, twice the readings
    fast = run.in_reference_seconds(0.020, 0.0010, 0.0012)
    assert run.in_reference_seconds(0.040, 0.0020, 0.0024) == pytest.approx(fast)
    # one reference loop counts as 1 ms
    assert run.in_reference_seconds(0.020, 0.001, 0.001) == pytest.approx(0.020)


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "cli_demo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
