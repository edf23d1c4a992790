"""Benchmark of the exact Nevanlinna stack of tropicalc, one workload per run.

    python3 benchmark/run.py --workload jensen_sweep --seed 1 --seconds 10 --trace 0

Run from any directory of a source checkout: the library is imported from
the checkout's ``src/``.  One process runs one workload from a single thread
as a closed loop with one caller: each operation starts when the previous
one returns.  A workload is a fixed list of operations made from the seed
(a round); rounds repeat, each on freshly built inputs, until at least
MIN_OPERATIONS have run and the timed operations have taken ``--seconds``,
to the nearest whole round.  Every result is checked after its round,
outside the timed phase.  Every time it reports is in reference seconds: the time measured, divided by
the time a fixed loop of Fraction arithmetic takes on the machine at that
moment (see reference_seconds), so that a slow or fast stretch of a shared
host does not read as a change of the program.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run instead makes one traced round
(set-up included) and reports per-layer self times and call counts, and
writes the full trace to ``benchmark/out/``.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOAD_NAMES = ("jensen_sweep", "staircase_profile", "curve_algebra", "cli_demo")
MIN_OPERATIONS = 100
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
REFERENCE_LOOP_SECONDS = 1e-3  # what one reference loop counts as

# per-layer metric -> traced call count it reports
TRACED_COUNTS = {
    "numeric.real_roots_in.calls": "numeric.real_roots_in",
    "numeric.strip_rational_roots.calls": "numeric.strip_rational_roots",
    "numeric.sturm_chain.calls": "numeric.sturm_chain",
    "numeric.interval_halvings": "numeric.AlgebraicNumber._halve",
    "numeric.compare.calls": "numeric.compare",
    "numeric.exact_sum.calls": "numeric.exact_sum",
    "polyseg.evaluate_jet.calls": "polyseg.evaluate_jet",
    "polyseg.tropical_plus.calls": "polyseg.tropical_plus",
    "singular.scan.calls": "singular.scan",
    "singular.omega_at.calls": "singular.omega_at",
    "nevanlinna.counting.calls": "nevanlinna.counting",
}
TRACED_SELF_TIMES = (
    "poly", "numeric", "polyseg", "singular", "nevanlinna", "curves",
    "randgen", "manifest", "cli",
)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Checker:
    """Checks results and keeps the first few failures for stderr."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.errors: list[str] = []

    def check(self, cases, results) -> None:
        from workloads import CheckFailed

        for case, result in zip(cases, results):
            if result is None:
                continue  # the operation failed and was counted as such
            try:
                self.workload.check(case, result)
            except CheckFailed as e:
                self.errors.append(str(e))

    @property
    def correct(self) -> bool:
        return not self.errors


def reference_loop() -> Fraction:
    """About a millisecond of Fraction arithmetic, the library's main cost."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return total


def reference_seconds() -> float:
    """The machine's speed now: the wall-clock time of one reference loop.

    On a virtual machine whose host runs other tenants' work, the same code
    runs up to twice as slow in stretches of a second or more, in a
    different mix in every run.  The benchmark reads this between every
    two operations (and around every build) and divides each operation's
    time by the mean of the readings just before and just after it.  The
    quotient, in reference seconds (one reference loop counts as 1 ms), moves
    with the program's own work and much less with the machine's.
    """
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def in_reference_seconds(elapsed: float, before: float, after: float) -> float:
    """Wall-clock seconds as reference seconds, from the readings around them."""
    return elapsed * REFERENCE_LOOP_SECONDS * 2 / (before + after)


def run_operation(workload, case, failures: list[str]):
    try:
        return workload.run(case)
    except Exception:  # counted as a failed operation; the run goes on
        failures.append(traceback.format_exc())
        return None


def percentile(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted latencies.

    A weighted mean of every order statistic, with the weights a Beta(q(n+1),
    (1-q)(n+1)) distribution puts on [i/n, (i+1)/n].  One order statistic
    would jump across the gaps between the times of the 14 commands of
    cli_demo; the weighted mean moves smoothly.  The weights are integrated
    by the midpoint rule, in logs so that large n does not underflow.
    """
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 8
    points = [(i + (k + 0.5) / steps) / n for i in range(n) for k in range(steps)]
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in points]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def measure(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    checker = Checker(workload)
    readings: list[float] = []
    setup_times = []  # reference seconds

    def build():
        before = reference_seconds()
        start = time.perf_counter()
        cases = workload.build(seed)
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        readings.append(after)
        setup_times.append(in_reference_seconds(elapsed, before, after))
        return cases

    for _ in range(SETUP_REPEATS):
        cases = build()
    latencies: list[float] = []  # reference seconds
    failures: list[str] = []
    attempted = rounds = 0
    wall = timed = 0.0  # seconds of timed operations: wall-clock, reference
    while True:
        gc.collect()
        results = []
        before = reference_seconds()
        for case in cases:
            start = time.perf_counter()
            result = run_operation(workload, case, failures)
            elapsed = time.perf_counter() - start
            after = reference_seconds()
            readings.append(after)
            latency = in_reference_seconds(elapsed, before, after)
            wall += elapsed
            timed += latency
            if result is not None:
                latencies.append(latency)
            results.append(result)
            before = after
        attempted += len(cases)
        rounds += 1
        checker.check(cases, results)
        del results
        # Stop at the round boundary nearest to `seconds` of timed operations.
        if attempted >= MIN_OPERATIONS and wall + wall / rounds / 2 >= seconds:
            break
        cases = build()
    latencies.sort()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report(checker, failures)
    quartiles = statistics.quantiles(readings, n=4)
    print(
        f"wall clock: {len(latencies) / wall:.4g} operations/s; reference "
        f"loop {quartiles[0] * 1e3:.3f} to {quartiles[2] * 1e3:.3f} ms "
        f"(quartiles of {len(readings)} readings)",
        file=sys.stderr,
    )
    return {
        "correct": checker.correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            "ops_per_s": metric(len(latencies) / timed, "1/s"),
            "op_p50_ms": metric(percentile(latencies, 0.5) * 1000, "ms"),
            "op_p90_ms": metric(percentile(latencies, 0.9) * 1000, "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mib": metric(peak_kib / 1024, "MiB"),
        },
    }


def cold_import_seconds() -> float:
    """Median time of `import tropicalc` in fresh interpreters."""
    code = (
        "import time; start = time.perf_counter(); import tropicalc; "
        "print(time.perf_counter() - start)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def trace(name: str, seed: int) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    checker = Checker(workload)
    failures: list[str] = []
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_operation()
        start = time.perf_counter()
        cases = workload.build(seed)
        setup = time.perf_counter() - start
        results = []
        start = time.perf_counter()
        for case in cases:
            tracer.begin_operation()
            results.append(run_operation(workload, case, failures))
        timed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    checker.check(cases, results)
    report(checker, failures)
    summary = tracer.summary()
    metrics = {
        f"{layer}.self_s": metric(summary["self_s"][layer], "s")
        for layer in TRACED_SELF_TIMES
    }
    for metric_name, call_name in TRACED_COUNTS.items():
        metrics[metric_name] = metric(tracer.count(call_name), "count")
    metrics["singular.scan.repeats"] = metric(tracer.scan_repeats, "count")
    metrics["import_s"] = metric(cold_import_seconds(), "s")
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "operations": len(cases),
                "traced_setup_s": setup,
                "traced_ops_per_s": (len(cases) - len(failures)) / timed,
                **summary,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return {
        "correct": checker.correct,
        "attempted": len(cases),
        "failed": len(failures),
        "metrics": metrics,
    }


def report(checker: Checker, failures: list[str]) -> None:
    for text in failures[:3]:
        print(f"failed operation:\n{text}", file=sys.stderr)
    for text in checker.errors[:10]:
        print(f"check failed: {text}", file=sys.stderr)
    if len(checker.errors) > 10:
        print(f"... {len(checker.errors) - 10} more failed checks", file=sys.stderr)


def use_source_tree() -> None:
    """Import tropicalc from this checkout's src/ and nowhere else."""
    if not (SRC / "tropicalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no tropicalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tropicalc

    if Path(tropicalc.__file__).resolve().parent != SRC / "tropicalc":
        raise SystemExit(f"error: imported tropicalc from {tropicalc.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    # The band check warns about non-reduced curves; the warning is not a result.
    warnings.simplefilter("ignore")
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
