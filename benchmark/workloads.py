"""The benchmark's four workloads: inputs, one operation, and its checks.

Each workload has three parts.  `build(seed)` makes the inputs of one round
of operations through the library; the same seed gives the same values, and
every call returns fresh objects, so no operation sees an input that another
operation (or an earlier round) has touched.  That matters because an
`AlgebraicNumber` narrows its isolating interval in place: a reused input
would get cheaper on every repeat.  `run(case)` is one operation.
`check(case, result)` raises `CheckFailed` unless the result has the
properties the method guarantees, or agrees with values this file computes
itself from the generated data (Horner evaluation, jump weights, brute-force
maxima), without calling the library.

The library is reached through module attributes (``nev.jensen_report``) at
call time, so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import comb
from pathlib import Path
from typing import Callable

from tropicalc import cli, curves, manifest, polyseg, randgen
from tropicalc import nevanlinna as nev

GOLDEN = Path(__file__).resolve().parent / "cli_demo_golden.json"


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def is_literal_zero(value) -> bool:
    return isinstance(value, Fraction) and value == 0


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list]
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# the benchmark's own evaluation of piecewise polynomials


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def side_of(x: Fraction, point) -> int:
    """sign(x - point) for a rational or algebraic point.

    An algebraic point is read off its defining polynomial and isolating
    interval: inside the interval, the root lies on the side of x where the
    polynomial changes sign.
    """
    if isinstance(point, Fraction):
        return sign(x - point)
    lo, hi = point.interval
    if x <= lo:
        return -1
    if x >= hi:
        return 1
    s = sign(horner(point.poly.coeffs, x))
    if s == 0:
        return 0
    return -1 if s == sign(horner(point.poly.coeffs, lo)) else 1


def segment_index(fn, x: Fraction) -> int:
    """Index of the segment that governs x from the left."""
    k = 0
    for bp in fn.breakpoints:
        if side_of(x, bp) <= 0:
            break
        k += 1
    return k


def value_at(fn, x: Fraction) -> Fraction:
    # At a breakpoint either neighbour gives the value: fn is continuous.
    return horner(fn.segments[segment_index(fn, x)].coeffs, x)


def taylor(coeffs, x: Fraction, j: int) -> Fraction:
    """The j-th Taylor coefficient p^(j)(x) / j! of the polynomial."""
    return sum(
        (c * comb(k, j) * x ** (k - j) for k, c in enumerate(coeffs) if k >= j),
        Fraction(0),
    )


def degree_bound(fn) -> int:
    return max(1, max(len(s.coeffs) - 1 for s in fn.segments))


def jump_weights(fn, z: Fraction) -> list[Fraction]:
    """omega_1..omega_n at a rational point z of a function with rational breakpoints.

    omega_j = [sgn(z+)^(j+1) f^(j)(z+) - sgn(z-)^(j+1) f^(j)(z-)] / j!, with
    sgn(0+) = 1 and sgn(0-) = -1.
    """
    left = fn.segments[segment_index(fn, z)].coeffs
    right = fn.segments[sum(1 for bp in fn.breakpoints if bp <= z)].coeffs
    s = sign(z)
    s_plus, s_minus = (s or 1), (s or -1)
    return [
        s_plus ** (j + 1) * taylor(right, z, j) - s_minus ** (j + 1) * taylor(left, z, j)
        for j in range(1, degree_bound(fn) + 1)
    ]


def disk_sums(fn, r: Fraction) -> tuple[Fraction, Fraction]:
    """(root sum, pole sum) over the open disk (-r, r): the Jensen counting terms."""
    roots = poles = Fraction(0)
    points = set(fn.breakpoints) | {Fraction(0)}
    for z in points:
        if abs(z) >= r:
            continue
        for j, w in enumerate(jump_weights(fn, z), start=1):
            term = abs(w) * (r - abs(z)) ** j / 2
            if w > 0:
                roots += term
            else:
                poles += term
    return roots, poles


def max_plus_part(v: Fraction) -> Fraction:
    return v if v > 0 else Fraction(0)


def sample_points(rnd: random.Random, count: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rnd.randint(-35, 35), rnd.randint(1, 7)) for _ in range(count)
    )


# ---------------------------------------------------------------------------
# jensen_sweep: the Jensen and Poisson-Jensen reports on random functions

JENSEN_OPS = 600


@dataclass(frozen=True)
class JensenCase:
    f: object
    radii: tuple[Fraction, ...]
    x: Fraction  # interior point of the disk of radius radii[0]


def build_jensen(seed: int) -> list[JensenCase]:
    rnd = randgen.rng(seed)
    cases = []
    for _ in range(JENSEN_OPS):
        f = randgen.random_function(rnd, degree=3, max_breaks=5)
        radii = tuple(randgen.random_radius(rnd) for _ in range(3))
        x = randgen.random_interior_point(rnd, f, radii[0])
        cases.append(JensenCase(f, radii, x))
    return cases


def run_jensen(case: JensenCase):
    reports = [nev.jensen_report(case.f, r) for r in case.radii]
    pj = nev.poisson_jensen(case.f, case.x, case.radii[0])
    t = nev.characteristic(case.f, case.radii[1])
    return reports, pj, t


def check_jensen(case: JensenCase, result) -> None:
    reports, pj, t = result
    f = case.f
    require(len(reports) == len(case.radii), "one Jensen report per radius")
    f0 = value_at(f, Fraction(0))
    for r, rep in zip(case.radii, reports):
        where = f"Jensen report at r={r}"
        require(is_literal_zero(rep.residual), f"{where}: residual {rep.residual!r}")
        require(rep.reference == f0, f"{where}: reference {rep.reference} != f(0) {f0}")
        mean = (value_at(f, r) + value_at(f, -r)) / 2
        require(rep.boundary_mean == mean, f"{where}: boundary mean {rep.boundary_mean} != {mean}")
        roots, poles = disk_sums(f, r)
        require(rep.root_sum == roots, f"{where}: root sum {rep.root_sum} != {roots}")
        require(rep.pole_sum == poles, f"{where}: pole sum {rep.pole_sum} != {poles}")
    r = case.radii[0]
    where = f"Poisson-Jensen report at x={case.x}, r={r}"
    require(is_literal_zero(pj.residual), f"{where}: residual {pj.residual!r}")
    fx = value_at(f, case.x)
    require(pj.reference == fx, f"{where}: reference {pj.reference} != f(x) {fx}")
    mean = (value_at(f, r) + value_at(f, -r)) / 2
    require(pj.boundary_mean == mean, f"{where}: boundary mean {pj.boundary_mean} != {mean}")
    r = case.radii[1]
    _, poles = disk_sums(f, r)
    expected = (max_plus_part(value_at(f, r)) + max_plus_part(value_at(f, -r))) / 2 + poles
    require(t == expected, f"T(r={r}) = {t!r}, expected m + N = {expected}")


# ---------------------------------------------------------------------------
# staircase_profile: closed-form profiles of hyper-exponential staircases

# One round is a fixed ladder of staircase shapes; two rounds make a run.
STAIRCASE_OPS = 56
STAIRCASE_ALPHAS = (Fraction(2), Fraction(3, 2), Fraction(3))
LEMMA44_ALPHA = Fraction(2)


@dataclass(frozen=True)
class StaircaseCase:
    n: int
    alpha: Fraction
    window: tuple[int, int]
    cutoff: int
    f: object
    neg_f: object
    r_max: Fraction
    c: Fraction
    radii: tuple[Fraction, ...]


def build_staircase(seed: int) -> list[StaircaseCase]:
    """The same staircase shapes for every seed, in a seeded order.

    The cost of an operation swings by a factor of ten with the shape (degree,
    base, window, cutoff), so the shapes are a fixed ladder and the round
    costs the same for every seed.  The seed picks the order and the lemma's
    shift and radii.
    """
    rnd = random.Random(seed)
    order = list(range(STAIRCASE_OPS))
    rnd.shuffle(order)
    cases = []
    for i in order:
        n = 2 + i % 2
        alpha = STAIRCASE_ALPHAS[(i // 2) % len(STAIRCASE_ALPHAS)]
        window = (-(4 + (i // 6) % 3), 4 + (i // 18) % 3)
        cutoff = -window[0] + 2 * (i % 5)
        f = nev.hyperexp(n, alpha, window, cutoff).function
        neg_f = polyseg.scale(f, -1)
        c = rnd.choice((Fraction(1), Fraction(-1), Fraction(1, 2)))
        threshold = 2 * abs(c)  # the lemma's threshold for alpha = 2
        radii = tuple(threshold + Fraction(rnd.randint(1, 8), 4) for _ in range(2))
        r_max = Fraction(min(-window[0], window[1]))
        cases.append(StaircaseCase(n, alpha, window, cutoff, f, neg_f, r_max, c, radii))
    return cases


def run_staircase(case: StaircaseCase):
    bundle = nev.profile_bundle(case.f, case.r_max)
    t_neg = nev.characteristic_profile(case.neg_f, case.r_max)
    flags = nev.profile_flags(bundle["T"])
    rows = [nev.lemma44_check(case.f, case.c, LEMMA44_ALPHA, r) for r in case.radii]
    return bundle, t_neg, flags, rows


def staircase_value_at_zero(n: int, alpha: Fraction, cutoff: int) -> Fraction:
    """f(0) of the staircase: the segment increments summed from -cutoff to 0.

    The segment on [m, m+1) rises by s_m alpha^m ((m+1)^n - m^n), with
    s_m = (-1)^(n+1) for m < 0.
    """
    s = (-1) ** (n + 1)
    return sum(
        (s * alpha**m * ((m + 1) ** n - m**n) for m in range(-cutoff, 0)),
        Fraction(0),
    )


def check_staircase(case: StaircaseCase, result) -> None:
    bundle, t_neg, flags, rows = result
    where = f"staircase n={case.n} alpha={case.alpha} window={case.window}"
    f0 = staircase_value_at_zero(case.n, case.alpha, case.cutoff)
    require(value_at(case.f, Fraction(0)) == f0, f"{where}: f(0) != closed form {f0}")
    require(
        set(bundle) == {"m", *(f"N{j}" for j in range(1, case.n + 1)), "T"},
        f"{where}: bundle keys {sorted(bundle)}",
    )
    # Jensen on profiles: T(r, f) - T(r, -f) = f(0) for every r in (0, r_max].
    diff = polyseg.linear_combine(bundle["T"].profile, t_neg.profile, 1, -1)
    constant = (f0,) if f0 else ()
    for k, seg in enumerate(diff.segments):
        starts_before_r_max = k == 0 or side_of(case.r_max, diff.breakpoints[k - 1]) > 0
        ends_after_zero = k == len(diff.breakpoints) or side_of(Fraction(0), diff.breakpoints[k]) < 0
        if starts_before_r_max and ends_after_zero:
            require(
                seg.coeffs == constant,
                f"{where}: T(f) - T(-f) is {seg} on a piece of (0, r_max], not f(0) = {f0}",
            )
    require(
        flags.non_negative and flags.non_decreasing and flags.convex,
        f"{where}: T is not non-negative, non-decreasing and convex: {flags}",
    )
    require(len(rows) == len(case.radii), f"{where}: one lemma 4.4 row per radius")
    for row in rows:
        require(row.passed, f"{where}: lemma 4.4 fails at r={row.r}")


# ---------------------------------------------------------------------------
# curve_algebra: homogeneous compositions and max-plus Casoratians

# One round: 38 band checks (30 of arity 2, 8 of arity 3) and 50
# Casoratians (32 of arity 3, 16 of arity 4, 2 of arity 5), in a seeded
# order.  The 62 cheap operations (arity-2 band checks, arity-3 Casoratians)
# put the median well inside their cluster, and the arity-4 Casoratians,
# ranks of about 70 to 86, hold the 90th percentile (rank 79): a percentile
# in a gap between clusters would swing with the seed.  The cost of an
# operation follows its shape (breakpoints per component, roots per curve,
# monomials, radii, step) more than its values, so each operation's shape
# comes from a fixed ladder and the seed draws the values to fit it: the
# round costs about the same for every seed.
CURVE_KINDS = (
    (("smt", 2),) * 30
    + (("smt", 3),) * 8
    + (("casoratian", 3),) * 32
    + (("casoratian", 4),) * 16
    + (("casoratian", 5),) * 2
)
SMT_MAX_BREAKS = 3
# Casoratians: (max roots per component, ladder of total roots per curve)
CASORATIAN_ROOTS = {3: (4, (6, 7, 8, 9)), 4: (2, (5, 6, 7)), 5: (1, (5,))}


@dataclass(frozen=True)
class CurveCase:
    kind: str
    curve: object
    poly: object  # TropicalPolynomialMap for "smt", None for "casoratian"
    step: Fraction
    radii: tuple[Fraction, ...]
    points: tuple[Fraction, ...]


def random_homogeneous(rnd: random.Random, arity: int, degree: int = 2):
    """Every pure power, and two thirds of the mixed monomials (rounded)."""
    terms = [e for e in itertools.product(range(degree + 1), repeat=arity) if sum(e) == degree]
    mixed = [e for e in terms if max(e) < degree]
    chosen = set(rnd.sample(mixed, round(len(mixed) * 2 / 3)))
    monomials = tuple(
        (e, randgen.random_rational(rnd, -2, 2))
        for e in terms
        if max(e) == degree or e in chosen
    )
    return curves.TropicalPolynomialMap(monomials, degree)


def distinct_radii(rnd: random.Random, count: int, lo: Fraction, hi: Fraction):
    """`count` distinct radii of randgen's grid on [lo, hi], in order."""
    return tuple(sorted(lo + (hi - lo) * Fraction(k, 64) for k in rnd.sample(range(65), count)))


def entire_with_breaks(rnd: random.Random, breaks: int):
    """A `random_entire` quadratic with exactly `breaks` breakpoints."""
    while True:
        h = randgen.random_entire(rnd, degree=2, max_breaks=SMT_MAX_BREAKS)
        if len(h.breakpoints) == breaks:
            return h


def linear_curve_with_roots(rnd: random.Random, arity: int, roots: int):
    """A `random_linear_curve` with `roots` roots over all its components."""
    max_roots = CASORATIAN_ROOTS[arity][0]
    while True:
        cur = randgen.random_linear_curve(rnd, arity=arity, max_roots=max_roots)
        if sum(len(c.breakpoints) for c in cur.components) == roots:
            return cur


def build_curves(seed: int) -> list[CurveCase]:
    """The operations of CURVE_KINDS, each with a fixed shape, in a seeded order.

    Operation i of a kind gets its shape from i alone: component j of a band
    check has (i + j) % 4 breakpoints, a Casoratian's total roots cycle
    through its arity's ladder, and its step alternates between 1 and 1/2.
    A band check's polynomial has every pure power and two thirds of the
    mixed monomials (rounded), and 4 distinct radii; a Casoratian has 2.
    """
    rnd = random.Random(seed)
    order = list(range(len(CURVE_KINDS)))
    rnd.shuffle(order)
    cases = []
    for i in order:
        kind, arity = CURVE_KINDS[i]
        if kind == "smt":
            comps = [entire_with_breaks(rnd, (i + j) % (SMT_MAX_BREAKS + 1)) for j in range(arity)]
            cur = curves.TropicalCurve(tuple(comps))
            poly = random_homogeneous(rnd, arity)
            step = Fraction(1)
            radii = distinct_radii(rnd, 4, Fraction(1, 2), Fraction(4))
        else:
            ladder = CASORATIAN_ROOTS[arity][1]
            cur = linear_curve_with_roots(rnd, arity, ladder[i % len(ladder)])
            poly = None
            step = (Fraction(1), Fraction(1, 2))[i % 2]
            radii = distinct_radii(rnd, 2, Fraction(1), Fraction(5))
        cases.append(CurveCase(kind, cur, poly, step, radii, sample_points(rnd, 6)))
    return cases


def run_curves(case: CurveCase):
    if case.kind == "smt":
        g = curves.compose_tropical(case.poly, case.curve)
        return g, curves.smt_homogeneous_check(case.poly, case.curve, case.radii)
    c0 = curves.casoratian(case.curve, case.step)
    return c0, curves.casoratian_balance(case.curve, case.radii, case.step)


def curve_check_points(case: CurveCase) -> list[Fraction]:
    points = set(case.points)
    for comp in case.curve.components:
        points.update(comp.breakpoints)
    return sorted(points)


def composite_brute_force(poly, comps, x: Fraction) -> Fraction:
    values = [value_at(comp, x) for comp in comps]
    return max(
        coeff + sum(e * v for e, v in zip(exponents, values))
        for exponents, coeff in poly.monomials
        if coeff is not None
    )


def casoratian_brute_force(comps, step: Fraction, x: Fraction) -> Fraction:
    return max(
        sum(value_at(comp, x + k * step) for comp, k in zip(comps, perm))
        for perm in itertools.permutations(range(len(comps)))
    )


def check_curves(case: CurveCase, result) -> None:
    fn, report = result
    comps = case.curve.components
    if case.kind == "smt":
        where = f"band check, arity {len(comps)}"
        require(len(report.rows) == len(case.radii), f"{where}: one row per radius")
        for row in report.rows:
            require(is_literal_zero(row.identity_gap), f"{where}: identity gap {row.identity_gap!r} at r={row.r}")
            require(row.in_band, f"{where}: residual out of band at r={row.r}")
        for x in curve_check_points(case):
            expected = composite_brute_force(case.poly, comps, x)
            got = value_at(fn, x)
            require(got == expected, f"{where}: composite at {x} is {got}, brute force {expected}")
        return
    where = f"Casoratian, arity {len(comps)}, step {case.step}"
    require(len(report.rows) == len(case.radii), f"{where}: one row per radius")
    require(report.tail_slopes_equal is True, f"{where}: tail slopes differ")
    for x in curve_check_points(case):
        expected = casoratian_brute_force(comps, case.step, x)
        got = value_at(fn, x)
        require(got == expected, f"{where}: value at {x} is {got}, brute force {expected}")


# ---------------------------------------------------------------------------
# cli_demo: the demonstration commands, in process through cli.run

# The commands of scripts/run_demo.py, copied so that the workload stays fixed.
DEMO_COMMANDS = (
    ("--manifest", "showcase", "--csv", "analyze", "--fn", "f"),
    ("--manifest", "showcase", "jensen", "--fn", "f", "--r", "5/2"),
    ("--manifest", "showcase", "pj", "--fn", "f", "--x", "1/2", "--r", "5/2"),
    ("--manifest", "parabola_train", "--csv",
     "characteristic", "--fn", "train", "--r-max", "5", "--grid", "1:5:1"),
    ("special", "hyperexp", "--n", "2", "--alpha", "2",
     "--window", "-8", "8", "--tail", "64"),
    ("--manifest", "mirror_parabolas",
     "curve", "cartan", "--curve", "mirror", "--r-max", "4", "--grid", "1:4:1"),
    ("--manifest", "envelope_curve",
     "curve", "compose", "--curve", "env", "--poly", "P"),
    ("--manifest", "mirror_parabolas",
     "curve", "casoratian", "--curve", "mirror"),
    ("--manifest", "envelope_curve",
     "verify", "smt", "--curve", "env", "--poly", "P", "--grid", "3:9:2"),
    ("--manifest", "fermat_staircase",
     "verify", "fermat", "--curve", "h", "--poly", "P1", "--grid", "10:40:10"),
    ("--manifest", "fermat_staircase",
     "verify", "fermat", "--curve", "g", "--poly", "P1", "--grid", "10:40:10"),
    ("--manifest", "mirror_parabolas",
     "verify", "casoratian-balance", "--curve", "mirror", "--grid", "2:4:2"),
    ("verify", "jensen-sweep", "--count", "10", "--seed", "1"),
    ("verify", "lemma44", "--hyperexp", "2:2:-40:40:64",
     "--c", "1", "--alpha", "2", "--grid", "8:16:4"),
)
DEMO_MANIFESTS = sorted(
    {argv[argv.index("--manifest") + 1] for argv in DEMO_COMMANDS if "--manifest" in argv}
)


def build_cli(seed: int) -> list[list[str]]:
    """The demo commands in a seeded order, after parsing their manifests.

    Set-up parses each bundled manifest the commands name and materializes
    its curves; every command then parses its manifest again on its own.
    """
    for name in DEMO_MANIFESTS:
        text = resources.files("tropicalc").joinpath("data", f"{name}.json").read_text(encoding="utf-8")
        parsed = manifest.parse_manifest(text)
        for curve_name in parsed.curves:
            parsed.curve(curve_name)
    order = list(range(len(DEMO_COMMANDS)))
    random.Random(seed).shuffle(order)
    return [list(DEMO_COMMANDS[k]) for k in order]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def passed_fields(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "passed":
                yield value
            yield from passed_fields(value)
    elif isinstance(node, list):
        for item in node:
            yield from passed_fields(item)


@functools.cache
def load_golden() -> dict[str, str]:
    """Command line -> expected stdout, as written by write_golden.py."""
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {" ".join(entry["argv"]): entry["stdout"] for entry in entries}


def verdicts(stdout: str) -> list:
    """Every `passed` field of a JSON report, or the passed column of a CSV one."""
    if stdout.startswith("{"):
        return list(passed_fields(json.loads(stdout)))
    rows = [line.split(",") for line in stdout.splitlines()]
    if "passed" not in rows[0]:
        return []
    column = rows[0].index("passed")
    return [row[column] == "True" for row in rows[1:]]


def check_cli(argv: list[str], result) -> None:
    code, stdout = result
    command = " ".join(argv)
    require(code == 0, f"tropicalc {command}: exit code {code}")
    found = verdicts(stdout)
    require(all(v is True for v in found), f"tropicalc {command}: passed fields {found}")
    golden = load_golden()
    require(command in golden, f"tropicalc {command}: no golden output")
    # Equality with one golden copy also makes the output of every
    # repetition of the command in a run byte-identical.
    require(stdout == golden[command], f"tropicalc {command}: stdout differs from the golden copy")


WORKLOADS = {
    "jensen_sweep": Workload(build_jensen, run_jensen, check_jensen),
    "staircase_profile": Workload(build_staircase, run_staircase, check_staircase),
    "curve_algebra": Workload(build_curves, run_curves, check_curves),
    "cli_demo": Workload(build_cli, run_cli, check_cli),
}
