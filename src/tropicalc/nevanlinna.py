"""Value-distribution functionals for piecewise-polynomial functions.

For a function of degree bound n and a radius r > 0:

* proximity       m(r, f)    = (max(f(r), 0) + max(f(-r), 0)) / 2
* counting        N_j(r, f)  = 1/2 * sum |omega_j(z)| * (r - |z|)^j over the
                               order-j poles z inside (-r, r)
* characteristic  T(r, f)    = m(r, f) + sum_{j=1..n} N_j(r, f)

plus the reconstruction identities tying them together: the Jensen formula
(boundary mean minus root sum plus pole sum recovers f(0)) and the full
disk-interior Poisson-Jensen reconstruction of f(x).  Everything is exact:
rational inputs give rational outputs and identically-zero residuals; data
with algebraic breakpoints produces exact symbolic sums that can be enclosed
to any requested width.

Radius profiles represent m, N_j, and T as closed-form piecewise polynomials
in r, enabling exact shape checks (non-negative / non-decreasing / convex).
A profile holds only (0, r_max]: `RadiusProfile` drops every breakpoint
outside (0, r_max) when it is built.  `jensen_report` is the one place the
Jensen identity is assembled; `jensen_balance` and `counting_difference`
read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (
    BadWindow,
    NonPositiveRadius,
    NonPositiveValues,
    NotWellDefined,
    PointOutsideDisk,
    RadiusBelowThreshold,
    WindowOutOfRange,
    ZeroShift,
)
from .numeric import (
    Scalar,
    compare,
    exact_sum,
    poly_sign_at,
    root_value,
    scalar_abs,
    scalar_sign,
    scale_value,
    value_enclosure,
    value_float,
    value_sign,
)
from .poly import Polynomial, frac
from .polyseg import (
    MINUS,
    PLUS,
    PiecewiseFunction,
    _index_left_of,
    evaluate,
    evaluate_jet,
    governing_segment,
    linear_combine,
    piecewise,
    plus_part,
    reflect,
    sign_runs,
)
from .singular import (  # noqa: F401  (omega_at is re-exported)
    _format_scalar,
    _profiles,
    _profiles_in,
    _report_json,
    classify,
    omega_at,
)

POLES_OF_F = "poles_of_f"
POLES_OF_NEG_F = "poles_of_neg_f"

RIGHT_TO_R = "right"
LEFT_TO_MINUS_R = "left"

_HALF = Fraction(1, 2)


def _positive_radius(r) -> Fraction:
    r = frac(r)
    if r <= 0:
        raise NonPositiveRadius(f"radius must be > 0, got {r}")
    return r


# ---------------------------------------------------------------------------
# pointwise functionals


def proximity(f: PiecewiseFunction, r):
    """(f+(r) + f+(-r)) / 2 where f+ = max(f, 0)."""
    r = _positive_radius(r)
    return (max(evaluate(f, r), Fraction(0)) + max(evaluate(f, -r), Fraction(0))) / 2


def counting(
    f: PiecewiseFunction,
    j: int,
    r,
    sub: tuple | None = None,
    sign: str = POLES_OF_F,
):
    """1/2 * sum |omega_j(z)| (r - |z|)^j over order-j poles of f (or of -f).

    `sub` restricts to a window (lo, hi[, closed_lo, closed_hi]) that must sit
    inside [-r, r]; the default window is the open disk (-r, r).
    """
    r = _positive_radius(r)
    rows = _counted_rows(f, j, sign, *_disk_window(r, sub))
    terms = [_mul_power(w, z, r, j, minus=scalar_sign(z) > 0) for z, w in rows]
    return scale_value(exact_sum(terms), _HALF)


def _disk_sums(f: PiecewiseFunction, r: Fraction) -> tuple:
    """(sum_j N_j(r, -f), sum_j N_j(r, f)) in one walk of f's table.

    Every nonzero omega_j inside the open disk adds |omega_j| (r - |z|)^j to
    the root sum (omega_j > 0) or to the pole sum (omega_j < 0).
    """
    roots: list = []
    poles: list = []
    for profile in _profiles_in(f, -r, r):
        z = profile.location
        right = scalar_sign(z) > 0  # r - |z| is r - z right of 0, r + z left of it
        for j, sign, w in profile.entries:
            if sign > 0:
                roots.append(_mul_power(w, z, r, j, minus=right))
            else:
                poles.append(_mul_power(-w, z, r, j, minus=right))
    return scale_value(exact_sum(roots), _HALF), scale_value(exact_sum(poles), _HALF)


def _disk_window(r: Fraction, sub: tuple | None) -> tuple:
    """The counting window and its (closed_left, closed_right) flags read from `sub`."""
    if sub is None:
        return (-r, r), (False, False)
    lo, hi = sub[0], sub[1]
    if compare(lo, -r) < 0 or compare(hi, r) > 0:
        raise WindowOutOfRange(f"window [{lo}, {hi}] is not contained in [-{r}, {r}]")
    closed_lo = bool(sub[2]) if len(sub) > 2 else False
    closed_hi = bool(sub[3]) if len(sub) > 3 else False
    return (lo, hi), (closed_lo, closed_hi)


def _counted_rows(
    f: PiecewiseFunction, j, sign: str, window=None, closed=(False, False)
) -> list:
    """(location, |omega_j|) at the order-j poles of f (sign POLES_OF_F) or of -f."""
    if not isinstance(j, int) or j < 1:
        raise ValueError(f"order j must be an integer >= 1, got {j!r}")
    if sign not in (POLES_OF_F, POLES_OF_NEG_F):
        raise ValueError(f"unknown sign selector {sign!r}")
    wanted = -1 if sign == POLES_OF_F else 1
    profiles = _profiles(f) if window is None else _profiles_in(f, *window, *closed)
    return [
        (p.location, w if s > 0 else -w)
        for p in profiles
        for order, s, w in p.entries
        if order == j and s == wanted
    ]


def counting_oracle(
    f: PiecewiseFunction,
    j: int,
    r,
    mesh,
    sub: tuple | None = None,
    sign: str = POLES_OF_F,
) -> Fraction:
    """Riemann-sum rendition of the iterated-integral counting definition.

    The j-fold integral of the unintegrated counting function n_j over the
    simplex collapses to 1/2 * integral_0^r n_j(u) * j*(r-u)^(j-1) du; this
    evaluates that with a left-rule Riemann sum of the given mesh, entirely
    in exact rational arithmetic, and converges to `counting` as mesh -> 0.
    """
    r = _positive_radius(r)
    mesh = frac(mesh)
    if mesh <= 0:
        raise ValueError(f"mesh must be > 0, got {mesh}")
    rows = _counted_rows(f, j, sign, *_disk_window(r, sub))
    thresholds: list[tuple[Fraction, Fraction]] = []
    for z, w in rows:
        if isinstance(z, Fraction):
            magnitude = abs(z)
        else:
            lo_, hi_ = scalar_abs(z).refine_to(mesh / 8)
            magnitude = (lo_ + hi_) / 2
        if not isinstance(w, Fraction):
            lo_, hi_ = w.enclosure(mesh / 8)
            w = (lo_ + hi_) / 2
        thresholds.append((magnitude, w))
    thresholds.sort(key=lambda t: t[0])
    total = Fraction(0)
    cumulative = Fraction(0)
    pointer = 0
    steps = int(r / mesh) + (0 if (r / mesh).denominator == 1 else 1)
    for i in range(steps):
        u = i * mesh
        while pointer < len(thresholds) and thresholds[pointer][0] < u:
            cumulative += thresholds[pointer][1]
            pointer += 1
        if cumulative:
            total += cumulative * j * (r - u) ** (j - 1) * mesh
    return total / 2


def characteristic(f: PiecewiseFunction, r):
    """T(r, f) = m(r, f) + sum over orders of N_j(r, f)."""
    r = _positive_radius(r)
    return exact_sum([proximity(f, r), _disk_sums(f, r)[1]])


def jensen_balance(f: PiecewiseFunction, r):
    """T(r, f) - T(r, -f) - f(0); exactly zero by the Jensen identity.

    This is the Jensen report's residual: m(r, f) - m(r, -f) is the
    boundary mean, and the poles of -f are the roots of f.
    """
    return jensen_report(f, r).residual


def counting_difference(h: PiecewiseFunction, r) -> tuple:
    """(sum_j N_j(r, -h) - sum_j N_j(r, h),  (h(r)+h(-r))/2 - h(0)).

    The two entries agree exactly for every h and r; this is the exact
    residual bookkeeping behind the homogeneous band check.
    """
    report = jensen_report(h, r)
    return (
        exact_sum([report.root_sum, -report.pole_sum]),
        report.boundary_mean - report.reference,
    )


# ---------------------------------------------------------------------------
# Jensen report


@dataclass(frozen=True)
class JensenReport:
    r: Fraction
    boundary_mean: object
    root_sum: object
    pole_sum: object
    reconstructed: object
    reference: object
    residual: object

    def passed(self) -> bool:
        return _residual_vanishes(self.residual)

    to_json = _report_json


def _residual_vanishes(residual) -> bool:
    """A literal zero, or an exact residual whose 1e-12 enclosure holds 0."""
    if isinstance(residual, Fraction):
        return residual == 0
    lo, hi = value_enclosure(residual, Fraction(1, 10**12))
    return lo <= 0 <= hi


def jensen_report(f: PiecewiseFunction, r) -> JensenReport:
    """Reconstruct f(0) = boundary mean - root sum + pole sum, itemized."""
    r = _positive_radius(r)
    boundary = scale_value(exact_sum([evaluate(f, r), evaluate(f, -r)]), _HALF)
    roots, poles = _disk_sums(f, r)
    reconstructed = exact_sum([boundary, -roots, poles])
    reference = evaluate(f, 0)
    residual = exact_sum([reconstructed, -reference])
    return JensenReport(r, boundary, roots, poles, reconstructed, reference, residual)


# ---------------------------------------------------------------------------
# radius profiles


@dataclass(frozen=True)
class RadiusProfile:
    """A functional of r as a piecewise polynomial on (0, r_max].

    The profile keeps only the breakpoints inside (0, r_max): its first
    segment starts at 0 and its last one reaches r_max.
    """

    kind: str  # "m", "N", or "T"
    order: int | None
    r_max: Fraction
    profile: PiecewiseFunction

    def __post_init__(self):
        r_max = _positive_radius(self.r_max)
        f = self.profile
        lt, on = _index_left_of(f, Fraction(0))
        lo = lt + on  # drop the breakpoints <= 0
        hi, _ = _index_left_of(f, r_max)  # keep the breakpoints < r_max
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(
            self,
            "profile",
            PiecewiseFunction(f.breakpoints[lo:hi], f.segments[lo : hi + 1]),
        )

    def __call__(self, r):
        r = _positive_radius(r)
        if r > self.r_max:
            raise ValueError(f"profile only valid on (0, {self.r_max}], got r={r}")
        return evaluate(self.profile, r)


@dataclass(frozen=True)
class ProfileFlags:
    non_negative: bool
    non_decreasing: bool
    convex: bool


def proximity_profile(f: PiecewiseFunction, r_max) -> RadiusProfile:
    fp = plus_part(f)
    prof = linear_combine(fp, reflect(fp), Fraction(1, 2), Fraction(1, 2))
    return RadiusProfile("m", None, r_max, prof)


def counting_profile(
    f: PiecewiseFunction, j: int, r_max, sign: str = POLES_OF_F
) -> RadiusProfile:
    """Closed-form piecewise polynomial r -> N_j(r, f) on (0, r_max]."""
    weights: dict[Fraction, Fraction] = {}
    for z, w in _counted_rows(f, j, sign):
        if not isinstance(z, Fraction) or not isinstance(w, Fraction):
            raise ValueError(
                "counting profiles need rational singularity data; "
                f"got an algebraic entry at {z!r}"
            )
        weights[abs(z)] = weights.get(abs(z), Fraction(0)) + w
    bps = sorted(weights)
    acc = Polynomial.zero()
    segs = [acc]
    for m in bps:
        acc = acc + (Polynomial.from_coeffs((-m, 1)) ** j).scale(weights[m] / 2)
        segs.append(acc)
    # a pole at the origin makes a breakpoint 0, which the domain cut drops
    return RadiusProfile("N", j, r_max, PiecewiseFunction(tuple(bps), tuple(segs)))


def characteristic_profile(f: PiecewiseFunction, r_max) -> RadiusProfile:
    return profile_bundle(f, r_max)["T"]


def profile_bundle(f: PiecewiseFunction, r_max) -> dict[str, RadiusProfile]:
    """All functional profiles keyed 'm', 'N1'.., 'T' (shared degree bound)."""
    n = max(1, f.degree_bound)
    out = {"m": proximity_profile(f, r_max)}
    total = out["m"].profile
    for j in range(1, n + 1):
        out[f"N{j}"] = counting_profile(f, j, r_max)
        total = linear_combine(total, out[f"N{j}"].profile, 1, 1)
    out["T"] = RadiusProfile("T", None, r_max, total)
    return out


def profile_flags(rp: RadiusProfile) -> ProfileFlags:
    """Exact shape flags of the profile on (0, r_max].

    A polynomial is >= 0 on a closed piece [lo, hi] (lo < hi) when it is zero
    or positive on every run between its roots inside (lo, hi); continuity
    settles the roots and both ends.
    """
    def nonneg_on(p: Polynomial, lo, hi) -> bool:
        return p.is_zero or all(s > 0 for _, s in sign_runs(p, lo, hi))

    prof = rp.profile
    bps = prof.breakpoints
    nonneg = nondecr = convex = True
    for seg, lo, hi in zip(prof.segments, [Fraction(0), *bps], [*bps, rp.r_max]):
        nonneg = nonneg and nonneg_on(seg, lo, hi)
        nondecr = nondecr and nonneg_on(seg.derivative(), lo, hi)
        convex = convex and nonneg_on(seg.derivative(2), lo, hi)
    for k, bp in enumerate(bps):
        jump = prof.segments[k + 1].derivative() - prof.segments[k].derivative()
        convex = convex and poly_sign_at(jump, bp) >= 0
    return ProfileFlags(nonneg, nondecr, convex)


def profile_json(rp: RadiusProfile) -> dict:
    return {
        "kind": rp.kind if rp.order is None else f"{rp.kind}{rp.order}",
        "r_max": str(rp.r_max),
        "breakpoints": [_format_scalar(b) for b in rp.profile.breakpoints],
        "segments": [[str(c) for c in s.coeffs] for s in rp.profile.segments],
    }


# ---------------------------------------------------------------------------
# telescoping sums (disk-boundary reconstruction, one side at a time)


def lemma31_sum(f: PiecewiseFunction, x, r, side: str):
    """Jet-plus-jump telescoping sum from x to r (right) or -r to x (left).

    Right side equals f(r) - f(x) exactly; left side equals f(x) - f(-r).
    """
    r = _positive_radius(r)
    x = frac(x)
    if not (-r < x < r):
        raise PointOutsideDisk(f"need -r < x < r, got x={x}, r={r}")
    n = max(1, f.degree_bound)
    if side == RIGHT_TO_R:
        jets = evaluate_jet(f, x, PLUS, n)
        window = (x, r)
    elif side == LEFT_TO_MINUS_R:
        jets = evaluate_jet(f, x, MINUS, n)
        window = (-r, x)
    else:
        raise ValueError(f"side must be {RIGHT_TO_R!r} or {LEFT_TO_MINUS_R!r}")
    terms = []
    for j in range(1, n + 1):
        if side == RIGHT_TO_R:
            terms.append(jets[j] * (r - x) ** j)
        else:
            terms.append(Fraction(-1) ** (j + 1) * jets[j] * (r + x) ** j)
    for profile in _profiles_in(f, *window):
        y = profile.location
        for j in range(1, n + 1):
            tau = profile.tau_of(j)
            if value_sign(tau) == 0:
                continue
            if side == RIGHT_TO_R:
                terms.append(_mul_power(tau, y, r, j, minus=True))
            else:
                terms.append(
                    scale_value(_mul_power(tau, y, r, j, minus=False), Fraction(-1) ** j)
                )
    return exact_sum(terms)


def _mul_power(weight, y: Scalar, r: Fraction, j: int, minus: bool):
    """weight * (r - y)^j (minus=True) or weight * (r + y)^j."""
    if isinstance(y, Fraction):
        base = (r - y) ** j if minus else (r + y) ** j
        return weight * base
    arm = Polynomial.from_coeffs((r, -1) if minus else (r, 1)) ** j
    return weight * root_value(arm, y)


# ---------------------------------------------------------------------------
# Poisson-Jensen


def _region_of(y: Scalar, x: Fraction) -> str:
    sy = scalar_sign(y)
    rel = compare(y, x)
    if sy < 0:
        if rel == 0:
            return "F9"
        if rel < 0:
            return "F1"  # y < min(0, x): y < x and y < 0
        return "F5"  # x < y < 0
    if sy == 0:
        if x == 0:
            return "F3"
        return "F6" if x < 0 else "F7"
    # y > 0
    if rel == 0:
        return "F8"
    if rel > 0:
        return "F2"  # y > max(0, x)
    return "F4"  # 0 < y < x


def _omega_factor_B(region: str, j: int) -> int:
    return 1 if region in ("F1", "F2", "F3", "F6", "F8") else (-1) ** (j + 1)


def _left_factor_B(region: str, j: int) -> int:
    if region in ("F6",):
        return (-1) ** (j + 1) - 1
    if region in ("F7", "F8", "F9"):
        return 1 - (-1) ** (j + 1)
    return 0


def _omega_factor_D(region: str, j: int) -> int:
    if region == "F1":
        return -1
    if region in ("F2", "F3", "F6", "F8"):
        return 1
    if region in ("F4", "F7"):
        return (-1) ** j
    return (-1) ** (j + 1)  # F5, F9


def _left_factor_D(region: str, j: int) -> int:
    if region == "F3":
        return 2 * (-1) ** (j + 1)
    if region in ("F6", "F7"):
        return (-1) ** (j + 1) - 1
    if region in ("F8", "F9"):
        return 1 - (-1) ** j
    return 0


@dataclass(frozen=True)
class SingularityContribution:
    location: Scalar
    order: int
    region: str
    omega: object
    energy: object = field(metadata={"key": "energy_power"})  # E(r, x, y)^j
    b_term: object
    d_term: object
    omega_weight: object  # Ω per the region decomposition
    gamma_weight: object  # Γ per the region decomposition


@dataclass(frozen=True)
class PoissonJensenReport:
    x: Fraction
    r: Fraction
    n: int = field(metadata={"key": "order_bound"})
    boundary_mean: object
    slope_term: object
    b_sum: object = field(metadata={"key": "singular_B_sum"})
    d_sum: object = field(metadata={"key": "singular_D_sum"})
    correction_x: object
    correction_zero: object
    contributions: tuple[SingularityContribution, ...]
    reconstructed: object
    reference: object
    residual: object

    def passed(self) -> bool:
        return _residual_vanishes(self.residual)

    to_json = _report_json


def _b_aux(r: Fraction, x: Fraction, k: int) -> Fraction:
    return ((r + x) ** k + (r - x) ** k) / 2


def _d_aux(r: Fraction, x: Fraction, k: int) -> Fraction:
    return ((r + x) ** k - (r - x) ** k) / 2


def _energy_power(r: Fraction, x: Fraction, y: Scalar, j: int):
    """E(r, x, y)^j with E = r^2 - |x - y|*r - x*y, exact for algebraic y."""
    if isinstance(y, Fraction):
        return (r * r - abs(x - y) * r - x * y) ** j
    s = compare(Fraction(x), y)  # sign of (x - y); never 0 for algebraic y vs rational x
    # E as a polynomial in y: r^2 - s*(x - y)*r - x*y
    p = Polynomial.from_coeffs((r * r - s * x * r, s * r - x))
    return root_value(p**j, y)


def poisson_jensen(f: PiecewiseFunction, x, r) -> PoissonJensenReport:
    """Reconstruct f(x) from boundary data plus singular sums, itemized.

    Exact: rational breakpoints give a literal zero residual; algebraic
    singularities give an exact symbolic residual whose enclosure straddles 0.
    """
    r = _positive_radius(r)
    x = frac(x)
    if not (-r < x < r):
        raise PointOutsideDisk(f"need -r < x < r, got x={x}, r={r}")
    n = max(1, f.degree_bound)
    f_r = evaluate(f, r)
    f_mr = evaluate(f, -r)
    f_x = evaluate(f, x)
    f_0 = evaluate(f, 0)
    b_n = _b_aux(r, x, n)
    boundary_mean = (f_r + f_mr) / 2
    slope_term = _d_aux(r, x, n) / (2 * b_n) * (f_r - f_mr)

    contributions: list[SingularityContribution] = []
    b_terms = []
    d_terms = []
    for profile in _profiles_in(f, -r, r):
        y = profile.location
        region = _region_of(y, x)
        jets_minus = None  # the left jet, evaluated where a left factor needs it
        for j, _, w in profile.entries:
            left_b, left_d = _left_factor_B(region, j), _left_factor_D(region, j)
            left_jet = Fraction(0)
            if left_b or left_d:
                if jets_minus is None:
                    jets_minus = evaluate_jet(f, y, MINUS, n)
                left_jet = jets_minus[j]
            omega_weight = exact_sum(
                [
                    scale_value(w, Fraction(_omega_factor_B(region, j))),
                    scale_value(left_jet, Fraction(left_b)),
                ]
            )
            gamma_weight = exact_sum(
                [
                    scale_value(w, Fraction(_omega_factor_D(region, j))),
                    scale_value(left_jet, Fraction(left_d)),
                ]
            )
            energy = _energy_power(r, x, y, j)
            sb = Fraction(_omega_factor_B(region, j)) * _b_aux(r, x, n - j) / (2 * b_n)
            sd = Fraction(_omega_factor_D(region, j)) * _d_aux(r, x, n - j) / (2 * b_n)
            b_term = scale_value(w * energy, sb)
            d_term = scale_value(w * energy, sd)
            b_terms.append(b_term)
            d_terms.append(d_term)
            contributions.append(
                SingularityContribution(
                    y, j, region, w, energy, b_term, d_term, omega_weight, gamma_weight
                )
            )
    b_sum = exact_sum(b_terms)
    d_sum = exact_sum(d_terms)

    left_at_x = governing_segment(f, x, MINUS)
    left_at_zero = governing_segment(f, Fraction(0), MINUS)
    correction_x = (
        (r + x) ** n * (left_at_x(r) - f_x) + (r - x) ** n * (left_at_x(-r) - f_x)
    ) / (2 * b_n)
    sgn_x_minus = 1 if x > 0 else -1
    correction_zero = (
        sgn_x_minus
        * (r - abs(x)) ** n
        * (left_at_zero(r) + left_at_zero(-r) - 2 * f_0)
        / (2 * b_n)
    )
    reconstructed = exact_sum(
        [
            boundary_mean,
            slope_term,
            -b_sum,
            -d_sum,
            -correction_x,
            -correction_zero,
        ]
    )
    residual = exact_sum([reconstructed, -f_x])
    return PoissonJensenReport(
        x,
        r,
        n,
        boundary_mean,
        slope_term,
        b_sum,
        d_sum,
        correction_x,
        correction_zero,
        tuple(contributions),
        reconstructed,
        f_x,
        residual,
    )


# ---------------------------------------------------------------------------
# log-difference diagnostics


def log_difference(f: PiecewiseFunction, c, delta: int, r):
    """f(delta*r + c) - f(delta*r)."""
    c = frac(c)
    if c == 0:
        raise ZeroShift("shift c must be nonzero")
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, got {delta!r}")
    r = _positive_radius(r)
    base = delta * r
    return evaluate(f, base + c) - evaluate(f, base)


@dataclass(frozen=True)
class Lemma44Report:
    c: Fraction
    alpha: Fraction
    r: Fraction
    threshold: Fraction
    lhs_plus: Fraction
    lhs_minus: Fraction
    rhs: Fraction
    passed: bool

    to_json = _report_json


def lemma44_check(f: PiecewiseFunction, c, alpha, r) -> Lemma44Report:
    """Check |f(dr+c) - f(dr)| <= 32|c|/((a-1)(r+|c|)) * (T(a(r+|c|)) + |f(0)|/2)."""
    c = frac(c)
    if c == 0:
        raise ZeroShift("shift c must be nonzero")
    alpha = frac(alpha)
    if alpha <= 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    r = _positive_radius(r)
    flags = classify(f)
    if not flags.well_defined:
        raise NotWellDefined("the shape test fails on at least one segment")
    threshold = max(2 * abs(c), (3 - alpha) / (alpha - 1) * abs(c))
    if r <= threshold:
        raise RadiusBelowThreshold(r, threshold)
    lhs_plus = abs(log_difference(f, c, 1, r))
    lhs_minus = abs(log_difference(f, c, -1, r))
    big_t = characteristic(f, alpha * (r + abs(c)))
    if not isinstance(big_t, Fraction):
        lo, hi = value_enclosure(big_t, Fraction(1, 10**12))
        big_t = hi  # upper bound keeps the check sound
    rhs = (
        32 * abs(c) / ((alpha - 1) * (r + abs(c))) * (big_t + abs(evaluate(f, 0)) / 2)
    )
    passed = max(lhs_plus, lhs_minus) <= rhs
    return Lemma44Report(c, alpha, r, threshold, lhs_plus, lhs_minus, rhs, passed)


# ---------------------------------------------------------------------------
# the hyper-exponential family


def _eulerian_row(n: int) -> list[int]:
    """Eulerian numbers <n, 0..n-1> (n >= 1)."""
    row = [1]
    for m in range(2, n + 1):
        new = [0] * m
        for k in range(m):
            left = row[k] if k < len(row) else 0
            up = row[k - 1] if k - 1 >= 0 else 0
            new[k] = (k + 1) * left + (m - k) * up
        row = new
    return row


def _power_sum_series(n: int, q: Fraction) -> Fraction:
    """sum_{t>=1} t^n q^t for 0 < q < 1, exactly (Eulerian closed form)."""
    if not 0 < q < 1:
        raise ValueError("series needs 0 < q < 1")
    row = _eulerian_row(n)
    numerator = sum(row[k] * q ** (k + 1) for k in range(n))
    return numerator / (1 - q) ** (n + 1)


@dataclass(frozen=True)
class HyperexpResult:
    function: PiecewiseFunction
    tail_bound: Fraction  # exact dropped-tail constant (uniform shift)
    n: int
    alpha: Fraction
    cutoff: int
    window: tuple[int, int]


def hyperexp(n: int, alpha, window: tuple, tail_cutoff: int) -> HyperexpResult:
    """Degree-n, base-alpha hyper-exponential staircase on an integer window.

    Segment on [m, m+1) is s_m * alpha^m * (x^n - m^n) + C_m with
    s_m = 1 for m >= 0 and (-1)^(n+1) otherwise; constants accumulate segment
    increments starting at the cutoff -K.  The dropped lower tail
    sum_{t>K} alpha^(-t) (t^n - (t-1)^n) is returned exactly: the constructed
    function is the ideal one minus that constant, so all jump data is exact.
    """
    if not isinstance(n, int) or n < 1:
        raise BadWindow(f"degree n must be an integer >= 1, got {n!r}")
    alpha = frac(alpha)
    if alpha <= 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    lo, hi = window
    lo, hi = frac(lo), frac(hi)
    if lo.denominator != 1 or hi.denominator != 1 or not (lo < 0 < hi):
        raise BadWindow(
            f"window must be integer bounds straddling 0, got ({lo}, {hi})"
        )
    m_min, m_max = int(lo), int(hi)
    if not isinstance(tail_cutoff, int) or tail_cutoff < -m_min or tail_cutoff < 1:
        raise BadWindow(
            f"tail cutoff must be an integer >= max(1, {-m_min}), got {tail_cutoff!r}"
        )
    k = tail_cutoff

    def seg_sign(m: int) -> int:
        return 1 if m >= 0 else (-1) ** (n + 1)

    def increment(m: int) -> Fraction:
        return seg_sign(m) * alpha**m * Fraction((m + 1) ** n - m**n)

    # constant at the left edge of the constructed window
    const = sum((increment(i) for i in range(-k, m_min)), Fraction(0))
    segs: list[Polynomial] = []
    for m in range(m_min, m_max):
        base = Polynomial.from_coeffs(
            [-Fraction(m**n), *([0] * (n - 1)), 1]
        ).scale(seg_sign(m) * alpha**m)
        segs.append(base + Polynomial.constant(const))
        const += increment(m)
    # interior integers are the breakpoints; the first/last segments extend to
    # -inf/+inf as polynomial tails, so trust values on the window only
    bps = [Fraction(m) for m in range(m_min + 1, m_max)]
    tail = _exact_tail(n, 1 / alpha, k)
    fn = piecewise(bps, segs)
    return HyperexpResult(fn, tail, n, alpha, k, (m_min, m_max))


def _exact_tail(n: int, q: Fraction, k: int) -> Fraction:
    """sum_{t >= k+1} q^t (t^n - (t-1)^n), exactly."""
    full = (1 - q) * _power_sum_series(n, q)  # sum_{t>=1} q^t (t^n - (t-1)^n)
    head = sum(
        (q**t * Fraction(t**n - (t - 1) ** n) for t in range(1, k + 1)), Fraction(0)
    )
    return full - head


# ---------------------------------------------------------------------------
# growth-scale diagnostics


@dataclass(frozen=True)
class GrowthEstimates:
    grid: tuple[Fraction, ...]
    order_estimates: tuple[float, ...]
    hyper_order_estimates: tuple[float, ...]

    to_json = _report_json


def growth_estimates(profile: RadiusProfile, grid: Sequence) -> GrowthEstimates:
    """log T / log r and log log T / log r along the grid (no limits claimed)."""
    radii = [frac(r) for r in grid]
    orders = []
    hypers = []
    for r in radii:
        if r <= 1:
            raise ValueError(f"grid radii must be > 1, got {r}")
        t = profile(r)
        t_float = value_float(t)
        if t_float <= 0 or (isinstance(t, Fraction) and t <= 0):
            raise NonPositiveValues(f"profile value {t_float} <= 0 at r = {r}")
        if t_float <= 1:
            raise NonPositiveValues(
                f"profile value {t_float} <= 1 at r = {r}: log log undefined"
            )
        orders.append(math.log(t_float) / math.log(float(r)))
        hypers.append(math.log(math.log(t_float)) / math.log(float(r)))
    return GrowthEstimates(tuple(radii), tuple(orders), tuple(hypers))
