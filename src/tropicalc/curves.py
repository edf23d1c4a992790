"""Tuples of entire piecewise-polynomial functions and their invariants.

A curve here is a tuple (f_0, ..., f_m) of pole-free components considered up
to a common additive gauge.  The module provides:

* the Cartan-style characteristic T(r) = (F(r) + F(-r))/2 - F(0) with
  F = max_i f_i, as values read off the components at r, -r and 0, and as
  a closed-form radius profile (the one place that builds the envelope F);
* compositions with max-plus polynomial maps (max over monomials) and with
  Fermat-type forms (ordinary weighted sums of n-th powers);
* the max-plus Casoratian (permanent of the shift matrix);
* exact finite-radius renditions of the second-main-theorem bookkeeping:
  the homogeneous band check, Fermat ratio tables, and the Casoratian
  balance blocks.

All computations are exact; report rows carry Fractions (or exact symbolic
values when singularity locations are algebraic).  A curve is analysed once:
it keeps its Casoratian per step and its composite per polynomial map, so a
report reads the function its caller has already built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .errors import (
    AllNegInfinity,
    ArityMismatch,
    MissingPurePowers,
    NonLinearComponents,
    NotEntireComponent,
    TooManyComponents,
)
from .nevanlinna import (
    POLES_OF_NEG_F,
    RadiusProfile,
    _disk_sums,
    _positive_radius,
    counting,
    jensen_report,
)
from .numeric import Scalar, exact_sum, scalar_eq, value_sign
from .poly import frac
from .polyseg import (
    PiecewiseFunction,
    constant,
    evaluate,
    linear_combine,
    power,
    reflect,
    scale,
    shift,
    tropical_plus,
)
from .singular import _profiles, _report_json


def _between(v, lo: Fraction, hi: Fraction) -> bool:
    """lo <= v <= hi, exactly, for a Fraction or exact symbolic value v."""
    return (
        value_sign(exact_sum([v, -lo])) >= 0 and value_sign(exact_sum([v, -hi])) <= 0
    )


@dataclass(frozen=True)
class TropicalCurve:
    """Pole-free components (f_0, ..., f_m), compared by their components.

    The curve keeps its Casoratian per step and its composite per
    polynomial map, each built on first use; they are not fields, so they
    leave ==, hash and repr alone.
    """

    components: tuple[PiecewiseFunction, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a curve needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "_casoratians", {})
        object.__setattr__(self, "_composites", {})
        for i, comp in enumerate(self.components):
            for p in _profiles(comp):
                if any(sign < 0 for _, sign, _ in p.entries):
                    raise NotEntireComponent(i, p.location)

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        return max(1, max(c.degree_bound for c in self.components))

    def envelope(self) -> PiecewiseFunction:
        return reduce(tropical_plus, self.components)


def curve(components) -> TropicalCurve:
    return TropicalCurve(tuple(components))


def _root_entries(fn: PiecewiseFunction) -> list[tuple[Scalar, int]]:
    return [
        (p.location, order)
        for p in _profiles(fn)
        for order, sign, _ in p.entries
        if sign > 0
    ]


def check_reduced(c: TropicalCurve) -> tuple[bool, tuple[Scalar, int] | None]:
    """True iff no (location, order) root is shared by every component."""
    first = _root_entries(c.components[0])
    others = [_root_entries(comp) for comp in c.components[1:]]
    for loc, order in first:
        if all(
            any(order == o and scalar_eq(loc, l) for l, o in entries)
            for entries in others
        ):
            return False, (loc, order)
    return True, None


def _warn_if_not_reduced(c: TropicalCurve) -> None:
    ok, witness = check_reduced(c)
    if not ok:
        warnings.warn(
            f"curve is not reduced: common root at {witness[0]} of order "
            f"{witness[1]}; the characteristic depends on the representation",
            stacklevel=3,
        )


def _envelope_at(c: TropicalCurve, x) -> Fraction:
    """F(x) = max_i f_i(x) at a rational x, read off the components."""
    return max(evaluate(comp, x) for comp in c.components)


def _cartan_value(c: TropicalCurve, r: Fraction) -> Fraction:
    """T(r) = (F(r) + F(-r))/2 - F(0), without building the envelope F."""
    return (_envelope_at(c, r) + _envelope_at(c, -r)) / 2 - _envelope_at(c, 0)


def cartan(c: TropicalCurve, r) -> Fraction:
    """(F(r) + F(-r))/2 - F(0) with F the component-wise maximum.

    F is read off the components at r, -r and 0; only `cartan_profile`,
    which needs F in closed form, builds the envelope.
    """
    r = _positive_radius(r)
    _warn_if_not_reduced(c)
    return _cartan_value(c, r)


def cartan_profile(c: TropicalCurve, r_max) -> RadiusProfile:
    _warn_if_not_reduced(c)
    env = c.envelope()
    prof = linear_combine(env, reflect(env), Fraction(1, 2), Fraction(1, 2))
    prof = linear_combine(prof, constant(evaluate(env, 0)), 1, -1)
    return RadiusProfile("T", None, r_max, prof)


# ---------------------------------------------------------------------------
# polynomial maps


@dataclass(frozen=True)
class TropicalPolynomialMap:
    """max-plus homogeneous polynomial: max over monomials of (a_I + I . x)."""

    monomials: tuple[tuple[tuple[int, ...], Fraction | None], ...]
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        mono = []
        arity = None
        finite = 0
        for exponents, coeff in self.monomials:
            exponents = tuple(int(e) for e in exponents)
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            if sum(exponents) != self.degree:
                raise ValueError(
                    f"monomial {exponents} does not have total degree {self.degree}"
                )
            if arity is None:
                arity = len(exponents)
            elif len(exponents) != arity:
                raise ArityMismatch(arity, len(exponents))
            coeff = None if coeff is None else frac(coeff)
            finite += coeff is not None
            mono.append((exponents, coeff))
        if not finite:
            raise AllNegInfinity("every monomial coefficient is -infinity")
        object.__setattr__(self, "monomials", tuple(mono))

    @property
    def arity(self) -> int:
        return len(self.monomials[0][0])

    def pure_power_coefficient(self, k: int) -> Fraction | None:
        target = tuple(
            self.degree if i == k else 0 for i in range(self.arity)
        )
        for exponents, coeff in self.monomials:
            if exponents == target:
                return coeff
        return None


def compose_tropical(p: TropicalPolynomialMap, c: TropicalCurve) -> PiecewiseFunction:
    """max over monomials of (a_I + sum_k i_k * f_k), exactly; kept on c per map."""
    if p.arity != c.arity:
        raise ArityMismatch(p.arity, c.arity)
    if p in c._composites:
        return c._composites[p]
    terms = []
    for exponents, coeff in p.monomials:
        if coeff is None:
            continue
        g = constant(coeff)
        for k, e in enumerate(exponents):
            if e:
                g = linear_combine(g, c.components[k], 1, e)
        terms.append(g)
    if not terms:
        raise AllNegInfinity("every monomial coefficient is -infinity")
    c._composites[p] = reduce(tropical_plus, terms)
    return c._composites[p]


@dataclass(frozen=True)
class FermatForm:
    """Ordinary weighted power sum: x -> sum_i weight_i * x_i^power."""

    weights: tuple[Fraction, ...]
    power: int

    def __post_init__(self):
        weights = tuple(frac(w) for w in self.weights)
        if any(w <= 0 for w in weights):
            raise ValueError(f"weights must be positive, got {weights}")
        if not isinstance(self.power, int) or self.power < 1:
            raise ValueError(f"power must be an integer >= 1, got {self.power!r}")
        object.__setattr__(self, "weights", weights)

    @property
    def arity(self) -> int:
        return len(self.weights)

    @property
    def theta(self) -> Fraction:
        return min(self.weights)

    @property
    def big_theta(self) -> Fraction:
        return Fraction(2) ** (self.power - 1) * sum(self.weights)


def compose_fermat(q: FermatForm, c: TropicalCurve) -> PiecewiseFunction:
    """sum_i weight_i * f_i(x)^power in ordinary arithmetic, exactly."""
    if q.arity != c.arity:
        raise ArityMismatch(q.arity, c.arity)
    acc = None
    for w, comp in zip(q.weights, c.components):
        piece = power(comp, q.power)
        acc = scale(piece, w) if acc is None else linear_combine(acc, piece, 1, w)
    return acc


# ---------------------------------------------------------------------------
# Casoratian


def casoratian(c: TropicalCurve, step=1) -> PiecewiseFunction:
    """max over permutations pi of sum_i f_i(x + pi(i)*step).

    The max-plus permanent of the shift matrix, built over subsets: best[S]
    is the max over injections of components 0..|S|-1 onto the shift set S.
    It is built once per step and kept on c.
    """
    step = frac(step)
    if step == 0:
        raise ValueError("step must be nonzero")
    m1 = c.arity
    if m1 > 9:
        raise TooManyComponents(
            f"{m1} components need 2^{m1} shift subsets; the limit is 9"
        )
    if step in c._casoratians:
        return c._casoratians[step]
    shifted = [[shift(comp, k * step) for k in range(m1)] for comp in c.components]
    best = {1 << k: g for k, g in enumerate(shifted[0])}
    for row in shifted[1:]:
        grown = {}
        for used, acc in best.items():
            for k, g in enumerate(row):
                if used & (1 << k):
                    continue
                total = linear_combine(acc, g, 1, 1)
                key = used | (1 << k)
                grown[key] = tropical_plus(grown[key], total) if key in grown else total
        best = grown
    c._casoratians[step] = best[(1 << m1) - 1]
    return c._casoratians[step]


# ---------------------------------------------------------------------------
# second-main-theorem bookkeeping


@dataclass(frozen=True)
class SmtRow:
    r: Fraction
    cartan_value: Fraction = field(metadata={"key": "cartan"})
    roots_sum: object  # sum_j N_j(r, -(P o f))
    poles_sum: object  # sum_j N_j(r, P o f)
    residual: object
    in_band: bool
    identity_gap: object  # root/pole difference minus the boundary form; 0


@dataclass(frozen=True)
class SmtReport:
    degree: int
    band: tuple[Fraction, Fraction]
    rows: tuple[SmtRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.in_band for row in self.rows)

    to_json = _report_json


def smt_homogeneous_check(
    p: TropicalPolynomialMap, c: TropicalCurve, r_grid
) -> SmtReport:
    """Exact band check: residual (N-difference)/d - T(r) against [lo, hi].

    The band endpoints come from the pointwise sandwich
    gamma <= (P o f) - d*F <= beta with beta the largest finite coefficient
    and gamma the smallest pure-power coefficient, shifted by the values at 0.
    """
    for k in range(p.arity):
        if p.pure_power_coefficient(k) is None:
            raise MissingPurePowers(k)
    _warn_if_not_reduced(c)
    g = compose_tropical(p, c)
    beta = max(coeff for _, coeff in p.monomials if coeff is not None)
    gamma = min(p.pure_power_coefficient(k) for k in range(p.arity))
    g0 = evaluate(g, 0)
    f0 = _envelope_at(c, 0)
    d = Fraction(p.degree)
    band = ((gamma - g0) / d + f0, (beta - g0) / d + f0)
    rows = []
    for r in r_grid:
        r = _positive_radius(r)
        t = _cartan_value(c, r)
        jensen = jensen_report(g, r)
        roots_sum, poles_sum = jensen.root_sum, jensen.pole_sum
        diff = exact_sum([roots_sum, -poles_sum])
        identity_gap = -jensen.residual  # diff - (boundary mean - g(0))
        combined = exact_sum([diff, -(d * t)])
        residual = combined * (1 / d)
        in_band = _between(residual, *band)
        rows.append(
            SmtRow(r, t, roots_sum, poles_sum, residual, in_band, identity_gap)
        )
    return SmtReport(p.degree, band, tuple(rows))


@dataclass(frozen=True)
class FermatRow:
    r: Fraction
    cartan_value: Fraction = field(metadata={"key": "cartan"})
    pole_sum: object  # sum_j N_j(r, -(Q o f))
    ratio: object | None  # pole_sum / T^n, None when T = 0
    growth_diagnostic: Fraction | None  # r / T(r)
    in_window: bool | None  # ratio within [theta - 10/r, Theta + 10/r]


@dataclass(frozen=True)
class FermatReport:
    theta: Fraction
    big_theta: Fraction
    power: int
    rows: tuple[FermatRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.in_window is not False for row in self.rows)

    to_json = _report_json


def fermat_bounds(q: FermatForm, c: TropicalCurve, r_grid) -> FermatReport:
    """Finite-r ratio table N(r, -(Q o f)) / T(r)^n against [theta, Theta].

    The window is widened by 10/r on both sides; rows with T(r) = 0 carry
    ratio None.  The r/T column diagnoses the super-linear growth hypothesis
    (values bounded away from 0 mean the hypothesis fails).
    """
    if q.arity != c.arity:
        raise ArityMismatch(q.arity, c.arity)
    for i, comp in enumerate(c.components):
        if comp.degree_bound > 1:
            raise NonLinearComponents(
                f"component {i} has a segment of degree {comp.degree_bound}"
            )
    _warn_if_not_reduced(c)
    g = compose_fermat(q, c)
    rows = []
    for r in r_grid:
        r = _positive_radius(r)
        t = _cartan_value(c, r)
        pole_sum = _disk_sums(g, r)[0]
        slack = Fraction(10) / r
        if t == 0:
            rows.append(FermatRow(r, t, pole_sum, None, None, None))
            continue
        denom = t**q.power
        ratio = pole_sum * (1 / denom)
        in_window = _between(ratio, q.theta - slack, q.big_theta + slack)
        rows.append(FermatRow(r, t, pole_sum, ratio, r / t, in_window))
    return FermatReport(q.theta, q.big_theta, q.power, tuple(rows))


# ---------------------------------------------------------------------------
# Casoratian balance


def _window_count(
    fn: PiecewiseFunction,
    j: int,
    r: Fraction,
    lo,
    hi,
    sign: str,
):
    """N_j over the closed window [lo, hi] cut to the closed disk [-r, r].

    A point at |z| = r adds (r - |z|)^j = 0, so the closed cut counts
    exactly the points of the open disk; an empty window counts 0.
    """
    lo, hi = max(frac(lo), -r), min(frac(hi), r)
    if lo > hi:
        return Fraction(0)
    return counting(fn, j, r, (lo, hi, True, True), sign)


@dataclass(frozen=True)
class CasoratianRow:
    r: Fraction
    lhs: object  # |sum_i N(r, -f_i) - N(r, -C0)|
    shift_pole_block: object  # sum_j |N_j(r, C0) - sum_i N_j(r, shifted f_i)|
    window_block: object  # even-order window corrections
    excess: object  # lhs - (blocks); the o(.) remainder of the inequality


@dataclass(frozen=True)
class CasoratianBalanceReport:
    step: Fraction
    rows: tuple[CasoratianRow, ...]
    component_tail_slope: Fraction | None  # sum_i (k_i+ - k_i-)/2 for 1-st curves
    casoratian_tail_slope: Fraction | None
    tail_slopes_equal: bool | None

    to_json = _report_json


def _tail_slopes(fn: PiecewiseFunction) -> tuple[Fraction, Fraction]:
    return (
        fn.segments[0].coefficient(1),
        fn.segments[-1].coefficient(1),
    )


def casoratian_balance(
    c: TropicalCurve, r_grid, step=1
) -> CasoratianBalanceReport:
    """Exact per-radius itemization of the Casoratian root-sum comparison.

    For each grid radius the row carries the left side
    |sum_i N(r, -f_i) - N(r, -C0)| and the two correction blocks: the pole
    mismatch between C0 and the index-shifted components, and the even-order
    window terms comparing [-2i*step, 0] for the shifted component with
    [-i*step, i*step] for the original (windows clipped to the disk).
    For piecewise-linear curves the report also compares, exactly, the tail
    slope of the summed component root-counting functions with the tail
    slope of the Casoratian's.
    """
    step = frac(step)
    c0 = casoratian(c, step)
    shifted = [shift(comp, i * step) for i, comp in enumerate(c.components)]
    n = max(1, c0.degree_bound, *(comp.degree_bound for comp in c.components))
    rows = []
    for r in r_grid:
        r = _positive_radius(r)
        comp_roots = exact_sum([_disk_sums(comp, r)[0] for comp in c.components])
        c0_roots = _disk_sums(c0, r)[0]
        lhs = abs(exact_sum([comp_roots, -c0_roots]))
        block1_terms = []
        for j in range(1, n + 1):
            c0_poles = counting(c0, j, r)
            shift_poles = exact_sum([counting(s, j, r) for s in shifted])
            block1_terms.append(abs(exact_sum([c0_poles, -shift_poles])))
        block1 = exact_sum(block1_terms)
        block2_terms = []
        for i in range(c.arity):
            for j2 in range(2, n + 1, 2):
                a = _window_count(
                    shifted[i], j2, r, -2 * i * step, 0, POLES_OF_NEG_F
                )
                b = _window_count(
                    c.components[i], j2, r, -i * step, i * step, POLES_OF_NEG_F
                )
                block2_terms.append(abs(exact_sum([a, -b])))
        block2 = exact_sum(block2_terms)
        excess = exact_sum([lhs, -block1, -block2])
        rows.append(CasoratianRow(r, lhs, block1, block2, excess))
    if all(comp.degree_bound <= 1 for comp in c.components):
        comp_slope = sum(
            ((k_hi - k_lo) / 2 for k_lo, k_hi in map(_tail_slopes, c.components)),
            Fraction(0),
        )
        k_lo, k_hi = _tail_slopes(c0)
        c0_slope = (k_hi - k_lo) / 2
        tails = (comp_slope, c0_slope, comp_slope == c0_slope)
    else:
        tails = (None, None, None)
    return CasoratianBalanceReport(step, tuple(rows), *tails)
