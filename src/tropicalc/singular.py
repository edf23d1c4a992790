"""Jump analysis of piecewise-polynomial functions.

At a point x, the order-j jump weight is

    omega_j(x) = [sgn(x+)^(j+1) * f^(j)(x+) - sgn(x-)^(j+1) * f^(j)(x-)] / j!

with the convention sgn(0+) = +1, sgn(0-) = -1, so away from the origin
omega_j = sgn(x)^(j+1) * tau_j where tau_j is the plain one-sided jet jump,
while at the origin even orders probe the *sum* of the one-sided derivatives.
A positive omega_j marks an order-j root, a negative one an order-j pole,
and |omega_j| is its multiplicity.  The origin is always probed: a function
can be smooth there and still carry an even-order root or pole (e.g. the
global parabola -x^2 hides an order-2 pole of multiplicity 2 at 0).

A function's singularity table -- its jump profiles at every breakpoint and
at the origin -- is computed once, on first use, and kept on the (immutable)
function.  Each profile keeps its nonzero jump weights as signed entries
(order, sign, omega_j), the sign decided once when the profile is built.
`classify`, the counting functionals and their profiles, the Jensen and
Poisson-Jensen reports and the curve checks read these entries directly;
the table is sorted by location, so a window of it is the slice between two
bisections (`_profiles_in`, the one window rule).  `scan` only turns the
entries into display rows, for the CLI and for tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .errors import EmptyWindow
from .numeric import (
    AlgebraicNumber,
    ExactValue,
    RootValue,
    Scalar,
    _approximation,
    compare,
    root_value,
    scalar_eq,
    sort_scalars,
    value_sign,
)
from .poly import Polynomial, frac
from .polyseg import (
    MINUS,
    PLUS,
    PiecewiseFunction,
    _as_scalar,
    governing_segment,
    linear_combine,
    piecewise,
)

ROOT = "root"
POLE = "pole"


@dataclass(frozen=True, slots=True)
class JumpProfile:
    """Order-indexed jump data at one point; entry k is order j = k+1.

    `entries` holds (order, sign, omega) for every nonzero omega_j, ascending
    in order: sign +1 marks an order-j root and -1 an order-j pole.
    """

    location: Scalar
    omega: tuple
    tau: tuple
    entries: tuple

    def omega_of(self, j: int):
        return self.omega[j - 1] if j <= len(self.omega) else Fraction(0)

    def tau_of(self, j: int):
        return self.tau[j - 1] if j <= len(self.tau) else Fraction(0)


def omega_at(
    f: PiecewiseFunction, x, max_order: int | None = None
) -> JumpProfile:
    """Jump profile of f at x for orders 1..max_order (default: degree bound)."""
    x = _as_scalar(x)
    n = max_order if max_order is not None else max(1, f.degree_bound)
    plus = governing_segment(f, x, PLUS)
    minus = governing_segment(f, x, MINUS)
    s = value_sign(x)
    if s == 0:  # sgn(0+)^(j+1) = 1, sgn(0-)^(j+1) = (-1)^(j+1)
        a, b = plus.coefficient, minus.coefficient
        tau = [a(j) - b(j) for j in range(1, n + 1)]
        omega = [a(j) + (-1) ** j * b(j) for j in range(1, n + 1)]
    else:  # omega_j = sgn(x)^(j+1) tau_j, sharing tau's value where equal
        jump = (plus - minus).taylor(n)[1:]
        if isinstance(x, Fraction):
            tau = [q(x) for q in jump]
        else:
            tau = [root_value(q, x) for q in jump]
            tau = [t.as_fraction() if t.is_rational else t for t in tau]
        omega = [t if s ** (j + 1) > 0 else -t for j, t in enumerate(tau, start=1)]
    entries = tuple(
        (j, sign, w) for j, w in enumerate(omega, start=1) if (sign := value_sign(w))
    )
    return JumpProfile(x, tuple(omega), tuple(tau), entries)


# ---------------------------------------------------------------------------
# singularity tables


@dataclass(frozen=True)
class Singularity:
    location: Scalar
    order: int
    kind: str
    multiplicity: object  # positive Fraction or RootValue

    def as_row(self) -> tuple[str, int, str, str]:
        return (
            _format_value(self.location),
            self.order,
            self.kind,
            _format_value(self.multiplicity),
        )


def _format_value(v) -> str:
    """A rational as p/q; any other exact quantity as ~ and 12 decimals."""
    return _approximation(v, 12)


def _report_json(report) -> dict:
    """A report dataclass as JSON, field by field, plus `passed` if it has one.

    A field is emitted under its name, or under `metadata["key"]` when given.
    Exact quantities (rationals, algebraic locations, values at algebraic
    points) render through `_format_value`, so an algebraic location is
    printed without narrowing its interval; nested rows render recursively.
    """
    out = {
        f.metadata.get("key", f.name): _json_value(getattr(report, f.name))
        for f in fields(report)
    }
    passed = getattr(report, "passed", None)
    if passed is not None:
        out["passed"] = passed() if callable(passed) else passed
    return out


def _json_value(v):
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, (Fraction, AlgebraicNumber, RootValue, ExactValue)):
        return _format_value(v)
    return _report_json(v)


@dataclass(frozen=True)
class SingularityTable:
    rows: tuple[Singularity, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def select(self, order: int | None = None, kind: str | None = None):
        return [
            s
            for s in self.rows
            if (order is None or s.order == order) and (kind is None or s.kind == kind)
        ]

    def poles(self, order: int | None = None):
        return self.select(order, POLE)

    def roots(self, order: int | None = None):
        return self.select(order, ROOT)

    def max_order(self) -> int:
        return max((s.order for s in self.rows), default=0)

    def to_csv(self) -> str:
        lines = ["location,order,kind,multiplicity"]
        for s in self.rows:
            loc, order, kind, mult = s.as_row()
            lines.append(f"{loc},{order},{kind},{mult}")
        return "\n".join(lines) + "\n"

    def to_json_grid(self) -> dict:
        """Grid shaped like a singularity summary table: rows = (order, kind)."""
        locations: list[Scalar] = []
        for s in self.rows:
            if not any(scalar_eq(s.location, seen) for seen in locations):
                locations.append(s.location)
        locations = sort_scalars(locations)
        row_keys = sorted({(s.order, s.kind) for s in self.rows})
        grid_rows = []
        for order, kind in row_keys:
            cells: list[str | None] = [None] * len(locations)
            for s in self.select(order, kind):
                for idx, loc in enumerate(locations):
                    if scalar_eq(loc, s.location):
                        cells[idx] = _format_value(s.multiplicity)
                        break
            grid_rows.append({"order": order, "kind": kind, "cells": cells})
        return {
            "locations": [_format_value(x) for x in locations],
            "rows": grid_rows,
        }


def _candidate_points(f: PiecewiseFunction) -> list[Scalar]:
    candidates: list[Scalar] = list(f.breakpoints)
    if not any(value_sign(bp) == 0 for bp in candidates):
        candidates.append(Fraction(0))  # the origin is always singularity-eligible
    return sort_scalars(candidates)


_LOCATION = attrgetter("location")


def _profiles(f: PiecewiseFunction) -> tuple[JumpProfile, ...]:
    """Jump profiles at f's candidate points, computed once and kept on f."""
    profiles = getattr(f, "_jump_profiles", None)
    if profiles is None:
        profiles = tuple(omega_at(f, x) for x in _candidate_points(f))
        object.__setattr__(f, "_jump_profiles", profiles)
    return profiles


def _profiles_in(
    f: PiecewiseFunction, lo, hi, closed_left: bool = False, closed_right: bool = False
) -> tuple[JumpProfile, ...]:
    """f's jump profiles inside the window (lo, hi), open unless a side is closed.

    The table is sorted by location, so the window is the slice between two
    bisections: a closed end keeps a profile on it, an open end drops it.
    A window [a, a] closed on both sides holds the single point a; a window
    that holds no point raises EmptyWindow.
    """
    lo, hi = _as_scalar(lo), _as_scalar(hi)
    c = compare(lo, hi)
    if c > 0 or (c == 0 and not (closed_left and closed_right)):
        raise EmptyWindow(f"window ({lo}, {hi}) is empty")
    profiles = _profiles(f)
    first = bisect_left if closed_left else bisect_right
    last = bisect_right if closed_right else bisect_left
    start = first(profiles, lo, key=_LOCATION)
    return profiles[start : last(profiles, hi, key=_LOCATION)]


def scan(
    f: PiecewiseFunction,
    window: tuple | None = None,
    *,
    closed_left: bool = False,
    closed_right: bool = False,
) -> SingularityTable:
    """All singularities of f as display rows (inside the window, open by default).

    A window [a, a] closed on both sides selects the single point a.
    """
    profiles = _profiles(f)
    if window is not None:
        profiles = _profiles_in(f, window[0], window[1], closed_left, closed_right)
    rows = []
    for p in profiles:
        for order, sign, w in p.entries:
            kind, multiplicity = (ROOT, w) if sign > 0 else (POLE, -w)
            rows.append(Singularity(p.location, order, kind, multiplicity))
    return SingularityTable(tuple(rows))


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    entire: bool
    nowhere_vanishing_entire: bool
    well_defined: bool


def _segment_well_defined(p: Polynomial) -> bool:
    if p.degree <= 1:
        return True  # any affine piece passes
    nonzero = [(k, c) for k, c in enumerate(p.coeffs) if k >= 1 and c != 0]
    parities = {k % 2 for k, _ in nonzero}
    signs = {1 if c > 0 else -1 for _, c in nonzero}
    return len(parities) <= 1 and len(signs) <= 1


def classify(f: PiecewiseFunction) -> Classification:
    signs = {sign for p in _profiles(f) for _, sign, _ in p.entries}
    entire = -1 not in signs
    nowhere = not signs
    well = all(_segment_well_defined(p) for p in f.segments)
    return Classification(entire, nowhere, well)


# ---------------------------------------------------------------------------
# jump matrices


@dataclass(frozen=True)
class JumpMatrix:
    """Rows/columns indexed by orders 1..n; entries[j-1][k-1] = (j,k) entry."""

    n: int
    variant: str
    entries: tuple[tuple[Fraction, ...], ...]

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.n:
            raise ValueError(f"vector of length {len(vec)} against order {self.n}")
        return [
            sum((row[k] * frac(vec[k]) for k in range(self.n)), Fraction(0))
            for row in self.entries
        ]

    def solve(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Solve M y = vec by back substitution (M is upper triangular, ±1 diagonal)."""
        if len(vec) != self.n:
            raise ValueError(f"vector of length {len(vec)} against order {self.n}")
        y = [Fraction(0)] * self.n
        for j in range(self.n - 1, -1, -1):
            acc = frac(vec[j])
            for k in range(j + 1, self.n):
                acc -= self.entries[j][k] * y[k]
            y[j] = acc / self.entries[j][j]
        return y


def jump_matrix(x0, n: int, variant: str = "C") -> JumpMatrix:
    """C_n(x0), or its sign-modified variants D_n(x0^+)/D_n(x0^-).

    C maps origin-basis coefficients (a_1..a_n) to scaled one-sided jets
    (p^(j)(x0)/j!)_j; the D variants scale row j by sgn(x0^+-)^(j+1).
    """
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    if variant not in ("C", "D_plus", "D_minus"):
        raise ValueError(f"unknown variant {variant!r}")
    x0 = frac(x0)
    rows = []
    s = (x0 > 0) - (x0 < 0)
    for j in range(1, n + 1):
        if variant == "C":
            row_sign = 1
        else:
            side = s if s != 0 else (1 if variant == "D_plus" else -1)
            row_sign = side ** (j + 1)
        rows.append(
            tuple(
                Fraction(row_sign * math.comb(k, j)) * x0 ** (k - j) if k >= j else Fraction(0)
                for k in range(1, n + 1)
            )
        )
    return JumpMatrix(n, variant, tuple(rows))


# ---------------------------------------------------------------------------
# the constructive pole-killing decomposition


def entire_decomposition(
    f: PiecewiseFunction, seed: Sequence | None = None
) -> tuple[PiecewiseFunction, PiecewiseFunction]:
    """Split f = h (-) g with h, g entire and g's roots exactly at f's poles.

    g is built outward from the origin: its first positive segment is the seed
    polynomial (default zero), each pole of f is crossed by adding the unique
    coefficient jump that plants the compensating root, and the negative side
    starts from the origin mirror rule b(-1,j) = (-1)^(j+1) (b(1,j) - w_j(0)).
    Returns (h, g) with h = f + g pointwise, so f = h - g exactly.

    Only rational breakpoints are supported (each crossing is a rational
    polynomial in t - x); raises ValueError otherwise.
    """
    if any(isinstance(bp, AlgebraicNumber) for bp in f.breakpoints):
        raise ValueError("decomposition requires rational breakpoints")
    n = max(1, f.degree_bound)
    if seed is None:
        seed_coeffs = [Fraction(0)] * (n + 1)
    else:
        seed_coeffs = [frac(c) for c in seed]
        if len(seed_coeffs) < n + 1:
            seed_coeffs += [Fraction(0)] * (n + 1 - len(seed_coeffs))
        elif len(seed_coeffs) > n + 1:
            raise ValueError(
                f"seed has {len(seed_coeffs)} coefficients, function order is {n}"
            )

    omega = {p.location: p.omega for p in _profiles(f)}  # sorted, includes 0

    def compensation(x) -> list[Fraction]:
        return [(-wj if wj < 0 else Fraction(0)) for wj in omega[x]]

    def crossing(x, coeffs: list[Fraction]) -> Polynomial:
        """sum_j coeffs[j-1] (t - x)^j: the jump at x, zero at x itself."""
        return Polynomial.from_coeffs([0, *coeffs]).taylor_shift(-x)

    positive = [x for x in omega if x > 0]
    negative = [x for x in omega if x < 0]

    # positive side, origin outward: add the compensating jet at each pole
    pos_segs = [Polynomial.from_coeffs(seed_coeffs)]
    pos_bps: list[Fraction] = []
    for x in positive:
        comp = compensation(x)
        if any(comp):
            pos_bps.append(x)
            pos_segs.append(pos_segs[-1] + crossing(x, comp))

    # cross the origin
    comp0 = compensation(Fraction(0))
    left_high = [
        Fraction(-1) ** (j + 1) * (seed_coeffs[j] - comp0[j - 1])
        for j in range(1, n + 1)
    ]

    # negative side, origin outward (rightmost negative pole first): left of a
    # pole x < 0, omega_j = (-1)^(j+1) tau_j, so the jet is sign-flipped
    neg_segs = [Polynomial.from_coeffs([seed_coeffs[0], *left_high])]
    neg_bps: list[Fraction] = []
    for x in reversed(negative):
        comp = compensation(x)
        if any(comp):
            flipped = [c if j % 2 else -c for j, c in enumerate(comp, start=1)]
            neg_bps.insert(0, x)
            neg_segs.insert(0, neg_segs[0] - crossing(x, flipped))

    g = piecewise([*neg_bps, Fraction(0), *pos_bps], [*neg_segs, *pos_segs])
    h = linear_combine(f, g, 1, 1)
    return h, g
