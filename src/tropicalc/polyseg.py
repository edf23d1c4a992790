"""Continuous piecewise-polynomial functions on the real line.

A function is a finite ascending list of breakpoints plus one polynomial per
resulting open interval (tails included), with exact continuity across every
breakpoint.  These are the max-plus ("tropical") meromorphic objects of the
package: max acts as addition, + as multiplication, and the calculus below
(pointwise combinations, exact upper envelopes, shifts, powers) stays inside
the class.

Breakpoints may be rational or algebraic; all geometry (envelope switch
points, continuity, ordering) is decided exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence, Union

from .errors import AllNegInfinity, DiscontinuityDetected
from .numeric import (
    AlgebraicNumber,
    RootValue,
    Scalar,
    _approximation,
    compare,
    poly_sign_at,
    real_roots_in,
    refine,
    root_value,
    separators,
    sign_of,
)
from .poly import Polynomial, frac

PLUS = "+"
MINUS = "-"

CoeffsLike = Union[Polynomial, Iterable]


def _as_poly(p: CoeffsLike) -> Polynomial:
    return p if isinstance(p, Polynomial) else Polynomial.from_coeffs(p)


def _as_scalar(x) -> Scalar:
    return x if isinstance(x, AlgebraicNumber) else frac(x)


@dataclass(frozen=True)
class PiecewiseFunction:
    """len(segments) == len(breakpoints) + 1; segment k governs the k-th interval."""

    breakpoints: tuple[Scalar, ...]
    segments: tuple[Polynomial, ...]

    def __call__(self, x) -> Fraction | RootValue:
        return evaluate(self, x)

    @property
    def degree_bound(self) -> int:
        return max((s.degree for s in self.segments), default=0)

    def __str__(self) -> str:
        if not self.breakpoints:
            return f"[{self.segments[0]}]"
        # Each label is printed twice; an algebraic one is refined on a copy.
        labels = [_approximation(bp) for bp in self.breakpoints]
        parts = [f"{self.segments[0]} | x <= {labels[0]}"]
        for k, label in enumerate(labels):
            upper = f" <= {labels[k + 1]}" if k + 1 < len(labels) else ""
            parts.append(f"{self.segments[k + 1]} | {label} < x{upper}")
        return "[" + " ; ".join(parts) + "]"


# ---------------------------------------------------------------------------
# construction


def piecewise(
    breakpoints: Sequence, segments: Sequence[CoeffsLike], *, name: str | None = None
) -> PiecewiseFunction:
    """Validating constructor: ascending breakpoints, exact continuity, fusion."""
    bps = [_as_scalar(b) for b in breakpoints]
    segs = [_as_poly(s) for s in segments]
    if len(segs) != len(bps) + 1:
        raise ValueError(
            f"need exactly one segment per interval: "
            f"{len(bps)} breakpoints require {len(bps) + 1} segments, got {len(segs)}"
        )
    for a, b in zip(bps, bps[1:]):
        if compare(a, b) != -1:
            raise ValueError("breakpoints must be strictly increasing")
    for k, bp in enumerate(bps):
        diff = segs[k] - segs[k + 1]
        if poly_sign_at(diff, bp) != 0:
            lo, hi = refine(bp, Fraction(1, 1024))
            probe = (lo + hi) / 2  # a rational stand-in for the message
            raise DiscontinuityDetected(
                bp, left=segs[k](probe), right=segs[k + 1](probe), name=name
            )
    return _fuse(bps, segs)


def _fuse(bps: Sequence[Scalar], segs: Sequence[Polynomial]) -> PiecewiseFunction:
    out_bps: list[Scalar] = []
    out_segs: list[Polynomial] = [segs[0]]
    for bp, seg in zip(bps, segs[1:]):
        if seg == out_segs[-1]:
            continue  # cosmetic breakpoint; polynomials agree on both sides
        out_bps.append(bp)
        out_segs.append(seg)
    return PiecewiseFunction(tuple(out_bps), tuple(out_segs))


def normalize(f: PiecewiseFunction) -> PiecewiseFunction:
    """Re-validate and fuse; the canonical form of any well-formed function."""
    return piecewise(f.breakpoints, f.segments)


def constant(c) -> PiecewiseFunction:
    return PiecewiseFunction((), (Polynomial.constant(frac(c)),))


ZERO = constant(0)


# ---------------------------------------------------------------------------
# evaluation


def _index_left_of(f: PiecewiseFunction, x: Scalar) -> tuple[int, bool]:
    """(number of breakpoints < x, whether x equals the next breakpoint)."""
    lt = bisect_left(f.breakpoints, x)
    return lt, lt < len(f.breakpoints) and compare(f.breakpoints[lt], x) == 0


def governing_segment(f: PiecewiseFunction, x, side: str = PLUS) -> Polynomial:
    x = _as_scalar(x)
    lt, on_bp = _index_left_of(f, x)
    if side == PLUS:
        return f.segments[lt + 1] if on_bp else f.segments[lt]
    if side == MINUS:
        return f.segments[lt]
    raise ValueError(f"side must be {PLUS!r} or {MINUS!r}, got {side!r}")


def evaluate(f: PiecewiseFunction, x) -> Fraction | RootValue:
    x = _as_scalar(x)
    seg = governing_segment(f, x, PLUS)  # sides agree: f is continuous
    if isinstance(x, Fraction):
        return seg(x)
    return root_value(seg, x)


def evaluate_jet(
    f: PiecewiseFunction, x, side: str, max_order: int | None = None
) -> list:
    """[f(x), f'(x^side)/1!, f''(x^side)/2!, ...] up to max_order inclusive."""
    x = _as_scalar(x)
    if max_order is None:
        max_order = max(1, f.degree_bound)
    seg = governing_segment(f, x, side)
    if isinstance(x, Fraction):
        return seg.jet(x, max_order)
    return [root_value(q, x) for q in seg.taylor(max_order)]


# ---------------------------------------------------------------------------
# pointwise (ordinary) arithmetic


def _merged(f: PiecewiseFunction, g: PiecewiseFunction):
    """Yield (left_bound_or_None, f_segment, g_segment) over merged intervals.

    The k-th yielded interval runs from its bound (None = -inf for the first)
    to the next yielded bound (+inf for the last).
    """
    rows = [(None, f.segments[0], g.segments[0])]
    i = j = 0
    fb, gb = f.breakpoints, g.breakpoints
    while i < len(fb) or j < len(gb):
        if i < len(fb) and j < len(gb):
            c = compare(fb[i], gb[j])
        else:
            c = -1 if i < len(fb) else 1
        if c <= 0:
            bp = fb[i]
            i += 1
            if c == 0:
                j += 1
        else:
            bp = gb[j]
            j += 1
        rows.append((bp, f.segments[i], g.segments[j]))
    return rows


def linear_combine(
    f: PiecewiseFunction, g: PiecewiseFunction, a=1, b=1
) -> PiecewiseFunction:
    """a*f + b*g pointwise (ordinary scaling and addition)."""
    a, b = frac(a), frac(b)
    rows = _merged(f, g)
    bps = [row[0] for row in rows[1:]]
    segs = [pf.scale(a) + pg.scale(b) for _, pf, pg in rows]
    return _fuse(bps, segs)


def pointwise_mul(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """f*g pointwise (ordinary product; stays piecewise polynomial)."""
    rows = _merged(f, g)
    bps = [row[0] for row in rows[1:]]
    segs = [pf * pg for _, pf, pg in rows]
    return _fuse(bps, segs)


def power(f: PiecewiseFunction, k: int) -> PiecewiseFunction:
    """Pointwise ordinary k-th power, k >= 1."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"power wants an integer k >= 1, got {k!r}")
    return _fuse(list(f.breakpoints), [s**k for s in f.segments])


def scale(f: PiecewiseFunction, c) -> PiecewiseFunction:
    return _fuse(list(f.breakpoints), [s.scale(frac(c)) for s in f.segments])


def shift(f: PiecewiseFunction, c) -> PiecewiseFunction:
    """The function x -> f(x + c) for rational c."""
    c = frac(c)
    if c == 0:
        return f
    bps = []
    for bp in f.breakpoints:
        if isinstance(bp, Fraction):
            bps.append(bp - c)
        else:
            lo, hi = bp.interval
            bps.append(
                AlgebraicNumber(bp.poly.taylor_shift(c).primitive(), lo - c, hi - c)
            )
    return _fuse(bps, [s.taylor_shift(c) for s in f.segments])


def reflect(f: PiecewiseFunction) -> PiecewiseFunction:
    """The function x -> f(-x)."""
    bps = [(-bp) for bp in reversed(f.breakpoints)]
    segs = [s.reflect() for s in reversed(f.segments)]
    return _fuse(bps, segs)


# ---------------------------------------------------------------------------
# the exact upper envelope (tropical sum)


def _rational_below(s) -> Fraction:
    lo, _ = refine(s, Fraction(1))
    return lo


def _rational_above(s) -> Fraction:
    _, hi = refine(s, Fraction(1))
    return hi


def _sample_in(lo, hi) -> Fraction:
    """A rational strictly inside (lo, hi); None bounds mean +-infinity."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return _rational_below(hi) - 1
    if hi is None:
        return _rational_above(lo) + 1
    seps = separators([lo, hi])
    return seps[0]


def sign_runs(p: Polynomial, left, right) -> list[tuple]:
    """[(left end, sign of p)] on the runs p's real roots cut (left, right) into.

    p must be nonzero; a None end means -infinity (left) or +infinity (right).
    Degrees 0 and 1 are solved in closed form: a constant is one run, and a
    line c0 + c1 x changes sign only at its rational root -c0/c1.
    """
    if p.degree == 0:
        return [(left, sign_of(p.coefficient(0)))]
    if p.degree == 1:
        s = sign_of(p.coefficient(1))
        root = -p.coefficient(0) / p.coefficient(1)
        if left is not None and compare(root, left) <= 0:
            return [(left, s)]
        if right is not None and compare(root, right) >= 0:
            return [(left, -s)]
        return [(left, -s), (root, s)]
    roots = [
        r
        for r in real_roots_in(
            p,
            _rational_below(left) - 1 if left is not None else None,
            _rational_above(right) + 1 if right is not None else None,
        )
        if (left is None or compare(left, r) == -1)
        and (right is None or compare(r, right) == -1)
    ]
    ends = [left, *roots, right]
    return [(lo, sign_of(p(_sample_in(lo, hi)))) for lo, hi in zip(ends, ends[1:])]


def tropical_plus(f: PiecewiseFunction, g: PiecewiseFunction) -> PiecewiseFunction:
    """max(f, g) pointwise, with exact (possibly algebraic) switch points."""
    out_bps: list[Scalar] = []
    out_segs: list[Polynomial] = []

    def push(left_bound, seg: Polynomial) -> None:
        if out_segs:
            out_bps.append(left_bound)
        out_segs.append(seg)

    rows = _merged(f, g)
    for k, (left, pf, pg) in enumerate(rows):
        right = rows[k + 1][0] if k + 1 < len(rows) else None
        d = pf - pg
        if d.is_zero:
            push(left, pf)
            continue
        previous_winner = None
        for lo, s in sign_runs(d, left, right):
            winner = pf if s > 0 else pg
            if winner is not previous_winner:
                push(lo, winner)
            previous_winner = winner
    return _fuse(out_bps, out_segs)


def plus_part(f: PiecewiseFunction) -> PiecewiseFunction:
    """max(f, 0)."""
    return tropical_plus(f, ZERO)


# ---------------------------------------------------------------------------
# tropical rational expressions


@dataclass(frozen=True)
class TropicalFactor:
    """One factor: max-plus polynomial coefficients, numerator over denominator.

    ``numerator[i]`` is the coefficient of the slope-i line (None = -infinity,
    i.e. the term is absent).  An empty denominator means dividing by the
    tropical unit (the zero function).
    """

    numerator: tuple[Fraction | None, ...]
    denominator: tuple[Fraction | None, ...] = ()


@dataclass(frozen=True)
class TropicalProductSpec:
    """A finite tropical product (ordinary sum) of tropical rational factors."""

    factors: tuple[TropicalFactor, ...]


def _envelope(coeffs: Sequence[Fraction | None]) -> PiecewiseFunction:
    lines = [
        PiecewiseFunction((), (Polynomial.from_coeffs((frac(c), i)),))
        for i, c in enumerate(coeffs)
        if c is not None
    ]
    if not lines:
        raise AllNegInfinity("every coefficient of a tropical polynomial is -infinity")
    return reduce(tropical_plus, lines)


def from_tropical_product(spec: TropicalProductSpec) -> PiecewiseFunction:
    """Materialize a product of tropical rational factors as a function."""
    total = ZERO
    for factor in spec.factors:
        num = _envelope(factor.numerator)
        total = linear_combine(total, num, 1, 1)
        if factor.denominator:
            den = _envelope(factor.denominator)
            total = linear_combine(total, den, 1, -1)
    return total
