from fractions import Fraction as F

import pytest

from tropicalc import numeric, polyseg
from tropicalc.errors import DiscontinuityDetected
from tropicalc.numeric import (
    AlgebraicNumber,
    algebraic_root,
    compare,
    root_value,
    scalar_eq,
    value_sign,
)
from tropicalc.poly import Polynomial
from tropicalc.polyseg import (
    MINUS,
    PLUS,
    PiecewiseFunction,
    TropicalFactor,
    TropicalProductSpec,
    ZERO,
    _merged,
    constant,
    evaluate,
    evaluate_jet,
    from_tropical_product,
    governing_segment,
    linear_combine,
    normalize,
    piecewise,
    plus_part,
    pointwise_mul,
    power,
    reflect,
    scale,
    shift,
    tropical_plus,
)


ABS = piecewise([0], [[0, -1], [0, 1]])  # |x|


def test_piecewise_requires_matching_counts():
    with pytest.raises(ValueError, match="segment"):
        piecewise([0, 1], [[0], [1]])


def test_piecewise_requires_increasing_breakpoints():
    with pytest.raises(ValueError, match="increasing"):
        piecewise([1, 0], [[0], [0], [0]])


def test_piecewise_rejects_jump_discontinuity():
    with pytest.raises(DiscontinuityDetected) as exc:
        piecewise([0], [[0], [1]])
    assert exc.value.location == 0


def test_identical_adjacent_segments_are_fused():
    f = piecewise([0], [[1, 2], [1, 2]])
    assert f.breakpoints == ()
    assert len(f.segments) == 1


def test_evaluate_and_side_conventions():
    f = ABS
    assert evaluate(f, F(-3, 2)) == F(3, 2)
    assert evaluate(f, 0) == 0
    assert evaluate(f, F(5, 4)) == F(5, 4)
    # breakpoint itself belongs to the left segment
    assert governing_segment(f, 0, MINUS) == Polynomial.of(0, -1)
    assert governing_segment(f, 0, PLUS) == Polynomial.of(0, 1)


def test_evaluate_jet_reports_one_sided_derivatives():
    f = ABS
    assert evaluate_jet(f, 0, PLUS, 1) == [F(0), F(1)]
    assert evaluate_jet(f, 0, MINUS, 1) == [F(0), F(-1)]
    g = piecewise([], [[0, 0, 3]])  # 3x^2
    assert evaluate_jet(g, F(1, 2), PLUS, 2) == [F(3, 4), F(3), F(3)]


SQRT2 = algebraic_root(Polynomial.of(-2, 0, 1), 1, 2)
GOLDEN_RATIO = algebraic_root(Polynomial.of(-1, -1, 1), 1, 2)


def _kinked_at(alpha):
    """A cubic that picks up a multiple of alpha's defining polynomial at alpha."""
    left = Polynomial.of(1, -2, 0, 1)
    right = left + alpha.poly * Polynomial.of(3, F(-1, 2), 2)
    return piecewise([alpha], [left, right])


def _root_jet_by_derivatives(seg, x, max_order):
    """evaluate_jet's former derivative-and-k! loop at an algebraic point."""
    out, p, fact = [], seg, 1
    for j in range(max_order + 1):
        if j:
            fact *= j
            p = p.derivative()
        out.append(root_value(p.scale(F(1, fact)), x))
    return out


@pytest.mark.parametrize("alpha", [SQRT2, GOLDEN_RATIO], ids=["sqrt2", "golden"])
def test_evaluate_jet_at_algebraic_points_matches_derivative_reference(alpha):
    kinked = _kinked_at(alpha)
    smooth = piecewise([0, 3], [[2, 1], [2, 1, 0, 1], [11, -5, 1, 1]])  # alpha inside
    for f in (kinked, smooth):
        for side in (PLUS, MINUS):
            seg = governing_segment(f, alpha, side)
            for n in range(f.degree_bound + 3):
                assert evaluate_jet(f, alpha, side, n) == _root_jet_by_derivatives(
                    seg, alpha, n
                ), (f, side, n)
    plus, minus = evaluate_jet(kinked, alpha, PLUS), evaluate_jet(kinked, alpha, MINUS)
    jumps = [value_sign(p - m) for p, m in zip(plus, minus)]
    assert jumps[0] == 0 and any(jumps[1:])  # continuous, with a real kink


def test_display_format():
    f = piecewise([-1, 1], [[0, -1], [0, 0, 1], [0, 1]])
    assert str(f) == "[-x | x <= -1 ; x^2 | -1 < x <= 1 ; x | 1 < x]"
    assert str(constant(F(3, 2))) == "[3/2]"


def test_linear_combine_is_pointwise():
    f = ABS
    g = piecewise([], [[1, 2]])
    h = linear_combine(f, g, F(1, 2), -2)
    for k in range(-8, 9):
        x = F(k, 3)
        assert evaluate(h, x) == F(1, 2) * evaluate(f, x) - 2 * evaluate(g, x)


def test_scale_shift_reflect_power():
    f = piecewise([1], [[0, 1], [-1, 2]])
    assert evaluate(scale(f, -3), 2) == -9
    s = shift(f, F(3, 2))  # x -> f(x + 3/2)
    for k in range(-6, 7):
        x = F(k, 4)
        assert evaluate(s, x) == evaluate(f, x + F(3, 2))
    assert scalar_eq(s.breakpoints[0], F(-1, 2))
    rf = reflect(f)
    for k in range(-6, 7):
        x = F(k, 4)
        assert evaluate(rf, x) == evaluate(f, -x)
    sq = power(ABS, 2)
    for k in range(-6, 7):
        x = F(k, 4)
        assert evaluate(sq, x) == evaluate(ABS, x) ** 2


def test_shift_round_trip_normalizes_to_original():
    f = piecewise([-1, 2], [[1, -1], [2], [4, -1]])
    back = shift(shift(f, F(5, 3)), F(-5, 3))
    assert normalize(back) == normalize(f)


def test_pointwise_mul():
    f = ABS
    g = piecewise([], [[0, 1]])
    h = pointwise_mul(f, g)
    for k in range(-6, 7):
        x = F(k, 5)
        assert evaluate(h, x) == evaluate(f, x) * evaluate(g, x)


def test_tropical_plus_matches_pointwise_max():
    f = piecewise([], [[0, 0, 1]])  # x^2
    g = constant(2)
    h = tropical_plus(f, g)
    for k in range(-21, 22):
        x = F(k, 7)
        assert evaluate(h, x) == max(evaluate(f, x), evaluate(g, x)), x
    # switch points are the exact algebraic crossings +-sqrt(2)
    assert len(h.breakpoints) == 2
    assert all(isinstance(b, AlgebraicNumber) for b in h.breakpoints)
    assert h.breakpoints[0].poly == Polynomial.of(-2, 0, 1)
    assert value_sign(evaluate(h, h.breakpoints[0]) - 2) == 0


def test_tropical_plus_idempotent_commutative():
    f = piecewise([0], [[0, -2], [0, 1]])
    g = piecewise([1], [[1], [0, 1]])
    assert tropical_plus(f, f) == normalize(f)
    assert tropical_plus(f, g) == tropical_plus(g, f)


def test_plus_part_is_max_with_zero():
    f = piecewise([], [[1, 2]])
    p = plus_part(f)
    for k in range(-8, 9):
        x = F(k, 3)
        assert evaluate(p, x) == max(evaluate(f, x), F(0))
    assert plus_part(ZERO) == ZERO


def test_tropical_product_expansion():
    # coefficients are indexed by slope; None marks an absent term
    spec = TropicalProductSpec(
        (
            TropicalFactor(numerator=(F(0), F(1)), denominator=(None, F(-1))),
            TropicalFactor(numerator=(None, None, F(1, 2)),),
        )
    )
    f = from_tropical_product(spec)
    for k in range(-9, 10):
        x = F(k, 4)
        want = max(F(0), x + 1) - (x - 1) + (2 * x + F(1, 2))
        assert evaluate(f, x) == want


def test_constant_and_zero():
    assert ZERO.breakpoints == ()
    assert evaluate(ZERO, F(17, 3)) == 0
    assert evaluate(constant(F(-5, 7)), 100) == F(-5, 7)


# ---------------------------------------------------------------------------
# _merged: one merge pass decides which function each breakpoint came from


def reference_merged(f, g):
    """The merge followed by the scalar_eq pass that re-decided the sources."""
    bps = []
    i = j = 0
    fb, gb = f.breakpoints, g.breakpoints
    while i < len(fb) or j < len(gb):
        if i < len(fb) and j < len(gb):
            c = compare(fb[i], gb[j])
        else:
            c = -1 if i < len(fb) else 1
        if c <= 0:
            bps.append(fb[i])
            i += 1
            if c == 0:
                j += 1
        else:
            bps.append(gb[j])
            j += 1
    rows = [(None, f.segments[0], g.segments[0])]
    fi = gi = 0
    for bp in bps:
        if fi < len(fb) and scalar_eq(fb[fi], bp):
            fi += 1
        if gi < len(gb) and scalar_eq(gb[gi], bp):
            gi += 1
        rows.append((bp, f.segments[fi], g.segments[gi]))
    return rows


def _sqrt(n, sign=1):
    root = algebraic_root(Polynomial.of(-n, 0, 1), 1, n)
    return root if sign > 0 else -root


def _labelled(breakpoints, offset):
    """A stand-in function whose k-th segment is the constant offset + k."""
    segs = tuple(Polynomial.of(offset + k) for k in range(len(breakpoints) + 1))
    return PiecewiseFunction(tuple(breakpoints), segs)


MERGE_CASES = {
    "rational": ([F(-1), F(1, 2), F(3)], [F(-2), F(0), F(5)]),
    "algebraic": ([_sqrt(2, -1), _sqrt(2)], [_sqrt(3, -1), F(1), _sqrt(3)]),
    "shared": ([F(-1), _sqrt(2), F(2)], [F(-1), F(0), _sqrt(2), F(2)]),
    "disjoint": ([F(-3), F(-2)], [F(1), _sqrt(2)]),
    "one-empty": ([], [_sqrt(3, -1), F(0)]),
}


@pytest.mark.parametrize("case", MERGE_CASES)
def test_merged_rows_match_the_reference(case):
    fb, gb = MERGE_CASES[case]
    f, g = _labelled(fb, 0), _labelled(gb, 100)
    for a, b in ((f, g), (g, f)):
        got, want = _merged(a, b), reference_merged(a, b)
        assert len(got) == len(want)
        for row_got, row_want in zip(got, want):
            assert all(x is y for x, y in zip(row_got, row_want))


@pytest.mark.parametrize("case", MERGE_CASES)
def test_merged_compares_once_per_merge_step(case, monkeypatch):
    fb, gb = MERGE_CASES[case]
    f, g = _labelled(fb, 0), _labelled(gb, 100)
    rows = _merged(f, g)
    # a merge step compares the heads of two nonempty lists: one per merged
    # breakpoint up to the smaller of the two last breakpoints
    last = min(fb[-1], gb[-1]) if fb and gb else None
    steps = sum(1 for bp, _, _ in rows[1:] if last is not None and bp <= last)
    calls = []
    original = numeric.compare

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(numeric, "compare", counted)
    monkeypatch.setattr(polyseg, "compare", counted)
    _merged(f, g)
    assert len(calls) == steps


def test_printing_leaves_serialization_unchanged():
    import json

    from tropicalc.manifest import function_to_json

    f = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))  # max(x^2, 2)
    before = json.dumps(function_to_json(f))
    assert "~1.414214" in str(f)
    assert json.dumps(function_to_json(f)) == before
