from fractions import Fraction as F

import pytest

from tropicalc.errors import DiscontinuityDetected
from tropicalc.numeric import (
    AlgebraicNumber,
    algebraic_root,
    root_value,
    scalar_eq,
    value_sign,
)
from tropicalc.poly import Polynomial
from tropicalc.polyseg import (
    MINUS,
    PLUS,
    TropicalFactor,
    TropicalProductSpec,
    ZERO,
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
