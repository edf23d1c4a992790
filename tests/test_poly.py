import math
from fractions import Fraction as F

import pytest

from tropicalc.poly import Polynomial, frac, poly_gcd, squarefree_part
from tropicalc.randgen import random_rational, rng


def test_frac_accepts_int_str_fraction():
    assert frac(3) == F(3)
    assert frac("3/4") == F(3, 4)
    assert frac("-0.25") == F(-1, 4)
    assert frac(F(7, 2)) == F(7, 2)


def test_frac_rejects_zero_denominator():
    for text in ("1/0", "0/0", " -3/0 "):
        with pytest.raises(ValueError, match="zero denominator"):
            frac(text)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_zero_polynomial_has_empty_coeffs():
    z = Polynomial.zero()
    assert z.coeffs == ()
    assert z.is_zero
    assert z.degree == -1
    assert Polynomial.of(0, 0, 0) == z


def test_trailing_zeros_are_trimmed():
    p = Polynomial.of(1, 2, 0, 0)
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1


def test_evaluation_uses_exact_arithmetic():
    p = Polynomial.of("1/3", 0, 1)  # x^2 + 1/3
    assert p(F(1, 2)) == F(7, 12)


def test_ring_operations():
    p = Polynomial.of(1, 1)  # x + 1
    q = Polynomial.of(-1, 1)  # x - 1
    assert p * q == Polynomial.of(-1, 0, 1)
    assert p + q == Polynomial.of(0, 2)
    assert p - q == Polynomial.of(2)
    assert (-p).coeffs == (F(-1), F(-1))
    assert p**3 == Polynomial.of(1, 3, 3, 1)
    assert p.scale(F(1, 2)) == Polynomial.of("1/2", "1/2")


def test_derivative_and_jet():
    p = Polynomial.of(5, -1, 0, 2)  # 2x^3 - x + 5
    assert p.derivative() == Polynomial.of(-1, 0, 6)
    assert p.derivative(2) == Polynomial.of(0, 12)
    assert p.derivative(5) == Polynomial.zero()
    # jet entries are Taylor coefficients f^(k)(x)/k!
    assert p.jet(F(1), 3) == [F(6), F(5), F(6), F(2)]
    assert p.jet(F(1), 5) == [F(6), F(5), F(6), F(2), F(0), F(0)]


def _jet_by_derivatives(p, x, max_order):
    """The derivative-and-k! loop that Polynomial.jet replaced, kept as reference."""
    out, q, fact = [], p, 1
    for j in range(max_order + 1):
        if j:
            fact *= j
            q = q.derivative()
        out.append(q(x) / fact)
    return out


def _shift_by_horner(p, c):
    """The Horner fold over (x + c) that Polynomial.taylor_shift replaced."""
    acc = Polynomial.zero()
    linear = Polynomial.of(c, 1)
    for a in reversed(p.coeffs):
        acc = acc * linear + Polynomial.constant(a)
    return acc


def _random_polynomials(seed, count=60, max_degree=6):
    rnd = rng(seed)
    for _ in range(count):
        degree = rnd.randint(-1, max_degree)
        yield rnd, Polynomial.from_coeffs(
            random_rational(rnd, -9, 9, 5) for _ in range(degree + 1)
        )


def test_taylor_gives_scaled_derivatives_and_zeros_past_degree():
    p = Polynomial.of(5, -1, 0, 2)
    assert p.taylor(5) == [
        p,
        Polynomial.of(-1, 0, 6),
        Polynomial.of(0, 6),
        Polynomial.of(2),
        Polynomial.zero(),
        Polynomial.zero(),
    ]
    for _, q in _random_polynomials(3):
        for k, qk in enumerate(q.taylor(q.degree + 2)):
            assert qk == q.derivative(k).scale(F(1, math.factorial(k)))


def test_jet_matches_derivative_reference():
    for rnd, p in _random_polynomials(8):
        x = random_rational(rnd, -3, 3, 7)
        for n in range(p.degree + 3):
            assert p.jet(x, n) == _jet_by_derivatives(p, x, n), (p, x, n)


def test_taylor_shift_matches_horner_reference():
    for rnd, p in _random_polynomials(11):
        c = random_rational(rnd, -3, 3, 7)
        assert p.taylor_shift(c) == _shift_by_horner(p, c), (p, c)
    assert Polynomial.zero().taylor_shift(F(2)) == Polynomial.zero()


def test_taylor_shift_matches_composition():
    p = Polynomial.of(1, -3, 0, 1)
    shifted = p.taylor_shift(F(2))  # q(x) = p(x + 2)
    for k in range(-4, 5):
        x = F(k, 3)
        assert shifted(x) == p(x + 2)


def test_reflect_matches_negated_argument():
    p = Polynomial.of(1, 2, 3, 4)
    q = p.reflect()
    for k in range(-4, 5):
        x = F(k, 2)
        assert q(x) == p(-x)


def test_divmod_euclidean_property():
    a = Polynomial.of(2, 0, -3, 1, 1)
    b = Polynomial.of(-1, 0, 1)
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert a // b == q
    assert a % b == r


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Polynomial.of(1, 1).divmod(Polynomial.zero())


def test_monic_and_primitive():
    p = Polynomial.of(2, 4, 6)
    assert p.monic() == Polynomial.of(F(1, 3), F(2, 3), 1)
    prim = Polynomial.of("2/3", "4/3", 2).primitive()
    assert prim == Polynomial.of(1, 2, 3)


def test_poly_gcd_of_shared_factor():
    common = Polynomial.of(-2, 0, 1)  # x^2 - 2
    a = common * Polynomial.of(1, 1)
    b = common * Polynomial.of(3, 0, 1)
    g = poly_gcd(a, b)
    assert g.monic() == common.monic()


def test_squarefree_part_drops_multiplicity():
    p = Polynomial.of(-1, 1) ** 3 * Polynomial.of(2, 1)
    sf = squarefree_part(p)
    assert sf.monic() == (Polynomial.of(-1, 1) * Polynomial.of(2, 1)).monic()


def test_str_rendering():
    assert str(Polynomial.of(1, -1, 2)) == "2x^2 - x + 1"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.of(0, 1)) == "x"
