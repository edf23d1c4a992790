import json
import math
import random
from fractions import Fraction as F

import pytest

from tropicalc import numeric
from tropicalc.errors import PrecisionExhausted, TropicalcError
from tropicalc.numeric import (
    AlgebraicNumber,
    _no_root_mod_some_prime,
    algebraic_root,
    cauchy_root_bound,
    compare,
    decimal_string,
    exact_sum,
    real_roots_in,
    refine,
    root_value,
    scalar_eq,
    separators,
    sort_scalars,
    strip_rational_roots,
    sturm_chain,
    sturm_count,
    sturm_isolate,
    value_enclosure,
    value_sign,
)
from tropicalc.poly import Polynomial, poly_gcd, squarefree_part


SQRT2 = algebraic_root(Polynomial.of(-2, 0, 1), 1, 2)
NEG_SQRT2 = algebraic_root(Polynomial.of(-2, 0, 1), -2, -1)


def test_real_roots_of_quadratic():
    roots = real_roots_in(Polynomial.of(-2, 0, 1), F(-10), F(10))
    assert len(roots) == 2
    assert compare(roots[0], roots[1]) < 0
    assert scalar_eq(roots[0], NEG_SQRT2)
    assert scalar_eq(roots[1], SQRT2)


def test_rational_roots_come_back_as_fractions():
    # (x - 1/2)(x^2 - 2) has one rational and two algebraic roots
    p = Polynomial.of("-1/2", 1) * Polynomial.of(-2, 0, 1)
    roots = real_roots_in(p, F(-3), F(3))
    assert len(roots) == 3
    assert roots[1] == F(1, 2)
    assert isinstance(roots[1], F)
    assert isinstance(roots[0], AlgebraicNumber)


def test_rational_root_with_unfactorable_denominator_is_a_fraction():
    # P is a product of two primes past 10^6: trial division cannot split
    # the leading coefficient of (P x - 1)(x^2 - 2)
    P = 1000003 * 1000033
    roots = real_roots_in(Polynomial.of(-1, P) * Polynomial.of(-2, 0, 1))
    assert roots == [NEG_SQRT2, F(1, P), SQRT2]
    assert isinstance(roots[1], F)
    assert hash(roots[1]) == hash(F(1, P))
    assert roots[0].poly == roots[2].poly == Polynomial.of(-2, 0, 1)


def test_sturm_count_matches_dense_sign_scan():
    p = Polynomial.of(1, -5, 0, 1)  # x^3 - 5x + 1: three real roots
    chain = sturm_chain(p)
    assert sturm_count(chain, F(-4), F(4)) == 3
    assert sturm_count(chain, F(0), F(1)) == 1
    assert sturm_count(chain, F(1), F(2)) == 0


def test_algebraic_number_is_value_semantic():
    other = algebraic_root(Polynomial.of(-2, 0, 1), F(1), F(3, 2))
    assert SQRT2 == other
    assert hash(SQRT2) == hash(other)
    assert SQRT2 != NEG_SQRT2
    assert NEG_SQRT2 < F(0) < SQRT2
    assert SQRT2 < F(3, 2)
    assert F(7, 5) < SQRT2


def test_equal_algebraic_numbers_hash_alike():
    from tropicalc.polyseg import constant, piecewise, tropical_plus

    # sqrt(2) as a breakpoint of max(x^2, 2) and of max(x^4, 4)
    square = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))
    quartic = tropical_plus(piecewise([], [[0, 0, 0, 0, 1]]), constant(4))
    a, b = square.breakpoints[1], quartic.breakpoints[1]
    assert a.poly != b.poly and a == b
    assert hash(a) == hash(b)
    assert len({a, b, SQRT2}) == 1


def test_algebraic_root_strips_rational_factors():
    # isolating sqrt(2) inside (x - 2)(x^2 - 2) drops the rational factor
    p = Polynomial.of(-2, 1) * Polynomial.of(-2, 0, 1)
    got = algebraic_root(p, F(1), F(3, 2))
    assert got.poly == Polynomial.of(-2, 0, 1)
    assert got == SQRT2


def test_refine_produces_nested_enclosures():
    lo1, hi1 = refine(SQRT2, F(1, 10))
    lo2, hi2 = refine(SQRT2, F(1, 100))
    assert lo1 <= lo2 < hi2 <= hi1
    assert hi2 - lo2 <= F(1, 100)
    assert lo2 * lo2 <= 2 <= hi2 * hi2


def test_compare_is_a_total_order():
    vals = [SQRT2, F(1), NEG_SQRT2, F(-3, 2), F(3, 2)]
    s = sort_scalars(vals)
    for a, b in zip(s, s[1:]):
        assert compare(a, b) <= 0
    floats = [float(v) for v in s]
    assert floats == sorted(floats)


def test_separators_interleave():
    s = sort_scalars([NEG_SQRT2, F(0), SQRT2])
    seps = separators(s)
    assert len(seps) == 2
    assert compare(s[0], seps[0]) < 0 < compare(s[1], seps[0])
    assert compare(s[1], seps[1]) < 0 < compare(s[2], seps[1])


def test_root_value_collapses_rational_results():
    v = root_value(Polynomial.identity(), SQRT2)  # the value sqrt(2)
    sq = v * v
    assert sq.is_rational and sq.as_fraction() == F(2)
    prod = v * (-v)
    assert prod.is_rational and prod.as_fraction() == F(-2)


def test_root_value_arithmetic_and_sign():
    v = root_value(Polynomial.identity(), SQRT2)
    w = v + F(1)  # sqrt(2) + 1
    assert value_sign(w) > 0
    assert value_sign(w - w) == 0
    assert value_sign(F(3, 2) - v) > 0  # 3/2 > sqrt(2)
    assert value_sign(F(7, 5) - v) < 0  # 7/5 < sqrt(2)


def test_exact_sum_mixes_rationals_and_roots():
    v = root_value(Polynomial.identity(), SQRT2)
    total = exact_sum([F(1, 2), v, F(1, 2), -v])
    assert total == F(1)
    sym = exact_sum([v, v, F(-1)])  # 2*sqrt(2) - 1
    assert value_sign(sym) > 0
    lo, hi = value_enclosure(sym, F(1, 10**13))
    assert hi - lo <= F(1, 10**13)
    assert lo <= F(2) * F(14142135623731, 10**13) - 1 <= hi + F(1, 10**10)


def test_exact_sum_combines_conjugate_contributions():
    # sqrt(2) + (2 - sqrt(2)) must collapse to the literal rational 2
    v = root_value(Polynomial.identity(), SQRT2)
    w = root_value(Polynomial.of(2, -1), SQRT2)
    total = exact_sum([v, w])
    assert total == F(2)
    assert isinstance(total, F)


def test_value_enclosure_hits_requested_width():
    v = root_value(Polynomial.of(0, 0, 1), SQRT2)  # evaluates to 2 exactly
    lo, hi = value_enclosure(v, F(1, 10**12))
    assert lo <= F(2) <= hi
    assert hi - lo <= F(1, 10**12)


def test_decimal_string_is_exact_rounding():
    assert decimal_string(F(9, 16), 6) == "0.562500"
    assert decimal_string(F(1, 3), 4) == "0.3333"
    assert decimal_string(F(-1, 3), 4) == "-0.3333"
    assert decimal_string(F(2), 2) == "2.00"
    assert decimal_string(F(5, 2), 0) == "3"


def test_decimal_string_rejects_negative_digits():
    with pytest.raises(ValueError, match="digits"):
        decimal_string(F(9, 16), -1)


def test_algebraic_requires_sign_change():
    with pytest.raises(ValueError):
        algebraic_root(Polynomial.of(-2, 0, 1), F(2), F(3))


def test_undecidable_conjugate_sum_raises_a_typed_error():
    # sqrt(2) + (-sqrt(2)) is exactly zero, but the two terms live at
    # different roots, so only ever-narrower enclosures of 0 are available
    x = Polynomial.of(0, 1)
    total = exact_sum([root_value(x, SQRT2), root_value(x, NEG_SQRT2)])
    with pytest.raises(PrecisionExhausted):
        value_sign(total)
    assert issubclass(PrecisionExhausted, TropicalcError)


# ---------------------------------------------------------------------------
# The modular no-rational-root certificate of strip_rational_roots


def reference_strip_rational_roots(p):
    """The isolate-and-snap strip with no certificate, kept as the reference."""
    w = squarefree_part(p).primitive()
    if w.degree <= 0:
        return [], w
    if w.degree == 1:
        roots = [-w.coeffs[0] / w.coeffs[1]]
    elif w.degree == 2:
        c, b, a = (int(k) for k in w.coeffs)
        disc = b * b - 4 * a * c
        s = math.isqrt(max(disc, 0))
        roots = []
        if s * s == disc:
            roots = [F(-b - s, 2 * a), F(-b + s, 2 * a)]
    else:
        lead = int(w.leading)
        width = F(1, 2 * lead * lead)
        bound = cauchy_root_bound(w)
        roots = []
        for interval in sturm_isolate(w, (-bound - 1, bound + 1)):
            lo, hi = AlgebraicNumber(w, *interval).refine_to(width)
            candidate = ((lo + hi) / 2).limit_denominator(lead)
            if lo < candidate < hi and w(candidate) == 0:
                roots.append(candidate)
    for root in roots:
        w = w // Polynomial.from_coeffs((-root.numerator, root.denominator))
    return roots, w


def _random_integer_poly(rnd, degree):
    coeffs = [rnd.randint(-9, 9) for _ in range(degree)]
    return Polynomial.of(*coeffs, rnd.choice([-1, 1]) * rnd.randint(1, 9))


def _planted(rnd):
    """A polynomial of degree 3-6 with 1-3 planted rational roots a/q."""
    degree = rnd.randint(3, 6)
    planted = set()
    p = Polynomial.of(1)
    for _ in range(rnd.randint(1, min(3, degree))):
        q = rnd.randint(1, 6)
        root = F(rnd.randint(-9, 9), q)
        planted.add(root)
        p = p * Polynomial.of(-root.numerator, root.denominator)  # q x - a
    return p * _random_integer_poly(rnd, degree - p.degree), planted


def _assert_same_strip(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("seed", range(8))
def test_certificate_never_fires_on_planted_rational_roots(seed):
    rnd = random.Random(seed)
    for _ in range(25):
        p, planted = _planted(rnd)
        w = squarefree_part(p).primitive()
        # every planted a/q has q | lead(w), so it is a root mod every
        # prime that the certificate does not skip
        assert all(int(w.leading) % r.denominator == 0 for r in planted)
        assert not _no_root_mod_some_prime(w)
        roots, cofactor = strip_rational_roots(p)
        assert planted <= set(roots)
        assert all(cofactor(r) != 0 for r in roots)


@pytest.mark.parametrize("seed", range(8))
def test_strip_matches_the_snap_reference(seed):
    rnd = random.Random(100 + seed)
    fired = 0
    for k in range(30):
        if k % 2:
            p, _ = _planted(rnd)
        else:
            p = _random_integer_poly(rnd, rnd.randint(3, 6))
        w = squarefree_part(p).primitive()
        fired += w.degree >= 3 and _no_root_mod_some_prime(w)
        _assert_same_strip(strip_rational_roots(p), reference_strip_rational_roots(p))
    assert fired > 0


def _count_snap_calls(monkeypatch):
    calls = {"sturm_isolate": 0, "refine_to": 0}
    isolate, refine_to = numeric.sturm_isolate, AlgebraicNumber.refine_to

    def counted_isolate(*args):
        calls["sturm_isolate"] += 1
        return isolate(*args)

    def counted_refine_to(self, eps):
        calls["refine_to"] += 1
        return refine_to(self, eps)

    monkeypatch.setattr(numeric, "sturm_isolate", counted_isolate)
    monkeypatch.setattr(AlgebraicNumber, "refine_to", counted_refine_to)
    return calls


def test_root_mod_every_prime_falls_back_to_the_snap(monkeypatch):
    # (x^2 - 2)(x^2 - 3)(x^2 - 6): mod every p one of 2, 3, 6 is a square
    p = Polynomial.of(-2, 0, 1) * Polynomial.of(-3, 0, 1) * Polynomial.of(-6, 0, 1)
    assert not _no_root_mod_some_prime(p)
    calls = _count_snap_calls(monkeypatch)
    roots, cofactor = strip_rational_roots(p)
    assert roots == [] and cofactor == p
    assert calls["sturm_isolate"] == 1
    assert calls["refine_to"] == 6
    assert len(real_roots_in(p)) == 6


def test_every_prime_dividing_the_lead_falls_back_to_the_snap(monkeypatch):
    L = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31
    p = Polynomial.of(-1, L) * Polynomial.of(-2, 0, 1)  # (L x - 1)(x^2 - 2)
    assert not _no_root_mod_some_prime(p)
    calls = _count_snap_calls(monkeypatch)
    roots, cofactor = strip_rational_roots(p)
    assert roots == [F(1, L)]
    assert cofactor == Polynomial.of(-2, 0, 1)
    assert calls["sturm_isolate"] == 1
    _assert_same_strip((roots, cofactor), reference_strip_rational_roots(p))


def test_certified_cubic_isolates_nothing(monkeypatch):
    p = Polynomial.of(-2, 0, 0, 1)  # x^3 - 2: no root mod 7
    calls = _count_snap_calls(monkeypatch)
    assert strip_rational_roots(p) == ([], p)
    assert calls == {"sturm_isolate": 0, "refine_to": 0}


def test_repr_leaves_serialization_unchanged():
    from tropicalc.manifest import function_to_json
    from tropicalc.polyseg import constant, piecewise, tropical_plus

    f = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))
    before = json.dumps(function_to_json(f))
    assert repr(f.breakpoints[1]).startswith("AlgebraicNumber(")
    assert json.dumps(function_to_json(f)) == before


# ---------------------------------------------------------------------------
# Isolated numbers decided by signs, against the Sturm-count rules they replace


def reference_compare_rational(alpha, q):
    """Sign of alpha - q by one Sturm count of alpha's polynomial."""
    lo, hi = alpha.interval
    if q <= lo:
        return numeric.GREATER
    if q >= hi:
        return numeric.LESS
    if alpha.poly(q) == 0:
        return numeric.EQUAL
    below = sturm_count(sturm_chain(alpha.poly), lo, q) == 1
    return numeric.LESS if below else numeric.GREATER


def reference_equal(a, b):
    """Equality by Sturm counts of the gcd on both intervals and their hull."""
    (alo, ahi), (blo, bhi) = a.interval, b.interval
    if ahi <= blo or bhi <= alo:
        return False
    g = poly_gcd(a.poly, b.poly)
    if g.degree < 1:
        return False
    chain = sturm_chain(g.primitive())
    if sturm_count(chain, alo, ahi) != 1 or sturm_count(chain, blo, bhi) != 1:
        return False
    return sturm_count(chain, min(alo, blo), max(ahi, bhi)) == 1


def reference_root_value_is_zero(rv):
    g = poly_gcd(rv.num, rv.root.poly)
    if g.degree < 1:
        return False
    return sturm_count(sturm_chain(g.primitive()), *rv.root.interval) == 1


def _random_squarefree(rnd, degree):
    return squarefree_part(_random_integer_poly(rnd, degree)).primitive()


def _irrational_roots(p):
    return [r for r in real_roots_in(p) if isinstance(r, AlgebraicNumber)]


def _shifted(alpha, c):
    """alpha - c, built as `polyseg.shift` builds shifted breakpoints."""
    lo, hi = alpha.interval
    return AlgebraicNumber(alpha.poly.taylor_shift(c).primitive(), lo - c, hi - c)


def _seeded_numbers(rnd):
    """Roots of random squarefree polynomials of degree 2-6, shifted and negated."""
    numbers = []
    for _ in range(6):
        for alpha in _irrational_roots(_random_squarefree(rnd, rnd.randint(2, 6))):
            c = F(rnd.randint(-20, 20), rnd.randint(1, 8))
            numbers += [alpha, -alpha, _shifted(alpha, c)]
    return numbers


def _probes(alpha):
    """Rationals at and beyond the ends, at the midpoint and close to the root."""
    lo, hi = alpha.interval
    near_lo, near_hi = AlgebraicNumber(alpha.poly, lo, hi).refine_to(F(1, 10**6))
    tiny = F(1, 10**9)
    return [
        lo - 1, lo, (lo + hi) / 2, hi, hi + 1, F(0),
        near_lo, near_hi, near_lo - tiny, near_hi + tiny,
    ]


@pytest.mark.parametrize("seed", range(6))
def test_rational_comparison_matches_the_sturm_reference(seed):
    rnd = random.Random(200 + seed)
    numbers = _seeded_numbers(rnd)
    assert len(numbers) > 10
    for alpha in numbers:
        for q in _probes(alpha):
            want = reference_compare_rational(alpha, q)
            assert compare(alpha, q) == want
            assert compare(q, alpha) == -want
        assert alpha.sign() == reference_compare_rational(alpha, F(0))


@pytest.mark.parametrize("seed", range(6))
def test_equality_matches_the_sturm_reference(seed):
    rnd = random.Random(300 + seed)
    overlapping = {True: 0, False: 0}
    for _ in range(6):
        p = _random_squarefree(rnd, rnd.randint(2, 4))
        q = _random_squarefree(rnd, rnd.randint(2, 4))
        # the roots of p again, now defined by p*q: equal values, other polynomials
        pool = _irrational_roots(p) + _irrational_roots(q) + _irrational_roots(p * q)
        for a in pool:
            for b in pool:
                want = reference_equal(a, b)
                assert numeric._maybe_equal(a, b) == want
                (alo, ahi), (blo, bhi) = a.interval, b.interval
                if a is not b and max(alo, blo) < min(ahi, bhi):
                    overlapping[want] += 1
    assert overlapping[True] > 0 and overlapping[False] > 0


def test_equal_numbers_with_different_polynomials():
    a = algebraic_root(Polynomial.of(-2, 0, 1), 1, 2)  # x^2 - 2
    b = algebraic_root(Polynomial.of(-4, 0, 0, 0, 1), 1, 2)  # x^4 - 4
    assert a.poly != b.poly
    assert numeric._maybe_equal(a, b) and reference_equal(a, b)
    assert scalar_eq(a, b) and compare(a, b) == 0
    c = algebraic_root(Polynomial.of(-3, 0, 1), 1, 2)  # sqrt(3), same interval
    assert not numeric._maybe_equal(a, c) and not reference_equal(a, c)
    assert compare(a, c) < 0


@pytest.mark.parametrize("seed", range(6))
def test_root_value_zero_test_matches_the_sturm_reference(seed):
    rnd = random.Random(400 + seed)
    zeros = nonzeros_sharing = 0
    for _ in range(6):
        p1 = _random_squarefree(rnd, rnd.randint(1, 3))
        p2 = _random_squarefree(rnd, rnd.randint(2, 3))
        r = _random_integer_poly(rnd, rnd.randint(1, 3))
        for alpha in _irrational_roots(p1 * p2):
            for q in (p1 * r, p2 * r, r, r + p1):
                rv = root_value(q, alpha)
                want_zero = reference_root_value_is_zero(rv)
                assert (rv.sign() == 0) == want_zero
                zeros += want_zero
                shares = poly_gcd(q, alpha.poly).degree >= 1
                nonzeros_sharing += shares and not want_zero
                if not want_zero:
                    lo, hi = value_enclosure(rv, F(1, 10**30))
                    assert rv.sign() == (1 if lo > 0 else -1)
                    assert lo > 0 or hi < 0
    assert zeros > 0 and nonzeros_sharing > 0


def test_comparisons_build_no_sturm_chain(monkeypatch):
    # +-1/sqrt(2), each on an interval across 0
    alpha = algebraic_root(Polynomial.of(-1, 0, 2), F(-1, 2), F(1))
    neg = algebraic_root(Polynomial.of(-1, 0, 2), F(-1), F(1, 2))
    beta = algebraic_root(Polynomial.of(-1, 0, 0, 0, 4), F(0), F(2))  # alpha again
    gamma = algebraic_root(Polynomial.of(-3, 0, 1), F(1), F(2))
    calls = []
    chain = numeric.sturm_chain
    monkeypatch.setattr(numeric, "sturm_chain", lambda p: calls.append(p) or chain(p))
    interval = alpha.interval
    for q in (F(-1), F(0), F(1, 4), F(7, 10), F(71, 100), F(1)):
        compare(alpha, q)
        compare(q, alpha)
    assert value_sign(alpha) == 1 and value_sign(neg) == -1
    assert alpha.interval == interval and neg.interval == (F(-1), F(1, 2))
    assert scalar_eq(alpha, beta)
    assert not scalar_eq(alpha, gamma)
    assert root_value(Polynomial.of(-1, 0, 2), alpha).sign() == 0
    assert root_value(Polynomial.of(0, 1), gamma).sign() == 1
    assert calls == []


def test_ambiguous_interval_is_rejected_with_its_root_count():
    # (x^2 - 2)(x^3 - 3) changes sign across (-2, 2) but has three roots there
    p = Polynomial.of(-2, 0, 1) * Polynomial.of(-3, 0, 0, 1)
    with pytest.raises(ValueError, match="holds 3 roots"):
        algebraic_root(p, -2, 2)
    assert algebraic_root(p, 1, F(17, 12)) < F(3, 2)  # sqrt(2) alone


def test_unchecked_number_with_a_root_at_zero_has_sign_zero():
    assert AlgebraicNumber(Polynomial.of(0, 1), F(-1), F(1)).sign() == 0
