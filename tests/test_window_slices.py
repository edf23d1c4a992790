"""Queries read what is already built.

A window of a function's singularity table is a bisected slice of the
sorted table, checked here against the per-profile compare loop it
replaced; a curve's T(r) is read off its components, checked against the
envelope formula it replaced; and `counting_profile` reads the open window
(-r_max, r_max) of the table.
"""

import math
import warnings
from fractions import Fraction as F
from functools import reduce
from itertools import product

import pytest

import tropicalc.curves as curves_mod
import tropicalc.numeric as numeric
import tropicalc.polyseg as polyseg
import tropicalc.singular as singular
from tropicalc.curves import (
    FermatForm,
    cartan,
    compose_tropical,
    curve,
    fermat_bounds,
    smt_homogeneous_check,
)
from tropicalc.errors import AlgebraicSingularity, EmptyWindow
from tropicalc.nevanlinna import counting, counting_profile
from tropicalc.numeric import AlgebraicNumber, algebraic_root, compare
from tropicalc.poly import Polynomial
from tropicalc.polyseg import _as_scalar, evaluate, piecewise, shift, tropical_plus
from tropicalc.randgen import random_entire, random_linear_curve, random_rational, rng
from tropicalc.singular import _profiles, _profiles_in


def _reference_profiles_in(f, lo, hi, closed_left=False, closed_right=False):
    """The per-profile compare loop that `_profiles_in` replaced."""
    lo, hi = _as_scalar(lo), _as_scalar(hi)
    c = compare(lo, hi)
    if c > 0 or (c == 0 and not (closed_left and closed_right)):
        raise EmptyWindow(f"window ({lo}, {hi}) is empty")
    kept = []
    for p in _profiles(f):
        cl = compare(lo, p.location)
        ch = compare(p.location, hi)
        if (cl < 0 or (cl == 0 and closed_left)) and (
            ch < 0 or (ch == 0 and closed_right)
        ):
            kept.append(p)
    return kept


def _random_quadratic(rnd, positive=False):
    a = abs(random_rational(rnd, 1, 3)) if positive else random_rational(rnd, -3, 3)
    return piecewise([], [[random_rational(rnd), random_rational(rnd), a or 1]])


def _max_of_quadratics(rnd, count=3):
    return reduce(tropical_plus, [_random_quadratic(rnd) for _ in range(count)])


def _window_ends(f):
    """Breakpoints, the origin, rationals and algebraic points off the table."""
    ends = [*f.breakpoints, F(0), F(-7, 3), F(1, 2), F(9)]
    ends += [algebraic_root(Polynomial.of(-3, 0, 1), 1, 2)]  # sqrt(3)
    ends += [algebraic_root(Polynomial.of(-5, 0, 1), -3, -2)]  # -sqrt(5)
    return ends


def _outcome(query, f, lo, hi, closed_left, closed_right):
    try:
        return [p.location for p in query(f, lo, hi, closed_left, closed_right)]
    except EmptyWindow:
        return EmptyWindow


def test_window_slices_agree_with_the_compare_loop():
    rnd = rng(17)
    tables = algebraic = 0
    while tables < 6:
        f = _max_of_quadratics(rnd)
        if not any(isinstance(bp, AlgebraicNumber) for bp in f.breakpoints):
            continue
        tables += 1
        ends = _window_ends(f)
        for lo, hi in product(ends, repeat=2):
            for flags in product((False, True), repeat=2):
                got = _outcome(_profiles_in, f, lo, hi, *flags)
                want = _outcome(_reference_profiles_in, f, lo, hi, *flags)
                assert got == want, (lo, hi, flags)
                algebraic += got is not EmptyWindow and any(
                    isinstance(z, AlgebraicNumber) for z in got
                )
    assert algebraic > 0


def test_closed_point_window_and_empty_windows():
    f = tropical_plus(piecewise([], [[0, 0, 1]]), polyseg.constant(2))
    minus_root2, root2 = f.breakpoints
    assert [p.location for p in _profiles_in(f, root2, root2, True, True)] == [root2]
    assert not _profiles_in(f, F(1), F(1), True, True)
    for lo, hi, flags in [
        (root2, root2, (True, False)),
        (root2, root2, (False, True)),
        (root2, root2, (False, False)),
        (root2, minus_root2, (True, True)),
        (F(1), F(0), (False, False)),
    ]:
        with pytest.raises(EmptyWindow):
            _profiles_in(f, lo, hi, *flags)
    # half-open windows keep exactly the closed end
    assert [p.location for p in _profiles_in(f, minus_root2, F(0), True)] == [
        minus_root2
    ]
    assert [p.location for p in _profiles_in(f, minus_root2, F(0), False, True)] == [
        F(0)
    ]
    assert not _profiles_in(f, minus_root2, F(0))


def _humps(k):
    """sum over m < k of max((x - 3m)^2, 2): 2k algebraic breakpoints 3m +- sqrt(2)."""
    hump = tropical_plus(piecewise([], [[0, 0, 1]]), polyseg.constant(2))
    return reduce(
        lambda acc, g: polyseg.linear_combine(acc, g, 1, 1),
        [shift(hump, -3 * m) for m in range(k)],
    )


def test_a_window_takes_logarithmically_many_compares(monkeypatch):
    f = _humps(8)
    profiles = _profiles(f)
    k = len(profiles)
    assert sum(isinstance(p.location, AlgebraicNumber) for p in profiles) == 16
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return compare(a, b)

    monkeypatch.setattr(numeric, "compare", counted)
    monkeypatch.setattr(singular, "compare", counted)
    bound = 2 * math.ceil(math.log2(k + 1)) + 1
    for lo, hi, flags in [
        (F(-100), F(100), (False, False)),
        (F(1, 3), F(13), (True, False)),
        (f.breakpoints[3], f.breakpoints[9], (True, True)),
        (f.breakpoints[0], f.breakpoints[1], (False, False)),
    ]:
        calls[0] = 0
        _profiles_in(f, lo, hi, *flags)
        assert calls[0] <= bound, (lo, hi, calls[0], bound)


# ---------------------------------------------------------------------------
# T(r) read off the components


def _reference_cartan(c, r):
    """The envelope formula that `cartan` replaced."""
    env = reduce(tropical_plus, c.components)
    return (evaluate(env, r) + evaluate(env, -r)) / 2 - evaluate(env, 0)


def _random_entire_curve(rnd):
    kinds = [
        lambda: _random_quadratic(rnd, positive=True),
        lambda: random_entire(rnd, degree=2, max_breaks=2),
        lambda: random_linear_curve(rnd, arity=1).components[0],
    ]
    return curve([rnd.choice(kinds)() for _ in range(rnd.randint(2, 3))])


def test_cartan_agrees_with_the_envelope_formula():
    rnd = rng(5)
    for _ in range(12):
        c = _random_entire_curve(rnd)
        for r in (F(1, 3), F(1), F(7, 4), F(5)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert cartan(c, r) == _reference_cartan(c, r)


def test_curve_reports_build_no_envelope(monkeypatch, max_of_two):
    c = random_linear_curve(rng(3), arity=2)
    compose_tropical(max_of_two, c)  # the composite the curve keeps
    calls = [0]
    plus = tropical_plus

    def counted(f, g):
        calls[0] += 1
        return plus(f, g)

    monkeypatch.setattr(polyseg, "tropical_plus", counted)
    monkeypatch.setattr(curves_mod, "tropical_plus", counted)
    radii = [F(3), F(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t = cartan(c, F(3))
        smt = smt_homogeneous_check(max_of_two, c, radii)
        fermat = fermat_bounds(FermatForm((F(1), F(2)), 2), c, radii)
    assert calls[0] == 0
    assert [row.cartan_value for row in smt.rows] == [
        _reference_cartan(c, r) for r in radii
    ]
    assert [row.cartan_value for row in fermat.rows] == [
        _reference_cartan(c, r) for r in radii
    ]
    assert t == smt.rows[0].cartan_value


# ---------------------------------------------------------------------------
# counting_profile reads the open window (-r_max, r_max)


def test_counting_profile_skips_points_on_and_beyond_the_radius():
    # order-1 poles at -2, 1 and 2: the slope drops there
    f = piecewise([-2, 1, 2], [[0, 3], [-2, 2], [-1, 1], [3, -1]])
    for r_max in (F(2), F(3, 2)):
        prof = counting_profile(f, 1, r_max)
        assert prof.profile.breakpoints == (F(1),)
        for r in (F(1, 2), F(1), F(5, 4), r_max):
            assert prof(r) == counting(f, 1, r)
    # algebraic poles at +-sqrt(2): skipped at r_max <= sqrt(2), refused inside
    g = polyseg.scale(tropical_plus(piecewise([], [[0, 0, 1]]), polyseg.constant(2)), -1)
    for r_max in (F(1), F(7, 5)):
        assert counting_profile(g, 1, r_max)(r_max) == 0
    with pytest.raises(AlgebraicSingularity):
        counting_profile(g, 1, F(3, 2))

