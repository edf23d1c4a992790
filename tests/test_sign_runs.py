"""The closed forms of `sign_runs` for constant and linear polynomials.

Degrees 0 and 1 are answered without root isolation.  The general body
(isolate the roots in a rational hull of the ends, keep those strictly
inside, sample each run) is kept here as the reference they must match.
"""

import random
from fractions import Fraction as F

import pytest

from tropicalc import polyseg
from tropicalc.numeric import (
    algebraic_root,
    compare,
    real_roots_in,
    scalar_eq,
    sign_of,
)
from tropicalc.poly import Polynomial
from tropicalc.polyseg import _rational_above, _rational_below, _sample_in, sign_runs


def reference_sign_runs(p, left, right):
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


SQRT2 = algebraic_root(Polynomial.of(-2, 0, 1), 1, 2)

# (left, right) with left < right; None is -infinity on the left, +infinity
# on the right
ENDS = [
    (None, None),
    (None, F(1)),
    (F(-3, 2), None),
    (F(-1), F(2)),
    (F(1, 3), F(1, 2)),
    (-SQRT2, SQRT2),
    (None, -SQRT2),
    (SQRT2, None),
    (F(0), SQRT2),
    (-SQRT2, F(7, 5)),
]


def _root_choices(rnd, left, right):
    """Roots left of, at, inside and right of (left, right)."""
    lo = F(-10) if left is None else _rational_below(left)
    hi = F(10) if right is None else _rational_above(right)
    inside = [F(0), F(-7, 3)] if left is right is None else [_sample_in(left, right)]
    at_ends = [e for e in (left, right) if isinstance(e, F)]
    return [lo - rnd.randint(1, 5), hi + rnd.randint(1, 5), *inside, *at_ends]


def _assert_same_runs(got, want):
    assert len(got) == len(want)
    for (end_g, sign_g), (end_w, sign_w) in zip(got, want):
        assert sign_g == sign_w
        assert (end_g is None) == (end_w is None)
        if end_g is not None:
            assert scalar_eq(end_g, end_w)


@pytest.mark.parametrize("seed", range(6))
def test_closed_forms_match_root_isolation(seed):
    rnd = random.Random(seed)
    cases = 0
    for left, right in ENDS:
        for _ in range(3):
            c = F(rnd.randint(-9, 9) or 1, rnd.randint(1, 5))
            p = Polynomial.of(c)
            want = reference_sign_runs(p, left, right)
            _assert_same_runs(sign_runs(p, left, right), want)
            cases += 1
        for root in _root_choices(rnd, left, right):
            slope = F(rnd.choice([-1, 1]) * rnd.randint(1, 7), rnd.randint(1, 4))
            p = Polynomial.of(-slope * root, slope)
            want = reference_sign_runs(p, left, right)
            _assert_same_runs(sign_runs(p, left, right), want)
            cases += 1
    assert cases > 60


def test_linear_root_at_an_end_gives_one_run():
    p = Polynomial.of(-1, 1)  # x - 1
    assert sign_runs(p, F(1), F(3)) == [(F(1), 1)]
    assert sign_runs(p, F(-3), F(1)) == [(F(-3), -1)]
    assert sign_runs(p, None, None) == [(None, -1), (F(1), 1)]


def test_degree_at_most_one_isolates_no_root(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(polyseg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("real_roots_in", "_rational_below", "_rational_above", "_sample_in"):
        monkeypatch.setattr(polyseg, name, counted(name))
    for left, right in ENDS:
        sign_runs(Polynomial.of(F(-3, 2)), left, right)
        sign_runs(Polynomial.of(F(1, 2), -2), left, right)
        sign_runs(Polynomial.of(0, 3), left, right)
    assert calls == []
    sign_runs(Polynomial.of(-2, 0, 1), F(0), F(3))  # degree 2 still isolates
    assert "real_roots_in" in calls
