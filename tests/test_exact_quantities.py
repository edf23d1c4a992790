"""One interface for every kind of exact quantity.

int, Fraction, AlgebraicNumber, RootValue and ExactValue are enclosed by
`value_enclosure`, signed by `value_sign`, scaled by `*`, made non-negative
by `abs` and printed by `numeric._approximation`.  The references below keep
the per-module helpers those replaced, so the printed bytes and the scaled
values are checked against them.
"""

import json
import random
from fractions import Fraction as F

import pytest

import tropicalc
from tropicalc import curves, nevanlinna, numeric, polyseg, singular
from tropicalc.manifest import function_to_json
from tropicalc.numeric import (
    AlgebraicNumber,
    ExactValue,
    RootValue,
    _approximation,
    decimal_string,
    exact_sum,
    real_roots_in,
    root_value,
    sign_of,
    value_enclosure,
    value_sign,
)
from tropicalc.poly import Polynomial
from tropicalc.polyseg import constant, piecewise, tropical_plus
from tropicalc.singular import _format_value

KINDS = (int, F, AlgebraicNumber, RootValue, ExactValue)


def _corpus(seed: int) -> list:
    """Every kind, both signs and zero, from one seed."""
    rnd = random.Random(seed)
    out: list = [0, rnd.randint(1, 9), -rnd.randint(1, 9)]
    out += [F(0), F(rnd.randint(1, 50), rnd.randint(2, 12))]
    out.append(-out[-1])
    algebraic: list[AlgebraicNumber] = []
    while len(algebraic) < 4:
        coeffs = [rnd.randint(-6, 6) for _ in range(rnd.randint(3, 5))]
        if coeffs[-1] == 0:
            continue
        roots = real_roots_in(Polynomial.from_coeffs(coeffs))
        algebraic += [a for a in roots if isinstance(a, AlgebraicNumber)][:2]
    out += algebraic
    values = []
    for alpha in algebraic:
        q = Polynomial.from_coeffs(
            [F(rnd.randint(-5, 5), rnd.randint(1, 4)) for _ in range(3)]
        )
        value = root_value(q, alpha)
        if not value.is_rational:
            values.append(value)
    out += values + [-v for v in values]
    out.append(root_value(algebraic[0].poly, algebraic[0]))  # zero at its root
    for a in values:
        for b in values:
            if a.root.poly != b.root.poly:  # distinct roots: nothing cancels
                total = exact_sum([F(rnd.randint(-3, 3), 2), a, b])
                out += [total, -total]
    return out


SEEDS = range(4)


def test_corpus_holds_every_kind():
    for seed in SEEDS:
        assert {type(v) for v in _corpus(seed)} == set(KINDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_enclosure_is_narrow_and_holds_the_value(seed):
    for v in _corpus(seed):
        for eps in (F(1, 2), F(1, 10**6), F(1, 10**12)):
            lo, hi = value_enclosure(v, eps)
            assert isinstance(lo, F) and isinstance(hi, F)
            assert 0 <= hi - lo <= eps
            assert float(lo) <= float(v) <= float(hi)


@pytest.mark.parametrize("seed", SEEDS)
def test_sign_is_the_side_of_zero_the_enclosure_lies_on(seed):
    for v in _corpus(seed):
        s = value_sign(v)
        assert s in (-1, 0, 1)
        lo, hi = value_enclosure(v, F(1, 10**9))
        if lo > 0 or hi < 0:
            assert s == sign_of(lo)
        if s == 0:
            assert lo <= 0 <= hi
        else:
            assert (hi if s > 0 else -lo) > 0


def _scale_value_reference(v, c):
    """c * v for a rational c, as `numeric.scale_value` and `ExactValue.scale` did."""
    if isinstance(v, ExactValue):
        c = F(c)
        return exact_sum(
            [v.rational * c, *(RootValue(p.num.scale(c), p.root) for p in v.parts)]
        )
    return v * c


@pytest.mark.parametrize("seed", SEEDS)
def test_product_with_a_rational_matches_the_old_scaling(seed):
    for v in _corpus(seed):
        for c in (0, 3, F(-1, 2), F(7, 3)):
            if isinstance(v, AlgebraicNumber):  # a number, not a value: no `*`
                with pytest.raises(TypeError):
                    _scale_value_reference(v, c)
                with pytest.raises(TypeError):
                    v * c
                continue
            want = _scale_value_reference(v, c)
            assert v * c == want and type(v * c) is type(want)
            assert c * v == want
        if isinstance(v, ExactValue):
            assert v * 0 == 0 and isinstance(v * 0, F)


@pytest.mark.parametrize("seed", SEEDS)
def test_abs_is_never_negative(seed):
    for v in _corpus(seed):
        a = abs(v)
        assert value_sign(a) >= 0
        assert a == v if value_sign(v) >= 0 else a == -v


# The printers the one `_approximation` replaced.


def _decimal_reference(alpha: AlgebraicNumber, digits: int) -> str:
    """`AlgebraicNumber.decimal`: refine in place, round the midpoint."""
    lo, hi = alpha.refine_to(F(1, 10 ** (digits + 3)))
    return decimal_string((lo + hi) / 2, digits)


def _scalar_str_reference(s) -> str:
    """`polyseg._scalar_str`: an algebraic number to 6 places, on a copy."""
    if isinstance(s, AlgebraicNumber):
        return "~" + _decimal_reference(AlgebraicNumber(s.poly, *s.interval), 6)
    return str(s)


def _format_scalar_reference(s) -> str:
    """`singular._format_scalar`: an algebraic number to 12 places, in place."""
    if isinstance(s, AlgebraicNumber):
        return "~" + _decimal_reference(s, 12)
    return str(s)


def _format_value_reference(v) -> str:
    """`singular._format_value`: a value's 1e-15 enclosure to 12 places."""
    if isinstance(v, F):
        return str(v)
    lo, hi = v.enclosure(F(1, 10**15))
    return "~" + decimal_string((lo + hi) / 2, 12)


@pytest.mark.parametrize("seed", SEEDS)
def test_approximation_prints_the_bytes_of_the_old_printers(seed):
    for v in _corpus(seed):
        if isinstance(v, (int, F, AlgebraicNumber)):
            assert _approximation(v) == _approximation(v, 6) == _scalar_str_reference(v)
            assert _approximation(v, 12) == _format_scalar_reference(v)
        if isinstance(v, (F, RootValue, ExactValue)):
            assert _approximation(v, 12) == _format_value_reference(v)
        assert _format_value(v) == _approximation(v, 12)


def _max_square_two():
    return tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))


def test_printing_a_location_leaves_serialization_unchanged():
    f = _max_square_two()
    before = json.dumps(function_to_json(f))
    intervals = [bp.interval for bp in f.breakpoints]
    assert [_format_value(bp) for bp in f.breakpoints] == [
        "~-1.414213562373",
        "~1.414213562373",
    ]
    assert [bp.interval for bp in f.breakpoints] == intervals
    assert json.dumps(function_to_json(f)) == before
    profile = nevanlinna.proximity_profile(f, 3)
    assert profile.profile.breakpoints[0] is f.breakpoints[1]  # shared, not copied
    assert nevanlinna.profile_json(profile)["breakpoints"] == ["~1.414213562373"]
    assert json.dumps(function_to_json(f)) == before


def test_refine_is_the_enclosure():
    assert tropicalc.refine is tropicalc.value_enclosure
    assert numeric.refine is numeric.value_enclosure


@pytest.mark.parametrize(
    "module, name",
    [
        (numeric, "scalar_sign"),
        (numeric, "scalar_abs"),
        (numeric, "scale_value"),
        (numeric, "_negate_term"),
        (numeric, "value_float"),
        (tropicalc, "value_float"),
        (polyseg, "_scalar_str"),
        (polyseg, "frac_approx"),
        (singular, "_format_scalar"),
        (curves, "_abs_value"),
    ],
)
def test_per_module_helpers_are_gone(module, name):
    assert not hasattr(module, name)
