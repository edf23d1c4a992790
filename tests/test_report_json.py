"""`_report_json` renders every report exactly as the hand-written bodies did.

The seven `to_json` bodies it replaced are kept here as the reference.
"""

import warnings
from fractions import Fraction as F

from tropicalc.curves import (
    FermatForm,
    TropicalPolynomialMap,
    casoratian_balance,
    curve,
    fermat_bounds,
    smt_homogeneous_check,
)
from tropicalc.nevanlinna import (
    characteristic_profile,
    growth_estimates,
    hyperexp,
    jensen_report,
    lemma44_check,
    poisson_jensen,
)
from tropicalc.numeric import AlgebraicNumber, ExactValue, RootValue
from tropicalc.polyseg import constant, linear_combine, piecewise, tropical_plus
from tropicalc.randgen import random_function, random_linear_curve, rng
from tropicalc.singular import _format_value, _report_json


def _jensen_reference(rep):
    return {
        "r": str(rep.r),
        "boundary_mean": _format_value(rep.boundary_mean),
        "root_sum": _format_value(rep.root_sum),
        "pole_sum": _format_value(rep.pole_sum),
        "reconstructed": _format_value(rep.reconstructed),
        "reference": _format_value(rep.reference),
        "residual": _format_value(rep.residual),
        "passed": rep.passed(),
    }


def _poisson_jensen_reference(rep):
    return {
        "x": str(rep.x),
        "r": str(rep.r),
        "order_bound": rep.n,
        "boundary_mean": _format_value(rep.boundary_mean),
        "slope_term": _format_value(rep.slope_term),
        "singular_B_sum": _format_value(rep.b_sum),
        "singular_D_sum": _format_value(rep.d_sum),
        "correction_x": _format_value(rep.correction_x),
        "correction_zero": _format_value(rep.correction_zero),
        "contributions": [
            {
                "location": _format_value(c.location),
                "order": c.order,
                "region": c.region,
                "omega": _format_value(c.omega),
                "energy_power": _format_value(c.energy),
                "b_term": _format_value(c.b_term),
                "d_term": _format_value(c.d_term),
                "omega_weight": _format_value(c.omega_weight),
                "gamma_weight": _format_value(c.gamma_weight),
            }
            for c in rep.contributions
        ],
        "reconstructed": _format_value(rep.reconstructed),
        "reference": _format_value(rep.reference),
        "residual": _format_value(rep.residual),
        "passed": rep.passed(),
    }


def _lemma44_reference(rep):
    return {
        "c": str(rep.c),
        "alpha": str(rep.alpha),
        "r": str(rep.r),
        "threshold": str(rep.threshold),
        "lhs_plus": str(rep.lhs_plus),
        "lhs_minus": str(rep.lhs_minus),
        "rhs": str(rep.rhs),
        "passed": rep.passed,
    }


def _growth_reference(rep):
    return {
        "grid": [str(r) for r in rep.grid],
        "order_estimates": list(rep.order_estimates),
        "hyper_order_estimates": list(rep.hyper_order_estimates),
    }


def _smt_reference(rep):
    return {
        "degree": rep.degree,
        "band": [str(rep.band[0]), str(rep.band[1])],
        "passed": rep.passed,
        "rows": [
            {
                "r": str(row.r),
                "cartan": _format_value(row.cartan_value),
                "roots_sum": _format_value(row.roots_sum),
                "poles_sum": _format_value(row.poles_sum),
                "residual": _format_value(row.residual),
                "in_band": row.in_band,
                "identity_gap": _format_value(row.identity_gap),
            }
            for row in rep.rows
        ],
    }


def _fermat_reference(rep):
    return {
        "theta": str(rep.theta),
        "big_theta": str(rep.big_theta),
        "power": rep.power,
        "passed": rep.passed,
        "rows": [
            {
                "r": str(row.r),
                "cartan": _format_value(row.cartan_value),
                "pole_sum": _format_value(row.pole_sum),
                "ratio": None if row.ratio is None else _format_value(row.ratio),
                "growth_diagnostic": None
                if row.growth_diagnostic is None
                else str(row.growth_diagnostic),
                "in_window": row.in_window,
            }
            for row in rep.rows
        ],
    }


def _casoratian_reference(rep):
    return {
        "step": str(rep.step),
        "rows": [
            {
                "r": str(row.r),
                "lhs": _format_value(row.lhs),
                "shift_pole_block": _format_value(row.shift_pole_block),
                "window_block": _format_value(row.window_block),
                "excess": _format_value(row.excess),
            }
            for row in rep.rows
        ],
        "component_tail_slope": None
        if rep.component_tail_slope is None
        else str(rep.component_tail_slope),
        "casoratian_tail_slope": None
        if rep.casoratian_tail_slope is None
        else str(rep.casoratian_tail_slope),
        "tail_slopes_equal": rep.tail_slopes_equal,
    }


def _reports():
    """(reference renderer, report) pairs covering every report type."""
    kinked = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))  # kinks at ±sqrt2
    rnd = rng(5)
    for _ in range(4):
        f = linear_combine(kinked, random_function(rnd), 1, 1)
        for r in (F(9, 4), F(3)):
            yield _jensen_reference, jensen_report(f, r)
            for x in (F(1, 3), F(-1, 2)):
                yield _poisson_jensen_reference, poisson_jensen(f, x, r)
    stairs = hyperexp(2, 2, (-10, 10), 20).function
    for c, alpha, r in ((1, 2, 8), (F(-1, 2), 3, 12)):
        yield _lemma44_reference, lemma44_check(stairs, c, alpha, r)
    profile = characteristic_profile(stairs, 9)
    yield _growth_reference, growth_estimates(profile, [2, F(7, 2), 9])
    # x^2 against a constant: the composite's poles sit at ±sqrt(2)
    quadratic = curve([piecewise([], [[0, 0, 1]]), constant(2)])
    p = TropicalPolynomialMap((((2, 0), 0), ((1, 1), F(1, 3)), ((0, 2), -1)), 2)
    yield _smt_reference, smt_homogeneous_check(p, quadratic, [1, 2, 3])
    flat = curve([constant(0), piecewise([], [[0, 2]])])
    yield _fermat_reference, fermat_bounds(FermatForm((1, 2), 2), flat, [1, 5, 10])
    level = curve([constant(0), constant(1)])  # T = 0 on every row
    yield _fermat_reference, fermat_bounds(FermatForm((1, 2), 2), level, [1, 5])
    yield _casoratian_reference, casoratian_balance(quadratic, [2, 4])
    yield _casoratian_reference, casoratian_balance(random_linear_curve(rng(7), 3), [2, 6])


def _leaves(obj):
    if hasattr(obj, "__dataclass_fields__") and not isinstance(
        obj, (RootValue, ExactValue)
    ):
        for name in obj.__dataclass_fields__:
            yield from _leaves(getattr(obj, name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def test_report_json_matches_hand_written_reference():
    kinds, leaves = set(), set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # non-reduced curves warn
        for reference, report in _reports():
            assert _report_json(report) == reference(report), type(report).__name__
            assert report.to_json() == reference(report)
            kinds.add(reference)
            leaves.update(type(v) for v in _leaves(report))
    assert len(kinds) == 7
    # the renderer saw algebraic locations, exact values and absent entries
    assert {AlgebraicNumber, RootValue, ExactValue, type(None), float} <= leaves
