import math
from fractions import Fraction as F

import pytest

from tropicalc.errors import (
    AlgebraicSingularity,
    EmptyWindow,
    NonPositiveRadius,
    NonPositiveValues,
    NotEntireComponent,
    NotWellDefined,
    PointOutsideDisk,
    RadiusBelowThreshold,
    TropicalcError,
    WindowOutOfRange,
    ZeroShift,
)
from tropicalc.nevanlinna import (
    LEFT_TO_MINUS_R,
    POLES_OF_NEG_F,
    RIGHT_TO_R,
    characteristic,
    characteristic_profile,
    counting,
    counting_difference,
    counting_oracle,
    counting_profile,
    growth_estimates,
    hyperexp,
    jensen_balance,
    jensen_report,
    lemma31_sum,
    lemma44_check,
    log_difference,
    poisson_jensen,
    profile_bundle,
    profile_flags,
    proximity,
)
from tropicalc.numeric import exact_sum, poly_sign_at, value_sign
from tropicalc.poly import Polynomial
from tropicalc.polyseg import (
    MINUS,
    PLUS,
    constant,
    evaluate,
    evaluate_jet,
    linear_combine,
    piecewise,
    tropical_plus,
)
from tropicalc.randgen import random_rational, rng
from tropicalc.singular import classify, omega_at, scan


R = F(5, 2)


# ---------------------------------------------------------------------------
# pointwise functionals on the showcase function


def test_proximity_is_boundary_mean_of_plus_parts(showcase):
    plus = lambda v: max(v, F(0))
    want = (plus(evaluate(showcase, R)) + plus(evaluate(showcase, -R))) / 2
    assert proximity(showcase, R) == want == F(9, 16)


def test_counting_values(showcase):
    assert counting(showcase, 1, R) == F(13, 2)
    assert counting(showcase, 2, R) == F(2)
    assert counting(showcase, 3, R) == F(0)


def test_counting_respects_subwindows(showcase):
    # first-order poles: -1 (mult 2), 1 (mult 5), 2 (mult 5)
    full = counting(showcase, 1, R)
    left = counting(showcase, 1, R, sub=(-R, 0))
    right = counting(showcase, 1, R, sub=(0, R))
    assert left + right == full == F(13, 2)
    assert left == F(1, 2) * 2 * (R - 1)
    closed = counting(showcase, 1, R, sub=(-1, 1, True, True))
    assert closed == F(1, 2) * (2 + 5) * (R - 1)
    open_window = counting(showcase, 1, R, sub=(-1, 1))
    assert open_window == 0


def test_counting_sign_selector(showcase):
    # roots of f are poles of its negation
    got = counting(showcase, 2, R, sign=POLES_OF_NEG_F)
    want = F(1, 2) * (1 * (R - 1) ** 2 + 2 * R**2 + 3 * (R - 2) ** 2)
    assert got == want


def test_counting_window_must_fit_disk(showcase):
    with pytest.raises(WindowOutOfRange):
        counting(showcase, 1, R, sub=(-3, 0))


def test_counting_rejects_bad_order(showcase):
    with pytest.raises(ValueError):
        counting(showcase, 0, R)


@pytest.mark.parametrize("sub", [(1, 0), (1, 1)], ids=["reversed", "open-point"])
def test_empty_counting_window_raises(showcase, sub):
    with pytest.raises(EmptyWindow):
        counting(showcase, 1, R, sub=sub)
    with pytest.raises(EmptyWindow):
        counting_oracle(showcase, 1, R, F(1, 10), sub=sub)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: counting(f, 1, R, sign="bogus"),
        lambda f: counting_oracle(f, 0, R, F(1, 10)),
        lambda f: counting_oracle(f, 1, R, F(1, 10), sign="bogus"),
        lambda f: counting_profile(f, 0, R),
        lambda f: counting_profile(f, 1, R, sign="bogus"),
    ],
    ids=[
        "counting-sign",
        "oracle-order",
        "oracle-sign",
        "profile-order",
        "profile-sign",
    ],
)
def test_counting_selectors_are_validated(showcase, call):
    with pytest.raises(ValueError):
        call(showcase)


def test_radius_must_be_positive(showcase):
    with pytest.raises(NonPositiveRadius):
        proximity(showcase, 0)
    with pytest.raises(NonPositiveRadius):
        characteristic(showcase, F(-1, 2))


def test_characteristic_assembles_m_plus_counting(showcase):
    t = characteristic(showcase, R)
    parts = proximity(showcase, R) + sum(
        counting(showcase, j, R) for j in (1, 2, 3)
    )
    assert t == parts == F(9, 16) + F(13, 2) + 2


# ---------------------------------------------------------------------------
# Jensen machinery


def test_jensen_report_showcase(showcase):
    rep = jensen_report(showcase, R)
    assert rep.boundary_mean == F(9, 16)
    assert rep.root_sum == F(129, 16)
    assert rep.pole_sum == F(17, 2)
    assert rep.reconstructed == F(1) == rep.reference
    assert rep.residual == 0
    assert rep.passed()
    js = rep.to_json()
    assert js["r"] == "5/2"
    assert js["residual"] == "0"


def test_jensen_balance_zero_across_radii(showcase):
    for r in [F(1, 3), F(3, 2), R, F(7, 2), F(21, 5), F(6)]:
        assert jensen_balance(showcase, r) == 0
        assert jensen_report(showcase, r).residual == 0


def test_counting_difference_identity(showcase, parabola_train):
    for f in (showcase, parabola_train):
        for r in [F(3, 2), R, F(4)]:
            lhs, rhs = counting_difference(f, r)
            assert lhs == rhs


def test_counting_oracle_converges(showcase):
    for j in (1, 2, 3):
        exact = counting(showcase, j, R)
        approx = counting_oracle(showcase, j, R, F(1, 1000))
        assert abs(approx - exact) < F(1, 100), j


# ---------------------------------------------------------------------------
# telescoping boundary sums


def test_lemma31_sums_telescope(showcase):
    for x in [F(0), F(1, 2), F(-3, 2), F(1), F(-2)]:
        fx = evaluate(showcase, x)
        assert lemma31_sum(showcase, x, R, RIGHT_TO_R) == evaluate(showcase, R) - fx
        assert (
            lemma31_sum(showcase, x, R, LEFT_TO_MINUS_R)
            == fx - evaluate(showcase, -R)
        )


# ---------------------------------------------------------------------------
# Poisson-Jensen


def test_poisson_jensen_reconstructs_interior_values(showcase):
    rep = poisson_jensen(showcase, F(1, 2), R)
    assert rep.reconstructed == F(9, 4) == evaluate(showcase, F(1, 2))
    assert rep.residual == 0
    assert rep.passed()


def test_poisson_jensen_across_points(showcase):
    for x in [0, F(1, 2), F(-1, 2), F(-3, 2), F(3, 2), F(9, 4), -2, -1, 1, 2]:
        assert poisson_jensen(showcase, x, R).residual == 0, x


def test_poisson_jensen_at_origin_is_jensen(showcase):
    pj = poisson_jensen(showcase, 0, R)
    jr = jensen_report(showcase, R)
    assert pj.reconstructed == jr.reconstructed == 1


def test_poisson_jensen_rejects_boundary_points(showcase):
    with pytest.raises(PointOutsideDisk):
        poisson_jensen(showcase, R, R)
    with pytest.raises(PointOutsideDisk):
        poisson_jensen(showcase, -3, R)


def _region_weights(region, j, jet_plus, jet_minus, y):
    """(Omega, Gamma) weights of the region decomposition, from one-sided jets."""
    sy = value_sign(y)
    sp = sy if sy != 0 else 1
    sm = sy if sy != 0 else -1
    omega = sp ** (j + 1) * jet_plus - sm ** (j + 1) * jet_minus
    tau = jet_plus - jet_minus
    both = jet_plus + jet_minus
    odd = j % 2 == 1
    b = {
        "F1": omega,
        "F2": omega,
        "F3": omega,
        "F4": (-1) ** (j + 1) * omega,
        "F5": (-1) ** (j + 1) * omega,
        "F6": tau,
        "F7": (-1) ** (j + 1) * tau,
        "F8": tau if odd else both,
        "F9": tau if odd else both,
    }[region]
    d = {
        "F1": -omega,
        "F2": omega,
        "F3": jet_plus + (-1) ** (j + 1) * jet_minus,
        "F4": (-1) ** j * omega,
        "F5": (-1) ** (j + 1) * omega,
        "F6": tau,
        "F7": (-1) ** j * tau,
        "F8": both if odd else tau,
        "F9": both if odd else tau,
    }[region]
    return b, d


def _jumping_at(points, seed):
    """A cubic with nonzero jumps of every order at each rational point."""
    rnd = rng(seed)
    x = Polynomial.of(0, 1)
    segs = [Polynomial.of(*(random_rational(rnd) for _ in range(4)))]
    for bp in points:
        jump = Polynomial.zero()
        for j in range(1, 4):
            t = random_rational(rnd, 1, 2)
            jump = jump + (x - Polynomial.of(bp)) ** j * Polynomial.of(t)
        segs.append(segs[-1] + jump)
    return piecewise(points, segs)


def test_poisson_jensen_region_weights_match_one_sided_jets():
    points = [F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)]
    envelope = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))  # +-sqrt(2)
    functions = [_jumping_at(points, seed) for seed in (1, 2)]
    functions.append(linear_combine(functions[0], envelope, 1, 1))
    r = F(2)
    seen = set()
    for f in functions:
        n = f.degree_bound
        for x in (F(0), F(1), F(-1)):  # origin, and breakpoints on either side
            rep = poisson_jensen(f, x, r)
            assert rep.passed()
            for c in rep.contributions:
                y, j = c.location, c.order
                jet_plus = evaluate_jet(f, y, PLUS, n)[j]
                jet_minus = evaluate_jet(f, y, MINUS, n)[j]
                b, d = _region_weights(c.region, j, jet_plus, jet_minus, y)
                assert exact_sum([c.omega_weight, -b]) == 0, (y, j)
                assert exact_sum([c.gamma_weight, -d]) == 0, (y, j)
                seen.add((c.region, isinstance(y, F)))
    assert {region for region, _ in seen} == {f"F{k}" for k in range(1, 10)}
    assert any(not rational for _, rational in seen)


def test_each_function_is_analysed_once(showcase, monkeypatch):
    import tropicalc.singular as singular

    calls = []
    original = singular.omega_at

    def counted(f, x, *rest, **kwargs):
        calls.append(x)
        return original(f, x, *rest, **kwargs)

    monkeypatch.setattr(singular, "omega_at", counted)
    f = piecewise(showcase.breakpoints, showcase.segments)  # fresh, unanalysed
    scan(f)
    assert len(calls) == len(f.breakpoints) + 1  # every breakpoint and the origin
    jensen_report(f, R)
    characteristic(f, R)
    jensen_balance(f, R)
    poisson_jensen(f, F(1, 2), R)
    lemma31_sum(f, F(1, 2), R, RIGHT_TO_R)
    lemma31_sum(f, F(1, 2), R, LEFT_TO_MINUS_R)
    scan(f, (-1, 2), closed_right=True)
    counting(f, 2, R, sub=(-2, 1, True, False))
    counting(f, 1, R, sub=(1, 1, True, True))
    counting_profile(f, 1, R)
    classify(f)
    assert len(calls) == len(f.breakpoints) + 1


def test_order_sums_read_the_table_without_scan(showcase, monkeypatch):
    import tropicalc.curves as curves
    import tropicalc.nevanlinna as nevanlinna
    import tropicalc.singular as singular

    def refuse(*args, **kwargs):
        raise AssertionError("scan builds display rows; order sums must not need it")

    for module in (singular, nevanlinna, curves):
        monkeypatch.setattr(module, "scan", refuse, raising=module is singular)
    f = piecewise(showcase.breakpoints, showcase.segments)  # fresh, unanalysed
    assert characteristic(f, R) == proximity(f, R) + F(13, 2) + F(2)
    assert jensen_report(f, R).passed()
    assert jensen_balance(f, R) == 0
    lhs, rhs = counting_difference(f, R)
    assert lhs == rhs
    assert counting(f, 1, R, sub=(-1, 1, True, True)) == F(1, 2) * (2 + 5) * (R - 1)
    # classification and the curve checks read the same signed entries
    assert not classify(f).entire
    absx = piecewise([0], [[0, -1], [0, 1]])
    flags = classify(absx)
    assert flags.entire and not flags.nowhere_vanishing_entire
    assert lemma44_check(absx, F(1, 2), 2, 10).passed
    with pytest.raises(NotEntireComponent):
        curves.TropicalCurve((piecewise([], [[0, 0, -1]]),))
    assert curves.check_reduced(curves.curve([absx, absx])) == (False, (F(0), 1))
    assert curves.check_reduced(curves.curve([absx, constant(1)])) == (True, None)


def test_poisson_jensen_itemizes_contributions(showcase):
    rep = poisson_jensen(showcase, F(-3, 2), F(11, 4))
    assert rep.residual == 0
    assert len(rep.contributions) > 0
    locations = {c.location for c in rep.contributions}
    assert F(-2) in locations


# ---------------------------------------------------------------------------
# closed-form radius profiles


def test_characteristic_profile_on_arches(parabola_train):
    prof = characteristic_profile(parabola_train, 6)
    for r in [F(1, 2), F(3, 2), F(5, 2), F(7, 3), F(9, 2), F(3), F(5), F(11, 2)]:
        k = math.floor(r)
        want = -r * r / 2 + (2 * k + F(1, 2)) * r - k * (k + 1)
        assert prof(r) == want == characteristic(parabola_train, r)


def test_profile_flags_on_arches(parabola_train):
    flags = profile_flags(characteristic_profile(parabola_train, 6))
    assert flags.non_negative
    assert not flags.non_decreasing
    assert not flags.convex


def _hand_profile(breakpoints, segments, r_max):
    from tropicalc.nevanlinna import RadiusProfile

    return RadiusProfile("T", None, F(r_max), piecewise(breakpoints, segments))


def test_profile_flags_see_an_interior_dip():
    # r^2 - 2r + 1/2 dips below 0 between 1 -+ 1/sqrt(2), inside its piece
    dip = _hand_profile([3], [[F(1, 2), -2, 1], [F(-17, 2), 4]], 4)
    flags = profile_flags(dip)
    assert not flags.non_negative and not flags.non_decreasing and flags.convex
    assert profile_flags(_hand_profile([], [[F(1, 2), -2, 1]], F(1, 4))).non_negative


def test_profile_flags_see_negative_values_near_zero():
    # r - 1/10 is negative only on (0, 1/10); r^2 then takes over at r = 1
    early = _hand_profile([1], [[F(-1, 10), 1], [F(-1, 10), 0, 1]], 2)
    flags = profile_flags(early)
    assert not flags.non_negative and flags.non_decreasing and flags.convex


def test_profile_flags_allow_a_double_root():
    # (r - 1)^2 touches 0 at r = 1 and stays >= 0; its slope is negative on (0, 1)
    touch = profile_flags(_hand_profile([], [[1, -2, 1]], 3))
    assert touch.non_negative and not touch.non_decreasing and touch.convex
    # the same double root on a piece boundary, and at the right end of the domain
    assert profile_flags(_hand_profile([1], [[1, -2, 1], [0]], 3)).non_negative
    assert profile_flags(_hand_profile([], [[1, -2, 1]], 1)).non_negative


def test_profile_bundle_matches_pointwise(showcase):
    bundle = profile_bundle(showcase, 10)
    assert set(bundle) == {"m", "N1", "N2", "N3", "T"}
    for r in [F(1, 7), F(3, 2), R, F(17, 4), F(9)]:
        assert bundle["T"](r) == characteristic(showcase, r)
        assert bundle["m"](r) == proximity(showcase, r)
        assert bundle["N2"](r) == counting(showcase, 2, r)
    flags = profile_flags(bundle["T"])
    assert flags.non_negative and flags.non_decreasing and flags.convex


def test_profile_bundle_builds_each_profile_once(showcase, monkeypatch):
    import tropicalc.nevanlinna as nev

    calls = []
    for name in ("proximity_profile", "counting_profile"):
        original = getattr(nev, name)

        def counted(f, *rest, _name=name, _original=original):
            calls.append((_name, *rest[:1]))
            return _original(f, *rest)

        monkeypatch.setattr(nev, name, counted)
    bundle = profile_bundle(showcase, 10)
    assert calls == [
        ("proximity_profile", F(10)),
        ("counting_profile", 1),
        ("counting_profile", 2),
        ("counting_profile", 3),
    ]
    total = linear_combine(bundle["m"].profile, bundle["N1"].profile, 1, 1)
    total = linear_combine(total, bundle["N2"].profile, 1, 1)
    total = linear_combine(total, bundle["N3"].profile, 1, 1)
    assert bundle["T"].profile == total
    assert characteristic_profile(showcase, 10).profile == total


def test_profile_gating(showcase):
    prof = characteristic_profile(showcase, 4)
    with pytest.raises(ValueError):
        prof(F(9, 2))
    with pytest.raises(NonPositiveRadius):
        prof(0)


def test_counting_profile_requires_rational_data():
    from tropicalc.polyseg import constant, scale, tropical_plus

    f = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))
    neg = scale(f, -1)  # poles at +-sqrt(2)
    with pytest.raises(ValueError, match="rational"):
        counting_profile(neg, 1, 4)


def _neg_max_square_two():
    from tropicalc.polyseg import constant, scale, tropical_plus

    return scale(tropical_plus(piecewise([], [[0, 0, 1]]), constant(2)), -1)


@pytest.mark.parametrize("r_max", [F(1), F(7, 5)])
def test_counting_profile_skips_points_outside_the_radius(r_max):
    neg = _neg_max_square_two()  # poles at +-sqrt(2), outside (0, 7/5]
    assert counting_profile(neg, 1, r_max).profile.segments == (Polynomial.zero(),)
    bundle = profile_bundle(neg, r_max)
    for r in (r_max / 3, r_max / 2, r_max):
        assert bundle["T"](r) == characteristic(neg, r) == 0


def test_counting_profile_names_an_algebraic_point_inside():
    neg = _neg_max_square_two()
    with pytest.raises(AlgebraicSingularity, match="1.414214") as info:
        counting_profile(neg, 1, F(3, 2))
    assert isinstance(info.value, TropicalcError)
    assert poly_sign_at(Polynomial.of(-2, 0, 1), info.value.location) == 0


# ---------------------------------------------------------------------------
# shift bound machinery


def test_log_difference_linear():
    line = piecewise([], [[3, 1]])
    for r in [F(1), F(7, 2)]:
        assert log_difference(line, 1, 1, r) == 1
        assert log_difference(line, 1, -1, r) == 1
    with pytest.raises(ZeroShift):
        log_difference(line, 0, 1, 2)
    with pytest.raises(ValueError):
        log_difference(line, 1, 2, 2)


def test_lemma44_on_absolute_value():
    absx = piecewise([0], [[0, -1], [0, 1]])
    assert log_difference(absx, F(1, 2), 1, 10) == F(1, 2)
    rep = lemma44_check(absx, F(1, 2), 2, 10)
    assert rep.passed
    assert rep.lhs_plus == F(1, 2)
    js = rep.to_json()
    assert js["passed"] is True


def test_lemma44_requires_well_defined(parabola_train):
    with pytest.raises(NotWellDefined):
        lemma44_check(parabola_train, F(1, 2), 2, 10)


def test_lemma44_requires_large_radius():
    absx = piecewise([0], [[0, -1], [0, 1]])
    with pytest.raises(RadiusBelowThreshold):
        lemma44_check(absx, 1, 2, F(3, 2))


# ---------------------------------------------------------------------------
# the hyper-exponential family


def test_hyperexp_tail_is_exact():
    res = hyperexp(2, 2, (-6, 6), 64)
    assert res.tail_bound == F(131, 2**64)
    brute = sum(F(2 * t - 1, 2**t) for t in range(65, 130))
    assert abs(res.tail_bound - brute) < F(1, 2**115)


def test_hyperexp_jump_law():
    res = hyperexp(2, 2, (-6, 6), 64)
    for m in range(-5, 6):
        prof = omega_at(res.function, m, 2)
        for j in (1, 2):
            base = math.comb(2, j) * F(abs(m)) ** (2 - j) * F(2) ** (m - 1)
            if m == 0:
                base = F(0) if j < 2 else F(1, 2)  # 0^0 = 1 at the origin
            assert prof.omega_of(j) == base, (m, j)


def test_hyperexp_first_order_closed_form():
    res = hyperexp(1, 3, (-4, 4), 40)
    for x in [F(-7, 2), F(-1, 2), F(1, 3), F(5, 2)]:
        k = math.floor(x)
        want = F(3) ** k * (x - k + F(1, 2)) - res.tail_bound
        assert evaluate(res.function, x) == want


def test_hyperexp_is_entire_and_non_decreasing():
    from tropicalc.polyseg import MINUS, PLUS, evaluate_jet
    from tropicalc.singular import classify, scan

    res = hyperexp(2, 2, (-6, 6), 64)
    f = res.function
    flags = classify(f)
    assert flags.entire and flags.well_defined
    assert not scan(f).poles()
    # slopes are linear per segment: nonneg at both ends means nonneg throughout
    probes = [F(-100)] + list(f.breakpoints) + [F(100)]
    for x in probes:
        assert evaluate_jet(f, x, PLUS, 1)[1] >= 0, x
        assert evaluate_jet(f, x, MINUS, 1)[1] >= 0, x


# ---------------------------------------------------------------------------
# growth diagnostics


def test_growth_estimates_on_power_profile():
    f = piecewise([], [[0, 0, 0, 1]])  # r^3 on the positive axis
    prof = characteristic_profile(piecewise([], [[0]]), 10)
    # use a synthetic cubic profile directly through the public constructor
    from tropicalc.nevanlinna import RadiusProfile

    cubic = RadiusProfile("T", None, F(10), f)
    est = growth_estimates(cubic, [F(3), F(5), F(9)])
    for o in est.order_estimates:
        assert abs(o - 3) < F(1, 10**6)


def test_growth_estimates_reject_small_values(parabola_train):
    with pytest.raises(NonPositiveValues):
        growth_estimates(characteristic_profile(parabola_train, 8), [F(3, 2)])
