import warnings
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce
from itertools import permutations

import pytest

from tropicalc.curves import (
    FermatForm,
    _window_count,
    TropicalCurve,
    TropicalPolynomialMap,
    cartan,
    cartan_profile,
    casoratian,
    casoratian_balance,
    check_reduced,
    compose_fermat,
    compose_tropical,
    curve,
    fermat_bounds,
    smt_homogeneous_check,
)
from tropicalc.errors import (
    AllNegInfinity,
    ArityMismatch,
    MissingPurePowers,
    NonLinearComponents,
    NotEntireComponent,
    TooManyComponents,
)
from tropicalc.nevanlinna import POLES_OF_F, POLES_OF_NEG_F, characteristic, counting
from tropicalc import randgen
from tropicalc.numeric import exact_sum, scalar_eq, value_sign
from tropicalc.poly import Polynomial
from tropicalc.polyseg import (
    constant,
    evaluate,
    linear_combine,
    piecewise,
    scale,
    shift,
    tropical_plus,
)


ABS = tropical_plus(piecewise([], [[0, 1]]), piecewise([], [[0, -1]]))


# ---------------------------------------------------------------------------
# curve construction and reduction


def test_components_must_be_entire():
    with pytest.raises(NotEntireComponent) as exc:
        TropicalCurve((piecewise([], [[0, 0, -1]]),))  # -x^2 hides a pole at 0
    assert exc.value.index == 0
    assert exc.value.location == F(0)


def test_check_reduced_flags_shared_roots():
    ok, witness = check_reduced(curve([ABS, ABS]))
    assert not ok
    assert witness == (F(0), 1)
    ok, witness = check_reduced(
        curve([piecewise([0], [[0, 0, -1], [0, 0, 1]]), constant(0)])
    )
    assert ok and witness is None


def test_non_reduced_curves_warn(mirror_curve):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cartan(curve([ABS, ABS]), 2)
    assert any("not reduced" in str(w.message) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cartan(mirror_curve, 2)
    assert not caught


def test_curve_order_and_arity(mirror_curve):
    assert mirror_curve.arity == 2
    assert mirror_curve.order == 2
    assert curve([constant(0), ABS]).order == 1


# ---------------------------------------------------------------------------
# height via the joint envelope


def test_cartan_of_mirror_parabolas(mirror_curve):
    for r in [F(2), F(5, 2), F(7)]:
        assert cartan(mirror_curve, r) == r * r


def test_cartan_profile_matches_pointwise(mirror_curve):
    prof = cartan_profile(mirror_curve, 10)
    for r in [F(1, 2), F(3), F(19, 2)]:
        assert prof(r) == r * r == cartan(mirror_curve, r)


def test_cartan_is_characteristic_of_the_ratio(envelope_curve):
    # for a reduced pair, the height equals T of the difference, re-normalized
    f0, f1 = envelope_curve.components
    diff = linear_combine(f1, f0, 1, -1)
    for r in [F(3), F(5), F(9)]:
        t_alt = exact_sum(
            [characteristic(diff, r), -max(evaluate(diff, 0), F(0))]
        )
        gap = exact_sum([cartan(envelope_curve, r), -t_alt])
        assert (gap == 0) if isinstance(gap, F) else value_sign(gap) == 0


# ---------------------------------------------------------------------------
# polynomial maps and composition


def test_map_validates_exponents():
    with pytest.raises(ValueError):
        TropicalPolynomialMap((((1, 0), 0), ((0, 2), 0)), 2)  # degree mismatch
    with pytest.raises(ArityMismatch):
        TropicalPolynomialMap((((1, 0), 0), ((0, 1, 0), 0)), 1)
    with pytest.raises(AllNegInfinity):
        TropicalPolynomialMap((((1, 0), None), ((0, 1), None)), 1)


def test_compose_tropical_matches_direct_max(mirror_curve):
    f0, f1 = mirror_curve.components
    p = TropicalPolynomialMap((((2, 0), F(1, 2)), ((1, 1), None), ((0, 2), -1)), 2)
    comp = compose_tropical(p, mirror_curve)
    for k in range(-12, 13):
        x = F(k, 3)
        want = max(F(1, 2) + 2 * evaluate(f0, x), -1 + 2 * evaluate(f1, x))
        assert evaluate(comp, x) == want


def test_compose_tropical_checks_arity(mirror_curve):
    p = TropicalPolynomialMap((((1,), 0),), 1)
    with pytest.raises(ArityMismatch):
        compose_tropical(p, mirror_curve)


def test_fermat_form_invariants():
    q = FermatForm((1, 2), 2)
    assert q.theta == 1
    assert q.big_theta == 6
    with pytest.raises(ValueError, match="positive"):
        FermatForm((1, 0), 2)
    with pytest.raises(ValueError):
        FermatForm((1, 1), 0)


def test_compose_fermat_on_flat_curve():
    flat = curve([constant(0), piecewise([], [[0, 2]])])
    g = compose_fermat(FermatForm((1, 2), 2), flat)
    assert g.breakpoints == ()
    assert tuple(g.segments[0].coeffs) == (F(0), F(0), F(8))


# ---------------------------------------------------------------------------
# homogeneous band check


def test_smt_band_on_envelope_curve(envelope_curve, max_of_two):
    rep = smt_homogeneous_check(max_of_two, envelope_curve, [3, 5, 9])
    assert rep.degree == 1
    assert rep.band == (F(0), F(0))
    for row in rep.rows:
        assert isinstance(row.residual, F) and row.residual == 0
        assert isinstance(row.identity_gap, F) and row.identity_gap == 0
        assert row.in_band
        assert value_sign(row.poles_sum) > 0
    assert rep.passed
    js = rep.to_json()
    assert js["passed"] is True
    assert len(js["rows"]) == 3


def test_smt_composite_poles_sit_at_algebraic_crossings(
    envelope_curve, max_of_two
):
    from tropicalc.numeric import algebraic_root, scalar_eq
    from tropicalc.singular import scan

    composite = compose_tropical(max_of_two, envelope_curve)
    poles2 = scan(composite, (-9, 9)).poles(2)
    # crossings of x^2 against the line fan: one per stair, at 2k+1 - sqrt(2)/2
    expected = []
    for k in range(5):
        c = 2 * k + 1
        poly = Polynomial.of(c * c - F(1, 2), -2 * c, 1)  # (x-c)^2 - 1/2
        expected.append(algebraic_root(poly, c - 1, c))
    assert len(poles2) == len(expected)
    for got, want in zip(poles2, expected):
        assert scalar_eq(got.location, want)
        assert got.multiplicity == 1


def test_smt_requires_every_pure_power(mirror_curve):
    p = TropicalPolynomialMap((((1, 1), 0), ((2, 0), 0)), 2)
    with pytest.raises(MissingPurePowers) as exc:
        smt_homogeneous_check(p, mirror_curve, [2])
    assert exc.value.variable == 1


# ---------------------------------------------------------------------------
# Fermat ratio windows


def test_fermat_flat_curve_fails_growth():
    flat = curve([constant(0), piecewise([], [[0, 2]])])
    rep = fermat_bounds(FermatForm((1, 2), 2), flat, [10, 20, 40])
    for row in rep.rows:
        assert row.cartan_value == row.r
        assert row.pole_sum == 8 * row.r**2
        assert row.ratio == 8
        assert row.growth_diagnostic == 1
        assert row.in_window is False
    assert rep.passed is False


def test_fermat_staircase_attains_lower_bound(staircase_odd):
    g = curve([constant(0), staircase_odd])
    rep = fermat_bounds(FermatForm((1, 1), 1), g, [10, 20, 40])
    assert rep.theta == 1 and rep.big_theta == 2
    assert rep.rows[0].cartan_value == F(41, 2)
    assert rep.rows[0].pole_sum == F(41, 2)
    for row in rep.rows:
        assert row.ratio == 1
        assert row.in_window is True
    assert rep.passed


def test_fermat_staircase_pair_attains_upper_bound(staircase_odd, staircase_even):
    h = curve([staircase_odd, staircase_even])
    rep = fermat_bounds(FermatForm((1, 1), 1), h, [10, 20, 40])
    assert rep.rows[0].cartan_value == F(41, 2)
    assert rep.rows[0].pole_sum == F(81, 2)
    assert rep.rows[0].ratio == F(81, 41)
    for row in rep.rows:
        assert abs(row.ratio - 2) <= F(10) / row.r
        assert row.in_window is True
    assert rep.passed


def test_fermat_zero_height_rows_are_skipped():
    both_flat = curve([constant(0), constant(1)])
    rep = fermat_bounds(FermatForm((1, 1), 1), both_flat, [5])
    row = rep.rows[0]
    assert row.cartan_value == 0
    assert row.ratio is None and row.in_window is None


def test_fermat_rows_left_unchecked_do_not_fail():
    # T = 0 on the whole grid: no row is checked, so none can fail
    both_flat = curve([constant(0), constant(1)])
    rep = fermat_bounds(FermatForm((1, 2), 2), both_flat, [1, 2, 3])
    assert [row.in_window for row in rep.rows] == [None, None, None]
    assert rep.passed is True
    assert rep.to_json()["passed"] is True
    # one checked row out of the window still fails the report
    flat = curve([constant(0), piecewise([], [[0, 2]])])
    mixed = fermat_bounds(FermatForm((1, 2), 2), flat, [10])
    rows = (*rep.rows, *mixed.rows)
    assert [row.in_window for row in rows] == [None, None, None, False]
    assert replace(rep, rows=rows).passed is False


def test_fermat_requires_linear_components(mirror_curve):
    with pytest.raises(NonLinearComponents):
        fermat_bounds(FermatForm((1, 1), 1), mirror_curve, [5])


# ---------------------------------------------------------------------------
# max-plus determinant


def test_casoratian_of_mirror_parabolas(mirror_curve):
    c0 = casoratian(mirror_curve)
    assert c0.breakpoints == (F(-1), F(0))
    assert [tuple(s.coeffs) for s in c0.segments] == [
        (F(-1), F(-2)),
        (F(1), F(2), F(2)),
        (F(1), F(2)),
    ]
    assert (
        str(c0)
        == "[-2x - 1 | x <= -1 ; 2x^2 + 2x + 1 | -1 < x <= 0 ; 2x + 1 | 0 < x]"
    )


def test_casoratian_is_permutation_invariant(mirror_curve):
    f0, f1 = mirror_curve.components
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert casoratian(curve([f1, f0])) == casoratian(mirror_curve)


def test_casoratian_arity_cap():
    with pytest.raises(TooManyComponents):
        casoratian(curve([constant(k) for k in range(10)]))


def _casoratian_by_permutations(c, step):
    """The definition: max over permutations pi of sum_i f_i(x + pi(i)*step)."""
    terms = []
    for perm in permutations(range(c.arity)):
        acc = shift(c.components[0], perm[0] * step)
        for i, k in enumerate(perm[1:], 1):
            acc = linear_combine(acc, shift(c.components[i], k * step), 1, 1)
        terms.append(acc)
    return reduce(tropical_plus, terms)


def _reference_curve(arity, kind):
    """Linear components; the same plus a quadratic gauge; or quadratics."""
    rnd = randgen.rng(100 + arity)
    if kind == "quadratic":
        return curve(
            randgen.random_entire(rnd, degree=2, max_breaks=2) for _ in range(arity)
        )
    small = arity == 6  # 720 permutations: keep the reference fold cheap
    cur = randgen.random_linear_curve(rnd, arity=arity, max_roots=1 if small else 3)
    if kind == "linear":
        return cur
    g = randgen.random_entire(rnd, degree=2, max_breaks=1 if small else 2)
    return curve(linear_combine(comp, g, 1, 1) for comp in cur.components)


@pytest.mark.parametrize(
    "arity, kind, step",
    [
        (arity, kind, step)
        for arity in range(2, 6)
        for kind in ("linear", "gauged", "quadratic")
        for step in (F(1), F(1, 2))
    ]
    + [(6, "linear", F(1)), (6, "gauged", F(1, 2))],
)
def test_casoratian_matches_the_permutation_fold(arity, kind, step):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cur = _reference_curve(arity, kind)
    got = casoratian(cur, step)
    want = _casoratian_by_permutations(cur, step)
    assert got.segments == want.segments
    assert len(got.breakpoints) == len(want.breakpoints)
    assert all(scalar_eq(a, b) for a, b in zip(got.breakpoints, want.breakpoints))


def test_casoratian_gauge_identity(mirror_curve):
    f0, f1 = mirror_curve.components
    g = piecewise([1], [[-1, 1], [-3, 3]])  # pole-free: max(x-1, 3x-3)
    gauged = curve([linear_combine(f0, g, 1, 1), linear_combine(f1, g, 1, 1)])
    lhs = casoratian(gauged)
    rhs = linear_combine(
        linear_combine(g, shift(g, 1), 1, 1), casoratian(mirror_curve), 1, 1
    )
    for k in range(-20, 21):
        x = F(k, 4)
        assert evaluate(lhs, x) == evaluate(rhs, x)


def test_casoratian_balance_mirror_rows(mirror_curve):
    rep = casoratian_balance(mirror_curve, [F(2), F(3), F(10)])
    for row in rep.rows:
        r = row.r
        assert row.lhs == r * r
        assert row.shift_pole_block == 2 * r - 1
        assert row.window_block == (r - 1) ** 2
        assert row.excess == 0
    # quadratic components leave no linear tail data to compare
    assert rep.component_tail_slope is None
    assert rep.tail_slopes_equal is None


def test_casoratian_balance_tail_slopes(staircase_odd, staircase_even):
    rep = casoratian_balance(
        curve([staircase_odd, staircase_even]), [F(5)]
    )
    assert rep.component_tail_slope == F(83, 2)
    assert rep.casoratian_tail_slope == F(83, 2)
    assert rep.tail_slopes_equal is True
    js = rep.to_json()
    assert js["tail_slopes_equal"] is True


# ---------------------------------------------------------------------------
# each curve is analysed once


@pytest.fixture
def sums_formed(monkeypatch):
    """Counts the pointwise sums `curves` forms: each build of a Casoratian
    or a composite forms some, and no report forms any of its own."""
    import tropicalc.curves as curves_module

    calls = []
    original = curves_module.linear_combine

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(curves_module, "linear_combine", counted)
    return calls


def test_casoratian_is_built_once_per_curve_and_step(sums_formed):
    cur = randgen.random_linear_curve(randgen.rng(5), arity=3, max_roots=3)
    before = (repr(cur), hash(cur))
    c0 = casoratian(cur, 1)
    per_build = len(sums_formed)
    assert per_build > 0
    report = casoratian_balance(cur, [F(2), F(3)], 1)
    assert len(sums_formed) == per_build
    assert casoratian(cur, "1") is c0
    assert casoratian(cur, F(1)) is c0
    assert len(sums_formed) == per_build
    half = casoratian(cur, F(1, 2))
    casoratian_balance(cur, [F(2)], F(1, 2))
    assert half is not c0
    assert len(sums_formed) == 2 * per_build
    assert (repr(cur), hash(cur)) == before

    twin = TropicalCurve(cur.components)
    assert twin == cur and hash(twin) == hash(cur) and repr(twin) == repr(cur)
    assert casoratian_balance(twin, [F(2), F(3)], 1) == report
    assert len(sums_formed) == 3 * per_build
    assert casoratian(twin, 1) is not c0 and casoratian(twin, 1) == c0


def test_composite_is_built_once_per_curve_and_map(sums_formed):
    rnd = randgen.rng(11)
    cur = curve(randgen.random_entire(rnd, degree=2, max_breaks=2) for _ in range(2))
    p = TropicalPolynomialMap(
        (((2, 0), F(1)), ((1, 1), F(-1, 2)), ((0, 2), F(0))), 2
    )
    before = (repr(cur), hash(cur))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = compose_tropical(p, cur)
        per_build = len(sums_formed)
        assert per_build > 0
        report = smt_homogeneous_check(p, cur, [F(1), F(5, 2)])
        assert len(sums_formed) == per_build
        same_map = TropicalPolynomialMap(p.monomials, p.degree)
        assert compose_tropical(same_map, cur) is g
        assert len(sums_formed) == per_build
        q = TropicalPolynomialMap((((2, 0), F(0)), ((0, 2), F(0))), 2)
        compose_tropical(q, cur)
        both = len(sums_formed)
        assert both > per_build
        smt_homogeneous_check(q, cur, [F(1)])
        assert len(sums_formed) == both
        assert (repr(cur), hash(cur)) == before

        twin = TropicalCurve(cur.components)
        assert twin == cur and hash(twin) == hash(cur) and repr(twin) == repr(cur)
        assert smt_homogeneous_check(p, twin, [F(1), F(5, 2)]) == report
        assert compose_tropical(p, twin) is not g
        assert compose_tropical(p, twin) == g
    assert len(sums_formed) == both + per_build


def _window_count_by_open_clipping(fn, j, r, lo, hi, sign):
    """The reference: the closed window clipped open at +-r where it leaves
    the disk, a point window counted only when closed on both sides."""
    lo, hi = F(lo), F(hi)
    closed_lo = closed_hi = True
    if lo < -r:
        lo, closed_lo = -r, False
    if hi > r:
        hi, closed_hi = r, False
    if lo > hi or (lo == hi and not (closed_lo and closed_hi)):
        return F(0)
    return counting(fn, j, r, (lo, hi, closed_lo, closed_hi), sign)


@pytest.mark.parametrize("seed", range(4))
def test_window_count_matches_the_open_clipping(seed):
    rnd = randgen.rng(seed)
    cur = randgen.random_linear_curve(rnd, arity=3)
    fns = [*cur.components, randgen.random_function(rnd, degree=2, max_breaks=3)]
    for fn in fns:
        # radii at breakpoints put singular points on the circle |z| = r
        radii = sorted({F(1, 2), F(3), *(abs(bp) for bp in fn.breakpoints if bp != 0)})
        for step in (F(1), F(-1), F(1, 2), F(-1, 2)):
            shifted = shift(fn, step)
            for i in range(3):
                windows = ((-2 * i * step, 0), (-i * step, i * step))
                for g, (lo, hi), r, j, sign in (
                    (g, w, r, j, sign)
                    for g in (fn, shifted)
                    for w in windows
                    for r in radii
                    for j in (1, 2)
                    for sign in (POLES_OF_F, POLES_OF_NEG_F)
                ):
                    want = _window_count_by_open_clipping(g, j, r, lo, hi, sign)
                    assert _window_count(g, j, r, lo, hi, sign) == want
