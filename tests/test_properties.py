"""Hypothesis and seeded-corpus checks of the library-wide invariants."""

import warnings
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import property_suites
from tropicalc.polyseg import MINUS, PLUS, scale
from tropicalc import (
    NotEntireComponent,
    POLES_OF_NEG_F,
    Polynomial,
    TropicalPolynomialMap,
    algebraic_root,
    cartan,
    cartan_profile,
    casoratian,
    characteristic,
    characteristic_profile,
    check_reduced,
    classify,
    compare,
    compose_tropical,
    constant,
    counting,
    counting_difference,
    counting_oracle,
    curve,
    evaluate,
    evaluate_jet,
    exact_sum,
    hyperexp,
    jensen_balance,
    jensen_report,
    linear_combine,
    piecewise,
    normalize,
    poisson_jensen,
    power,
    profile_flags,
    proximity,
    randgen,
    real_roots_in,
    refine,
    scan,
    shift,
    sort_scalars,
    tropical_plus,
    value_sign,
)

relaxed = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _is_zero(v):
    return v == 0 if isinstance(v, F) else value_sign(v) == 0


# ---------------------------------------------------------------------------
# the five seeded law suites (also re-run, timed, by the acceptance gate)


@pytest.mark.parametrize(
    "suite", property_suites.ALL_SUITES, ids=lambda s: s.__name__
)
def test_seeded_suite(suite):
    assert suite(100) == 100


# ---------------------------------------------------------------------------
# exact scalar arithmetic

SQRT2 = algebraic_root(Polynomial.of(-2, 0, 1), 1, 2)
NEG_SQRT3 = algebraic_root(Polynomial.of(-3, 0, 1), -2, -1)
GOLDEN = algebraic_root(Polynomial.of(-1, -1, 1), 1, 2)

SCALAR_POOL = [
    F(0), F(1), F(-1), F(3, 2), F(-7, 5), F(17, 12), F(-12, 7),
    SQRT2, NEG_SQRT3, GOLDEN,
]


@relaxed
@given(st.lists(st.sampled_from(SCALAR_POOL), min_size=3, max_size=3))
def test_compare_is_a_total_order(triple):
    a, b, c = triple
    assert compare(a, b) == -compare(b, a)
    assert compare(a, a) == 0
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0
    ordered = sort_scalars(triple)
    floats = [float(s) for s in ordered]
    assert floats == sorted(floats)


@relaxed
@given(st.sampled_from([SQRT2, NEG_SQRT3, GOLDEN]), st.integers(1, 30))
def test_refine_enclosures_are_nested(scalar, k):
    eps = F(1, 2**k)
    lo1, hi1 = refine(scalar, eps)
    lo2, hi2 = refine(scalar, eps / 2)
    assert lo1 <= lo2 <= hi2 <= hi1
    assert hi2 - lo2 <= eps / 2


ROOTLESS = Polynomial.of(1, 0, 1)
X2_MINUS_3 = Polynomial.of(-3, 0, 1)
SQRT3 = -NEG_SQRT3

# rationals of numerator and denominator up to 10^12: past any trial division
tall_fractions = st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**12))


@relaxed
@given(
    st.one_of(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=0,
            max_size=3,
            unique=True,
        ),
        st.lists(tall_fractions, min_size=1, max_size=4, unique=True),
    ),
    st.booleans(),
    st.sampled_from([ROOTLESS, X2_MINUS_3, Polynomial.of(1)]),
    st.fractions(min_value=-5, max_value=0, max_denominator=3),
    st.fractions(min_value=0, max_value=5, max_denominator=3),
)
# sqrt(3) snaps to 2, the neighbouring rational root, unless the snap must
# land inside sqrt(3)'s own isolating interval
@example([F(2)], False, X2_MINUS_3, F(0), F(2))
def test_root_isolation_finds_constructed_roots(roots, square_first, other, lo, hi):
    assume(lo < hi)
    p = other
    for i, root in enumerate(roots):
        factor = Polynomial.of(-root, 1)
        p = p * factor
        if square_first and i == 0:
            p = p * factor
    assume(1 <= p.degree <= 6)
    irrational = [NEG_SQRT3, SQRT3] if other == X2_MINUS_3 else []
    expected = sort_scalars(
        [r for r in [*roots, *irrational] if compare(lo, r) < 0 < compare(hi, r)]
    )
    assert real_roots_in(p, lo, hi) == expected
    every = real_roots_in(p)
    assert [r for r in every if isinstance(r, F)] == sorted(roots)
    algebraic = [r for r in every if not isinstance(r, F)]
    assert algebraic == irrational
    assert all(a.poly == X2_MINUS_3 for a in algebraic)


# ---------------------------------------------------------------------------
# piecewise algebra beyond the seeded suites


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_tropical_plus_matches_max_on_thousand_samples(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd, degree=2, max_breaks=3)
    g = randgen.random_function(rnd, degree=2, max_breaks=3)
    env = tropical_plus(f, g)
    for _ in range(1000):
        x = F(rnd.randint(-4000, 4000), rnd.choice([7, 11, 13, 97]))
        assert evaluate(env, x) == max(evaluate(f, x), evaluate(g, x))


@relaxed
@given(seeds, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_shift_round_trip(seed, c):
    f = randgen.random_function(randgen.rng(seed))
    assert normalize(shift(shift(f, c), -c)) == normalize(f)


@relaxed
@given(seeds, st.integers(1, 4))
def test_power_matches_pointwise_power(seed, k):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd, degree=2, max_breaks=3)
    fk = power(f, k)
    for _ in range(25):
        x = F(rnd.randint(-400, 400), 101)
        assert evaluate(fk, x) == evaluate(f, x) ** k


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_envelope_breakpoints_are_continuous(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd, degree=2, max_breaks=3)
    g = randgen.random_function(rnd, degree=2, max_breaks=3)
    env = tropical_plus(f, g)
    for bp in env.breakpoints:
        left = evaluate_jet(env, bp, MINUS, 0)[0]
        right = evaluate_jet(env, bp, PLUS, 0)[0]
        assert _is_zero(exact_sum([left, -right]))


# ---------------------------------------------------------------------------
# value-distribution identities on random data


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_jensen_balance_vanishes(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd)
    r = randgen.random_radius(rnd)
    assert jensen_balance(f, r) == 0
    # jensen_balance reads T(r, -f) off f's table; analysing -f must agree
    neg = scale(f, -1)
    n = max(1, f.degree_bound)
    assert characteristic(neg, r) == exact_sum(
        [
            proximity(neg, r),
            *(counting(f, j, r, sign=POLES_OF_NEG_F) for j in range(1, n + 1)),
        ]
    )
    reference = [characteristic(f, r), -characteristic(neg, r), -evaluate(f, 0)]
    assert exact_sum(reference) == 0


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_order_sums_match_per_order_counting(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd)
    if seed % 2:  # crossings at +-sqrt(2): each N_j is an ExactValue
        crossing = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))
        if seed % 4 == 3:  # order 1 a pole, order 2 a root: the sums too
            quartic = tropical_plus(piecewise([], [[0, 0, 0, 0, 1]]), constant(4))
            crossing = linear_combine(quartic, crossing, 1, -5)
        f = linear_combine(f, crossing)
    r = randgen.random_radius(rnd)
    n = max(1, f.degree_bound)
    roots = [-counting(f, j, r, sign=POLES_OF_NEG_F) for j in range(1, n + 1)]
    poles = [-counting(f, j, r) for j in range(1, n + 1)]
    report = jensen_report(f, r)
    assert exact_sum([report.root_sum, *roots]) == 0
    assert exact_sum([report.pole_sum, *poles]) == 0
    assert exact_sum([characteristic(f, r), -proximity(f, r), *poles]) == 0
    lhs, _ = counting_difference(f, r)
    assert exact_sum([lhs, *roots, *(-v for v in poles)]) == 0


def _reference_reduced(components):
    """check_reduced rebuilt from scan rows: a (location, order) root in all."""
    roots = [
        [(s.location, s.order) for s in scan(comp).rows if s.kind == "root"]
        for comp in components
    ]
    for loc, order in roots[0]:
        if all(
            any(o == order and compare(l, loc) == 0 for l, o in other)
            for other in roots[1:]
        ):
            return False, (loc, order)
    return True, None


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_signed_entries_match_scan_rows(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd, degree=3, max_breaks=4)
    a = randgen.random_entire(rnd, max_breaks=3)
    b = a if seed % 3 == 0 else randgen.random_entire(rnd, max_breaks=3)
    if seed % 2:  # roots of orders 1 and 2 at +-sqrt(2)
        crossing = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))
        f = linear_combine(f, crossing)
        a = linear_combine(a, crossing)
        if seed % 4 == 3:
            b = linear_combine(b, crossing)
    for fn in (f, a, b):
        table = scan(fn)
        got = classify(fn)
        assert got.entire == (not table.poles())
        assert got.nowhere_vanishing_entire == (got.entire and not table.roots())
    poles = scan(f).poles()
    if poles:
        with pytest.raises(NotEntireComponent) as caught:
            curve([a, f])
        assert (caught.value.index, caught.value.location) == (1, poles[0].location)
    else:
        curve([a, f])
    components = [a, b, randgen.random_gauge(rnd)] if seed % 5 == 0 else [a, b]
    ok, witness = check_reduced(curve(components))
    expected_ok, expected_witness = _reference_reduced(components)
    assert ok == expected_ok
    if not ok:
        assert witness[1] == expected_witness[1]
        assert compare(witness[0], expected_witness[0]) == 0


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_poisson_jensen_residual_vanishes(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd)
    r = randgen.random_radius(rnd)
    x = randgen.random_interior_point(rnd, f, r)
    rep = poisson_jensen(f, x, r)
    assert rep.residual == 0
    assert rep.reconstructed == evaluate(f, x)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_poisson_jensen_at_origin_specializes_to_jensen(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd)
    r = randgen.random_radius(rnd)
    pj = poisson_jensen(f, F(0), r)
    jr = jensen_report(f, r)
    assert pj.boundary_mean == jr.boundary_mean
    assert pj.reconstructed == jr.reconstructed
    assert pj.residual == 0 == jr.residual


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_counting_difference_identity(seed):
    rnd = randgen.rng(seed)
    h = randgen.random_function(rnd)
    r = randgen.random_radius(rnd)
    lhs, rhs = counting_difference(h, r)
    assert lhs == rhs


@settings(max_examples=8, deadline=None)
@given(seeds, st.integers(1, 2))
def test_counting_oracle_tracks_closed_form(seed, j):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd, degree=2, max_breaks=3)
    r = F(4)
    mesh = F(1, 64)
    exact = counting(f, j, r)
    approx = counting_oracle(f, j, r, mesh)
    mass = sum(
        (s.multiplicity for s in scan(f, (-r, r)).poles(j)), F(0)
    )
    slack = mesh * (1 + mass) * j * max(F(1), r) ** j
    assert abs(exact - approx) <= slack


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_well_defined_characteristic_is_monotone_convex(seed):
    f = randgen.random_well_defined(randgen.rng(seed))
    flags = profile_flags(characteristic_profile(f, 6))
    assert flags.non_negative
    assert flags.non_decreasing
    assert flags.convex


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [F(3, 2), F(2), F(3)])
def test_hyperexp_is_entire_and_non_decreasing(n, alpha):
    h = hyperexp(n, alpha, (-6, 6), 48).function
    assert classify(h).entire
    probes = [F(-100), *h.breakpoints, F(100)]
    for x in probes:
        assert evaluate_jet(h, x, PLUS, 1)[1] >= 0
        assert evaluate_jet(h, x, MINUS, 1)[1] >= 0


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_proximity_is_mean_of_plus_parts(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd)
    r = randgen.random_radius(rnd)
    expected = (max(evaluate(f, r), F(0)) + max(evaluate(f, -r), F(0))) / 2
    assert proximity(f, r) == expected


# ---------------------------------------------------------------------------
# curves: gauge invariance, two-component identity, bounded component ratios


def _radii():
    return [F(1, 2), F(1), F(3, 2), F(2), F(3), F(4), F(5), F(6)]


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_cartan_profile_is_gauge_invariant(seed):
    rnd = randgen.rng(seed)
    cur = randgen.random_linear_curve(rnd)
    lam = randgen.random_gauge(rnd)
    gauged = curve(
        tuple(linear_combine(comp, lam, 1, 1) for comp in cur.components)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = cartan_profile(cur, 6)
        moved = cartan_profile(gauged, 6)
    for r in _radii():
        assert base(r) == moved(r)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_cartan_equals_characteristic_of_the_ratio(seed):
    rnd = randgen.rng(seed)
    cur = randgen.random_linear_curve(rnd)
    reduced, _ = check_reduced(cur)
    assume(reduced)
    f0, f1 = cur.components
    diff = linear_combine(f1, f0, 1, -1)
    for r in _radii():
        t_alt = characteristic(diff, r) - max(evaluate(diff, 0), F(0))
        assert cartan(cur, r) == t_alt


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_component_ratio_excess_stabilizes_on_doubling_grid(seed):
    rnd = randgen.rng(seed)
    cur = randgen.random_linear_curve(rnd)
    reduced, _ = check_reduced(cur)
    assume(reduced)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, l in [(0, 1), (1, 0)]:
            diff = linear_combine(cur.components[i], cur.components[l], 1, -1)
            excess = [
                characteristic(diff, F(2) ** k) - cartan(cur, F(2) ** k)
                for k in range(10)
            ]
            assert max(excess[:8]) == max(excess)


# ---------------------------------------------------------------------------
# Casoratian symmetry and gauge behaviour


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_casoratian_is_permutation_symmetric(seed):
    rnd = randgen.rng(seed)
    cur = randgen.random_linear_curve(rnd, arity=3)
    base = normalize(casoratian(cur))
    for perm in permutations(range(3)):
        permuted = curve(tuple(cur.components[i] for i in perm))
        assert normalize(casoratian(permuted)) == base


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_casoratian_gauge_identity(seed):
    rnd = randgen.rng(seed)
    cur = randgen.random_linear_curve(rnd)
    g = randgen.random_entire(rnd, degree=2, max_breaks=2)
    gauged = curve(
        tuple(linear_combine(comp, g, 1, 1) for comp in cur.components)
    )
    lhs = casoratian(gauged)
    rhs = linear_combine(
        linear_combine(g, shift(g, 1), 1, 1), casoratian(cur), 1, 1
    )
    for k in range(-12, 13):
        x = F(k, 3)
        assert _is_zero(exact_sum([evaluate(lhs, x), -evaluate(rhs, x)]))


@settings(max_examples=20, deadline=None)
@given(
    seeds,
    st.integers(1, 3),
    st.lists(
        st.one_of(
            st.none(),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        min_size=4,
        max_size=4,
    ),
)
def test_compose_tropical_matches_direct_max(seed, degree, raw_coeffs):
    coeffs = raw_coeffs[: degree + 1]
    assume(any(c is not None for c in coeffs))
    monomials = tuple(
        ((degree - i, i), c) for i, c in enumerate(coeffs)
    )
    p = TropicalPolynomialMap(monomials, degree)
    rnd = randgen.rng(seed)
    cur = randgen.random_linear_curve(rnd)
    composed = compose_tropical(p, cur)
    f0, f1 = cur.components
    for k in range(-12, 13):
        x = F(k, 2)
        direct = max(
            c + e0 * evaluate(f0, x) + e1 * evaluate(f1, x)
            for (e0, e1), c in monomials
            if c is not None
        )
        assert evaluate(composed, x) == direct
