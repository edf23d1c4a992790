from fractions import Fraction as F

import pytest

from tropicalc.errors import EmptyWindow
from tropicalc.numeric import (
    RootValue,
    compare,
    scalar_eq,
    sort_scalars,
    value_sign,
)
from tropicalc.polyseg import (
    MINUS,
    PLUS,
    constant,
    evaluate_jet,
    linear_combine,
    piecewise,
    scale,
    shift,
    tropical_plus,
)
from tropicalc.randgen import random_function, random_rational, rng
from tropicalc.singular import (
    POLE,
    ROOT,
    classify,
    entire_decomposition,
    jump_matrix,
    omega_at,
    scan,
)


SHOWCASE_ROWS = [
    ("-2", 2, "pole", "7"),
    ("-2", 3, "root", "2"),
    ("-1", 1, "pole", "2"),
    ("-1", 2, "root", "1"),
    ("0", 2, "root", "2"),
    ("1", 1, "pole", "5"),
    ("1", 2, "pole", "1"),
    ("2", 1, "pole", "5"),
    ("2", 2, "root", "3"),
    ("2", 3, "root", "3"),
]


def test_showcase_full_table(showcase):
    table = scan(showcase)
    assert [s.as_row() for s in table.rows] == SHOWCASE_ROWS


def test_showcase_table_selectors(showcase):
    table = scan(showcase)
    assert table.max_order() == 3
    assert len(table.poles()) == 5
    assert len(table.roots()) == 5
    assert [s.location for s in table.poles(2)] == [F(-2), F(1)]
    assert [s.multiplicity for s in table.poles(2)] == [F(7), F(1)]
    assert [s.location for s in table.roots(3)] == [F(-2), F(2)]


def test_showcase_csv(showcase):
    csv = scan(showcase).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "location,order,kind,multiplicity"
    assert lines[1] == "-2,2,pole,7"
    assert len(lines) == 11


def test_origin_is_probed_even_without_breakpoint():
    hidden = piecewise([], [[0, 0, -1]])  # -x^2: no breakpoint at 0
    table = scan(hidden)
    assert [(s.location, s.order, s.kind, s.multiplicity) for s in table.rows] == [
        (F(0), 2, POLE, F(2))
    ]


def test_sign_square_is_smooth_everywhere(sign_square):
    assert len(scan(sign_square)) == 0
    mirrored = scale(sign_square, -1)
    assert len(scan(mirrored)) == 0


def test_even_jump_at_negative_location_is_a_pole():
    # positive curvature jump left of the origin counts against the function
    f = piecewise([-1], [[0, -1], [0, 0, 1]])
    prof = omega_at(f, -1)
    assert prof.tau_of(2) == F(1)
    assert prof.omega_of(2) == F(-1)
    table = scan(f)
    assert any(s.order == 2 and s.kind == POLE for s in table.rows)


def test_omega_shift_sign_square(sign_square):
    # x -> f(x+1) relocates the curvature flip to -1, where it turns hostile
    shifted = shift(sign_square, 1)
    prof = omega_at(shifted, -1)
    assert prof.tau_of(2) == F(2)
    assert prof.omega_of(2) == F(-2)
    rows = scan(shifted).poles(2)
    assert [(s.location, s.multiplicity) for s in rows] == [(F(-1), F(2))]


def test_omega_additivity_concrete(showcase, sign_square):
    g = linear_combine(showcase, sign_square, 1, 1)
    for x in [-2, -1, 0, 1, 2, F(1, 2)]:
        pf = omega_at(showcase, x)
        pg = omega_at(sign_square, x)
        ps = omega_at(g, x)
        n = max(len(pf.omega), len(pg.omega), len(ps.omega))
        for j in range(1, n + 1):
            assert ps.omega_of(j) == pf.omega_of(j) + pg.omega_of(j), (x, j)


def test_scan_window_boundaries(showcase):
    inner = scan(showcase, (-2, 2))
    assert {s.location for s in inner.rows} == {F(-1), F(0), F(1)}
    closed = scan(showcase, (-2, 2), closed_left=True, closed_right=True)
    assert {s.location for s in closed.rows} == {F(-2), F(-1), F(0), F(1), F(2)}
    with pytest.raises(EmptyWindow):
        scan(showcase, (3, 3))
    point = scan(showcase, (1, 1), closed_left=True, closed_right=True)
    assert [(s.location, s.order) for s in point.rows] == [(F(1), 1), (F(1), 2)]
    with pytest.raises(EmptyWindow):
        scan(showcase, (1, 1), closed_left=True)


def _direct_scan(f, lo, hi, closed_left, closed_right):
    """Window rows straight from omega_at at each candidate point, no table."""
    points = list(f.breakpoints)
    if not any(scalar_eq(p, 0) for p in points):
        points.append(F(0))
    rows = []
    for x in sort_scalars(points):
        cl, ch = compare(lo, x), compare(x, hi)
        if (cl < 0 or (cl == 0 and closed_left)) and (
            ch < 0 or (ch == 0 and closed_right)
        ):
            for order, _, w in omega_at(f, x).entries:
                kind = ROOT if value_sign(w) > 0 else POLE
                rows.append((x, order, kind, abs(w)))
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_windowed_scan_matches_direct_scan(seed):
    rnd = rng(seed)
    f = random_function(rnd, degree=3, max_breaks=6)
    if seed % 2:  # add crossings at +-sqrt(2)
        f = linear_combine(f, tropical_plus(piecewise([], [[0, 0, 1]]), constant(2)))
    scan(f)  # the table is built here; every window below filters it
    marks = sorted({*f.breakpoints[:3], F(0), random_rational(rnd)}, key=float)
    windows = [(a, a, True, True) for a in marks]  # closed point windows
    for _ in range(12):
        ends = [*marks, random_rational(rnd), random_rational(rnd)]
        lo, hi = sorted(rnd.sample(ends, 2), key=float)
        if compare(lo, hi) < 0:
            windows.append((lo, hi, rnd.random() < 0.5, rnd.random() < 0.5))
    for lo, hi, cl, cr in windows:
        got = scan(f, (lo, hi), closed_left=cl, closed_right=cr)
        rows = [(s.location, s.order, s.kind, s.multiplicity) for s in got.rows]
        assert rows == _direct_scan(f, lo, hi, cl, cr), (lo, hi, cl, cr)


def test_classify_flags():
    from tropicalc.polyseg import constant

    c = classify(constant(F(5, 3)))
    assert c.entire and c.nowhere_vanishing_entire and c.well_defined

    absx = piecewise([0], [[0, -1], [0, 1]])
    c = classify(absx)
    assert c.entire and not c.nowhere_vanishing_entire and c.well_defined

    c = classify(scale(absx, -1))
    assert not c.entire

    sgn_sq = piecewise([0], [[0, 0, -1], [0, 0, 1]])
    c = classify(sgn_sq)
    assert c.entire and c.nowhere_vanishing_entire and c.well_defined

    mixed = piecewise([], [[0, 1, 1]])  # x^2 + x: mixed parity
    c = classify(mixed)
    assert c.entire and not c.well_defined

    linear = piecewise([], [[7, -3]])  # any line is well defined
    assert classify(linear).well_defined


def test_jump_matrix_c_maps_coefficients_to_jets():
    from tropicalc.poly import Polynomial

    p = Polynomial.of(4, -1, 3, 2)  # 2x^3 + 3x^2 - x + 4
    x0 = F(3, 2)
    m = jump_matrix(x0, 3, "C")
    got = m.apply([-1, 3, 2])
    want = p.jet(x0, 3)[1:]
    assert got == want


def test_jump_matrix_solve_inverts_apply():
    m = jump_matrix(F(-5, 4), 4, "C")
    vec = [F(1), F(-2), F(3, 7), F(5)]
    assert m.solve(m.apply(vec)) == vec


def _omega_via_d_matrices(f, x0, n):
    from tropicalc.polyseg import governing_segment, MINUS, PLUS

    right = governing_segment(f, x0, PLUS)
    left = governing_segment(f, x0, MINUS)
    a = [right.coefficient(k) for k in range(1, n + 1)]
    b = [left.coefficient(k) for k in range(1, n + 1)]
    dp = jump_matrix(x0, n, "D_plus").apply(a)
    dm = jump_matrix(x0, n, "D_minus").apply(b)
    return [p - q for p, q in zip(dp, dm)]


@pytest.mark.parametrize("x0", [F(-2), F(-1), F(0), F(1), F(2)])
def test_omega_matches_d_matrix_formula(showcase, x0):
    n = showcase.degree_bound
    prof = omega_at(showcase, x0, n)
    assert list(prof.omega) == _omega_via_d_matrices(showcase, x0, n)


def _jumps_by_one_sided_jets(f, x, n):
    """(tau, omega) by omega_at's former body: two jets subtracted order by order."""
    jet_plus = evaluate_jet(f, x, PLUS, n)
    jet_minus = evaluate_jet(f, x, MINUS, n)
    s = value_sign(x)

    def collapse(v):
        if isinstance(v, RootValue) and v.is_rational:
            return v.as_fraction()
        return v

    tau, omega = [], []
    for j in range(1, n + 1):
        t = collapse(jet_plus[j] - jet_minus[j])
        tau.append(t)
        if s == 0:
            omega.append(collapse(jet_plus[j] + (-1) ** j * jet_minus[j]))
        else:
            omega.append(t if s ** (j + 1) > 0 else -t)
    return tau, omega


def _reference_cases(showcase, sign_square):
    x2, x3 = piecewise([], [[0, 0, 1]]), piecewise([], [[0, 0, 0, 1]])
    yield showcase, [-2, -1, 0, 1, 2, F(1, 2), F(-7, 3)]
    yield sign_square, [0, 1, F(-1, 2)]
    for f in (
        tropical_plus(x2, constant(2)),  # kinks at -sqrt2 and sqrt2
        tropical_plus(x2, piecewise([], [[1, 1]])),  # at the golden ratio and 1 - it
        tropical_plus(x3, piecewise([], [[0, 2]])),  # at -sqrt2, 0 and sqrt2
    ):
        yield f, [*f.breakpoints, 0, F(1, 3)]
    rnd = rng(21)
    for _ in range(8):
        f = random_function(rnd)
        yield f, [*f.breakpoints, 0, random_rational(rnd)]


def test_omega_at_matches_one_sided_jet_reference(showcase, sign_square):
    for f, points in _reference_cases(showcase, sign_square):
        for x in points:
            for n in (1, f.degree_bound, f.degree_bound + 2):
                prof = omega_at(f, x, n)
                tau, omega = _jumps_by_one_sided_jets(f, prof.location, n)
                assert list(prof.tau) == tau, (f, x, n)
                assert list(prof.omega) == omega, (f, x, n)
                got = [type(v) for v in (*prof.tau, *prof.omega)]
                assert got == [type(v) for v in (*tau, *omega)], (f, x, n)


def test_entire_decomposition_round_trip(showcase):
    h, g = entire_decomposition(showcase)
    assert classify(h).entire
    assert classify(g).entire
    diff = linear_combine(h, g, 1, -1)
    for k in range(-12, 13):
        x = F(k, 3)
        assert diff(x) == showcase(x), x
    # g's roots sit exactly on f's poles, same order and multiplicity
    g_roots = {(s.location, s.order): s.multiplicity for s in scan(g).roots()}
    f_poles = {(s.location, s.order): s.multiplicity for s in scan(showcase).poles()}
    for key, mult in f_poles.items():
        assert g_roots.get(key) == mult, key
    # h and g never share a root at the same location and order
    h_roots = {(s.location, s.order) for s in scan(h).roots()}
    assert not (h_roots & set(g_roots))


def test_entire_decomposition_with_seed(showcase):
    h, g = entire_decomposition(showcase, seed=[1, 2, 0, 1])
    assert classify(g).entire
    for k in range(-9, 10):
        x = F(k, 4)
        assert h(x) - g(x) == showcase(x)


def _decomposition_by_jump_matrices(f, seed):
    """g by entire_decomposition's former body: a triangular solve per pole."""
    from tropicalc.poly import Polynomial
    from tropicalc.singular import _profiles

    n = max(1, f.degree_bound)
    seed = [F(c) for c in seed] + [F(0)] * (n + 1 - len(seed))
    omega = {p.location: p.omega for p in _profiles(f)}

    def compensation(x):
        return [(-w if w < 0 else F(0)) for w in omega[x]]

    def segment(high, const):
        return Polynomial.from_coeffs([const, *high])

    pos_segs, pos_bps, cur = [segment(seed[1:], seed[0])], [], seed[1:]
    for x in [x for x in omega if x > 0]:
        comp = compensation(x)
        if not any(comp):
            continue
        jump = jump_matrix(x, n, "C").solve(comp)
        cur = [c + d for c, d in zip(cur, jump)]
        const = pos_segs[-1](x) - sum(c * x**k for k, c in enumerate(cur, start=1))
        pos_bps.append(x)
        pos_segs.append(segment(cur, const))
    comp0 = compensation(F(0))
    cur = [F(-1) ** (j + 1) * (seed[j] - comp0[j - 1]) for j in range(1, n + 1)]
    neg_segs, neg_bps = [segment(cur, seed[0])], []
    for x in reversed([x for x in omega if x < 0]):
        comp = compensation(x)
        if not any(comp):
            continue
        jump = jump_matrix(x, n, "D_minus").solve(comp)
        cur = [c - d for c, d in zip(cur, jump)]
        const = neg_segs[0](x) - sum(c * x**k for k, c in enumerate(cur, start=1))
        neg_bps.insert(0, x)
        neg_segs.insert(0, segment(cur, const))
    return piecewise([*neg_bps, F(0), *pos_bps], [*neg_segs, *pos_segs])


def test_entire_decomposition_matches_jump_matrix_solve(showcase):
    rnd = rng(11)
    cases = [(showcase, []), (showcase, [1, 2, 0, 1])]
    for k in range(40):
        seed = [random_rational(rnd) for _ in range(k % 5)]
        cases.append((random_function(rnd), seed))
    for f, seed in cases:
        _, g = entire_decomposition(f, seed or None)
        want = _decomposition_by_jump_matrices(f, seed)
        assert g.breakpoints == want.breakpoints, f
        assert g.segments == want.segments, f


def test_entire_decomposition_rejects_algebraic_breakpoints():
    from tropicalc.polyseg import constant, tropical_plus

    f = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))
    with pytest.raises(ValueError, match="rational"):
        entire_decomposition(f)
