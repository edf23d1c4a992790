"""`RadiusProfile` is the one place the domain (0, r_max] is decided.

A profile keeps only its breakpoints inside (0, r_max), so `profile_flags`,
`profile_json` and `--grid exact` read every piece as it is.  The code that
cut or skipped pieces outside the domain in each of them is kept below as a
reference and run on profiles that still reach past both ends.
"""

from fractions import Fraction as F

import pytest

from tropicalc import cli, randgen
from tropicalc.curves import cartan_profile
from tropicalc.errors import NonPositiveRadius
from tropicalc.nevanlinna import (
    POLES_OF_F,
    POLES_OF_NEG_F,
    ProfileFlags,
    RadiusProfile,
    counting,
    counting_profile,
    hyperexp,
    profile_bundle,
    profile_flags,
    profile_json,
)
from tropicalc.numeric import compare, poly_sign_at
from tropicalc.polyseg import (
    PiecewiseFunction,
    _index_left_of,
    constant,
    evaluate,
    linear_combine,
    piecewise,
    plus_part,
    reflect,
    sign_runs,
)
from tropicalc.singular import _format_scalar


# ---------------------------------------------------------------------------
# the domain cut itself


def _kinked(breakpoints):
    """A piecewise-linear function whose slope grows by k + 1 at breakpoint k."""
    segments = [(F(0), F(1))]
    for k, bp in enumerate(breakpoints):
        c0, c1 = segments[-1]
        segments.append((c0 - (k + 1) * bp, c1 + k + 1))
    return piecewise(breakpoints, segments)


def test_profile_keeps_only_the_breakpoints_inside_the_domain():
    r_max = F(4)
    f = _kinked([F(-1), F(0), r_max / 2, r_max, 2 * r_max])
    rp = RadiusProfile("T", None, r_max, f)
    assert rp.profile.breakpoints == (r_max / 2,)
    # the first piece starts at 0, the last one reaches r_max
    assert rp.profile.segments == (f.segments[2], f.segments[3])
    for r in [F(1, 3), r_max / 2, F(3), r_max]:
        assert rp(r) == evaluate(f, r)


def test_profile_domain_cut_is_idempotent():
    f = _kinked([F(-1), F(1), F(5)])
    rp = RadiusProfile("T", None, F(3), f)
    assert RadiusProfile("T", None, F(3), rp.profile) == rp
    assert rp.r_max == F(3) and isinstance(rp.r_max, F)
    assert RadiusProfile("T", None, "3", f) == rp


@pytest.mark.parametrize("r_max", [0, F(-1, 2)])
def test_profile_needs_a_positive_r_max(r_max):
    with pytest.raises(NonPositiveRadius):
        RadiusProfile("T", None, r_max, piecewise([], [[0, 1]]))


# ---------------------------------------------------------------------------
# references: the skip/clip/cut code that read profiles reaching past (0, r_max]


def _reference_tail_from_zero(f):
    lt, on = _index_left_of(f, F(0))
    idx = lt + 1 if on else lt
    keep = lt + (1 if on else 0)
    return PiecewiseFunction(f.breakpoints[keep:], f.segments[idx:])


def _reference_flags(prof, r_max):
    def nonneg_on(p, lo, hi):
        return p.is_zero or all(s > 0 for _, s in sign_runs(p, lo, hi))

    bounds = [F(0), *prof.breakpoints, None]
    nonneg = nondecr = convex = True
    for k, seg in enumerate(prof.segments):
        lo = bounds[k]
        hi = bounds[k + 1]
        if hi is not None and compare(hi, F(0)) <= 0:
            continue
        if compare(lo, r_max) >= 0:
            continue
        clip_lo = lo if compare(lo, F(0)) > 0 else F(0)
        clip_hi = hi if (hi is not None and compare(hi, r_max) < 0) else r_max
        nonneg = nonneg and nonneg_on(seg, clip_lo, clip_hi)
        nondecr = nondecr and nonneg_on(seg.derivative(), clip_lo, clip_hi)
        convex = convex and nonneg_on(seg.derivative(2), clip_lo, clip_hi)
    for k, bp in enumerate(prof.breakpoints):
        if compare(bp, F(0)) <= 0 or compare(bp, r_max) >= 0:
            continue
        jump = prof.segments[k + 1].derivative() - prof.segments[k].derivative()
        convex = convex and poly_sign_at(jump, bp) >= 0
    return ProfileFlags(nonneg, nondecr, convex)


def _reference_json(kind, prof, r_max):
    prof = _reference_tail_from_zero(prof)
    cut = len(prof.breakpoints)
    for k, bp in enumerate(prof.breakpoints):
        if compare(bp, r_max) >= 0:
            cut = k
            break
    return {
        "kind": kind,
        "r_max": str(r_max),
        "breakpoints": [_format_scalar(b) for b in prof.breakpoints[:cut]],
        "segments": [[str(c) for c in s.coeffs] for s in prof.segments[: cut + 1]],
    }


def _reference_grid(prof, r_max):
    radii = [bp for bp in prof.breakpoints if isinstance(bp, F) and 0 < bp <= r_max]
    if r_max not in radii:
        radii.append(r_max)
    return radii


def _uncut_bundle(f, r_max):
    """The bundle's profiles on the whole line (m) or on [0, 2 r_max] (N_j)."""
    fp = plus_part(f)
    m = linear_combine(fp, reflect(fp), F(1, 2), F(1, 2))
    out = {"m": m}
    total = m
    for j in range(1, max(1, f.degree_bound) + 1):
        out[f"N{j}"] = counting_profile(f, j, 2 * r_max).profile
        total = linear_combine(total, out[f"N{j}"], 1, 1)
    out["T"] = total
    return out


def _assert_matches_reference(rp, uncut, kind):
    assert profile_flags(rp) == _reference_flags(uncut, rp.r_max)
    assert profile_json(rp) == _reference_json(kind, uncut, rp.r_max)
    assert cli._grid_radii("exact", rp) == _reference_grid(uncut, rp.r_max)


def _random_case(seed):
    rnd = randgen.rng(seed)
    return randgen.random_function(rnd, max_breaks=4), F(rnd.randint(1, 12), 2)


def _staircase_case(seed):
    n, alpha, half = [(2, 2, 4), (3, F(3, 2), 4), (2, 3, 5), (3, 2, 5)][seed % 4]
    f = hyperexp(n, alpha, (-half, half), half + seed % 3).function
    return f, F(half - 1 - seed % 2)  # a breakpoint of f, or the window edge


@pytest.mark.parametrize(
    "case",
    [*(("random", s) for s in range(10)), *(("staircase", s) for s in range(4))],
    ids=lambda c: f"{c[0]}-{c[1]}",
)
def test_bundle_flags_and_json_match_the_reference(case):
    kind, seed = case
    f, r_max = (_random_case if kind == "random" else _staircase_case)(seed)
    bundle = profile_bundle(f, r_max)
    uncut = _uncut_bundle(f, r_max)
    assert set(bundle) == set(uncut)
    for key, rp in bundle.items():
        _assert_matches_reference(rp, uncut[key], key)
        for r in [r_max / 7, r_max / 2, r_max]:
            assert rp(r) == evaluate(uncut[key], r)


@pytest.mark.parametrize("r_max", [F(2), F(5, 2), F(10), F(11)])
def test_cartan_flags_and_json_match_the_reference(envelope_curve, r_max):
    env = envelope_curve.envelope()
    half = linear_combine(env, reflect(env), F(1, 2), F(1, 2))
    uncut = linear_combine(half, constant(evaluate(env, 0)), 1, -1)
    rp = cartan_profile(envelope_curve, r_max)
    _assert_matches_reference(rp, uncut, "T")
    assert rp.profile.breakpoints == tuple(
        bp for bp in uncut.breakpoints if 0 < bp < r_max
    )


# ---------------------------------------------------------------------------
# counting profiles


def test_a_pole_at_the_origin_counts_for_every_radius():
    neg_square = piecewise([], [[0, 0, -1]])  # an order-2 pole of weight 2 at 0
    rp = counting_profile(neg_square, 2, 5)
    assert rp.profile.breakpoints == ()
    for r in [F(1, 3), F(1), F(5, 2), F(5)]:
        assert rp(r) == counting(neg_square, 2, r) == r * r
    assert counting_profile(neg_square, 1, 5)(F(5, 2)) == 0


@pytest.mark.parametrize("seed", range(8))
def test_counting_profiles_match_pointwise_counting(seed):
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd, max_breaks=5)
    r_max = F(rnd.randint(1, 12), 2)
    for j in range(1, f.degree_bound + 1):
        for sign in [POLES_OF_F, POLES_OF_NEG_F]:
            rp = counting_profile(f, j, r_max, sign)
            assert all(0 < bp < r_max for bp in rp.profile.breakpoints)
            for r in [r_max / 5, r_max / 3, r_max / 2, r_max, *rp.profile.breakpoints]:
                assert rp(r) == counting(f, j, r, sign=sign), (j, sign, r)
