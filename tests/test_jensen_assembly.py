"""`jensen_report` is the one place the Jensen identity is assembled.

`jensen_balance`, `counting_difference` and the rows of
`smt_homogeneous_check` read it.  The bodies these functions had when each
assembled the identity itself are kept below as references.
"""

from fractions import Fraction as F

import pytest

import tropicalc.curves as curves
import tropicalc.nevanlinna as nev
from tropicalc import randgen
from tropicalc.numeric import exact_sum
from tropicalc.polyseg import constant, evaluate, linear_combine, piecewise, tropical_plus

SEEDS = range(36)


def _reference_proximity(at_r, at_minus_r):
    def clamp(v):
        return v if v > 0 else F(0)

    return (clamp(at_r) + clamp(at_minus_r)) / 2


def _reference_jensen_balance(f, r):
    """T(r, f) - T(r, -f) - f(0), each characteristic summed on its own."""
    r = F(r)
    f_r, f_mr = evaluate(f, r), evaluate(f, -r)
    roots, poles = nev._disk_sums(f, r)
    return exact_sum(
        [
            _reference_proximity(f_r, f_mr),
            poles,
            -_reference_proximity(-f_r, -f_mr),
            -roots,
            -evaluate(f, 0),
        ]
    )


def _reference_counting_difference(h, r):
    r = F(r)
    roots, poles = nev._disk_sums(h, r)
    lhs = exact_sum([roots, -poles])
    rhs = exact_sum(
        [
            exact_sum([evaluate(h, r), evaluate(h, -r)]) * F(1, 2),
            -evaluate(h, 0),
        ]
    )
    return lhs, rhs


def _function(seed):
    """A random function; seeds 1 and 2 mod 3 add algebraic crossings.

    Seeds 1 mod 3 add max(x^2, 2), whose crossings at +-sqrt(2) make every
    order sum an ExactValue.  Seeds 2 mod 3 add max(x^4, 4) - 5 max(x^2, 2),
    whose reducible defining polynomial x^4 - 4 leaves ExactValue residuals.
    """
    rnd = randgen.rng(seed)
    f = randgen.random_function(rnd)
    if seed % 3:
        crossing = tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))
        if seed % 3 == 2:
            quartic = tropical_plus(piecewise([], [[0, 0, 0, 0, 1]]), constant(4))
            crossing = linear_combine(quartic, crossing, 1, -5)
        f = linear_combine(f, crossing)
    return f, randgen.random_radius(rnd)


def _same_value(new, old):
    """A literal zero difference, and a Fraction exactly when the other is."""
    difference = exact_sum([new, -old])
    return isinstance(difference, F) and difference == 0 and (
        isinstance(new, F) == isinstance(old, F)
    )


def test_jensen_balance_matches_the_reference():
    kinds = set()
    for seed in SEEDS:
        f, r = _function(seed)
        new, old = nev.jensen_balance(f, r), _reference_jensen_balance(f, r)
        assert _same_value(new, old), seed
        kinds.add(isinstance(new, F))
    assert kinds == {True, False}  # both literal zeros and ExactValue residuals


def test_counting_difference_matches_the_reference():
    kinds = set()
    for seed in SEEDS:
        f, r = _function(seed)
        new, old = nev.counting_difference(f, r), _reference_counting_difference(f, r)
        assert _same_value(new[0], old[0]), seed
        assert _same_value(new[1], old[1]), seed
        kinds.add(isinstance(new[0], F))
    assert kinds == {True, False}


def test_every_assembly_reads_jensen_report_once_per_radius(
    monkeypatch, showcase, envelope_curve, max_of_two
):
    calls = []
    original = nev.jensen_report

    def counted(f, r):
        calls.append(F(r))
        return original(f, r)

    monkeypatch.setattr(nev, "jensen_report", counted)
    monkeypatch.setattr(curves, "jensen_report", counted, raising=False)
    assert nev.jensen_balance(showcase, F(5, 2)) == 0
    assert calls == [F(5, 2)]
    lhs, rhs = nev.counting_difference(showcase, 3)
    assert lhs == rhs
    assert calls == [F(5, 2), F(3)]
    calls.clear()
    report = curves.smt_homogeneous_check(max_of_two, envelope_curve, [3, 5, 9])
    assert report.passed
    assert calls == [F(3), F(5), F(9)]


@pytest.mark.parametrize("grid", [[3, 5, 9], [F(1, 2), F(7, 3)]])
def test_smt_rows_read_the_jensen_report(envelope_curve, max_of_two, grid):
    g = curves.compose_tropical(max_of_two, envelope_curve)
    report = curves.smt_homogeneous_check(max_of_two, envelope_curve, grid)
    for row in report.rows:
        roots, poles = nev._disk_sums(g, row.r)
        assert _same_value(row.roots_sum, roots)
        assert _same_value(row.poles_sum, poles)
        # the root/pole difference minus the boundary form of g
        boundary = (evaluate(g, row.r) + evaluate(g, -row.r)) / 2 - evaluate(g, 0)
        gap = exact_sum([roots, -poles, -boundary])
        assert _same_value(row.identity_gap, gap) and row.identity_gap == 0
