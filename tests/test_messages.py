"""Errors and warnings name their place in the words a user reads.

An algebraic point prints as its `~` label (the one `str(f)` gives a
breakpoint), a rational one as p/q; a manifest error names the manifest
entry it comes from; and the CLI loads a manifest exactly when a command
names a function or a curve.
"""

import json
import warnings
from fractions import Fraction as F

import pytest

from tropicalc.cli import run
from tropicalc.curves import cartan, curve
from tropicalc.errors import (
    AlgebraicSingularity,
    DiscontinuityDetected,
    ManifestSyntaxError,
    NotEntireComponent,
)
from tropicalc.manifest import parse_manifest
from tropicalc.nevanlinna import counting_profile
from tropicalc.numeric import algebraic_root
from tropicalc.poly import Polynomial
from tropicalc.polyseg import constant, piecewise, scale, tropical_plus

SQRT2 = {"poly": [-2, 0, 1], "interval": ["1", "2"]}


def _max_square_two():
    """max(x^2, 2): order-1 and order-2 roots at +-sqrt(2)."""
    return tropical_plus(piecewise([], [[0, 0, 1]]), constant(2))


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _manifest_file(tmp_path, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# points in messages


def test_an_algebraic_number_prints_as_its_label():
    root2 = algebraic_root(Polynomial.of(-2, 0, 1), 1, 2)
    before = root2.interval
    assert str(root2) == f"{root2}" == "~1.414214"
    assert repr(root2) == "AlgebraicNumber(x^2 - 2, ~1.414214)"
    assert root2.interval == before  # printing refines a copy


def test_a_rational_common_root_is_named_as_p_over_q():
    kink = tropical_plus(piecewise([], [[0, 1]]), constant(0))  # max(x, 0)
    c = curve([kink, scale(kink, 2)])
    with pytest.warns(UserWarning, match=r"common root at 0 of order 1;"):
        cartan(c, F(1))


def test_an_algebraic_common_root_is_named_by_its_label():
    c = curve([_max_square_two(), scale(_max_square_two(), 3)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cartan(c, F(1))
    (message,) = [str(w.message) for w in caught]
    assert "common root at ~-1.414214 of order 1" in message


def test_error_messages_print_algebraic_points_by_label():
    root2 = algebraic_root(Polynomial.of(-2, 0, 1), 1, 2)
    with pytest.raises(DiscontinuityDetected) as jump:
        piecewise([root2], [[0], [1]])
    with pytest.raises(NotEntireComponent) as pole:
        curve([scale(_max_square_two(), -1)])
    with pytest.raises(AlgebraicSingularity) as inside:
        counting_profile(scale(_max_square_two(), -1), 1, 2)
    assert "at x = ~1.414214:" in str(jump.value)
    assert str(pole.value) == "component 0 is not entire (pole at x = ~-1.414214)"
    assert "x = ~-1.414214 inside" in str(inside.value)
    for e in (jump, pole, inside):
        assert "AlgebraicNumber(" not in str(e.value)


def test_a_jump_at_an_algebraic_manifest_breakpoint_names_the_function(
    capsys, tmp_path
):
    doc = {"functions": {"f": {"breakpoints": [SQRT2], "segments": [["0"], ["1"]]}}}
    with pytest.raises(DiscontinuityDetected) as exc:
        parse_manifest(json.dumps(doc))
    assert exc.value.name == "f"
    rc, out, err = invoke(
        capsys, "--manifest", _manifest_file(tmp_path, doc), "analyze", "--fn", "f"
    )
    assert (rc, out) == (2, "")
    assert err == (
        "error: segments disagree function 'f' at x = ~1.414214: "
        "left value 0, right value 1\n"
    )


# ---------------------------------------------------------------------------
# manifest errors name their place


def test_a_zero_polynomial_literal_names_its_place():
    bad = {"poly": [0], "interval": ["0", "1"]}
    doc = {"functions": {"f": {"breakpoints": [bad], "segments": [["0"], ["0"]]}}}
    with pytest.raises(ManifestSyntaxError) as exc:
        parse_manifest(json.dumps(doc))
    assert str(exc.value).startswith("functions.f.breakpoints[0]: ")
    assert "zero polynomial" in str(exc.value)


ALL_NULL = {
    "functions": {"f": {"breakpoints": [], "segments": [["0", "1"]]}},
    "polynomials": {
        "P": {
            "kind": "tropical",
            "degree": 1,
            "monomials": [
                {"exponents": [1, 0], "coefficient": None},
                {"exponents": [0, 1], "coefficient": None},
            ],
        }
    },
}


def test_an_all_infinite_tropical_map_names_its_place(capsys, tmp_path):
    with pytest.raises(ManifestSyntaxError, match=r"^polynomials\.P: every monomial"):
        parse_manifest(json.dumps(ALL_NULL))
    rc, out, err = invoke(
        capsys, "--manifest", _manifest_file(tmp_path, ALL_NULL), "analyze", "--fn", "f"
    )
    assert (rc, out) == (2, "")
    assert err.startswith("error: polynomials.P: every monomial coefficient")


def test_a_map_arity_mismatch_names_its_place():
    doc = {
        "polynomials": {
            "P": {
                "kind": "tropical",
                "degree": 1,
                "monomials": [
                    {"exponents": [1, 0], "coefficient": "0"},
                    {"exponents": [0, 0, 1], "coefficient": "0"},
                ],
            }
        }
    }
    with pytest.raises(ManifestSyntaxError, match=r"^polynomials\.P: map over 2"):
        parse_manifest(json.dumps(doc))


def test_a_manifest_error_inside_a_map_passes_through_unchanged():
    doc = {
        "polynomials": {
            "P": {
                "kind": "tropical",
                "degree": 1,
                "monomials": [{"exponents": ["1"], "coefficient": "0"}],
            }
        }
    }
    with pytest.raises(ManifestSyntaxError) as exc:
        parse_manifest(json.dumps(doc))
    assert str(exc.value) == (
        "polynomials.P.monomials[0].exponents[0]: an integer is required, got '1'"
    )


# ---------------------------------------------------------------------------
# the CLI loads a manifest exactly when a command names a function or curve


@pytest.mark.parametrize(
    "argv",
    [
        ["special", "hyperexp", "--n", "1", "--alpha", "2", "--window", "-2", "2",
         "--tail", "4"],
        ["verify", "jensen-sweep", "--count", "0"],
        ["verify", "lemma44", "--hyperexp", "2:2:-40:40:64", "--c", "1", "--alpha", "2",
         "--grid", "8:8:1"],
    ],
)
def test_commands_naming_nothing_never_read_the_manifest(capsys, argv):
    rc, out, err = invoke(capsys, "--manifest", "no-such-manifest", *argv)
    assert (rc, err) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--fn", "f"],
        ["verify", "jensen-sweep", "--fn", "f", "--count", "0"],
        ["verify", "lemma44", "--fn", "f", "--c", "1", "--alpha", "2",
         "--grid", "2:2:1"],
        ["curve", "cartan", "--curve", "c", "--r-max", "2"],
        ["verify", "casoratian-balance", "--curve", "c", "--grid", "2:2:1"],
    ],
)
def test_commands_naming_a_function_or_curve_read_the_manifest(capsys, argv):
    rc, out, err = invoke(capsys, "--manifest", "no-such-manifest", *argv)
    assert (rc, out) == (2, "")
    assert err == "error: unknown manifest 'no-such-manifest'\n"
