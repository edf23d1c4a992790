import importlib.util
import json
import re
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from tropicalc.cli import run
from tropicalc.errors import (
    DiscontinuityDetected,
    DuplicateName,
    ManifestSyntaxError,
    NotEntireComponent,
    UnknownReference,
)
from tropicalc.manifest import (
    Manifest,
    load_manifest,
    parse_manifest,
    serialize_manifest,
)
from tropicalc.numeric import AlgebraicNumber
from tropicalc.polyseg import evaluate


BUNDLED = [
    "showcase",
    "sign_square",
    "parabola_train",
    "envelope_curve",
    "fermat_flat",
    "fermat_staircase",
    "mirror_parabolas",
]


def bundled_text(name: str) -> str:
    return (
        resources.files("tropicalc").joinpath("data", f"{name}.json").read_text()
    )


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_manifests_round_trip_byte_identical(name):
    text = bundled_text(name)
    m = parse_manifest(text)
    assert serialize_manifest(m) == text
    again = parse_manifest(serialize_manifest(m))
    assert serialize_manifest(again) == text


def test_showcase_manifest_contents():
    m = parse_manifest(bundled_text("showcase"))
    f = m.function("f")
    assert f.breakpoints == (F(-2), F(-1), F(1), F(2))
    assert evaluate(f, 0) == 1


def test_functions_parse_scalar_forms():
    text = json.dumps(
        {
            "functions": {
                "f": {
                    "breakpoints": [0, "3/2"],
                    "segments": [["0", "-1"], [0, "-1"], ["-4.5", "2"]],
                }
            }
        }
    )
    f = parse_manifest(text).function("f")
    assert f.breakpoints == (F(3, 2),)  # identical first segments fuse
    assert evaluate(f, 2) == F(-1, 2)


def test_algebraic_breakpoints_survive_round_trip():
    doc = {
        "functions": {
            "f": {
                "breakpoints": [{"poly": ["-2", "0", "1"], "interval": ["1", "2"]}],
                "segments": [["2"], [0, 0, "1"]],
            }
        }
    }
    m = parse_manifest(json.dumps(doc))
    f = m.function("f")
    assert isinstance(f.breakpoints[0], AlgebraicNumber)
    again = parse_manifest(serialize_manifest(m)).function("f")
    assert again.breakpoints[0] == f.breakpoints[0]
    assert serialize_manifest(parse_manifest(serialize_manifest(m))) == (
        serialize_manifest(m)
    )


def test_discontinuous_function_is_rejected_by_name():
    doc = {"functions": {"bad": {"breakpoints": [0], "segments": [["0"], ["1"]]}}}
    with pytest.raises(DiscontinuityDetected) as exc:
        parse_manifest(json.dumps(doc))
    assert exc.value.name == "bad"


def test_segment_count_mismatch_is_a_syntax_error():
    doc = {"functions": {"f": {"breakpoints": [0, 1], "segments": [["0"], ["0"]]}}}
    with pytest.raises(ManifestSyntaxError, match="segment"):
        parse_manifest(json.dumps(doc))


def test_json_error_carries_position():
    with pytest.raises(ManifestSyntaxError) as exc:
        parse_manifest("{ not json")
    assert exc.value.position is not None


def test_duplicate_json_keys_rejected():
    text = '{"functions": {"f": {"breakpoints": [], "segments": [["0"]]}, ' \
           '"f": {"breakpoints": [], "segments": [["1"]]}}}'
    with pytest.raises(DuplicateName):
        parse_manifest(text)


def test_names_are_unique_across_namespaces():
    doc = {
        "functions": {"f": {"breakpoints": [], "segments": [["0"]]}},
        "polynomials": {"f": {"kind": "fermat", "power": 1, "weights": ["1"]}},
    }
    with pytest.raises(DuplicateName) as exc:
        parse_manifest(json.dumps(doc))
    assert exc.value.name == "f"


def test_unknown_namespace_rejected():
    with pytest.raises(ManifestSyntaxError, match="namespace"):
        parse_manifest('{"gadgets": {}}')


def test_curve_references_must_resolve():
    doc = {
        "functions": {"f": {"breakpoints": [], "segments": [["0"]]}},
        "curves": {"c": ["f", "ghost"]},
    }
    with pytest.raises(UnknownReference) as exc:
        parse_manifest(json.dumps(doc))
    assert exc.value.name == "ghost"


def test_curves_may_reference_tropical_products():
    doc = {
        "functions": {"f": {"breakpoints": [], "segments": [["0"]]}},
        "tropical_products": {
            "p": {"factors": [{"numerator": ["0", "0"], "denominator": []}]}
        },
        "curves": {"c": ["f", "p"]},
    }
    m = parse_manifest(json.dumps(doc))
    c = m.curve("c")
    assert c.arity == 2
    assert evaluate(c.components[1], -3) == 0
    assert evaluate(c.components[1], 3) == 3


def test_curve_materialization_checks_entirety():
    doc = {
        "functions": {"f": {"breakpoints": [], "segments": [["0", "0", "-1"]]}},
        "curves": {"c": ["f"]},
    }
    m = parse_manifest(json.dumps(doc))  # parsing alone is fine
    with pytest.raises(NotEntireComponent):
        m.curve("c")


def test_missing_lookups_raise_unknown_reference():
    m = parse_manifest("{}")
    with pytest.raises(UnknownReference):
        m.function("f")
    with pytest.raises(UnknownReference):
        m.curve("c")
    with pytest.raises(UnknownReference):
        m.polynomial("p")


def test_floats_are_rejected_in_scalars():
    doc = {"functions": {"f": {"breakpoints": [], "segments": [[0.5]]}}}
    with pytest.raises(ManifestSyntaxError):
        parse_manifest(json.dumps(doc))


def test_booleans_are_rejected_in_scalars():
    doc = {"functions": {"f": {"breakpoints": [], "segments": [[True]]}}}
    with pytest.raises(ManifestSyntaxError):
        parse_manifest(json.dumps(doc))


def _tropical(exponents, degree):
    monomial = {"exponents": exponents, "coefficient": "0"}
    return {"kind": "tropical", "degree": degree, "monomials": [monomial]}


@pytest.mark.parametrize(
    "polynomial, where",
    [
        (_tropical([1.5, 1.5], 2), "monomials[0].exponents[0]"),
        (_tropical([2.0, 0], 2), "monomials[0].exponents[0]"),
        (_tropical([1, "1"], 2), "monomials[0].exponents[1]"),
        (_tropical([True, False], 1), "monomials[0].exponents[0]"),
        (_tropical([1, 0], True), "degree"),
        (_tropical([1, 0], 1.0), "degree"),
        ({"kind": "fermat", "power": True, "weights": ["1"]}, "power"),
        ({"kind": "fermat", "power": 2.0, "weights": ["1"]}, "power"),
    ],
)
def test_manifest_integers_must_be_json_integers(tmp_path, capsys, polynomial, where):
    text = json.dumps({"polynomials": {"p": polynomial}})
    with pytest.raises(ManifestSyntaxError, match=re.escape(f"polynomials.p.{where}:")):
        parse_manifest(text)
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert run(["--manifest", str(path), "analyze", "--fn", "f"]) == 2
    assert "error:" in capsys.readouterr().err


def test_null_marks_absent_monomials():
    doc = {
        "polynomials": {
            "p": {
                "kind": "tropical",
                "degree": 2,
                "monomials": [
                    {"exponents": [2, 0], "coefficient": "1/2"},
                    {"exponents": [1, 1], "coefficient": None},
                    {"exponents": [0, 2], "coefficient": "-1"},
                ],
            }
        }
    }
    p = parse_manifest(json.dumps(doc)).polynomial("p")
    assert p.monomials[1][1] is None
    assert p.pure_power_coefficient(0) == F(1, 2)


def test_load_manifest_from_path(tmp_path):
    m = Manifest()
    path = tmp_path / "empty.json"
    path.write_text("{}\n")
    loaded = load_manifest(path)
    assert serialize_manifest(loaded) == serialize_manifest(m)


def test_bundled_envelope_curve_objects():
    m = parse_manifest(bundled_text("envelope_curve"))
    c = m.curve("env")
    assert c.arity == 2
    p = m.polynomial("P")
    assert p.degree == 1
    assert p.pure_power_coefficient(0) == 0 and p.pure_power_coefficient(1) == 0


def test_bundled_fermat_staircase_objects():
    m = parse_manifest(bundled_text("fermat_staircase"))
    q = m.polynomial("P1")
    assert q.power == 1 and q.weights == (F(1), F(1))
    g = m.curve("g")
    h = m.curve("h")
    assert g.arity == h.arity == 2


def test_bundled_data_is_what_the_generator_writes():
    script = Path(__file__).resolve().parents[1] / "scripts" / "build_datasets.py"
    spec = importlib.util.spec_from_file_location("build_datasets", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    data = resources.files("tropicalc").joinpath("data")
    shipped = {p.name[: -len(".json")] for p in data.iterdir() if p.name.endswith(".json")}
    assert shipped == set(module.DATASETS) == set(BUNDLED)
    for name, manifest in module.DATASETS.items():
        assert bundled_text(name) == serialize_manifest(manifest), name


def _ambiguous_manifest() -> str:
    """A breakpoint literal whose interval holds three roots, not one."""
    # (x^2 - 2)(x^3 - 3) = x^5 - 2x^3 - 3x^2 + 6 changes sign across (-2, 2)
    literal = {"poly": [6, 0, -3, -2, 0, 1], "interval": ["-2", "2"]}
    doc = {"functions": {"f": {"breakpoints": [literal], "segments": [["0"], ["0"]]}}}
    return json.dumps(doc)


def test_ambiguous_algebraic_literal_is_a_syntax_error():
    with pytest.raises(ManifestSyntaxError, match="functions.f.*holds 3 roots"):
        parse_manifest(_ambiguous_manifest())


def test_ambiguous_algebraic_literal_exits_2(tmp_path, capsys):
    path = tmp_path / "ambiguous.json"
    path.write_text(_ambiguous_manifest(), encoding="utf-8")
    assert run(["--manifest", str(path), "analyze", "--fn", "f"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "holds 3 roots" in captured.err
