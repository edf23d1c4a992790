"""JSON manifests naming functions, max-plus products, curves, and maps.

A manifest is a single JSON object with up to four namespaces::

    {
      "functions":         {"f": {"breakpoints": [...], "segments": [[...], ...]}},
      "tropical_products": {"p": {"factors": [{"numerator": [...],
                                               "denominator": [...]}]}},
      "curves":            {"c": ["f", "p"]},
      "polynomials":       {"P": {"kind": "tropical", "degree": 1,
                                  "monomials": [{"exponents": [1, 0],
                                                 "coefficient": "0"}]},
                            "Q": {"kind": "fermat", "power": 2,
                                  "weights": ["1", "2"]}}
    }

Scalars are exact: integers, "p/q" strings, decimal strings (converted
exactly), or {"poly": [c0, c1, ...], "interval": ["a", "b"]} for a real
algebraic number isolated by a sign-change interval.  ``null`` stands for the
-infinity coefficient of a max-plus polynomial.  Names are unique across all
namespaces; curves refer to functions or tropical products by name.

Parsing validates the whole object graph (including continuity of every
function); a parsed manifest serializes back to JSON that re-parses equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .curves import FermatForm, TropicalCurve, TropicalPolynomialMap
from .errors import (
    DuplicateName,
    ManifestError,
    ManifestSyntaxError,
    TropicalcError,
    UnknownReference,
)
from .numeric import AlgebraicNumber, Scalar, algebraic_root
from .poly import Polynomial, frac
from .polyseg import (
    PiecewiseFunction,
    TropicalFactor,
    TropicalProductSpec,
    from_tropical_product,
    piecewise,
)

NAMESPACES = ("functions", "tropical_products", "curves", "polynomials")


# ---------------------------------------------------------------------------
# scalar (de)serialization


def _parse_scalar(node, where: str) -> Scalar:
    if isinstance(node, bool):
        raise ManifestSyntaxError(f"{where}: booleans are not scalars")
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, str):
        try:
            return frac(node)
        except (ValueError, TypeError) as e:
            raise ManifestSyntaxError(f"{where}: bad scalar {node!r} ({e})")
    if isinstance(node, dict) and set(node) == {"poly", "interval"}:
        coeffs = node["poly"]
        interval = node["interval"]
        if not isinstance(coeffs, list) or not isinstance(interval, list):
            raise ManifestSyntaxError(f"{where}: malformed algebraic literal")
        if len(interval) != 2:
            raise ManifestSyntaxError(
                f"{where}: algebraic interval needs exactly two endpoints"
            )
        poly = Polynomial.from_coeffs(
            [_parse_rational(c, f"{where}.poly") for c in coeffs]
        )
        lo = _parse_rational(interval[0], f"{where}.interval")
        hi = _parse_rational(interval[1], f"{where}.interval")
        try:
            return algebraic_root(poly, lo, hi)
        except (TropicalcError, ValueError, ArithmeticError) as e:
            raise ManifestSyntaxError(f"{where}: bad algebraic literal ({e})")
    raise ManifestSyntaxError(f"{where}: cannot read {node!r} as a scalar")


def _parse_rational(node, where: str) -> Fraction:
    value = _parse_scalar(node, where)
    if not isinstance(value, Fraction):
        raise ManifestSyntaxError(f"{where}: a rational number is required")
    return value


def _parse_int(node, where: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ManifestSyntaxError(f"{where}: an integer is required, got {node!r}")
    return node


def _parse_coefficient(node, where: str) -> Fraction | None:
    return None if node is None else _parse_rational(node, where)


def scalar_to_json(value: Scalar):
    if isinstance(value, AlgebraicNumber):
        lo, hi = value.interval
        return {
            "poly": [str(c) for c in value.poly.coeffs],
            "interval": [str(lo), str(hi)],
        }
    return str(value)


def function_to_json(fn: PiecewiseFunction) -> dict:
    """A function as its manifest entry: breakpoints and segment coefficients."""
    return {
        "breakpoints": [scalar_to_json(bp) for bp in fn.breakpoints],
        "segments": [[str(c) for c in s.coeffs] for s in fn.segments],
    }


# ---------------------------------------------------------------------------
# the manifest object graph


@dataclass(frozen=True)
class Manifest:
    functions: dict[str, PiecewiseFunction] = field(default_factory=dict)
    tropical_products: dict[str, TropicalProductSpec] = field(default_factory=dict)
    curves: dict[str, tuple[str, ...]] = field(default_factory=dict)
    polynomials: dict[str, TropicalPolynomialMap | FermatForm] = field(
        default_factory=dict
    )

    def function(self, name: str) -> PiecewiseFunction:
        """The named function, materializing a tropical product if needed."""
        if name in self.functions:
            return self.functions[name]
        if name in self.tropical_products:
            return from_tropical_product(self.tropical_products[name])
        raise UnknownReference(name, "function")

    def curve(self, name: str) -> TropicalCurve:
        if name not in self.curves:
            raise UnknownReference(name, "curve")
        return TropicalCurve(
            tuple(self.function(ref) for ref in self.curves[name])
        )

    def polynomial(self, name: str):
        if name not in self.polynomials:
            raise UnknownReference(name, "polynomial")
        return self.polynomials[name]

    def to_json(self) -> dict:
        out: dict = {}
        if self.functions:
            out["functions"] = {
                name: function_to_json(fn) for name, fn in self.functions.items()
            }
        if self.tropical_products:
            out["tropical_products"] = {
                name: {
                    "factors": [
                        {
                            "numerator": [
                                None if c is None else str(c)
                                for c in factor.numerator
                            ],
                            "denominator": [
                                None if c is None else str(c)
                                for c in factor.denominator
                            ],
                        }
                        for factor in spec.factors
                    ]
                }
                for name, spec in self.tropical_products.items()
            }
        if self.curves:
            out["curves"] = {
                name: list(refs) for name, refs in self.curves.items()
            }
        if self.polynomials:
            out["polynomials"] = {
                name: _polynomial_to_json(p)
                for name, p in self.polynomials.items()
            }
        return out


def _polynomial_to_json(p) -> dict:
    if isinstance(p, TropicalPolynomialMap):
        return {
            "kind": "tropical",
            "degree": p.degree,
            "monomials": [
                {
                    "exponents": list(exponents),
                    "coefficient": None if coeff is None else str(coeff),
                }
                for exponents, coeff in p.monomials
            ],
        }
    return {
        "kind": "fermat",
        "power": p.power,
        "weights": [str(w) for w in p.weights],
    }


def serialize_manifest(m: Manifest) -> str:
    return json.dumps(m.to_json(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# parsing


def _reject_duplicate_keys(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise DuplicateName(key)
        seen.add(key)
        out[key] = value
    return out


def _expect_object(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ManifestSyntaxError(f"{where}: expected a JSON object")
    return node


def _expect_list(node, where: str) -> list:
    if not isinstance(node, list):
        raise ManifestSyntaxError(f"{where}: expected a JSON array")
    return node


def _parse_function(name: str, node, where: str) -> PiecewiseFunction:
    node = _expect_object(node, where)
    if set(node) - {"breakpoints", "segments"}:
        raise ManifestSyntaxError(
            f"{where}: unknown keys {sorted(set(node) - {'breakpoints', 'segments'})}"
        )
    bps = [
        _parse_scalar(bp, f"{where}.breakpoints[{i}]")
        for i, bp in enumerate(_expect_list(node.get("breakpoints", []), where))
    ]
    segs_node = _expect_list(node.get("segments"), f"{where}.segments")
    if len(segs_node) != len(bps) + 1:
        raise ManifestSyntaxError(
            f"{where}: {len(bps)} breakpoints need {len(bps) + 1} segments, "
            f"got {len(segs_node)}"
        )
    segs = [
        [
            _parse_rational(c, f"{where}.segments[{i}][{k}]")
            for k, c in enumerate(_expect_list(seg, f"{where}.segments[{i}]"))
        ]
        for i, seg in enumerate(segs_node)
    ]
    return piecewise(bps, segs, name=name)


def _parse_factor(node, where: str) -> TropicalFactor:
    node = _expect_object(node, where)
    if set(node) - {"numerator", "denominator"}:
        raise ManifestSyntaxError(f"{where}: unknown keys in factor")
    num = tuple(
        _parse_coefficient(c, f"{where}.numerator[{i}]")
        for i, c in enumerate(_expect_list(node.get("numerator"), where))
    )
    den = tuple(
        _parse_coefficient(c, f"{where}.denominator[{i}]")
        for i, c in enumerate(_expect_list(node.get("denominator", []), where))
    )
    return TropicalFactor(num, den)


def _parse_product(node, where: str) -> TropicalProductSpec:
    node = _expect_object(node, where)
    if set(node) != {"factors"}:
        raise ManifestSyntaxError(f"{where}: expected exactly the key 'factors'")
    factors = tuple(
        _parse_factor(f, f"{where}.factors[{i}]")
        for i, f in enumerate(_expect_list(node["factors"], where))
    )
    return TropicalProductSpec(factors)


def _parse_monomial(node, where: str) -> tuple[tuple[int, ...], Fraction | None]:
    node = _expect_object(node, where)
    exponents = _expect_list(node.get("exponents"), f"{where}.exponents")
    return (
        tuple(_parse_int(e, f"{where}.exponents[{k}]") for k, e in enumerate(exponents)),
        _parse_coefficient(node.get("coefficient"), f"{where}.coefficient"),
    )


def _parse_polynomial(node, where: str):
    node = _expect_object(node, where)
    kind = node.get("kind")
    try:
        if kind == "tropical":
            monomials = tuple(
                _parse_monomial(m, f"{where}.monomials[{i}]")
                for i, m in enumerate(_expect_list(node.get("monomials"), where))
            )
            degree = _parse_int(node.get("degree"), f"{where}.degree")
            return TropicalPolynomialMap(monomials, degree)
        if kind == "fermat":
            weights = tuple(
                _parse_rational(w, f"{where}.weights[{i}]")
                for i, w in enumerate(_expect_list(node.get("weights"), where))
            )
            power = _parse_int(node.get("power"), f"{where}.power")
            return FermatForm(weights, power)
    except ManifestError:
        raise  # already names its place
    except (TropicalcError, ValueError, TypeError) as e:
        raise ManifestSyntaxError(f"{where}: {e}")
    raise ManifestSyntaxError(
        f"{where}: 'kind' must be 'tropical' or 'fermat', got {kind!r}"
    )


def parse_manifest(text: str) -> Manifest:
    """Parse and fully validate a manifest document."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as e:
        raise ManifestSyntaxError(e.msg, e.pos)
    doc = _expect_object(doc, "manifest")
    unknown = set(doc) - set(NAMESPACES)
    if unknown:
        raise ManifestSyntaxError(f"manifest: unknown namespaces {sorted(unknown)}")
    names: set[str] = set()
    for ns in NAMESPACES:
        for name in _expect_object(doc.get(ns, {}), ns):
            if name in names:
                raise DuplicateName(name)
            names.add(name)
    functions = {
        name: _parse_function(name, node, f"functions.{name}")
        for name, node in doc.get("functions", {}).items()
    }
    products = {
        name: _parse_product(node, f"tropical_products.{name}")
        for name, node in doc.get("tropical_products", {}).items()
    }
    curves = {}
    for name, refs in doc.get("curves", {}).items():
        refs = _expect_list(refs, f"curves.{name}")
        for ref in refs:
            if not isinstance(ref, str):
                raise ManifestSyntaxError(
                    f"curves.{name}: component references must be names"
                )
            if ref not in functions and ref not in products:
                raise UnknownReference(ref, "function")
        curves[name] = tuple(refs)
    polynomials = {
        name: _parse_polynomial(node, f"polynomials.{name}")
        for name, node in doc.get("polynomials", {}).items()
    }
    return Manifest(functions, products, curves, polynomials)


def load_manifest(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read())
