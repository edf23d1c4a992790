"""Batch command-line front end.

Subcommands (all exact; scalars print as ``p/q`` unless ``--decimal`` asks
for fixed-precision rendering):

* ``analyze`` — singularity table (CSV/JSON) plus shape classification;
* ``characteristic`` — closed-form radius profiles of m, each N_j, and T,
  with values on a radius grid;
* ``jensen`` — itemized boundary-mean/root/pole reconstruction of f(0);
* ``pj`` — itemized interior-point reconstruction of f(x);
* ``special hyperexp`` — the exact hyper-exponential staircase generator;
* ``curve cartan|compose|casoratian`` — curve characteristic and algebra;
* ``verify smt|fermat|casoratian-balance|jensen-sweep|lemma44`` — batch
  verification sweeps.

Exit codes: 0 all checks pass, 1 a verification failed (the emitted report
itemizes which row), 2 input error.  Identical manifest + flags + seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import curves as curves_mod
from . import nevanlinna as nev
from .errors import ManifestError, TropicalcError, UnknownReference
from .manifest import Manifest, function_to_json, load_manifest, parse_manifest
from .numeric import decimal_string
from .poly import frac
from .polyseg import PiecewiseFunction
from .randgen import random_function, random_radius, rng
from .singular import _format_value, _profiles, _report_json, classify, scan

_JENSEN_DEFAULT_RADII = (Fraction(9, 4), Fraction(5, 2), Fraction(11, 4))


# ---------------------------------------------------------------------------
# argument helpers


def _fraction_arg(text: str) -> Fraction:
    try:
        return frac(text)
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {e}")


def _nonneg_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _grid_radii(spec: str, profile=None) -> list[Fraction]:
    """Parse --grid: 'lo:hi:step' or 'exact' (profile event radii)."""
    if spec == "exact":
        if profile is None:
            raise ValueError("--grid exact needs a radius profile context")
        breakpoints = profile.profile.breakpoints
        return [bp for bp in breakpoints if isinstance(bp, Fraction)] + [profile.r_max]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid wants lo:hi:step or 'exact', got {spec!r}")
    lo, hi, step = (frac(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid {spec!r}")
    radii = []
    r = lo
    while r <= hi:
        radii.append(r)
        r += step
    return radii


def _load_source(source: str | None) -> Manifest:
    if source is None:
        raise UnknownReference("(none)", "manifest")
    path = Path(source)
    if path.exists():
        return load_manifest(path)
    bundled = resources.files("tropicalc").joinpath("data", f"{source}.json")
    if bundled.is_file():
        return parse_manifest(bundled.read_text(encoding="utf-8"))
    raise UnknownReference(source, "manifest")


def _function_display(fn: PiecewiseFunction) -> dict:
    return {**function_to_json(fn), "display": str(fn)}


def _decimalize(obj, precision: int):
    """Render every rational leaf string at fixed precision (opt-in)."""
    if isinstance(obj, dict):
        return {k: _decimalize(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_decimalize(v, precision) for v in obj]
    if isinstance(obj, str):
        try:
            value = Fraction(obj)
        except (ValueError, ZeroDivisionError):
            return obj
        return decimal_string(value, precision)
    return obj


def _table(header: list[str], rows: list[dict]) -> tuple[list[str], list[list]]:
    """CSV data: the header's keys read off each row dict, in header order."""
    return header, [[row[k] for k in header] for row in rows]


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, csv | None, passed | None)


def _cmd_analyze(args, manifest: Manifest):
    fn = manifest.function(args.fn)
    table = scan(fn)
    header = ["location", "order", "kind", "multiplicity"]
    rows = [list(s.as_row()) for s in table.rows]
    payload = {
        "function": args.fn,
        "classification": _report_json(classify(fn)),
        "rows": [dict(zip(header, row)) for row in rows],
        "grid": table.to_json_grid(),
    }
    return payload, (header, rows), None


def _cmd_characteristic(args, manifest: Manifest):
    fn = manifest.function(args.fn)
    bundle = nev.profile_bundle(fn, args.r_max)
    radii = _grid_radii(args.grid, bundle["T"])
    keys = list(bundle)
    rows = [
        [str(r)] + [_format_value(bundle[k](r)) for k in keys] for r in radii
    ]
    payload = {
        "function": args.fn,
        "r_max": str(frac(args.r_max)),
        "closed_forms": {k: nev.profile_json(bundle[k]) for k in keys},
        "flags": _report_json(nev.profile_flags(bundle["T"])),
        "values": [dict(zip(["r", *keys], row)) for row in rows],
    }
    return payload, (["r", *keys], rows), None


def _cmd_jensen(args, manifest: Manifest):
    fn = manifest.function(args.fn)
    report = nev.jensen_report(fn, args.r)
    payload = {"function": args.fn, **report.to_json()}
    header = ["r", "boundary_mean", "root_sum", "pole_sum", "residual", "passed"]
    return payload, _table(header, [payload]), report.passed()


def _cmd_pj(args, manifest: Manifest):
    fn = manifest.function(args.fn)
    report = nev.poisson_jensen(fn, args.x, args.r)
    payload = {"function": args.fn, **report.to_json()}
    return payload, None, report.passed()


def _cmd_hyperexp(args, manifest):
    result = nev.hyperexp(args.n, args.alpha, tuple(args.window), args.tail)
    fn = result.function
    omega_rows = [
        [int(p.location), order, _format_value(w)]
        for p in _profiles(fn)
        for order, _, w in p.entries
    ]
    payload = {
        "n": result.n,
        "alpha": str(result.alpha),
        "window": list(result.window),
        "tail_cutoff": result.cutoff,
        "tail_bound": str(result.tail_bound),
        "function": _function_display(fn),
        "classification": _report_json(classify(fn)),
        "omega_table": [
            {"m": m, "order": o, "omega": w} for m, o, w in omega_rows
        ],
    }
    return payload, (["m", "order", "omega"], omega_rows), None


def _cmd_curve_cartan(args, manifest: Manifest):
    cur = manifest.curve(args.curve)
    reduced, witness = curves_mod.check_reduced(cur)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        profile = curves_mod.cartan_profile(cur, args.r_max)
    radii = _grid_radii(args.grid, profile)
    rows = [[str(r), _format_value(profile(r))] for r in radii]
    payload = {
        "curve": args.curve,
        "reduced": reduced,
        "closed_form": nev.profile_json(profile),
        "values": [{"r": r, "T": t} for r, t in rows],
    }
    if witness is not None:
        payload["common_root"] = {
            "location": str(witness[0]),
            "order": witness[1],
        }
    return payload, (["r", "T"], rows), None


def _cmd_curve_compose(args, manifest: Manifest):
    cur = manifest.curve(args.curve)
    poly = manifest.polynomial(args.poly)
    if isinstance(poly, curves_mod.FermatForm):
        fn = curves_mod.compose_fermat(poly, cur)
        kind = "fermat"
    else:
        fn = curves_mod.compose_tropical(poly, cur)
        kind = "tropical"
    payload = {
        "curve": args.curve,
        "polynomial": args.poly,
        "kind": kind,
        "function": _function_display(fn),
    }
    return payload, None, None


def _cmd_curve_casoratian(args, manifest: Manifest):
    cur = manifest.curve(args.curve)
    fn = curves_mod.casoratian(cur, args.step)
    payload = {
        "curve": args.curve,
        "step": str(frac(args.step)),
        "function": _function_display(fn),
        "singularities": scan(fn).to_json_grid(),
    }
    return payload, None, None


def _cmd_verify_smt(args, manifest: Manifest):
    cur = manifest.curve(args.curve)
    poly = manifest.polynomial(args.poly)
    if not isinstance(poly, curves_mod.TropicalPolynomialMap):
        raise ValueError(f"polynomial {args.poly!r} is not a max-plus map")
    radii = _grid_radii(args.grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = curves_mod.smt_homogeneous_check(poly, cur, radii)
    payload = {"curve": args.curve, "polynomial": args.poly, **report.to_json()}
    header = ["r", "cartan", "roots_sum", "poles_sum", "residual", "in_band"]
    return payload, _table(header, payload["rows"]), report.passed


def _cmd_verify_fermat(args, manifest: Manifest):
    cur = manifest.curve(args.curve)
    poly = manifest.polynomial(args.poly)
    if not isinstance(poly, curves_mod.FermatForm):
        raise ValueError(f"polynomial {args.poly!r} is not a power-sum form")
    radii = _grid_radii(args.grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = curves_mod.fermat_bounds(poly, cur, radii)
    payload = {"curve": args.curve, "polynomial": args.poly, **report.to_json()}
    header = ["r", "cartan", "pole_sum", "ratio", "growth_diagnostic", "in_window"]
    return payload, _table(header, payload["rows"]), report.passed


def _cmd_verify_casoratian(args, manifest: Manifest):
    cur = manifest.curve(args.curve)
    radii = _grid_radii(args.grid)
    report = curves_mod.casoratian_balance(cur, radii, args.step)
    payload = {"curve": args.curve, **report.to_json()}
    header = ["r", "lhs", "shift_pole_block", "window_block", "excess"]
    # the crisp criterion is the tail-slope equality (piecewise-linear curves);
    # for higher degree the rows are informational and nothing can fail
    passed = report.tail_slopes_equal is not False
    payload["checked"] = report.tail_slopes_equal is not None
    return payload, _table(header, payload["rows"]), passed


def _cmd_verify_jensen_sweep(args, manifest):
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    base_rows = []
    passed = True
    if args.fn is not None:
        fn = manifest.function(args.fn)
        for r in _JENSEN_DEFAULT_RADII:
            report = nev.jensen_report(fn, r)
            base_rows.append(report.to_json())
            passed = passed and report.passed()
    rnd = rng(args.seed)
    failures = []
    for index in range(args.count):
        f = random_function(rnd)
        for _ in range(5):
            r = random_radius(rnd)
            balance = nev.jensen_balance(f, r)
            if not (isinstance(balance, Fraction) and balance == 0):
                failures.append({"index": index, "r": str(r), "balance": _format_value(balance)})
    passed = passed and not failures
    payload = {
        "function": args.fn,
        "count": args.count,
        "seed": args.seed,
        "radii_per_function": 5,
        "base_rows": base_rows,
        "failures": failures,
        "passed": passed,
    }
    return payload, None, passed


def _parse_hyperexp_spec(spec: str):
    parts = spec.split(":")
    if len(parts) != 5:
        raise ValueError(
            f"--hyperexp wants n:alpha:lo:hi:cutoff, got {spec!r}"
        )
    return (
        int(parts[0]),
        frac(parts[1]),
        (int(parts[2]), int(parts[3])),
        int(parts[4]),
    )


def _cmd_verify_lemma44(args, manifest):
    if args.hyperexp is not None:
        n, alpha_h, window, cutoff = _parse_hyperexp_spec(args.hyperexp)
        fn = nev.hyperexp(n, alpha_h, window, cutoff).function
        source = {"hyperexp": args.hyperexp}
    elif args.fn is not None:
        fn = manifest.function(args.fn)
        source = {"function": args.fn}
    else:
        raise ValueError("verify lemma44 needs --fn or --hyperexp")
    radii = _grid_radii(args.grid)
    rows = [nev.lemma44_check(fn, args.c, args.alpha, r).to_json() for r in radii]
    passed = all(row["passed"] for row in rows)
    payload = {**source, "c": str(frac(args.c)), "alpha": str(frac(args.alpha)),
               "rows": rows, "passed": passed}
    header = ["r", "threshold", "lhs_plus", "lhs_minus", "rhs", "passed"]
    return payload, _table(header, rows), passed


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropicalc",
        description="Exact calculus of continuous piecewise polynomials.",
    )
    parser.add_argument(
        "--manifest",
        help="manifest path or bundled dataset name (see tropicalc/data)",
    )
    parser.add_argument("--out", help="write <command>.json/.csv into this directory")
    parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of JSON on stdout"
    )
    parser.add_argument(
        "--decimal",
        type=_nonneg_int_arg,
        metavar="PREC",
        help="render rational scalars as decimals at this precision",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="singularity table and classification")
    p.add_argument("--fn", required=True)
    p.set_defaults(handler=_cmd_analyze, name="analyze")

    p = sub.add_parser("characteristic", help="m/N/T radius profiles")
    p.add_argument("--fn", required=True)
    p.add_argument("--r-max", required=True, type=_fraction_arg)
    p.add_argument("--grid", default="exact")
    p.set_defaults(handler=_cmd_characteristic, name="characteristic")

    p = sub.add_parser("jensen", help="reconstruct f(0) from disk data")
    p.add_argument("--fn", required=True)
    p.add_argument("--r", required=True, type=_fraction_arg)
    p.set_defaults(handler=_cmd_jensen, name="jensen")

    p = sub.add_parser("pj", help="reconstruct f(x) from disk data")
    p.add_argument("--fn", required=True)
    p.add_argument("--x", required=True, type=_fraction_arg)
    p.add_argument("--r", required=True, type=_fraction_arg)
    p.set_defaults(handler=_cmd_pj, name="pj")

    special = sub.add_parser("special", help="generated special functions")
    special_sub = special.add_subparsers(dest="special_command", required=True)
    p = special_sub.add_parser("hyperexp", help="hyper-exponential staircase")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--alpha", required=True, type=_fraction_arg)
    p.add_argument("--window", required=True, nargs=2, type=int, metavar=("LO", "HI"))
    p.add_argument("--tail", required=True, type=int, metavar="CUTOFF")
    p.set_defaults(handler=_cmd_hyperexp, name="special-hyperexp")

    curve = sub.add_parser("curve", help="curve operations")
    curve_sub = curve.add_subparsers(dest="curve_command", required=True)
    p = curve_sub.add_parser("cartan", help="curve characteristic profile")
    p.add_argument("--curve", required=True)
    p.add_argument("--r-max", required=True, type=_fraction_arg)
    p.add_argument("--grid", default="exact")
    p.set_defaults(handler=_cmd_curve_cartan, name="curve-cartan")
    p = curve_sub.add_parser("compose", help="compose a polynomial with a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(handler=_cmd_curve_compose, name="curve-compose")
    p = curve_sub.add_parser("casoratian", help="max-plus Casoratian")
    p.add_argument("--curve", required=True)
    p.add_argument("--step", default="1", type=_fraction_arg)
    p.set_defaults(handler=_cmd_curve_casoratian, name="curve-casoratian")

    verify = sub.add_parser("verify", help="batch verification sweeps")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    p = verify_sub.add_parser("smt", help="homogeneous band check")
    p.add_argument("--curve", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--grid", required=True)
    p.set_defaults(handler=_cmd_verify_smt, name="verify-smt")
    p = verify_sub.add_parser("fermat", help="power-sum ratio window")
    p.add_argument("--curve", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--grid", required=True)
    p.set_defaults(handler=_cmd_verify_fermat, name="verify-fermat")
    p = verify_sub.add_parser("casoratian-balance", help="root-sum balance blocks")
    p.add_argument("--curve", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--step", default="1", type=_fraction_arg)
    p.set_defaults(handler=_cmd_verify_casoratian, name="verify-casoratian-balance")
    p = verify_sub.add_parser("jensen-sweep", help="random Jensen balance sweep")
    p.add_argument("--fn")
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", default=0, type=int)
    p.set_defaults(handler=_cmd_verify_jensen_sweep, name="verify-jensen-sweep")
    p = verify_sub.add_parser("lemma44", help="shift-difference bound check")
    p.add_argument("--fn")
    p.add_argument("--hyperexp", metavar="N:ALPHA:LO:HI:CUTOFF")
    p.add_argument("--c", required=True, type=_fraction_arg)
    p.add_argument("--alpha", required=True, type=_fraction_arg)
    p.add_argument("--grid", required=True)
    p.set_defaults(handler=_cmd_verify_lemma44, name="verify-lemma44")

    return parser


_NEEDS_MANIFEST = {
    "analyze",
    "characteristic",
    "jensen",
    "pj",
    "curve-cartan",
    "curve-compose",
    "curve-casoratian",
    "verify-smt",
    "verify-fermat",
    "verify-casoratian-balance",
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = None
        if args.name in _NEEDS_MANIFEST or (
            args.name in {"verify-jensen-sweep", "verify-lemma44"}
            and getattr(args, "fn", None) is not None
        ):
            manifest = _load_source(args.manifest)
        payload, csv_data, passed = args.handler(args, manifest)
    except (ManifestError, TropicalcError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.decimal is not None:
        payload = _decimalize(payload, args.decimal)
        if csv_data is not None:
            header, rows = csv_data
            csv_data = (header, [[_decimalize(c, args.decimal) for c in row] for row in rows])
    json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    csv_text = _csv_text(*csv_data) if csv_data is not None else None
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{args.name}.json").write_text(json_text, encoding="utf-8")
            if csv_text is not None:
                (out_dir / f"{args.name}.csv").write_text(csv_text, encoding="utf-8")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    elif args.csv:
        if csv_text is None:
            print(f"error: {args.name} has no CSV form", file=sys.stderr)
            return 2
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(json_text)
    if passed is False:
        print(f"{args.name}: FAIL (see itemized rows)", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
