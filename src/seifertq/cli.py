"""Command line interface.

Subcommands operate on Seifert symbols given as inline JSON or @file, or on
triangulation files.  main reads and checks every --symbol before its
handler runs and echoes it right after schema and command; the handler gets
the checked SeifertSymbol.  Output is JSON (default) or CSV on stdout;
errors go to stderr with exit codes 2 (usage), 3 (malformed input), 4
(domain precondition), 5 (numeric inconsistency).

With the default --deterministic flag the output is a pure function of the
inputs (no timing field), byte-identical across runs; --no-deterministic
adds a timing_ms field.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import MalformedInputError, SeifertQError, _read_text

# Each handler imports the modules it calls, so that a process runs only the
# imports of its own subcommand.

SCHEMA_VERSION = 1


def _complex_dict(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _parse_levels(text: str) -> list[int]:
    try:
        levels = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise MalformedInputError(f"bad level list {text!r}: {exc}") from exc
    if not levels:
        raise MalformedInputError(f"bad level list {text!r}: no levels")
    return levels


# -- subcommand handlers ------------------------------------------------------


def _invariant_fields(inv, value, **shape) -> dict:
    """The fields of an invariant's payload; shape fields go before the warnings."""
    return {
        "r": inv.r,
        "value": value,
        "method": inv.method,
        "term_count": inv.term_count,
        "term_magnitude_sum": inv.term_magnitude_sum,
        **shape,
        "warnings": list(inv.warnings),
    }


def _cmd_rt(args: argparse.Namespace) -> dict:
    from .rt import rt_closed

    inv = rt_closed(args.symbol, args.r)
    return _invariant_fields(inv, _complex_dict(complex(inv.value)))


def _cmd_tv(args: argparse.Namespace) -> dict:
    if (args.symbol is None) == (args.tri is None):
        raise MalformedInputError("tv needs exactly one of --symbol or --tri")
    if args.tri is not None:
        from .statesum import tv_statesum
        from .triangulation import load_triangulation

        tri = load_triangulation(args.tri)
        inv = tv_statesum(tri, args.r)
        return {
            "triangulation": args.tri,
            **_invariant_fields(
                inv,
                float(inv.value.real),
                tetrahedra=tri.tet_count,
                vertices=tri.vertex_count,
                edges=tri.edge_count,
                faces=tri.face_count,
                euler_characteristic=tri.euler_characteristic,
            ),
        }
    from .tv import tv_bounded, tv_closed

    inv = (tv_bounded if args.symbol.boundary else tv_closed)(args.symbol, args.r)
    return _invariant_fields(inv, float(inv.value.real))


def _symbol_image(symbol, key: str, transform) -> dict:
    """The image of symbol under transform, and the image's Euler number and orbifold characteristic."""
    from .symbols import euler_number, orbifold_euler_characteristic, symbol_to_dict

    image = transform(symbol)
    return {
        key: symbol_to_dict(image),
        "euler_number": str(euler_number(image)),
        "orbifold_euler_characteristic": str(orbifold_euler_characteristic(image)),
    }


def _cmd_double(args: argparse.Namespace) -> dict:
    from .symbols import double

    return _symbol_image(args.symbol, "double", double)


def _cmd_normalize(args: argparse.Namespace) -> dict:
    from .symbols import normalize

    return _symbol_image(args.symbol, "normalized", normalize)


def _cmd_certify(args: argparse.Namespace) -> dict:
    from .congruence import certificate_to_dict, classify_system

    classification = classify_system(args.symbol.fibers)
    certificate = classification.certificate
    return {
        "case": classification.case,
        "certificate": certificate_to_dict(certificate) if certificate else None,
        "warnings": list(classification.warnings),
    }


def _cmd_dedekind(args: argparse.Namespace) -> dict:
    from .congruence import dedekind_sum

    value = dedekind_sum(args.b, args.a)
    return {"b": args.b, "a": args.a, "exact": str(value), "float": float(value)}


def _cmd_sixj(args: argparse.Namespace) -> dict:
    from .rootdata import RootContext, six_j

    ctx = RootContext(args.r)
    value = six_j(ctx, *args.colors)
    return {"r": args.r, "colors": list(args.colors), "value": _complex_dict(value)}


def _resolve_levels(args: argparse.Namespace) -> list[int]:
    if (args.r is None) == (args.k is None):
        raise MalformedInputError("give exactly one of --r or --k")
    if args.r is not None:
        return _parse_levels(args.r)
    from .congruence import system_modulus

    modulus = system_modulus(args.symbol.fibers)
    return [k * modulus for k in _parse_levels(args.k)]


def _cmd_scan(args: argparse.Namespace) -> dict:
    from .growth import ltv_scan

    samples, slope = ltv_scan(args.symbol, _resolve_levels(args))
    return {
        "samples": [{"r": s.r, "tv": s.tv_value, "ltv": s.ltv} for s in samples],
        "growth_exponent": slope,
    }


def _cmd_bound(args: argparse.Namespace) -> dict:
    from .growth import lower_bound, verify_lemma

    levels = _resolve_levels(args)
    if len(levels) != 1:
        raise MalformedInputError("bound takes a single level")
    (r,) = levels
    check = verify_lemma(args.symbol, r) if args.verify else None
    bound = check.bound if check else lower_bound(args.symbol, r)
    payload = {
        "r": bound.r,
        "value": bound.value,
        "modulus": bound.modulus,
        "multiplier": bound.multiplier,
        "cardinality": bound.cardinality,
        "warnings": list(bound.warnings),
    }
    if check:
        payload["verify"] = {
            "tv_bounded": check.tv_bounded_value,
            "tv_closed_double": check.tv_closed_double_value,
            "satisfied": check.satisfied,
        }
    return payload


# -- output formatting --------------------------------------------------------


def _flatten(payload: dict) -> list[tuple[str, str]]:
    rows = []
    for key, value in payload.items():
        if isinstance(value, (dict, list)):
            rows.append((key, json.dumps(value)))
        else:
            rows.append((key, "" if value is None else str(value)))
    return rows


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    samples = payload.get("samples")
    if isinstance(samples, list) and samples and isinstance(samples[0], dict):
        header = list(samples[0])
        writer.writerow(header)
        for sample in samples:
            writer.writerow([sample[h] for h in header])
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])
    sys.stdout.write(buffer.getvalue())


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifertq",
        description="Quantum invariants of Seifert fibered 3-manifolds",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument(
        "--deterministic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="omit timing so identical inputs give identical bytes",
    )
    symbol = argparse.ArgumentParser(add_help=False)
    symbol.add_argument("--symbol", required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rt", parents=[common, symbol], help="RT invariant of a closed symbol")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_rt)

    p = sub.add_parser("tv", parents=[common], help="TV invariant of a symbol or triangulation")
    p.add_argument("--symbol")
    p.add_argument("--tri", help="triangulation file (state sum)")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_tv)

    p = sub.add_parser("double", parents=[common, symbol], help="orientation double of a bounded symbol")
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("normalize", parents=[common, symbol], help="normal form of a symbol")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("certify", parents=[common, symbol], help="congruence system classification")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("dedekind", parents=[common], help="exact Dedekind sum s(b, a)")
    p.add_argument("b", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("sixj", parents=[common], help="six-j symbol at level r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("colors", type=int, nargs=6)
    p.set_defaults(func=_cmd_sixj)

    p = sub.add_parser("scan", parents=[common, symbol], help="LTV samples along a level sequence")
    p.add_argument("--r", help="comma-separated levels")
    p.add_argument("--k", help="comma-separated multiples of the system modulus")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("bound", parents=[common, symbol], help="growth lower bound at a level")
    p.add_argument("--r", help="level (odd multiple of the modulus)")
    p.add_argument("--k", help="multiple of the system modulus")
    p.add_argument("--verify", action="store_true", help="also compute the invariants")
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    from time import perf_counter

    parser = build_parser()
    args = parser.parse_args(argv)
    started = perf_counter()
    result = {"schema": SCHEMA_VERSION, "command": args.command}
    try:
        if getattr(args, "symbol", None) is not None:
            from .symbols import symbol_from_json, symbol_to_dict

            text = args.symbol
            args.symbol = symbol_from_json(_read_text(text[1:], "symbol") if text.startswith("@") else text)
            result["symbol"] = symbol_to_dict(args.symbol)
        result.update(args.func(args))
    except SeifertQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    if not args.deterministic:
        result["timing_ms"] = round(1000.0 * (perf_counter() - started), 3)
    _emit(result, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
