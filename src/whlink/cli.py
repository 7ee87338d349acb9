"""Command-line front end.

Every subcommand emits either human-readable text or canonical JSON; the
JSON form is byte-stable across identical invocations (sorted keys,
canonical orderings, big integers as base-10 strings) and is the format
fixtures should diff against.  Exit codes: 0 success, 1 invalid input,
2 internal consistency failure.  An error is one line on stderr: in JSON
mode an object with its ``class``, ``error`` and ``exit_code``, in text
mode ``whlink: <reason>``.  argparse usage errors are always text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cover import build_cover
from .errors import CrossCheckError, InputError, WhlinkError
from .invariants import link_divisor, link_invariants
from .primes import primes_4l_minus_1
from .realization import realize, search_weight_systems
from .smale import smale_decompositions
from .verify import run_verification
from .weights import WeightSystem


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_weights(text: str) -> tuple:
    try:
        weights = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"could not parse weights {text!r}; expected e.g. 1,2,3")
    return weights


def _system_from_args(args) -> WeightSystem:
    return WeightSystem(_parse_weights(args.weights), args.degree)


def _add_system_flags(parser) -> None:
    parser.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,2,3")
    parser.add_argument("--degree", required=True, type=int, help="weighted degree d")


def _add_format_flag(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="text",
        help="output format (default: text)",
    )


def _cmd_genus(args) -> int:
    ws = _system_from_args(args)
    g = ws.genus()
    link_divisor(ws)
    if args.format == "json":
        _emit_json(
            {
                "weights": list(ws.weights),
                "degree": ws.degree,
                "genus": g,
                "fano_index": ws.fano_index(),
            }
        )
    else:
        print(f"{ws}: genus {g}, Fano index {ws.fano_index()}")
    return 0


def _describe_link(ws, inv) -> str:
    betti = "b1" if ws.n == 3 else "b2"
    lines = [f"{ws}: divisor {inv.divisor}", f"  {betti} = {inv.multiplicity_of_unity}"]
    if inv.genus is not None:
        lines.append(f"  genus = {inv.genus}")
    if inv.delta_at_one is not None:
        lines.append(f"  |H_2| = Delta(1) = {inv.delta_at_one}")
    if inv.char_poly is not None:
        lines.append(f"  Delta degree = {len(inv.char_poly) - 1}")
    return "\n".join(lines)


def _cmd_link(args) -> int:
    ws = _system_from_args(args)
    inv = link_invariants(ws)
    if args.format == "json":
        _emit_json(inv.as_json(ws))
    else:
        print(_describe_link(ws, inv))
    return 0


def _cmd_cover(args) -> int:
    base = _system_from_args(args)
    cover = build_cover(base, args.k, skip_direct_path=args.skip_direct_path)
    if args.format == "json":
        _emit_json(cover.as_json())
    else:
        print(_describe_link(base, cover.base_invariants))
        print(_describe_link(cover.cover_system, cover.invariants))
        agree = "skipped" if cover.paths_agree is None else "agree"
        print(f"  divisor paths: {agree}")
    return 0


def _cmd_realize(args) -> int:
    cert = realize(args.k, prime=args.prime)
    if args.format == "json":
        _emit_json(cert.as_json())
        return 0
    print(
        f"k = {cert.k}: degree p = {cert.chosen_p}, family weights "
        f"{cert.family.system}, |H_2| = {cert.h2_order}"
    )
    if cert.group_undetermined:
        print(f"  order {cert.h2_order} admits {len(cert.candidates)} manifolds:")
    else:
        print("  manifold determined:")
    for m in cert.candidates:
        print(f"    {m.label()}")
    return 0


def _cmd_smale_enum(args) -> int:
    candidates = smale_decompositions(args.k)
    if args.format == "json":
        _emit_json(
            {
                "k": args.k,
                "count": len(candidates),
                "unique": len(candidates) == 1,
                "candidates": [m.as_json() for m in candidates],
            }
        )
    else:
        print(f"|H_2| = {args.k}^2: {len(candidates)} candidate manifold(s)")
        for m in candidates:
            divisors = ", ".join(str(q) for q in m.elementary_divisors())
            print(f"  {m.label()}  (elementary divisors {{{divisors}}})")
    return 0


def _cmd_primes(args) -> int:
    primes = primes_4l_minus_1(args.limit)
    if args.format == "json":
        _emit_json({"limit": args.limit, "primes": primes})
    else:
        print(" ".join(map(str, primes)) if primes else "(none)")
    return 0


def _cmd_search(args) -> int:
    systems = search_weight_systems(args.genus, args.max_degree)
    if args.format == "json":
        _emit_json(
            {
                "target_genus": args.genus,
                "max_degree": args.max_degree,
                "count": len(systems),
                "systems": [ws.as_json() for ws in systems],
            }
        )
    else:
        print(f"{len(systems)} system(s) of genus {args.genus} with d <= {args.max_degree}")
        for ws in systems:
            print(f"  {ws}")
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(max_degree=args.max_degree, max_k=args.max_k)
    if args.format == "json":
        _emit_json(report.as_json())
    else:
        for check in report.checks:
            status = "ok" if check.ok else "FAILED"
            print(f"{check.name}: {check.checked} checks, {check.failed} failures [{status}]")
            for failure in check.failures:
                print(f"    {failure}")
    if not report.ok:
        raise CrossCheckError("verification failed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="whlink",
        description=(
            "Exact invariants of links of weighted homogeneous singularities "
            "and the rational homology 5-spheres realized by their branched covers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", help="genus and Fano index of a 3-variable system")
    _add_system_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("link", help="full invariant record of a link")
    _add_system_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("cover", help="build and verify a k-fold branched cover")
    _add_system_flags(p)
    p.add_argument("-k", type=int, required=True, help="cover exponent, coprime to the degree")
    p.add_argument(
        "--skip-direct-path",
        action="store_true",
        help="skip the direct 4-variable divisor computation",
    )
    _add_format_flag(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("realize", help="realize |H_2| = k^2 by a genus-one cover")
    p.add_argument("k", type=int, help="square root of the target H_2 order")
    p.add_argument("--prime", type=int, default=None, help="family prime to use instead of the smallest")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("smale-enum", help="all spin 5-manifolds with |H_2| = k^2")
    p.add_argument("k", type=int, help="square root of the H_2 order")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_smale_enum)

    p = sub.add_parser("primes", help="family primes congruent to 3 mod 4")
    p.add_argument("--limit", type=int, required=True, help="upper bound, inclusive")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("search", help="enumerate weight systems of a given genus")
    p.add_argument("--genus", type=int, required=True, help="target genus")
    p.add_argument("--max-degree", type=int, required=True, help="largest degree to scan")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run the cross-validation sweeps")
    p.add_argument("--max-degree", type=int, default=40, help="grid degree bound (default 40)")
    p.add_argument("--max-k", type=int, default=12, help="largest cover exponent (default 12)")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except WhlinkError as exc:
        code = 1 if isinstance(exc, InputError) else 2
        reason = str(exc) if code == 1 else f"internal consistency failure: {exc}"
        if args.format == "json":
            line = json.dumps(
                {"class": type(exc).__name__, "error": reason, "exit_code": code},
                sort_keys=True,
            )
        else:
            line = f"whlink: {reason}"
        print(line, file=sys.stderr)
        return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
