"""Command-line front end.

Each ``_cmd_*`` function computes its answer and returns ``(payload,
write_text)``: the dict printed by ``--format json``, and a function of
no arguments that prints the text form, called only in text mode.
``main`` alone reads ``--format``: it prints one of the two, maps errors
to exit codes, and exits 2 after printing a payload whose ``"ok"`` is
false (a failed ``verify``).  The JSON is byte-stable across identical
invocations (sorted keys, canonical orderings, big integers as base-10
strings).  Exit codes: 0 success, 1 invalid input or output that could
not be written, 2 internal consistency failure.  An error is one line on
stderr: in JSON mode an object with its ``class``, ``error`` and
``exit_code``, in text mode ``whlink: <reason>``.  argparse usage errors
are always text.  A reader that closes the pipe early ends the run with
exit code 1 and no message.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from functools import cache

from .cover import build_cover
from .errors import CrossCheckError, InputError, WhlinkError
from .invariants import genus_betti_check, link_divisor, link_invariants
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


_quote = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` prints it, nested at ``pad``.

    ``json.dumps`` with an ``indent`` runs CPython's pure-Python encoder;
    this prints the same bytes, and joins a list of strings, the bulk of
    most payloads, in C-level calls.  ``_quote`` escapes exactly ``"``,
    ``\\`` and every character outside 0x20-0x7e, so a list whose joined
    text has none of them, such as ``delta_poly``'s digit strings, is
    joined between plain quotes without quoting each item.  A non-``str``
    dict key raises ``TypeError``.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            plain = "".join(value)
        except TypeError:  # not all strings
            body = sep.join([_json_text(item, inner) for item in value])
        else:
            if plain.isascii() and plain.isprintable() and '"' not in plain and "\\" not in plain:
                body = '"' + ('"' + sep + '"').join(value) + '"'
            else:
                body = sep.join(map(_quote, value))
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_quote(k)}: {_json_text(value[k], inner)}" for k in sorted(value)])
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(value)


def _emit_json(payload: dict) -> None:
    print(_json_text(payload, ""))


def _system_from_args(args) -> WeightSystem:
    try:
        weights = tuple(int(part) for part in args.weights.split(","))
    except ValueError:
        raise InputError(f"could not parse weights {args.weights!r}; expected e.g. 1,2,3")
    return WeightSystem(weights, args.degree)


def _cmd_genus(args) -> tuple:
    ws = _system_from_args(args)
    g = ws.genus()
    if error := genus_betti_check(ws, g, link_divisor(ws)):
        raise error
    fano = ws.fano_index()
    payload = {**ws.as_json(), "genus": g, "fano_index": fano}
    return payload, lambda: print(f"{ws}: genus {g}, Fano index {fano}")


def _describe_link(inv) -> str:
    i = inv.system.n - 2  # the link is (2i + 1)-dimensional; the divisor gives b_i and |H_i|
    b_i = inv.multiplicity_of_unity + (i == 0)  # but b_0 - 1 for i = 0, whose H_0 is free
    lines = [f"{inv.system}: divisor {inv.divisor}", f"  b{i} = {b_i}"]
    if inv.genus is not None:
        lines.append(f"  genus = {inv.genus}")
    if inv.delta_at_one is not None and i > 0:
        lines.append(f"  |H_{i}| = Delta(1) = {inv.delta_at_one}")
    if inv.char_poly is not None:
        lines.append(f"  Delta degree = {len(inv.char_poly) - 1}")
    return "\n".join(lines)


def _cmd_link(args) -> tuple:
    inv = link_invariants(_system_from_args(args))
    return inv.as_json(), lambda: print(_describe_link(inv))


def _cmd_cover(args) -> tuple:
    cover = build_cover(_system_from_args(args), args.k, skip_direct_path=args.skip_direct_path)

    def write_text():
        print(_describe_link(cover.base_invariants))
        print(_describe_link(cover.invariants))
        print(f"  divisor paths: {'skipped' if cover.paths_agree is None else 'agree'}")

    return cover.as_json(), write_text


def _cmd_realize(args) -> tuple:
    cert = realize(args.k, prime=args.prime)

    def write_text():
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

    return cert.as_json(), write_text


def _cmd_smale_enum(args) -> tuple:
    candidates = smale_decompositions(args.k)
    payload = {
        "k": args.k,
        "count": len(candidates),
        "unique": len(candidates) == 1,
        "candidates": [m.as_json() for m in candidates],
    }

    def write_text():
        print(f"|H_2| = {args.k}^2: {len(candidates)} candidate manifold(s)")
        for m in candidates:
            divisors = ", ".join(str(q) for q in m.elementary_divisors())
            print(f"  {m.label()}  (elementary divisors {{{divisors}}})")

    return payload, write_text


def _cmd_primes(args) -> tuple:
    primes = primes_4l_minus_1(args.limit)
    payload = {"limit": args.limit, "primes": primes}
    return payload, lambda: print(" ".join(map(str, primes)) if primes else "(none)")


def _cmd_search(args) -> tuple:
    systems = search_weight_systems(args.genus, args.max_degree)
    payload = {
        "target_genus": args.genus,
        "max_degree": args.max_degree,
        "count": len(systems),
        "systems": [ws.as_json() for ws in systems],
    }

    def write_text():
        print(f"{len(systems)} system(s) of genus {args.genus} with d <= {args.max_degree}")
        for ws in systems:
            print(f"  {ws}")

    return payload, write_text


def _cmd_verify(args) -> tuple:
    report = run_verification(max_degree=args.max_degree, max_k=args.max_k)

    def write_text():
        for check in report.checks:
            status = "ok" if check.ok else "FAILED"
            print(f"{check.name}: {check.checked} checks, {check.failed} failures [{status}]")
            for failure in check.failures:
                print(f"    {failure}")

    return report.as_json(), write_text


@cache
def build_parser() -> _Parser:
    """The one parser ``main`` uses, built on first call."""
    parser = _Parser(
        prog="whlink",
        description=(
            "Exact invariants of links of weighted homogeneous singularities "
            "and the rational homology 5-spheres realized by their branched covers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, system=False):
        p = sub.add_parser(name, help=help)
        if system:
            p.add_argument("--weights", required=True, help="comma-separated weights, e.g. 1,2,3")
            p.add_argument("--degree", required=True, type=int, help="weighted degree d")
        p.set_defaults(func=func)
        return p

    command("genus", _cmd_genus, "genus and Fano index of a 3-variable system", system=True)
    command("link", _cmd_link, "full invariant record of a link", system=True)

    p = command("cover", _cmd_cover, "build and verify a k-fold branched cover", system=True)
    p.add_argument("-k", type=int, required=True, help="cover exponent, coprime to the degree")
    p.add_argument(
        "--skip-direct-path",
        action="store_true",
        help="skip the direct 4-variable divisor computation",
    )

    p = command("realize", _cmd_realize, "realize |H_2| = k^2 by a genus-one cover")
    p.add_argument("k", type=int, help="square root of the target H_2 order")
    p.add_argument(
        "--prime", type=int, default=None, help="family prime to use instead of the smallest"
    )

    p = command("smale-enum", _cmd_smale_enum, "all spin 5-manifolds with |H_2| = k^2")
    p.add_argument("k", type=int, help="square root of the H_2 order")

    p = command("primes", _cmd_primes, "family primes congruent to 3 mod 4")
    p.add_argument("--limit", type=int, required=True, help="upper bound, inclusive")

    p = command("search", _cmd_search, "enumerate weight systems of a given genus")
    p.add_argument("--genus", type=int, required=True, help="target genus")
    p.add_argument("--max-degree", type=int, required=True, help="largest degree to scan")

    p = command("verify", _cmd_verify, "run the cross-validation sweeps")
    p.add_argument("--max-degree", type=int, default=40, help="grid degree bound (default 40)")
    p.add_argument("--max-k", type=int, default=12, help="largest cover exponent (default 12)")

    # added last, so --format stays the last option in every usage line
    for p in sub.choices.values():
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="text",
            help="output format (default: text)",
        )
    return parser


def _print_error(exc: Exception, reason: str, code: int, fmt: str) -> int:
    fields = {"class": type(exc).__name__, "error": reason, "exit_code": code}
    line = json.dumps(fields, sort_keys=True) if fmt == "json" else f"whlink: {reason}"
    print(line, file=sys.stderr)
    return code


def _drop_stdout() -> None:
    """Point stdout at the null device, so the flush at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, write_text = args.func(args)
        if args.format == "json":
            _emit_json(payload)
        else:
            write_text()
        sys.stdout.flush()
        if payload.get("ok") is False:
            raise CrossCheckError("verification failed")
        return 0
    except WhlinkError as exc:
        code = 1 if isinstance(exc, InputError) else 2
        reason = str(exc) if code == 1 else f"internal consistency failure: {exc}"
        return _print_error(exc, reason, code, args.format)
    except OSError as exc:  # stdout closed or full
        _drop_stdout()
        if exc.errno == errno.EPIPE:
            return 1
        return _print_error(exc, f"cannot write output: {exc.strerror or exc}", 1, args.format)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
