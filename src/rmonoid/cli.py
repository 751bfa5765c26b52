"""
Command-line front end.

    rmonoid analyze '<spec>'
    rmonoid idempotents '<spec>' [--mode general|jtrivial|auto] [--format json|text]
    rmonoid lattice '<spec>' [--dot FILE] [--cayley FILE]
    rmonoid verify '<spec>'

The spec argument is JSON text, or a path to a file holding it. Exit
codes: 0 success, 1 verification failure, 2 input not R-trivial, 3 parse
or input error (including unreadable spec files and unwritable output
files), 4 element cap exceeded, 5 internal error (an unexpected exception,
reported on one line).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import output
from .errors import (CapExceeded, ConsistencyError, NotRTrivial, SpecError,
                     StabilizationError)
from .families import load, parse_spec
from .lattice import build_semilattice, verify_weak_order_axioms
from .norton import e_system, verify_system
from .order import is_j_trivial, weak_preorder
from .verify import run_full_suite

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_NOT_R_TRIVIAL = 2
EXIT_INPUT = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


def _read_spec_arg(arg: str):
    text = arg
    stripped = arg.lstrip()
    if not stripped.startswith("{") and os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_spec(text)


def _load_monoid(arg: str):
    return load(_read_spec_arg(arg))


def _print_witness(m, order, out):
    x, y = order.witness
    print(
        f"not R-trivial: elements {x} ({output.element_word(m, x) or '1'}) "
        f"and {y} ({output.element_word(m, y) or '1'}) are mutually reachable",
        file=out,
    )


def cmd_analyze(args) -> int:
    m = _load_monoid(args.spec)
    order = weak_preorder(m)
    if not order.is_partial_order:
        payload = output.analyze_payload(m, order)
        print(output.to_json(payload))
        _print_witness(m, order, sys.stderr)
        return EXIT_NOT_R_TRIVIAL
    lat = build_semilattice(m, order)
    axioms = verify_weak_order_axioms(lat)
    payload = output.analyze_payload(
        m, order, lat, axioms, j_trivial=is_j_trivial(m, order)
    )
    print(output.to_json(payload))
    return EXIT_OK if axioms.passed else EXIT_VERIFICATION


def cmd_idempotents(args) -> int:
    m = _load_monoid(args.spec)
    order = weak_preorder(m)
    if not order.is_partial_order:
        _print_witness(m, order, sys.stderr)
        return EXIT_NOT_R_TRIVIAL
    lat = build_semilattice(m, order)
    system = e_system(lat, mode=args.mode)
    report = verify_system(lat, system)
    payload = output.system_payload(lat, system)
    if args.format == "json":
        print(output.to_json(payload))
    else:
        for entry in payload["idempotents"]:
            terms = " ".join(
                f"{t['coeff']:+d}*[{t['word'] or '1'}]" for t in entry["terms"]
            )
            print(f"e{entry['label']} = {terms}")
        for line in report.lines():
            print(line)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_lattice(args) -> int:
    m = _load_monoid(args.spec)
    order = weak_preorder(m)
    if not order.is_partial_order:
        _print_witness(m, order, sys.stderr)
        return EXIT_NOT_R_TRIVIAL
    lat = build_semilattice(m, order)
    payload = {
        "monoid": output.monoid_payload(m),
        "nodes": output.lattice_payload(lat),
        "hasse_edges": [list(e) for e in output.hasse_edges(lat)],
    }
    print(output.to_json(payload))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(output.dot_hasse(lat))
    if args.cayley:
        with open(args.cayley, "w", encoding="utf-8") as fh:
            fh.write(output.dot_cayley(m))
    return EXIT_OK


def cmd_verify(args) -> int:
    m = _load_monoid(args.spec)
    report = run_full_suite(m)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every `add_argument` asks
    argparse for the terminal size, which costs more than a parse."""
    parser = argparse.ArgumentParser(
        prog="rmonoid",
        description="Idempotent systems for finite R-trivial monoids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="size, triviality, chain length, lattice")
    p.add_argument("spec", help="JSON monoid spec (text or file path)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("idempotents", help="compute and verify the full system")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("general", "jtrivial", "auto"),
                   default="auto")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("lattice", help="semilattice nodes and Hasse edges")
    p.add_argument("spec")
    p.add_argument("--dot", metavar="FILE", help="write Hasse diagram DOT")
    p.add_argument("--cayley", metavar="FILE", help="write right Cayley DOT")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify", help="run the complete invariant suite")
    p.add_argument("spec")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, OSError, UnicodeDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NotRTrivial as err:
        x, y = err.witness
        print(f"not R-trivial: witness pair ({x}, {y})", file=sys.stderr)
        return EXIT_NOT_R_TRIVIAL
    except CapExceeded as err:
        print(f"cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except (ConsistencyError, StabilizationError) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_VERIFICATION
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
