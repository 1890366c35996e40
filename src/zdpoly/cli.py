"""Command-line interface.

Commands:
    poly    print one counting polynomial for a single n
    verify  run all applicable methods for n and compare them
    graph   emit the zero-divisor graph (DOT, JSON, or class summary)
    gamma   print domination and total-domination numbers
    table   survey a range of n with per-row invariants

Exit codes: 0 success, 1 usage error, 2 verification mismatch under
--strict, 3 computation over capacity, 4 no closed form for the family.
``main(argv)`` returns the status for every outcome, ``--help`` included.
Run as a program, a command whose stdout is closed early (``| head``) ends
quietly on SIGPIPE where the platform has it, as other Unix tools do.
JSON output is a single line on stdout; human notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .domcount import (BRUTE_CEILING, DominationKind, engine_terms,
                       gamma_from_poly, terms_count, terms_gamma)
from .errors import CapacityError, UnsupportedFamilyError
from .numtheory import classify_family
from .verify import (METHOD_CLASSES, METHODS, STATUS_MISMATCH, compute,
                     format_report, report_to_dict, run_verification)
from .zdgraph import (build_class_graph, edge_count, edge_list,
                      expand_vertex_graph, export_dot)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAPACITY = 3
EXIT_UNSUPPORTED = 4


def _kind(args) -> DominationKind:
    return DominationKind.TOTAL if args.total else DominationKind.ORDINARY


def cmd_poly(args) -> int:
    n = args.n
    cg = build_class_graph(n)
    kind = _kind(args)
    poly = compute(args.method, cg, kind)
    if cg.vertex_count == 0:
        print(f"note: {n} has no nonzero zero-divisors; the graph is empty",
              file=sys.stderr)
    if args.json:
        print(json.dumps({
            "n": n,
            "kind": kind.value,
            "method": args.method,
            "coeffs": [str(c) for c in poly.coeffs],
            "gamma": gamma_from_poly(poly),
        }))
    else:
        print(poly)
    return EXIT_OK


def cmd_verify(args) -> int:
    rep = run_verification(args.n, _kind(args))
    if args.json:
        print(json.dumps(report_to_dict(rep)))
    else:
        print(format_report(rep))
    if args.strict and rep.status == STATUS_MISMATCH:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_graph(args) -> int:
    n = args.n
    cg = build_class_graph(n)
    if args.format == "classes":
        print(json.dumps({
            "n": n,
            "vertex_count": cg.vertex_count,
            "edge_count": edge_count(cg),
            "classes": [
                {"divisor": c.divisor, "size": c.size,
                 "is_clique": bool(cg.neighbors[i] >> i & 1)}
                for i, c in enumerate(cg.classes)
            ],
            "adjacency": [[i, j] for i, j in cg.adjacency_pairs()],
        }))
    elif args.format == "json":
        vg = expand_vertex_graph(cg)
        print(json.dumps({
            "n": n,
            "vertex_count": len(vg.labels),
            "edge_count": edge_count(cg),
            "vertices": list(vg.labels),
            "edges": [[a, b] for a, b in edge_list(vg)],
        }))
    else:
        vg = expand_vertex_graph(cg)
        sys.stdout.write(export_dot(vg))
        print(f"vertices={len(vg.labels)} edges={edge_count(cg)}",
              file=sys.stderr)
    return EXIT_OK


def cmd_gamma(args) -> int:
    n = args.n
    cg = build_class_graph(n)
    gamma, gamma_total = (terms_gamma(cg, engine_terms(cg, k))
                          for k in DominationKind)
    if args.json:
        print(json.dumps(
            {"n": n, "gamma": gamma, "gamma_total": gamma_total}))
    else:
        print(f"gamma={'undef' if gamma is None else gamma} "
              f"gamma_total={'undef' if gamma_total is None else gamma_total}")
    return EXIT_OK


def cmd_table(args) -> int:
    """One row per n with a nonempty graph, each printed as it is answered.
    A refused n gets its capacity note on stderr and no row; the status is
    then EXIT_CAPACITY, after the last row."""
    lo, hi = args.n_from, args.n_to
    if lo < 2:
        raise ValueError(f"range must start at 2 or above, got {lo}")
    if hi < lo:
        raise ValueError(f"empty range: {lo}..{hi}")
    kind = _kind(args)
    value_header = "Dt(1)" if kind is DominationKind.TOTAL else "D(1)"
    if not args.json:
        print(f"{'n':>5} {'family':<8} {'|V|':>5} {'|E|':>6} "
              f"{'gamma':>5} {'gamma_t':>7} {value_header:>14}")
    rows = []
    status = EXIT_OK
    for n in range(lo, hi + 1):
        try:  # D first: its refusal is noted where both kinds are refused
            cg = build_class_graph(n)
            if cg.vertex_count == 0:
                continue
            terms = {k: engine_terms(cg, k) for k in DominationKind}
        except CapacityError as exc:
            _note_capacity(exc)
            status = EXIT_CAPACITY
            continue
        gamma, gamma_total = (terms_gamma(cg, t) for t in terms.values())
        count = terms_count(terms[kind])
        family = classify_family(cg.factorization).label
        if args.json:
            rows.append({
                "n": n,
                "family": family,
                "vertices": cg.vertex_count,
                "edges": edge_count(cg),
                "gamma": gamma,
                "gamma_total": gamma_total,
                "kind": kind.value,
                "value_at_1": str(count),
            })
        else:
            print(f"{n:>5} {family:<8} {cg.vertex_count:>5} "
                  f"{edge_count(cg):>6} "
                  f"{'undef' if gamma is None else gamma:>5} "
                  f"{'undef' if gamma_total is None else gamma_total:>7} "
                  f"{count:>14}")
    if args.json:
        print(json.dumps(rows))
    return status


def _note_capacity(exc: CapacityError) -> None:
    print(f"zdpoly: capacity: {exc}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdpoly",
        description="Domination polynomials of zero-divisor graphs of Z_n.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="print one counting polynomial")
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("--total", action="store_true",
                        help="total domination instead of ordinary")
    p_poly.add_argument("--method", choices=METHODS, default=METHOD_CLASSES,
                        help="computation to run (default classes); brute "
                             f"takes at most {BRUTE_CEILING} vertices")
    p_poly.add_argument("--json", action="store_true")
    p_poly.set_defaults(func=cmd_poly)

    p_verify = sub.add_parser("verify", help="compare all applicable methods",
                              description="brute force is skipped past "
                                          f"{BRUTE_CEILING} vertices")
    p_verify.add_argument("n", type=int)
    p_verify.add_argument("--total", action="store_true",
                          help="total domination instead of ordinary")
    p_verify.add_argument("--strict", action="store_true",
                          help="exit 2 when methods disagree")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_graph = sub.add_parser("graph", help="emit the zero-divisor graph")
    p_graph.add_argument("n", type=int)
    p_graph.add_argument("--format", choices=("dot", "json", "classes"),
                         default="dot")
    p_graph.set_defaults(func=cmd_graph)

    p_gamma = sub.add_parser("gamma", help="domination numbers of one n")
    p_gamma.add_argument("n", type=int)
    p_gamma.add_argument("--json", action="store_true")
    p_gamma.set_defaults(func=cmd_gamma)

    p_table = sub.add_parser("table", help="survey a range of moduli")
    p_table.add_argument("n_from", type=int)
    p_table.add_argument("n_to", type=int)
    p_table.add_argument("--total", action="store_true",
                         help="tabulate total-domination counts")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    # argparse exits with status 2 on bad arguments, and 2 is this package's
    # mismatch status, so its exits are turned into returned statuses here.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # Lift the 4 300-digit int-to-str cap (about 14 300 vertices) for this
    # command only; the functions are missing before Python 3.10.7.
    if hasattr(sys, "set_int_max_str_digits"):
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CapacityError as exc:
        _note_capacity(exc)
        return EXIT_CAPACITY
    except UnsupportedFamilyError as exc:
        print(f"zdpoly: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"zdpoly: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(digits)


def entrypoint() -> None:
    # The process is ours, so a closed pipe ends it as SIGPIPE does, quietly.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
