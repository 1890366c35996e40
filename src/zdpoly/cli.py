"""Command-line interface.

Commands:
    poly    print one counting polynomial for a single n
    verify  run all applicable methods for n and compare them
    graph   emit the zero-divisor graph (DOT, JSON, or class summary)
    gamma   print domination and total-domination numbers
    table   survey a range of n with per-row invariants

Exit codes: 0 success, 1 usage error, 2 verification mismatch under
--strict, 3 computation over capacity, 4 no closed form for the family.
JSON output is a single line on stdout; human notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .domcount import DominationKind, class_engine_poly, gamma_from_poly
from .errors import CapacityError, UnsupportedFamilyError
from .numtheory import classify_family, factorize
from .polyring import evaluate_at
from .verify import (METHOD_CLASSES, METHODS, STATUS_MISMATCH, compute,
                     format_report, report_to_dict, run_verification)
from .zdgraph import (build_class_graph, edge_count, edge_list,
                      expand_vertex_graph, export_dot)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAPACITY = 3
EXIT_UNSUPPORTED = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; this package reserves 2
    for verification mismatches, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _require_modulus(n: int) -> int:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return n


def _kind(args) -> DominationKind:
    return DominationKind.TOTAL if args.total else DominationKind.ORDINARY


def cmd_poly(args) -> int:
    n = _require_modulus(args.n)
    kind = _kind(args)
    cg = build_class_graph(n)
    method = METHOD_CLASSES if args.method == "auto" else args.method
    poly = compute(method, cg, kind, args.brute_limit)
    if cg.vertex_count == 0:
        print(f"note: {n} has no nonzero zero-divisors; the graph is empty",
              file=sys.stderr)
    if args.json:
        print(json.dumps({
            "n": n,
            "kind": kind.value,
            "method": method,
            "coeffs": [str(c) for c in poly.coeffs],
            "gamma": gamma_from_poly(poly),
        }))
    else:
        print(poly)
    return EXIT_OK


def cmd_verify(args) -> int:
    n = _require_modulus(args.n)
    rep = run_verification(n, _kind(args), args.brute_limit)
    if args.json:
        print(json.dumps(report_to_dict(rep)))
    else:
        print(format_report(rep))
    if args.strict and rep.status == STATUS_MISMATCH:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_graph(args) -> int:
    n = _require_modulus(args.n)
    cg = build_class_graph(n)
    if args.format == "classes":
        print(json.dumps({
            "n": n,
            "vertex_count": cg.vertex_count,
            "edge_count": edge_count(cg),
            "classes": [
                {"divisor": c.divisor, "size": c.size, "is_clique": c.is_clique}
                for c in cg.classes
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
    n = _require_modulus(args.n)
    cg = build_class_graph(n)
    gamma = gamma_from_poly(class_engine_poly(cg, DominationKind.ORDINARY))
    gamma_total = gamma_from_poly(class_engine_poly(cg, DominationKind.TOTAL))
    if args.json:
        print(json.dumps(
            {"n": n, "gamma": gamma, "gamma_total": gamma_total}))
    else:
        print(f"gamma={'undef' if gamma is None else gamma} "
              f"gamma_total={'undef' if gamma_total is None else gamma_total}")
    return EXIT_OK


def cmd_table(args) -> int:
    lo, hi = args.n_from, args.n_to
    if lo < 2:
        raise ValueError(f"range must start at 2 or above, got {lo}")
    if hi < lo:
        raise ValueError(f"empty range: {lo}..{hi}")
    kind = _kind(args)
    value_header = "Dt(1)" if kind is DominationKind.TOTAL else "D(1)"
    rows = []
    for n in range(lo, hi + 1):
        cg = build_class_graph(n)
        if cg.vertex_count == 0:
            continue
        d_poly = class_engine_poly(cg, DominationKind.ORDINARY)
        dt_poly = class_engine_poly(cg, DominationKind.TOTAL)
        chosen = dt_poly if kind is DominationKind.TOTAL else d_poly
        tag = classify_family(factorize(n))
        rows.append({
            "n": n,
            "family": tag.label,
            "vertices": cg.vertex_count,
            "edges": edge_count(cg),
            "gamma": gamma_from_poly(d_poly),
            "gamma_total": gamma_from_poly(dt_poly),
            "kind": kind.value,
            "value_at_1": str(evaluate_at(chosen, 1)),
        })
    if args.json:
        print(json.dumps(rows))
        return EXIT_OK
    header = f"{'n':>5} {'family':<8} {'|V|':>5} {'|E|':>6} " \
             f"{'gamma':>5} {'gamma_t':>7} {value_header:>14}"
    print(header)
    for row in rows:
        gamma = "undef" if row["gamma"] is None else row["gamma"]
        gamma_total = ("undef" if row["gamma_total"] is None
                       else row["gamma_total"])
        print(f"{row['n']:>5} {row['family']:<8} {row['vertices']:>5} "
              f"{row['edges']:>6} {gamma:>5} {gamma_total:>7} "
              f"{row['value_at_1']:>14}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zdpoly",
        description="Domination polynomials of zero-divisor graphs of Z_n.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_poly = sub.add_parser("poly", help="print one counting polynomial")
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("--total", action="store_true",
                        help="total domination instead of ordinary")
    p_poly.add_argument("--method", choices=("auto", *METHODS),
                        default="auto")
    p_poly.add_argument("--brute-limit", type=int, default=None,
                        help="vertex cap for --method brute (default 26, or "
                             "ZDPOLY_BRUTE_LIMIT)")
    p_poly.add_argument("--json", action="store_true")
    p_poly.set_defaults(func=cmd_poly)

    p_verify = sub.add_parser("verify", help="compare all applicable methods")
    p_verify.add_argument("n", type=int)
    p_verify.add_argument("--total", action="store_true")
    p_verify.add_argument("--strict", action="store_true",
                          help="exit 2 when methods disagree")
    p_verify.add_argument("--brute-limit", type=int, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"zdpoly: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except UnsupportedFamilyError as exc:
        print(f"zdpoly: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"zdpoly: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
