"""Traced replay: each op re-run as the public zdpoly calls its command makes.

Every call gets a span parented to its op's span (the calls that
``run_verification`` makes internally are replayed after it, parented to its
span).  The replay rebuilds the command's stdout from the calls' results, so
the caller can check it against the command's recorded output, and it derives
the op's work counts from the same results.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import time

from zdpoly import closedform, domcount, numtheory, polyring, verify, zdgraph
from zdpoly.domcount import DominationKind
from zdpoly.errors import UnsupportedFamilyError

ORDINARY = DominationKind.ORDINARY
TOTAL = DominationKind.TOTAL


class Tracer:
    """Spans as dicts: id, parent, name, start_ns, end_ns, and ``error`` (the
    exception type) when the call raised."""

    def __init__(self):
        self.spans: list[dict] = []

    def open(self, name: str, parent: int | None, **attrs) -> dict:
        span = {"id": len(self.spans), "parent": parent, "name": name, **attrs}
        self.spans.append(span)
        span["start_ns"] = time.perf_counter_ns()
        return span

    def close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()

    def call(self, parent: int, name: str, fn, *args):
        """``fn(*args)`` inside a span; returns (result, span id)."""
        span = self.open(name, parent)
        try:
            return fn(*args), span["id"]
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self.close(span)


class Work:
    """Work counts derived from the replayed calls' inputs and outputs."""

    def __init__(self):
        self.classes = 0          # sum of k over class-graph builds
        self.vertices = 0         # sum of |V| over class-graph builds
        self.engine_patterns = 0  # sum of 2^k over class-engine calls
        self.brute_subsets = 0    # sum of 2^|V| over brute-force calls
        self.max_coeff_bits = 0   # widest class-engine coefficient

    def as_dict(self) -> dict:
        return dict(vars(self))


class Replay:
    """Replays ops into one Tracer; ``problems`` collects disagreements
    between a replayed call and the command's own result."""

    def __init__(self, tracer: Tracer):
        self.t = tracer

    def run(self, argv: list[str]) -> dict:
        op = self.t.open("op", None, argv=" ".join(argv))
        self.work = Work()
        self.problems: list[str] = []
        try:
            stdout = self._dispatch(argv, op["id"])
        finally:
            self.t.close(op)
        return {"stdout": stdout, "work": self.work.as_dict(),
                "problems": self.problems, "span": op["id"]}

    def _dispatch(self, argv, op):
        cmd, n = argv[0], int(argv[1])
        kind = TOTAL if "--total" in argv else ORDINARY
        if cmd == "table":
            return self._table(op, n)
        if cmd == "poly":
            return self._poly(op, n, kind)
        if cmd == "gamma":
            return self._gamma(op, n)
        if cmd == "verify":
            return self._verify(op, n, kind)
        raise ValueError(f"no replay for {argv}")

    # --- calls shared by several commands -------------------------------

    def _build(self, parent, n):
        cg, _ = self.t.call(parent, "zdgraph.build_class_graph",
                            zdgraph.build_class_graph, n)
        self.work.classes += len(cg.classes)
        self.work.vertices += cg.vertex_count
        return cg

    def _engine(self, parent, cg, kind):
        poly, _ = self.t.call(parent, "domcount.class_engine_poly",
                              domcount.class_engine_poly, cg, kind)
        self.work.engine_patterns += 2 ** len(cg.classes)
        self.work.max_coeff_bits = max(
            [self.work.max_coeff_bits] + [c.bit_length() for c in poly.coeffs])
        return poly

    def _gamma_of(self, parent, poly):
        return self.t.call(parent, "polyring.gamma", domcount.gamma_from_poly,
                           poly)[0]

    def _family(self, parent, n):
        fact, _ = self.t.call(parent, "numtheory.factorize",
                              numtheory.factorize, n)
        return self.t.call(parent, "numtheory.classify_family",
                           numtheory.classify_family, fact)[0]

    # --- one method per command, mirroring zdpoly.cli -------------------

    def _table(self, op, n):
        header = (f"{'n':>5} {'family':<8} {'|V|':>5} {'|E|':>6} "
                  f"{'gamma':>5} {'gamma_t':>7} {'D(1)':>14}")
        cg = self._build(op, n)
        if cg.vertex_count == 0:
            return header + "\n"
        d_poly = self._engine(op, cg, ORDINARY)
        dt_poly = self._engine(op, cg, TOTAL)
        tag = self._family(op, n)
        edges, _ = self.t.call(op, "zdgraph.edge_count", zdgraph.edge_count,
                               cg)
        gamma = _undef(self._gamma_of(op, d_poly))
        gamma_total = _undef(self._gamma_of(op, dt_poly))
        value, _ = self.t.call(op, "polyring.evaluate_at",
                               polyring.evaluate_at, d_poly, 1)
        text, _ = self.t.call(op, "polyring.render", str, value)
        return (f"{header}\n{n:>5} {tag.label:<8} {cg.vertex_count:>5} "
                f"{edges:>6} {gamma:>5} {gamma_total:>7} {text:>14}\n")

    def _poly(self, op, n, kind):
        cg = self._build(op, n)
        poly = self._engine(op, cg, kind)
        coeffs, _ = self.t.call(op, "polyring.render", _decimal, poly)
        gamma = self._gamma_of(op, poly)
        return json.dumps({"n": n, "kind": kind.value, "method": "classes",
                           "coeffs": coeffs, "gamma": gamma}) + "\n"

    def _gamma(self, op, n):
        cg = self._build(op, n)
        gamma = self._gamma_of(op, self._engine(op, cg, ORDINARY))
        gamma_total = self._gamma_of(op, self._engine(op, cg, TOTAL))
        return f"gamma={_undef(gamma)} gamma_total={_undef(gamma_total)}\n"

    def _verify(self, op, n, kind):
        rep, vid = self.t.call(op, "verify.run_verification",
                               verify.run_verification, n, kind)
        payload, _ = self.t.call(op, "verify.report_to_dict",
                                 verify.report_to_dict, rep)
        self._verify_children(vid, n, kind, payload)
        return json.dumps(payload) + "\n"

    def _verify_children(self, vid, n, kind, payload):
        """The calls run_verification makes, each in a span under its span;
        their results must match the report's."""
        got = {}
        cg = self._build(vid, n)
        limit = domcount.resolve_brute_limit(None)
        if cg.vertex_count <= limit:
            vg, _ = self.t.call(vid, "zdgraph.expand_vertex_graph",
                                zdgraph.expand_vertex_graph, cg)
            got["brute"], _ = self.t.call(vid, "domcount.brute_force_poly",
                                          domcount.brute_force_poly, vg, kind,
                                          limit)
            self.work.brute_subsets += 2 ** len(vg.labels)
        got["classes"] = self._engine(vid, cg, kind)
        tag = self._family(vid, n)
        closed_fn = (closedform.closed_domination if kind is ORDINARY
                     else closedform.closed_total_domination)
        try:
            got["closed"], _ = self.t.call(vid, "closedform." + closed_fn.__name__,
                                           closed_fn, n, tag)
        except UnsupportedFamilyError:
            pass
        gammas = {kind: self._gamma_of(vid, got["classes"])}
        other = TOTAL if kind is ORDINARY else ORDINARY
        gammas[other] = self._gamma_of(vid, self._engine(vid, cg, other))
        self._family(vid, n)  # run_verification classifies n a second time
        for method, entry in payload["methods"].items():
            replayed = _decimal(got[method]) if method in got else None
            if entry.get("coeffs") != replayed:
                self.problems.append(
                    f"replayed {method} result differs from the report's")
        if (payload["gamma"], payload["gamma_total"]) != (
                gammas[ORDINARY], gammas[TOTAL]):
            self.problems.append("replayed gammas differ from the report's")


def _decimal(poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _undef(value):
    return "undef" if value is None else value
