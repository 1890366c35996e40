"""Cross-verification of the three computation methods.

For a given modulus and polynomial kind, run whichever of brute force, the
class engine, and the closed form apply, record why the others were skipped,
and compare the results coefficient by coefficient.  Disagreements are
reported with the degree and every participating method's value, so a wrong
formula is pinpointed rather than merely flagged.
"""

from __future__ import annotations

import time
from contextlib import suppress
from typing import NamedTuple

from .closedform import closed_domination, closed_total_domination
from .domcount import (DominationKind, brute_force_poly, check_brute_size,
                       class_engine_poly, engine_terms, sum_terms, terms_gamma)
from .errors import CapacityError, UnsupportedFamilyError
from .numtheory import FamilyTag, classify_family, factorize
from .polyring import Polynomial
from .zdgraph import ClassGraph, build_class_graph, expand_vertex_graph

METHOD_BRUTE = "brute"
METHOD_CLASSES = "classes"
METHOD_CLOSED = "closed"
METHODS = (METHOD_BRUTE, METHOD_CLASSES, METHOD_CLOSED)

STATUS_ALL_AGREE = "all_agree"
STATUS_PARTIAL = "partial"
STATUS_MISMATCH = "mismatch"


def compute(method: str, cg: ClassGraph, kind: DominationKind) -> Polynomial:
    """Counting polynomial of ``cg`` by one of METHODS.

    Each method checks its own limits before its work and raises
    CapacityError past them; brute force refuses a graph over its vertex
    limit before it is expanded.  The closed forms take ``classify_family``
    of ``cg.n`` and raise UnsupportedFamilyError when no formula covers it.
    """
    if method == METHOD_BRUTE:
        check_brute_size(cg.vertex_count)
        return brute_force_poly(expand_vertex_graph(cg), kind)
    if method == METHOD_CLASSES:
        return class_engine_poly(cg, kind)
    if method == METHOD_CLOSED:
        closed = (closed_domination if kind is DominationKind.ORDINARY
                  else closed_total_domination)
        return closed(cg.n, classify_family(factorize(cg.n)))
    raise ValueError(f"unknown method {method!r}")


class MethodOutcome(NamedTuple):
    """One method's result: a polynomial, or the reason it was skipped."""

    polynomial: Polynomial | None
    skipped: str | None
    millis: float


class Disagreement(NamedTuple):
    degree: int
    method: str
    coefficient: int


class VerificationReport(NamedTuple):
    n: int
    family: FamilyTag
    kind: DominationKind
    outcomes: dict[str, MethodOutcome]
    status: str
    compared: tuple[str, ...]
    disagreements: tuple[Disagreement, ...]
    gamma: int | None
    gamma_total: int | None


def _timed(fn):
    start = time.perf_counter()
    try:
        value = fn()
        err = None
    except (CapacityError, UnsupportedFamilyError) as exc:
        value = None
        err = str(exc)
    millis = (time.perf_counter() - start) * 1000.0
    return MethodOutcome(polynomial=value, skipped=err, millis=millis)


def run_verification(n: int, kind: DominationKind) -> VerificationReport:
    """Report on n for ``kind`` by every method of METHODS.  Each kind's
    up-sets are walked at most once: ``classes`` sums its kind's table, and
    ``terms_gamma`` reads both gammas from the tables, None where refused."""
    cg = build_class_graph(n)
    terms = dict.fromkeys(DominationKind)  # ORDINARY, then TOTAL

    def classes():
        terms[kind] = engine_terms(cg, kind)
        return sum_terms(cg, terms[kind], "class-engine")
    outcomes = {m: _timed(classes if m == METHOD_CLASSES else
                          lambda m=m: compute(m, cg, kind))
                for m in METHODS}
    ran = tuple(m for m in METHODS if outcomes[m].polynomial is not None)
    polys = {m: outcomes[m].polynomial for m in ran}
    distinct = set(polys.values())
    disagreements: list[Disagreement] = []
    if len(distinct) > 1:
        status = STATUS_MISMATCH
        top = max(p.degree for p in distinct)
        for degree in range(top + 1):
            values = {m: polys[m].coefficient(degree) for m in ran}
            if len(set(values.values())) > 1:
                for m in ran:
                    disagreements.append(Disagreement(degree, m, values[m]))
    elif len(ran) == len(METHODS):
        status = STATUS_ALL_AGREE
    else:
        status = STATUS_PARTIAL
    for k in terms.keys() - {kind}:
        with suppress(CapacityError):
            terms[k] = engine_terms(cg, k)
    gamma, gamma_total = (None if t is None else terms_gamma(cg, t)
                          for t in terms.values())
    return VerificationReport(
        n=n, family=classify_family(factorize(n)), kind=kind,
        outcomes=outcomes, status=status, compared=ran,
        disagreements=tuple(disagreements),
        gamma=gamma, gamma_total=gamma_total,
    )


def report_to_dict(rep: VerificationReport) -> dict:
    """JSON-ready form of a report; polynomial coefficients become decimal
    strings so arbitrarily large counts survive serialization."""
    methods = {}
    for m in METHODS:
        outcome = rep.outcomes[m]
        if outcome.polynomial is not None:
            methods[m] = {"coeffs": [str(c) for c in outcome.polynomial.coeffs]}
        else:
            methods[m] = {"skipped": outcome.skipped}
    agreement: dict = {"status": rep.status, "compared": list(rep.compared)}
    if rep.disagreements:
        agreement["disagreements"] = [
            {"degree": d.degree, "method": d.method,
             "coefficient": str(d.coefficient)}
            for d in rep.disagreements
        ]
    return {
        "n": rep.n,
        "family": rep.family.label,
        "params": rep.family.params(),
        "hypothesis_met": rep.family.hypothesis_met,
        "kind": rep.kind.value,
        "methods": methods,
        "agreement": agreement,
        "gamma": rep.gamma,
        "gamma_total": rep.gamma_total,
        "timings_ms": {m: round(rep.outcomes[m].millis, 3) for m in METHODS},
    }


def format_report(rep: VerificationReport) -> str:
    """Multi-line human-readable report."""
    params = rep.family.params()
    param_text = ("(" + ", ".join(f"{k}={v}" for k, v in params.items()) + ") "
                  if params else "")
    lines = [
        f"n={rep.n} kind={rep.kind.value} family={rep.family.label} "
        f"{param_text}hypothesis_met={'yes' if rep.family.hypothesis_met else 'no'}"
    ]
    for m in METHODS:
        outcome = rep.outcomes[m]
        if outcome.polynomial is not None:
            lines.append(f"  {m:<7} [{outcome.millis:8.2f} ms] {outcome.polynomial}")
        else:
            lines.append(f"  {m:<7} skipped: {outcome.skipped}")
    lines.append(f"status: {rep.status} "
                 f"(compared: {', '.join(rep.compared) if rep.compared else 'none'})")
    by_degree: dict[int, list[Disagreement]] = {}
    for d in rep.disagreements:
        by_degree.setdefault(d.degree, []).append(d)
    for degree in sorted(by_degree):
        vals = " ".join(f"{d.method}={d.coefficient}" for d in by_degree[degree])
        lines.append(f"  degree {degree}: {vals}")
    gamma = "undef" if rep.gamma is None else rep.gamma
    gamma_total = "undef" if rep.gamma_total is None else rep.gamma_total
    lines.append(f"gamma={gamma} gamma_total={gamma_total}")
    return "\n".join(lines)
