"""Acceptance gate: one test per shipping criterion, each with its stated
runtime budget.  Every test prints a `criterion N: PASS` line (visible under
`pytest -s`); under `pytest -v` the one-line-per-criterion report is the
verbose test list itself."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import zdpoly
from zdpoly.cli import main as cli_main
from zdpoly.closedform import closed_domination, closed_total_domination
from zdpoly.domcount import (DominationKind, brute_force_poly,
                             class_engine_poly, gamma_from_poly)
from zdpoly.numtheory import Family, classify_family, factorize
from zdpoly.polyring import ONE, Polynomial, binomial_expand, evaluate_at
from zdpoly.verify import (METHOD_BRUTE, METHOD_CLASSES, METHOD_CLOSED,
                           STATUS_ALL_AGREE, STATUS_MISMATCH, STATUS_PARTIAL,
                           run_verification)
from zdpoly.zdgraph import VertexGraph, build_class_graph, expand_vertex_graph

ORD = DominationKind.ORDINARY
TOT = DominationKind.TOTAL
DEFINITE = (STATUS_ALL_AGREE, STATUS_PARTIAL, STATUS_MISMATCH)


def _report(num, text):
    print(f"criterion {num}: PASS — {text}")


def _engine(n, kind):
    return class_engine_poly(build_class_graph(n), kind)


def _closed_pair(n):
    tag = classify_family(factorize(n))
    return closed_domination(n, tag), closed_total_domination(n, tag)


def test_criterion_1_graph75_structure():
    """`graph 75 --format classes` reports 34 vertices and 86 edges in <1s."""
    # The child process imports the same zdpoly that this test process did.
    src = str(Path(zdpoly.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "zdpoly.cli", "graph", "75",
         "--format", "classes"],
        capture_output=True, text=True, env=env, timeout=10)
    elapsed = time.perf_counter() - start
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["vertex_count"] == 34
    assert payload["edge_count"] == 86
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"|V|=34 |E|=86 in {elapsed:.2f}s")


def test_criterion_2_simple_family_formulas_match_engine():
    """For every n <= 200 in the square-of-a-prime, twice-a-prime, or
    two-odd-primes family with hypotheses met, both closed forms equal the
    class engine exactly, within 5 s total."""
    simple = (Family.P_SQUARE, Family.TWO_P, Family.PQ)
    start = time.perf_counter()
    checked = 0
    for n in range(4, 201):
        tag = classify_family(factorize(n))
        if tag.family not in simple or not tag.hypothesis_met:
            continue
        d_closed, dt_closed = _closed_pair(n)
        assert d_closed == _engine(n, ORD), n
        assert dt_closed == _engine(n, TOT), n
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 50
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(2, f"{checked} moduli, exact both kinds, {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence_sweep():
    """Brute force equals the class engine for both kinds on every composite
    n in [4, 100] with at most 22 vertices, within 2 minutes."""
    start = time.perf_counter()
    checked = 0
    for n in range(4, 101):
        cg = build_class_graph(n)
        if cg.vertex_count == 0 or cg.vertex_count > 22:
            continue
        vg = expand_vertex_graph(cg)
        for kind in (ORD, TOT):
            assert brute_force_poly(vg, kind) == class_engine_poly(cg, kind), \
                (n, kind)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 30
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _report(3, f"{checked} moduli, both kinds, {elapsed:.2f}s")


def test_criterion_4_fixture_polynomials():
    """Exact fixture polynomials for n = 9, 6, 15, by every method."""
    fixtures = {
        (9, ORD): Polynomial([0, 2, 1]),
        (9, TOT): Polynomial([0, 0, 1]),
        (6, ORD): Polynomial([0, 1, 3, 1]),
        (6, TOT): Polynomial([0, 0, 2, 1]),
        (15, ORD): Polynomial([0, 0, 9, 16, 15, 6, 1]),
    }
    for (n, kind), expected in fixtures.items():
        cg = build_class_graph(n)
        assert brute_force_poly(expand_vertex_graph(cg), kind) == expected
        assert class_engine_poly(cg, kind) == expected
        tag = classify_family(factorize(n))
        closed = (closed_domination(n, tag) if kind is ORD
                  else closed_total_domination(n, tag))
        assert closed == expected
    _report(4, "n=9, 6, 15 fixtures exact across all three methods")


def _assert_definitely_adjudicated(rep):
    """A report must take a stand: a definite status, and a mismatch exactly
    when the methods that ran produced different polynomials."""
    assert rep.status in DEFINITE
    polys = {rep.outcomes[m].polynomial for m in rep.compared}
    if len(polys) > 1:
        assert rep.status == STATUS_MISMATCH
        assert rep.disagreements
        degrees = {d.degree for d in rep.disagreements}
        for deg in degrees:
            methods_at = {d.method for d in rep.disagreements
                          if d.degree == deg}
            assert methods_at == set(rep.compared)
    else:
        assert rep.status != STATUS_MISMATCH
        assert not rep.disagreements


def test_criterion_5_p2q_adjudication():
    """n = 45 is brute-force checked against both closed forms and the verdict
    is recorded; n = 75 records the engine-vs-closed verdict; <30 s."""
    start = time.perf_counter()
    for n in (45, 75):
        for kind in (ORD, TOT):
            rep = run_verification(n, kind)
            if n == 45:
                assert rep.outcomes[METHOD_BRUTE].polynomial is not None
            assert rep.outcomes[METHOD_CLASSES].polynomial is not None
            assert rep.outcomes[METHOD_CLOSED].polynomial is not None
            _assert_definitely_adjudicated(rep)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(5, f"45 and 75 adjudicated both kinds in {elapsed:.2f}s")


def test_criterion_6_known_discrepancy_surfaced():
    """verify 27 --total pinpoints degree 2: oracle and engine count 13 total
    dominating pairs, the family formula counts 12; exit 0 plain, 2 strict."""
    assert expand_vertex_graph(build_class_graph(27)).labels == \
        (3, 6, 9, 12, 15, 18, 21, 24)
    rep = run_verification(27, TOT)
    assert rep.status == STATUS_MISMATCH
    table = {(d.degree, d.method): d.coefficient for d in rep.disagreements}
    assert table == {
        (2, METHOD_BRUTE): 13,
        (2, METHOD_CLASSES): 13,
        (2, METHOD_CLOSED): 12,
    }
    assert cli_main(["verify", "27", "--total"]) == 0
    assert cli_main(["verify", "27", "--total", "--strict"]) == 2
    _report(6, "13 vs 12 at degree 2 reported; exit codes 0 / 2")


def test_criterion_7_property_suites():
    """Engine polynomials for every composite n in [4, 300]: odd count at
    x = 1, top coefficient 1 at degree |V|, supersets of dominating sets
    dominate, and total counts never exceed ordinary; <30 s."""
    start = time.perf_counter()
    checked = 0
    for n in range(4, 301):
        cg = build_class_graph(n)
        nv = cg.vertex_count
        if nv == 0:
            continue
        d = class_engine_poly(cg, ORD)
        dt = class_engine_poly(cg, TOT)
        assert evaluate_at(d, 1) % 2 == 1, n
        assert d.degree == nv and d.coefficient(nv) == 1, n
        assert dt.degree in (-1, nv), n
        for i in range(nv):
            # each dominating i-set yields nv-i supersets of size i+1, and
            # each (i+1)-set is produced at most i+1 times
            assert d.coefficient(i) * (nv - i) <= \
                d.coefficient(i + 1) * (i + 1), (n, i)
        for i in range(nv + 1):
            assert dt.coefficient(i) <= d.coefficient(i), (n, i)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 200
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(7, f"{checked} moduli satisfy all four properties, {elapsed:.2f}s")


def test_criterion_8_domination_number_spot_checks():
    """(gamma, gamma_total) spot values, including the undefined case."""
    expected = {15: (2, 2), 35: (2, 2), 27: (1, 2), 81: (1, 2),
                125: (1, 2), 4: (1, None)}
    for n, (g, gt) in expected.items():
        cg = build_class_graph(n)
        assert gamma_from_poly(class_engine_poly(cg, ORD)) == g, n
        assert gamma_from_poly(class_engine_poly(cg, TOT)) == gt, n
    _report(8, "gamma/gamma_total all match, including undefined at n=4")


def _graph_from_edges(nv, edges):
    closed = [1 << i for i in range(nv)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return VertexGraph(n=0, labels=tuple(range(1, nv + 1)),
                       closed=tuple(closed))


def _join(g1, g2):
    n1, n2 = len(g1.labels), len(g2.labels)
    edges = [(i, j) for i in range(n1) for j in range(n1, n1 + n2)]
    for i in range(n1):
        for j in range(i + 1, n1):
            if g1.closed[i] >> j & 1:
                edges.append((i, j))
    for i in range(n2):
        for j in range(i + 1, n2):
            if g2.closed[i] >> j & 1:
                edges.append((n1 + i, n1 + j))
    return _graph_from_edges(n1 + n2, edges)


def join_domination(d1, d2, n1, n2):
    """Domination polynomial of the join of two graphs with n1 and n2
    vertices and domination polynomials d1, d2:

        ((1+x)^n1 - 1)((1+x)^n2 - 1) + d1 + d2
    """
    cross = (binomial_expand(n1) - ONE) * (binomial_expand(n2) - ONE)
    return cross + d1 + d2


def test_criterion_9_join_identity():
    """The join identity reproduces the brute-force count for every ordered
    join of complete and edgeless graphs on up to 4 vertices."""
    parts = []
    for a in range(1, 5):
        parts.append(_graph_from_edges(
            a, [(i, j) for i in range(a) for j in range(i + 1, a)]))
        parts.append(_graph_from_edges(a, []))
    checked = 0
    for g1 in parts:
        for g2 in parts:
            n1, n2 = len(g1.labels), len(g2.labels)
            formula = join_domination(brute_force_poly(g1, ORD),
                                      brute_force_poly(g2, ORD), n1, n2)
            assert formula == brute_force_poly(_join(g1, g2), ORD), (n1, n2)
            checked += 1
    assert checked == 64
    _report(9, "all 64 ordered joins of K_a / edgeless_a (a <= 4) exact")


def test_criterion_tail_large_family_reports_complete():
    """For n in {105, 165, 231, 243} both kinds: the engine and the closed
    form both run, and a definite agreement status is recorded."""
    for n in (105, 165, 231, 243):
        for kind in (ORD, TOT):
            rep = run_verification(n, kind)
            assert rep.outcomes[METHOD_CLASSES].polynomial is not None, n
            assert rep.outcomes[METHOD_CLOSED].polynomial is not None, n
            _assert_definitely_adjudicated(rep)
    _report("tail", "105/165/231/243 adjudicated for both kinds")
