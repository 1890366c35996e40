"""Cross-verification reports: statuses, skip reasons, disagreement detail,
serialization, and a crash-free sweep."""

import json

import pytest

from zdpoly import verify
from zdpoly.domcount import DominationKind
from zdpoly.errors import CapacityError
from zdpoly.polyring import Polynomial
from zdpoly.verify import (METHOD_BRUTE, METHOD_CLASSES, METHOD_CLOSED,
                           METHODS, STATUS_ALL_AGREE, STATUS_MISMATCH,
                           STATUS_PARTIAL, compute, format_report,
                           report_to_dict, run_verification)
from zdpoly.zdgraph import build_class_graph

ORD = DominationKind.ORDINARY
TOT = DominationKind.TOTAL


def test_all_three_agree_for_nine():
    rep = run_verification(9, ORD)
    assert rep.status == STATUS_ALL_AGREE
    assert rep.compared == METHODS
    assert not rep.disagreements
    assert rep.gamma == 1
    assert rep.gamma_total == 2
    polys = {rep.outcomes[m].polynomial for m in METHODS}
    assert len(polys) == 1


def test_total_mismatch_pinpointed_for_27():
    rep = run_verification(27, TOT)
    assert rep.status == STATUS_MISMATCH
    assert rep.compared == METHODS
    table = {(d.degree, d.method): d.coefficient for d in rep.disagreements}
    assert table == {
        (2, METHOD_BRUTE): 13,
        (2, METHOD_CLASSES): 13,
        (2, METHOD_CLOSED): 12,
    }
    assert rep.gamma == 1
    assert rep.gamma_total == 2


def test_prime_modulus_runs_partially():
    rep = run_verification(13, ORD)
    assert rep.status == STATUS_PARTIAL
    assert rep.compared == (METHOD_BRUTE, METHOD_CLASSES)
    closed = rep.outcomes[METHOD_CLOSED]
    assert closed.polynomial is None
    assert "no closed-form" in closed.skipped
    # the empty graph's domination polynomial is 1; no positive-degree term
    assert rep.gamma is None
    assert rep.gamma_total is None


def test_large_graph_skips_brute_with_reason():
    rep = run_verification(105, ORD)
    brute = rep.outcomes[METHOD_BRUTE]
    assert brute.polynomial is None
    assert "56" in brute.skipped and "26" in brute.skipped
    assert rep.status == STATUS_MISMATCH
    assert rep.compared == (METHOD_CLASSES, METHOD_CLOSED)
    assert rep.disagreements
    assert {d.method for d in rep.disagreements} == {METHOD_CLASSES,
                                                     METHOD_CLOSED}

    rep_t = run_verification(105, TOT)
    assert rep_t.status == STATUS_PARTIAL
    assert rep_t.compared == (METHOD_CLASSES, METHOD_CLOSED)


def test_brute_limit_argument():
    rep = run_verification(45, ORD, brute_limit=10)
    assert rep.outcomes[METHOD_BRUTE].polynomial is None
    assert "20 vertices exceeds the brute-force limit of 10" \
        in rep.outcomes[METHOD_BRUTE].skipped

    rep = run_verification(45, ORD, brute_limit=20)
    assert rep.outcomes[METHOD_BRUTE].polynomial is not None

    with pytest.raises(ValueError):
        run_verification(6, ORD, brute_limit=-1)


def test_compute_dispatches_each_method(monkeypatch):
    cg = build_class_graph(15)
    for method in METHODS:
        assert compute(method, cg, ORD) == Polynomial([0, 0, 9, 16, 15, 6, 1])
    with pytest.raises(ValueError):
        compute("psychic", cg, ORD)

    def no_expansion(cg):
        raise AssertionError("expanded a graph over the brute-force limit")

    monkeypatch.setattr(verify, "expand_vertex_graph", no_expansion)
    with pytest.raises(CapacityError, match="6 vertices exceeds"):
        compute(METHOD_BRUTE, cg, ORD, brute_limit=5)
    # 65 vertices is within a limit of 100 but over the brute-force ceiling
    with pytest.raises(CapacityError, match=r"2\^65 vertex subsets"):
        compute(METHOD_BRUTE, build_class_graph(90), ORD, brute_limit=100)


def test_mismatch_lists_every_running_method():
    rep = run_verification(45, ORD)
    assert rep.status == STATUS_MISMATCH
    assert rep.compared == METHODS
    degrees = sorted({d.degree for d in rep.disagreements})
    assert degrees == [9, 10, 11]
    by_degree = {}
    for d in rep.disagreements:
        by_degree.setdefault(d.degree, {})[d.method] = d.coefficient
    for degree, row in by_degree.items():
        assert set(row) == set(METHODS)
        assert row[METHOD_BRUTE] == row[METHOD_CLASSES]
        assert row[METHOD_CLOSED] != row[METHOD_CLASSES]
    diffs = {deg: by_degree[deg][METHOD_CLOSED] - by_degree[deg][METHOD_CLASSES]
             for deg in degrees}
    assert diffs == {9: 4, 10: 6, 11: 4}


def test_report_to_dict_round_trips_through_json():
    rep = run_verification(27, TOT)
    d = report_to_dict(rep)
    assert d["n"] == 27
    assert d["kind"] == "Dt"
    assert d["family"] == "p^alpha"
    assert d["params"] == {"p": 3, "alpha": 3}
    assert d["hypothesis_met"] is True
    assert d["methods"]["closed"]["coeffs"][2] == "12"
    assert d["methods"]["brute"]["coeffs"][2] == "13"
    assert d["agreement"]["status"] == "mismatch"
    assert d["agreement"]["disagreements"] == [
        {"degree": 2, "method": "brute", "coefficient": "13"},
        {"degree": 2, "method": "classes", "coefficient": "13"},
        {"degree": 2, "method": "closed", "coefficient": "12"},
    ]
    assert d["gamma"] == 1 and d["gamma_total"] == 2
    assert set(d["timings_ms"]) == set(METHODS)
    assert d == json.loads(json.dumps(d))


def test_report_to_dict_records_skip_reasons():
    d = report_to_dict(run_verification(105, ORD))
    assert "skipped" in d["methods"]["brute"]
    assert "coeffs" not in d["methods"]["brute"]
    assert "56" in d["methods"]["brute"]["skipped"]


def test_format_report_text():
    text = format_report(run_verification(45, ORD))
    assert text.splitlines()[0] == \
        "n=45 kind=D family=p^2q (p=3, q=5) hypothesis_met=no"
    assert "status: mismatch (compared: brute, classes, closed)" in text
    assert "degree 9: brute=" in text
    assert text.splitlines()[-1] == "gamma=2 gamma_total=2"

    text = format_report(run_verification(105, ORD))
    assert "skipped:" in text
    assert "n=105 kind=D family=pqr (p=7, q=5, r=3) hypothesis_met=yes" \
        in text

    text = format_report(run_verification(13, ORD))
    assert "gamma=undef gamma_total=undef" in text


def test_sweep_never_crashes():
    for n in range(2, 121):
        for kind in (ORD, TOT):
            rep = run_verification(n, kind)
            assert rep.status in (STATUS_ALL_AGREE, STATUS_PARTIAL,
                                  STATUS_MISMATCH)
            assert rep.outcomes[METHOD_CLASSES].polynomial is not None
            if rep.status == STATUS_MISMATCH:
                assert rep.disagreements
            else:
                assert not rep.disagreements
            if rep.status == STATUS_ALL_AGREE:
                assert rep.compared == METHODS


def test_rejects_n_below_two():
    with pytest.raises(ValueError):
        run_verification(1, ORD)
    with pytest.raises(ValueError):
        run_verification(0, TOT)
