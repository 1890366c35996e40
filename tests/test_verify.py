"""Cross-verification reports: statuses, skip reasons, disagreement detail,
serialization, and a crash-free sweep."""

import json

import pytest

import zdpoly.domcount as dc
from zdpoly import cli, verify
from zdpoly.domcount import DominationKind, domination_number
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
    assert brute.skipped == "56 vertices exceeds the brute-force limit of 40"
    assert rep.status == STATUS_MISMATCH
    assert rep.compared == (METHOD_CLASSES, METHOD_CLOSED)
    assert rep.disagreements
    assert {d.method for d in rep.disagreements} == {METHOD_CLASSES,
                                                     METHOD_CLOSED}

    rep_t = run_verification(105, TOT)
    assert rep_t.status == STATUS_PARTIAL
    assert rep_t.compared == (METHOD_CLASSES, METHOD_CLOSED)


def test_brute_limit_argument(monkeypatch):
    """run_verification takes no limit: brute force runs up to
    domcount.BRUTE_CEILING vertices, read at each call."""
    with pytest.raises(TypeError):
        run_verification(45, ORD, brute_limit=10)

    monkeypatch.setattr(dc, "BRUTE_CEILING", 19)
    rep = run_verification(45, ORD)  # 20 vertices
    assert rep.outcomes[METHOD_BRUTE].skipped == (
        "20 vertices exceeds the brute-force limit of 19")
    assert rep.compared == (METHOD_CLASSES, METHOD_CLOSED)

    monkeypatch.setattr(dc, "BRUTE_CEILING", 20)
    rep = run_verification(45, ORD)
    assert rep.outcomes[METHOD_BRUTE].polynomial is not None


def test_compute_dispatches_each_method(monkeypatch):
    cg = build_class_graph(15)
    for method in METHODS:
        assert compute(method, cg, ORD) == Polynomial([0, 0, 9, 16, 15, 6, 1])
    with pytest.raises(ValueError):
        compute("psychic", cg, ORD)

    def no_expansion(cg):
        raise AssertionError("expanded a graph over the brute-force limit")

    monkeypatch.setattr(verify, "expand_vertex_graph", no_expansion)
    # n = 82 has 41 vertices, the fewest over the limit.
    with pytest.raises(CapacityError, match="^41 vertices exceeds the "
                                            "brute-force limit of 40$"):
        compute(METHOD_BRUTE, build_class_graph(82), ORD)
    monkeypatch.setattr(dc, "BRUTE_CEILING", 5)
    with pytest.raises(CapacityError, match="^6 vertices exceeds the "
                                            "brute-force limit of 5$"):
        compute(METHOD_BRUTE, cg, ORD)


def test_closed_form_refused_over_vertex_limit(monkeypatch):
    # n = 2 * 100003 is a 2p graph of 100 003 vertices: over the shared
    # limit, so the term sum must refuse the formula before the fold.
    def no_fold(*args):
        raise AssertionError("ran a closed form over the vertex limit")

    monkeypatch.setattr(dc, "_assemble", no_fold)
    with pytest.raises(CapacityError) as err:
        compute(METHOD_CLOSED, build_class_graph(200006), ORD)
    assert str(err.value) == ("n=200006 has 100003 vertices, over the "
                              "closed-form limit of 50000")


def test_gamma_read_from_the_keys_when_the_polynomial_is_refused(monkeypatch):
    # The engine's polynomial is refused over the work limit after the
    # up-set walk; gamma is read by domination_number all the same, as
    # `gamma` reads it.
    monkeypatch.setattr(dc, "ENGINE_WORK_LIMIT", 0)
    rep = run_verification(360, ORD)
    assert rep.outcomes[METHOD_CLASSES].polynomial is None
    cg = build_class_graph(360)
    assert rep.gamma == domination_number(cg, ORD) == 3
    assert rep.gamma_total == domination_number(cg, TOT) == 3


_UPSETS_REFUSED = ("counting up-sets of divisor classes for n=2520 reached "
                   "10001, over the class-engine up-set limit of 10000")


@pytest.mark.parametrize("n, kind, limits, walks, skipped", [
    (360, ORD, {}, [360], None),
    (360, ORD, {"ENGINE_WORK_LIMIT": 0}, [360],
     "summing the binomial rows for n=360 counts 34716 operations, over "
     "the class-engine work limit of 0"),
    (2520, ORD, {"ENGINE_UPSET_LIMIT": 10_000}, [2520], _UPSETS_REFUSED),
    (2520, TOT, {}, [], None),
    (2520, TOT, {"ENGINE_UPSET_LIMIT": 10_000}, [], None),
], ids=["360-built", "360-sum-refused", "2520-walk-refused", "2520-total",
        "2520-total-D-refused"])
def test_each_kind_is_walked_once(monkeypatch, n, kind, limits, walks,
                                  skipped):
    """run_verification walks the D up-sets once, for the classes method
    of D alone, whether the polynomial is built, its sum is refused or the
    walk is refused; D_t's table is a product and walks nothing.  Neither
    gamma is read from a walk of the up-sets, so no refusal of one
    leaves a gamma undefined."""
    walk = dc._upset_terms
    walked = []

    def counted(*args):
        walked.append(args[0])
        return walk(*args)

    monkeypatch.setattr(dc, "_upset_terms", counted)
    for name, value in limits.items():
        monkeypatch.setattr(dc, name, value)
    rep = run_verification(n, kind)
    assert walked == walks
    assert (rep.gamma, rep.gamma_total) == ((3, 3) if n == 360 else (4, 4))
    assert rep.outcomes[METHOD_CLASSES].skipped == skipped


def test_brute_runs_up_to_its_limit():
    """n = 75 (34 vertices) is the first p^2q modulus that meets the
    formula's hypothesis, and brute force confirms the engine against the
    formula's overcount; n = 82 has 41 vertices, the fewest over the
    limit."""
    rep = run_verification(75, ORD)
    assert rep.status == STATUS_MISMATCH
    assert rep.compared == METHODS
    assert {(d.degree, d.method): d.coefficient
            for d in rep.disagreements} == {
        (9, METHOD_BRUTE): 17002206,
        (9, METHOD_CLASSES): 17002206,
        (9, METHOD_CLOSED): 17002208,
    }

    rep = run_verification(82, ORD)
    assert rep.outcomes[METHOD_BRUTE].skipped == (
        "41 vertices exceeds the brute-force limit of 40")
    assert rep.compared == (METHOD_CLASSES, METHOD_CLOSED)


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


def _printed_gammas(capsys, *argv):
    """(gamma, gamma_total) of each JSON record ``zdpoly argv --json``
    prints: one for ``gamma``, one per row for ``table``."""
    assert cli.main([*argv, "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    return [(r["gamma"], r["gamma_total"])
            for r in (printed if isinstance(printed, list) else [printed])]


def test_sweep_never_crashes(capsys):
    """Every report is well formed, brute force agrees with the engine
    wherever it runs, and the report's gammas are what ``gamma`` and
    ``table`` print; ``table`` prints no row for a prime."""
    for n in range(2, 121):
        gammas = _printed_gammas(capsys, "gamma", str(n))
        rows = gammas if build_class_graph(n).vertex_count else []
        for kind in (ORD, TOT):
            rep = run_verification(n, kind)
            assert [(rep.gamma, rep.gamma_total)] == gammas, (n, kind)
            total = ["--total"] if kind is TOT else []
            assert _printed_gammas(capsys, "table", str(n), str(n),
                                   *total) == rows, (n, kind)
            assert rep.status in (STATUS_ALL_AGREE, STATUS_PARTIAL,
                                  STATUS_MISMATCH)
            assert rep.outcomes[METHOD_CLASSES].polynomial is not None
            if rep.status == STATUS_MISMATCH:
                assert rep.disagreements
            else:
                assert not rep.disagreements
            if rep.status == STATUS_ALL_AGREE:
                assert rep.compared == METHODS
            if METHOD_BRUTE in rep.compared:
                assert (rep.outcomes[METHOD_BRUTE].polynomial
                        == rep.outcomes[METHOD_CLASSES].polynomial), (n, kind)


def test_rejects_n_below_two():
    with pytest.raises(ValueError):
        run_verification(1, ORD)
    with pytest.raises(ValueError):
        run_verification(0, TOT)
