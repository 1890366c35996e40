"""End-to-end command-line tests through subprocess: output formats, exit
codes, environment handling, and byte-stable JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdpoly

CMD = [sys.executable, "-m", "zdpoly.cli"]
# The child process imports the same zdpoly that this test process imported.
SRC = str(Path(zdpoly.__file__).resolve().parent.parent)


def run_cli(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "ZDPOLY_BRUTE_LIMIT"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=env, timeout=120)


def test_poly_text_output():
    res = run_cli("poly", "9")
    assert res.returncode == 0
    assert res.stdout == "2*x + x^2\n"

    res = run_cli("poly", "9", "--total")
    assert res.returncode == 0
    assert res.stdout == "x^2\n"


def test_poly_json_stable_and_correct():
    first = run_cli("poly", "75", "--json")
    second = run_cli("poly", "75", "--json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["n"] == 75
    assert payload["kind"] == "D"
    assert payload["method"] == "classes"
    assert payload["gamma"] == 2
    assert payload["coeffs"][0] == "0"
    assert len(payload["coeffs"]) == 35  # degree |V| = 34


def test_poly_methods_agree_for_pq():
    expected = ["0", "0", "9", "16", "15", "6", "1"]
    for method in ("brute", "classes", "closed"):
        res = run_cli("poly", "15", "--method", method, "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["method"] == method
        assert payload["coeffs"] == expected


def test_poly_prime_notes_empty_graph():
    res = run_cli("poly", "7")
    assert res.returncode == 0
    assert res.stdout == "1\n"
    assert "empty" in res.stderr


def test_poly_unsupported_family_exit_code():
    res = run_cli("poly", "100", "--method", "closed")
    assert res.returncode == 4
    assert res.stdout == ""
    assert "100" in res.stderr


def test_poly_brute_capacity_exit_code():
    res = run_cli("poly", "240", "--method", "brute")
    assert res.returncode == 3
    assert "capacity" in res.stderr


def test_brute_limit_env_and_flag():
    res = run_cli("poly", "45", "--method", "brute",
                  env_extra={"ZDPOLY_BRUTE_LIMIT": "10"})
    assert res.returncode == 3

    res = run_cli("poly", "45", "--method", "brute", "--brute-limit", "20",
                  env_extra={"ZDPOLY_BRUTE_LIMIT": "10"})
    assert res.returncode == 0

    res = run_cli("poly", "45", "--method", "brute",
                  env_extra={"ZDPOLY_BRUTE_LIMIT": "plenty"})
    assert res.returncode == 1
    assert "ZDPOLY_BRUTE_LIMIT" in res.stderr


@pytest.mark.parametrize("argv", [
    (),
    ("frobnicate", "9"),
    ("poly",),
    ("poly", "abc"),
    ("poly", "1"),
    ("poly", "9", "--method", "psychic"),
    ("poly", "6", "--method", "brute", "--brute-limit", "-1"),
])
def test_usage_errors_exit_one(argv):
    res = run_cli(*argv)
    assert res.returncode == 1


def test_verify_text_and_strict():
    res = run_cli("verify", "27", "--total")
    assert res.returncode == 0
    assert "status: mismatch" in res.stdout

    res = run_cli("verify", "27", "--total", "--strict")
    assert res.returncode == 2

    res = run_cli("verify", "9", "--strict")
    assert res.returncode == 0
    assert "status: all_agree" in res.stdout


def test_verify_json():
    res = run_cli("verify", "45", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["family"] == "p^2q"
    assert payload["hypothesis_met"] is False
    assert payload["agreement"]["status"] == "mismatch"
    degrees = {d["degree"] for d in payload["agreement"]["disagreements"]}
    assert degrees == {9, 10, 11}


def test_graph_classes_format():
    res = run_cli("graph", "75", "--format", "classes")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["vertex_count"] == 34
    assert payload["edge_count"] == 86
    assert payload["classes"][2] == {"divisor": 15, "size": 4,
                                     "is_clique": True}
    assert [c["divisor"] for c in payload["classes"]] == [3, 5, 15, 25]


def test_graph_dot_format():
    res = run_cli("graph", "6")
    assert res.returncode == 0
    assert res.stdout == ('graph zdiv_6 {\n'
                          '  "2";\n  "3";\n  "4";\n'
                          '  "2" -- "3";\n  "3" -- "4";\n'
                          '}\n')
    assert "vertices=3 edges=2" in res.stderr


def test_graph_json_format():
    res = run_cli("graph", "8", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["vertices"] == [2, 4, 6]
    assert payload["edges"] == [[2, 4], [4, 6]]
    assert payload["edge_count"] == 2


def test_graph_expansion_capacity():
    res = run_cli("graph", "131072")
    assert res.returncode == 3


def test_gamma_command():
    res = run_cli("gamma", "27")
    assert res.returncode == 0
    assert res.stdout == "gamma=1 gamma_total=2\n"

    res = run_cli("gamma", "4")
    assert res.stdout == "gamma=1 gamma_total=undef\n"

    res = run_cli("gamma", "27", "--json")
    assert json.loads(res.stdout) == {"n": 27, "gamma": 1, "gamma_total": 2}


def test_table_json():
    res = run_cli("table", "2", "20", "--json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert [row["n"] for row in rows] == [4, 6, 8, 9, 10, 12, 14, 15, 16,
                                          18, 20]
    assert rows[0] == {"n": 4, "family": "p^2", "vertices": 1, "edges": 0,
                       "gamma": 1, "gamma_total": None, "kind": "D",
                       "value_at_1": "1"}
    assert all(row["kind"] == "D" for row in rows)

    res = run_cli("table", "14", "16", "--total", "--json")
    rows = json.loads(res.stdout)
    assert all(row["kind"] == "Dt" for row in rows)
    by_n = {row["n"]: row for row in rows}
    # Dt(Z_15) at 1 sums the total-domination counts: 8+16+14+6+1 = 45
    assert by_n[15]["value_at_1"] == "45"


def test_table_text():
    res = run_cli("table", "2", "20")
    assert res.returncode == 0
    header = res.stdout.splitlines()[0]
    assert "family" in header and "gamma_t" in header and "D(1)" in header

    res = run_cli("table", "2", "20", "--total")
    assert "Dt(1)" in res.stdout.splitlines()[0]


def test_table_empty_range_is_usage_error():
    res = run_cli("table", "9", "4")
    assert res.returncode == 1
