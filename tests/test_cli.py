"""End-to-end command-line tests through subprocess: output formats, exit
codes, a closed pipe, and byte-stable JSON."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import zdpoly
from zdpoly import cli, closedform, domcount, verify

CMD = [sys.executable, "-m", "zdpoly.cli"]
# The child process imports the same zdpoly that this test process imported.
SRC = str(Path(zdpoly.__file__).resolve().parent.parent)


def child_env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=child_env(env_extra), timeout=120)


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
    """Brute force has one limit, 40 vertices, that neither a flag nor the
    variable once read as its default changes."""
    # n = 185 has 40 vertices and n = 82 has 41, the fewest over the limit.
    res = run_cli("poly", "185", "--method", "brute",
                  env_extra={"ZDPOLY_BRUTE_LIMIT": "10"})
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_cli("poly", "185").stdout

    res = run_cli("poly", "82", "--method", "brute",
                  env_extra={"ZDPOLY_BRUTE_LIMIT": "100"})
    assert res.returncode == 3
    assert res.stderr == ("zdpoly: capacity: 41 vertices exceeds the "
                          "brute-force limit of 40\n")

    res = run_cli("verify", "185", "--brute-limit", "10")
    assert res.returncode == 1
    assert res.stderr.splitlines()[-1] == (
        "zdpoly: error: unrecognized arguments: --brute-limit 10")


def _unquoted(line):
    # Later Python releases print argparse's "choose from" list unquoted.
    return line.replace("'", "")


USAGE_ERRORS = [
    ((), "zdpoly: error: the following arguments are required: command"),
    (("frobnicate", "9"),
     "zdpoly: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'poly', 'verify', 'graph', 'gamma', 'table')"),
    (("poly",), "zdpoly poly: error: the following arguments are required: n"),
    (("poly", "abc"),
     "zdpoly poly: error: argument n: invalid int value: 'abc'"),
    (("poly", "1"), "zdpoly: error: n must be >= 2, got 1"),
    (("poly", "9", "--method", "psychic"),
     "zdpoly poly: error: argument --method: invalid choice: 'psychic' "
     "(choose from 'brute', 'classes', 'closed')"),
    (("poly", "6", "--method", "brute", "--brute-limit", "10"),
     "zdpoly: error: unrecognized arguments: --brute-limit 10"),
    (("verify", "0"), "zdpoly: error: n must be >= 2, got 0"),
    (("graph", "1"), "zdpoly: error: n must be >= 2, got 1"),
    (("poly", "9", "--method", "auto"),
     "zdpoly poly: error: argument --method: invalid choice: 'auto' "
     "(choose from 'brute', 'classes', 'closed')"),
]


@pytest.mark.parametrize("argv, last_line", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_usage_errors_exit_one(argv, last_line):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert _unquoted(res.stderr.splitlines()[-1]) == _unquoted(last_line)


def test_main_returns_status_and_never_raises(capsys):
    """Usage errors and --help come back from main as statuses, as every
    other outcome does, instead of as SystemExit."""
    assert cli.main(["poly", "abc"]) == cli.EXIT_USAGE
    assert cli.main([]) == cli.EXIT_USAGE
    assert "usage: zdpoly" in capsys.readouterr().err
    assert cli.main(["poly", "--help"]) == cli.EXIT_OK
    assert "usage: zdpoly poly" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["poly", "verify"])
def test_help_names_brute_limit_default(capsys, command):
    """Help names brute force's one limit, which no option sets."""
    assert cli.main([command, "--help"]) == 0
    # argparse wraps help text to the terminal width.
    text = " ".join(capsys.readouterr().out.split())
    assert "--total total domination instead of ordinary" in text
    assert "40 vertices" in text
    assert "--brute-limit" not in text


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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of stdout recorded while `table` still built both polynomials of
# every row, so they pin the numbers it now reads from the up-set keys.
@pytest.mark.parametrize("argv, digest", [
    (("table", "2", "300"),
     "08f37307566512aeb38acd266ed84f8de544483a976fa125e1c83bc71ca20ea7"),
    (("table", "2", "300", "--total", "--json"),
     "2484b5fb2e697e8aba4f83a690b13377b6cd8d874e48e78d598093ffbaf73762"),
], ids=["text", "total-json"])
def test_table_output_pinned(argv, digest):
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr
    assert _sha256(res.stdout) == digest


@pytest.mark.parametrize("argv, sums, digest", [
    (("table", "2", "60"), [],
     "d280d78dbe224ecf7610f70e8165478308aac39c4bceaf188ee3a8866a37a5e7"),
    (("gamma", "2520"), [],
     "a1b72f88ce97749da14056a4ba5de8777fc35fb30f8921ed9978500cd6bbbf1e"),
    # verify sums the D_t table it compares, by the class engine and by the
    # closed form, and reads only gamma of D.  Digest with the [ ... ms]
    # timings blanked.
    (("verify", "45", "--total"), ["class-engine", "closed-form"],
     "fe2fa6027e1412b68b941e6f8ecf5b2b2c6a092728344cba1c89b54775e62f7b"),
], ids=["table", "gamma", "verify"])
def test_numbers_read_without_polynomials(monkeypatch, capsys, argv, sums,
                                          digest):
    """gamma, table and verify's other kind print what they printed while
    they built polynomials, with no term table summed for those numbers.
    The class engine and the closed forms sum every polynomial they build by
    ``sum_terms``, so each module that binds the name has it wrapped."""
    real = domcount.sum_terms
    summed = []

    def sum_terms(cg, terms, what):
        summed.append(what)
        return real(cg, terms, what)

    for module in (domcount, verify, closedform):
        monkeypatch.setattr(module, "sum_terms", sum_terms)
    assert cli.main(list(argv)) == 0
    assert summed == sums
    out = re.sub(r"\[\s*[0-9.]+ ms\]", "[ms]", capsys.readouterr().out)
    assert _sha256(out) == digest


def test_prints_counts_past_default_digit_limit():
    # |V| = 15 013: D(1) has over 4 300 digits, the interpreter's default
    # cap on int-to-str conversion.
    res = run_cli("table", "30026", "30026")
    assert res.returncode == 0, res.stderr
    row = res.stdout.splitlines()[1].split()
    assert row[:3] == ["30026", "2p", "15013"]
    assert len(row[-1]) > 4300


def test_verify_over_vertex_limit_skips_every_method():
    res = run_cli("verify", "200006", "--json")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    skipped = {m: entry["skipped"] for m, entry in payload["methods"].items()}
    assert skipped == {
        "brute": "100003 vertices exceeds the brute-force limit of 40",
        "classes": ("n=200006 has 100003 vertices, over the class-engine "
                    "limit of 50000"),
        "closed": ("n=200006 has 100003 vertices, over the closed-form "
                   "limit of 50000"),
    }
    assert payload["agreement"]["compared"] == []
    assert payload["gamma"] is None and payload["gamma_total"] is None


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"),
                    reason="the platform has no SIGPIPE")
def test_closed_pipe_ends_quietly():
    """A reader that stops early, as in ``zdpoly poly 4096 --json | head -c
    10``, ends the command without a traceback or the usage-error code."""
    # About 1.2 MB of JSON, far more than a pipe buffers.
    proc = subprocess.Popen(CMD + ["poly", "4096", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    try:
        assert proc.stdout.read(10) == b'{"n": 4096'
        proc.stdout.close()
        proc.wait(timeout=60)
        assert proc.stderr.read() == b""
        assert proc.returncode != cli.EXIT_USAGE
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_main_restores_int_digit_limit(capsys):
    """main lifts the int-to-str cap only while its command runs, so an
    embedding process keeps its own, on success and on error alike."""
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert cli.main(["gamma", "6"]) == 0
        assert sys.get_int_max_str_digits() == 5000
        assert cli.main(["poly", "100", "--method", "closed"]) == 4
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
    assert capsys.readouterr().out == "gamma=1 gamma_total=2\n"


def test_gamma_reaches_5040(capsys):
    """5040's 307 958 up-sets are within the class engine's up-set limit,
    so gamma answers."""
    assert cli.main(["gamma", "5040"]) == 0
    assert capsys.readouterr().out == "gamma=4 gamma_total=4\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_table_prints_the_rows_it_answers(json_flag):
    """A refused n costs its own row only: 27720 is refused before its
    up-set walk, and the four n around it are still answered."""
    res = run_cli("table", "27718", "27722", *json_flag)
    assert res.returncode == 3
    assert res.stderr == (
        "zdpoly: capacity: n=27720 has 22 divisor classes of one rank, so "
        "at least 2^22 up-sets, over the class-engine up-set limit of "
        f"{domcount.ENGINE_UPSET_LIMIT}\n")
    if json_flag:
        answered = [row["n"] for row in json.loads(res.stdout)]
    else:
        answered = [int(line.split()[0])
                    for line in res.stdout.splitlines()[1:]]
    assert answered == [27718, 27719, 27721, 27722]


def test_table_empty_range_is_usage_error():
    res = run_cli("table", "9", "4")
    assert res.returncode == 1


def test_each_command_factorizes_n_once(monkeypatch, capsys):
    """Every command factors n once and builds its class graph once: the
    layers read n's primes and family from ``ClassGraph.factorization``.
    Each binding of either function in the package is counted, so a layer
    that factors n through its own import is caught too."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "zdpoly":
            continue
        for name in ("factorize", "build_class_graph"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    commands = (("poly",), ("poly", "--total"),
                ("poly", "--method", "closed"),
                ("poly", "--method", "closed", "--total"),
                ("gamma",), ("table", "{n}"),
                ("verify",), ("verify", "--total"),
                ("verify", "--json"), ("verify", "--total", "--json"),
                ("graph", "--format", "classes"))
    for n in (12, 45, 75, 105, 243, 1000000007):
        for command in commands:
            argv = [command[0], str(n),
                    *(arg.format(n=n) for arg in command[1:])]
            calls.clear()
            status = cli.main(argv)
            capsys.readouterr()
            assert status in (cli.EXIT_OK, cli.EXIT_UNSUPPORTED), argv
            assert calls == {"factorize": 1, "build_class_graph": 1}, argv
