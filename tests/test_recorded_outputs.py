"""Every op of the benchmark, run through ``cli.main`` in-process, prints
what ``bench/expected.json`` records, so output drift shows up here before
a benchmark run refuses it.  Only reads ``bench/``."""

import importlib
import json
from pathlib import Path

from zdpoly import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_ops_print_the_recorded_output(monkeypatch, capsys):
    # bench/checks.py imports its sibling modules by their bare names.
    monkeypatch.syspath_prepend(str(BENCH))
    normalize = importlib.import_module("checks").normalize
    workloads = importlib.import_module("workloads")
    recorded = json.loads((BENCH / "expected.json").read_text())["ops"]
    assert set(recorded) == {" ".join(argv) for name in workloads.WORKLOADS
                             for argv in workloads.ops(name)}
    drift = []
    for op, want in recorded.items():
        code = cli.main(op.split())
        stdout = capsys.readouterr().out
        if code != want["code"] or normalize(stdout) != want["stdout"]:
            drift.append(op)
    assert drift == []
