"""Runs one workload in this process and prints the raw results as one JSON
line: per-op exit codes, outputs, times and host-speed probe times (see
speed.py), peak RSS and, with --trace 1, the traced replay's spans.
bench/run.py starts it with src/ on PYTHONPATH and does all checking and
arithmetic on what it prints.

    PYTHONPATH=src python3 bench/worker.py --workload survey --seed 1 \
        --seconds 36 --min-passes 3 --trace 0
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from zdpoly import cli

from replay import Replay, Tracer
from speed import Sampler, bracket
from workloads import PROBE, WORKLOADS, ops, shuffled


def run_command(argv: list[str], probe: str) -> dict:
    """One op through the real command path, cli.main(argv), in-process,
    with times of the named probe taken around it and during it."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    probes = bracket(probe)
    with redirect_stdout(out), redirect_stderr(err), Sampler(probe) as inner:
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the op fails; the run goes on
            code = None
            error = traceback.format_exc()
        ns = time.perf_counter_ns() - start
    probes += bracket(probe) + inner.times
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "ns": ns - sum(inner.times),
            "probes": probes, "error": error}


def untraced_passes(op_list, seconds: float, rng: random.Random, probe: str,
                    min_passes: int = 1) -> list[dict]:
    """Whole passes over the op set, each in a fresh seeded order, for as
    many as fit in ``seconds`` and at least ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        results = []
        for argv in shuffled(op_list, rng):
            results.append(run_command(argv, probe))
        passes.append({"ops": results})
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            return passes


def traced_pass(op_list, rng: random.Random, probe: str) -> dict:
    tracer = Tracer()
    replay = Replay(tracer)
    results = []
    for argv in shuffled(op_list, rng):
        root = len(tracer.spans)  # the id the op's own span gets
        probes = bracket(probe)
        try:
            with Sampler(probe) as inner:
                result = replay.run(argv)
            result["error"] = None
        except Exception:  # the op fails; the run goes on
            result = {"stdout": None, "work": None, "problems": [],
                      "span": None, "error": traceback.format_exc()}
        probes += bracket(probe) + inner.times
        results.append({"argv": argv, "root": root, "probes": probes,
                        "ticks": inner.ticks, **result})
    return {"ops": results, "spans": tracer.spans}


def run(workload: str, seed: int, seconds: float, min_passes: int,
        trace: bool) -> dict:
    rng = random.Random(seed)
    op_list = ops(workload)
    probe = PROBE[workload]
    result = {"probe": probe,
              "passes": untraced_passes(op_list, seconds, rng, probe,
                                        min_passes)}
    if trace:
        result["traced"] = traced_pass(op_list, rng, probe)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.seconds,
                         args.min_passes, bool(args.trace))))


if __name__ == "__main__":
    main()
