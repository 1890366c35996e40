"""zdpoly benchmark.

    python3 bench/run.py --workload survey --seed 1 --seconds 36 --trace 0

Run from the repository root.  One worker process (bench/worker.py) runs the
workload's ops back to back on one thread, through zdpoly.cli.main, for as
many whole passes as fit in --seconds, and at least MIN_PASSES.  With
--trace 1 the worker then replays one more pass as traced public calls
(bench/replay.py) and the spans are written to bench/out/.  Set-up time is
measured around the worker: fresh interpreters importing zdpoly from src/.
All times are scaled to one reference host speed by probes timed around and
during each measured op (bench/speed.py).

Every execution of every op is checked against the output recorded in
bench/expected.json and against engine-independent invariants
(bench/checks.py); a failed check counts the op as failed.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics, the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.

    python3 bench/run.py --record

re-records bench/expected.json from the current code.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import normalize, op_problems
from speed import PROBES, bracket, scale
from workloads import WORKLOADS, ops

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"
SETUP_RUNS = 10
# Each op's latency is its median over at least this many passes, so that a
# burst of contention on the shared host during one pass does not set it.
MIN_PASSES = 3
RUN_LIMIT_S = 170  # the whole run must end well inside 180 s

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer span groups: metric prefix -> span names (bench/replay.py).
LAYERS = {
    "numtheory": ("numtheory.factorize", "numtheory.classify_family"),
    "zdgraph.build": ("zdgraph.build_class_graph",),
    "zdgraph.expand": ("zdgraph.expand_vertex_graph",),
    "domcount.engine": ("domcount.class_engine_poly",),
    "domcount.brute": ("domcount.brute_force_poly",),
    "polyring.evaluate": ("polyring.evaluate_at",),
    "polyring.gamma": ("polyring.gamma",),
    "polyring.render": ("polyring.render",),
    "closedform": ("closedform.closed_domination",
                   "closedform.closed_total_domination"),
    "verify": ("verify.run_verification", "verify.report_to_dict"),
}

PER_LAYER = {
    "numtheory.busy_ms": "ms", "numtheory.calls": "count",
    "zdgraph.build_busy_ms": "ms", "zdgraph.expand_busy_ms": "ms",
    "zdgraph.classes": "count", "zdgraph.vertices": "count",
    "domcount.engine_busy_s": "s", "domcount.engine_calls": "count",
    "domcount.engine_patterns": "count", "domcount.engine_ns_per_pattern": "ns",
    "domcount.brute_busy_s": "s", "domcount.brute_subsets": "count",
    "domcount.brute_subsets_per_s": "1/s",
    "polyring.evaluate_busy_ms": "ms", "polyring.gamma_busy_ms": "ms",
    "polyring.render_busy_ms": "ms", "polyring.max_coeff_bits": "count",
    "closedform.busy_ms": "ms", "closedform.calls": "count",
    "closedform.unsupported": "count",
    "verify.busy_ms": "ms", "verify.self_ms": "ms", "verify.skip_frac": "ratio",
    "cli.self_ms": "ms", "trace.overhead_s": "s",
}

_SETUP_CODE = ("import time, zdpoly; "
               "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(runs: int) -> list[float]:
    """Fresh interpreter start to ``import zdpoly`` done, ``runs`` times, at
    the reference speed (each run is bracketed by probes, see speed.py).
    Parent and child read the same system-wide monotonic clock."""
    samples = []
    for _ in range(runs):
        probes = bracket("int")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE],
                              env=child_env(), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            die(f"import zdpoly failed:\n{proc.stderr}")
        seconds = float(proc.stdout) - start
        samples.append(scale(seconds, "int", probes + bracket("int")))
    return samples


def run_worker(workload: str, seed: int, seconds: float, min_passes: int,
               trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--min-passes", str(min_passes), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        die(f"{workload}: the worker did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        die(f"{workload}: the worker exited with {proc.returncode}:\n"
            f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def key(argv: list[str]) -> str:
    return " ".join(argv)


def failures(result: dict, expected: dict) -> tuple[int, list]:
    """(executions attempted, [(op, problems)] for each failed execution)."""
    attempted, failed = 0, []
    for pass_ in result["passes"]:
        for r in pass_["ops"]:
            attempted += 1
            problems = op_problems(r["argv"], r["code"], r["stdout"],
                                   r["error"], expected[key(r["argv"])])
            if problems:
                failed.append((key(r["argv"]), problems))
    for r in result.get("traced", {}).get("ops", []):
        attempted += 1
        want = expected[key(r["argv"])]
        problems = list(r["problems"])
        if r["error"] is None:
            # A replay exists only for ops whose command succeeds.
            problems += op_problems(r["argv"], 0, r["stdout"], None, want)
            if r["work"] != want["work"]:
                problems.append(f"work counts {r['work']} differ from the "
                                f"recorded {want['work']}")
        else:
            problems.append(f"replay raised: "
                            f"{r['error'].strip().splitlines()[-1]}")
        if problems:
            failed.append((f"replay of {key(r['argv'])}", problems))
    return attempted, failed


def _op_medians(result: dict, value) -> dict[str, float]:
    """Each op's median of ``value(execution)`` over the untraced passes."""
    samples: dict[str, list[float]] = {}
    for pass_ in result["passes"]:
        for r in pass_["ops"]:
            samples.setdefault(key(r["argv"]), []).append(value(r))
    return {k: statistics.median(v) for k, v in samples.items()}


def op_ns(result: dict) -> dict[str, float]:
    """Each op's median latency over the untraced passes, in ns at the
    reference speed."""
    return _op_medians(result,
                       lambda r: scale(r["ns"], result["probe"], r["probes"]))


def untraced_wall_s(result: dict) -> float:
    """The op list's wall time: the sum of the ops' median latencies."""
    return sum(op_ns(result).values()) / 1e9


def raw_wall_s(result: dict) -> float:
    """untraced_wall_s as measured, before scaling to the reference speed."""
    return sum(_op_medians(result, lambda r: r["ns"]).values()) / 1e9


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    latencies = sorted(op_ns(result).values())
    count = len(latencies)
    # The highest percentile with at least ten samples beyond it; a workload
    # with fewer than eleven ops reports its slowest op.
    beyond = 10 if count > 10 else 0
    tail_at = count - 1 - beyond
    values = {
        "wall_s": untraced_wall_s(result),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": latencies[tail_at] / 1e6,
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(setup),
    }
    probes = [ns for pass_ in result["passes"] for r in pass_["ops"]
              for ns in r["probes"]]
    probe = result["probe"]
    notes = [
        f"times are at the reference speed (speed.py); the {probe} probe's "
        f"median was {statistics.median(probes) / 1e3:.1f} us against "
        f"{PROBES[probe][1] / 1e3:.1f} us, and wall_s as measured was "
        f"{raw_wall_s(result):.4f} s",
        f"wall_s: sum over {count} ops of each op's median over "
        f"{len(result['passes'])} pass(es)",
        f"op_p50_ms: median of {count} ops, each its median over the passes",
        f"op_tail_ms: p{100 * (tail_at + 1) / count:.1f}, "
        f"{beyond} of {count} ops beyond it",
        "peak_rss_mb: ru_maxrss of the worker process",
        f"setup_s: median of {len(setup)} fresh interpreters, "
        f"spread {min(setup):.4f}..{max(setup):.4f} s",
    ]
    return values, notes


def _self_total(per_op_ns) -> float:
    """Self time summed over ops, estimated as the op count times the median
    per-op self time.  Each per-op value is a span minus its children timed
    in separate calls, so on a heavy op it carries that op's run-to-run
    jitter (about 10% on brute force), which would swamp a plain sum."""
    values = list(per_op_ns)
    return len(values) * statistics.median(values) if values else 0.0


def per_layer(result: dict) -> dict:
    traced = result["traced"]
    spans = traced["spans"]
    # Each span loses the probe time run inside it, then is scaled by its
    # op's probes.
    op_of = {r["root"]: r for r in traced["ops"]}
    root: dict[int, int] = {}  # a parent span precedes its children
    duration = {}
    for s in spans:
        root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
        op = op_of[root[s["id"]]]
        ns = s["end_ns"] - s["start_ns"] - sum(
            t for start, t in op["ticks"]
            if s["start_ns"] <= start < s["end_ns"])
        duration[s["id"]] = scale(ns, result["probe"], op["probes"])
    busy = {layer: 0 for layer in LAYERS}
    calls = dict(busy)
    children: dict[int, int] = {}  # span id -> ns covered by its children
    unsupported = 0
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = (children.get(s["parent"], 0)
                                     + duration[s["id"]])
        for layer, names in LAYERS.items():
            if s["name"] in names:
                busy[layer] += duration[s["id"]]
                calls[layer] += 1
        if s.get("error") == "UnsupportedFamilyError":
            unsupported += 1
    verify_self = _self_total(
        duration[s["id"]] - children.get(s["id"], 0)
        for s in spans if s["name"] == "verify.run_verification")
    cmd_ns = op_ns(result)
    cli_self = _self_total(cmd_ns[key(r["argv"])] - children.get(r["span"], 0)
                           for r in traced["ops"] if r["span"] is not None)
    work = [r["work"] for r in traced["ops"] if r["work"] is not None]
    total = {name: sum(w[name] for w in work)
             for name in ("classes", "vertices", "engine_patterns",
                          "brute_subsets")}
    skipped = methods = 0
    for r in traced["ops"]:
        if r["argv"][0] == "verify" and r["stdout"]:
            report = json.loads(r["stdout"])["methods"]
            methods += len(report)
            skipped += sum("skipped" in m for m in report.values())
    brute_s = busy["domcount.brute"] / 1e9
    traced_wall = sum(duration[s["id"]] for s in spans if s["name"] == "op")
    return {
        "numtheory.busy_ms": busy["numtheory"] / 1e6,
        "numtheory.calls": calls["numtheory"],
        "zdgraph.build_busy_ms": busy["zdgraph.build"] / 1e6,
        "zdgraph.expand_busy_ms": busy["zdgraph.expand"] / 1e6,
        "zdgraph.classes": total["classes"],
        "zdgraph.vertices": total["vertices"],
        "domcount.engine_busy_s": busy["domcount.engine"] / 1e9,
        "domcount.engine_calls": calls["domcount.engine"],
        "domcount.engine_patterns": total["engine_patterns"],
        "domcount.engine_ns_per_pattern":
            busy["domcount.engine"] / max(total["engine_patterns"], 1),
        "domcount.brute_busy_s": brute_s,
        "domcount.brute_subsets": total["brute_subsets"],
        "domcount.brute_subsets_per_s":
            total["brute_subsets"] / brute_s if brute_s else 0.0,
        "polyring.evaluate_busy_ms": busy["polyring.evaluate"] / 1e6,
        "polyring.gamma_busy_ms": busy["polyring.gamma"] / 1e6,
        "polyring.render_busy_ms": busy["polyring.render"] / 1e6,
        "polyring.max_coeff_bits": max((w["max_coeff_bits"] for w in work),
                                       default=0),
        "closedform.busy_ms": busy["closedform"] / 1e6,
        "closedform.calls": calls["closedform"],
        "closedform.unsupported": unsupported,
        "verify.busy_ms": busy["verify"] / 1e6,
        "verify.self_ms": verify_self / 1e6,
        "verify.skip_frac": skipped / methods if methods else 0.0,
        "cli.self_ms": cli_self / 1e6,
        "trace.overhead_s": traced_wall / 1e9 - untraced_wall_s(result),
    }


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} "
            f"numpy={importlib.metadata.version('numpy')}; "
            f"load: one worker process, one thread, ops back to back")


def write_trace(workload: str, seed: int, result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "spans": result["traced"]["spans"]}))
    return path


def require_checkout() -> dict:
    if not (ROOT / "src" / "zdpoly" / "cli.py").is_file():
        die(f"no zdpoly sources under {ROOT / 'src'}; run from a checkout")
    if not EXPECTED.is_file():
        die(f"missing {EXPECTED}; run bench/run.py --record at a known-good "
            f"commit")
    return json.loads(EXPECTED.read_text())["ops"]


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.  The reference host's
    vCPUs change speed independently, so the probes must run on the CPU
    the ops run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def bench(args) -> None:
    deadline = time.monotonic() + RUN_LIMIT_S
    expected = require_checkout()
    pin_to_one_cpu()
    # One unmeasured import writes the bytecode caches; the samples are
    # split around the workload to straddle the host's speed changes.
    setup_seconds(1)
    setup = [] if args.trace else setup_seconds(SETUP_RUNS // 2)
    result = run_worker(args.workload, args.seed, args.seconds, MIN_PASSES,
                        bool(args.trace), deadline)
    if not args.trace:
        setup += setup_seconds(SETUP_RUNS - SETUP_RUNS // 2)
    attempted, failed = failures(result, expected)
    for op, problems in failed[:20]:
        print(f"FAILED {op}: {'; '.join(problems)}", file=sys.stderr)
    if args.trace:
        values = per_layer(result)
        units = PER_LAYER
        notes = [f"spans: {write_trace(args.workload, args.seed, result)}",
                 "trace.overhead_s: traced pass minus the untraced wall_s; "
                 "verify ops also replay run_verification's calls"]
    else:
        values, notes = end_to_end(result, setup)
        units = END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{WORKLOADS[args.workload][0]}")
    print(f"machine: {machine()}")
    for name, value in values.items():
        print(f"  {name:<32} {value:>16.6f} {units[name]}")
    print(f"  {'fail_frac':<32} {len(failed) / attempted:>16.6f} ratio "
          f"({len(failed)} of {attempted} executions)")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


def record() -> None:
    """Re-record every op's exit code, timing-free output and work counts."""
    if not (ROOT / "src" / "zdpoly" / "cli.py").is_file():
        die(f"no zdpoly sources under {ROOT / 'src'}")
    recorded = {}
    for workload in WORKLOADS:
        result = run_worker(workload, 0, 0, 1, True, time.monotonic() + 900)
        commands = {key(r["argv"]): r for r in result["passes"][0]["ops"]}
        for r in result["traced"]["ops"]:
            cmd = commands[key(r["argv"])]
            entry = {"code": cmd["code"], "stdout": normalize(cmd["stdout"]),
                     "work": r["work"]}
            problems = op_problems(r["argv"], cmd["code"], cmd["stdout"],
                                   cmd["error"], entry) + r["problems"]
            if r["error"] or normalize(r["stdout"]) != entry["stdout"]:
                problems.append("the replay does not reproduce the output")
            if problems:
                die(f"not recording {key(r['argv'])}: {'; '.join(problems)}")
            recorded[key(r["argv"])] = entry
        print(f"{workload}: {len(ops(workload))} ops recorded")
    EXPECTED.write_text(json.dumps({"ops": recorded}, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record bench/expected.json and exit")
    args = parser.parse_args()
    if args.record:
        record()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        bench(args)


if __name__ == "__main__":
    main()
