"""Self-test of the benchmark's checks.

    python3 bench/selftest.py        (from the repository root)

Runs each workload on a tiny op list through the benchmark's own code (the
untraced command path, the traced replay and the failure accounting) and
shows that the unmodified program passes, while a corrupted class-engine
coefficient and an unexpected CapacityError each fail every op instead of
being dropped.  Also checks that BENCHMARK.json names the metrics, units and
workloads that bench/run.py reports.  Exits 1 when anything does not hold.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from zdpoly import cli, domcount, verify  # noqa: E402
from zdpoly.errors import CapacityError  # noqa: E402
from zdpoly.polyring import Polynomial  # noqa: E402

import run  # noqa: E402
from worker import traced_pass, untraced_passes  # noqa: E402
from workloads import WORKLOADS, ops  # noqa: E402

TINY = {
    "survey": [["table", "12", "12"], ["table", "45", "45"]],
    "engine_large": [["poly", "144", "--json"],
                     ["poly", "144", "--json", "--total"]],
    "verify_brute": [["verify", "27", "--json", "--total"],
                     ["verify", "45", "--json"]],
}

_engine = domcount.class_engine_poly


def corrupted(cg, kind):
    """The true polynomial with its middle coefficient off by two, which
    keeps D(1) odd so that only the output record can catch it."""
    coeffs = list(_engine(cg, kind).coeffs)
    coeffs[len(coeffs) // 2] += 2
    return Polynomial(coeffs)


def over_capacity(cg, kind):
    raise CapacityError("injected by the benchmark self-test")


def failures(op_list, engine) -> tuple[int, int]:
    """(attempted, failed) for one untraced pass and one traced replay,
    with every reference to the class engine replaced by ``engine``."""
    with ExitStack() as stack:
        for module in (domcount, cli, verify):
            stack.enter_context(
                mock.patch.object(module, "class_engine_poly", engine))
        rng = random.Random(0)
        result = {"passes": untraced_passes(op_list, 0, rng, "int"),
                  "traced": traced_pass(op_list, rng, "int")}
    attempted, failed = run.failures(result, run.require_checkout())
    return attempted, len(failed)


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, units in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != units:
            problems.append(f"BENCHMARK.json {section} {declared} != "
                            f"bench/run.py {units}")
    for w in spec["workloads"]:
        why, layers = WORKLOADS[w["name"]]
        if w["why"] != f"{why}; loads {layers}":
            problems.append(f"BENCHMARK.json why of {w['name']} differs from "
                            f"bench/workloads.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from "
                        "bench/workloads.py")
    return problems


def main() -> int:
    problems = check_benchmark_json()
    for workload, op_list in TINY.items():
        missing = [op for op in op_list if op not in ops(workload)]
        if missing:
            problems.append(f"{workload}: {missing} not in the op set")
            continue
        for label, engine, want_failed in (
                ("unmodified", _engine, False),
                ("corrupted coefficient", corrupted, True),
                ("unexpected CapacityError", over_capacity, True)):
            attempted, failed = failures(op_list, engine)
            ok = failed == (attempted if want_failed else 0)
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<13} {label:<25} "
                  f"{failed} of {attempted} executions failed")
            if not ok:
                problems.append(f"{workload}: {label}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
