"""Correctness checks on one op's result: the recorded output and exit code,
and invariants of the zero-divisor graph that hold whatever engine ran.

Invariants (|V| is counted directly, see workloads.vertex_count):
  * D(1) is odd: every graph has an odd number of dominating sets
    (A. E. Brouwer, 2009).
  * d_|V| = 1, and d_|V|-1 = |V| when |V| >= 2: Γ(Z_n) is connected
    (D. F. Anderson and P. S. Livingston, 1999), so V minus any one vertex
    still dominates.  For total domination only d_|V| = 1 (|V| >= 2) holds.
  * The printed γ (or γ_t) is the least positive degree of the printed
    polynomial.
"""

from __future__ import annotations

import json
import re

from workloads import vertex_count

# Text reports print method timings as "[   14.37 ms]".
_TEXT_TIMING = re.compile(r"\[\s*[-\d.]+ ms\]")


def normalize(stdout: str) -> str:
    """stdout with its timing fields stripped: ``timings_ms`` in JSON lines,
    ``[ … ms]`` in text."""
    lines = []
    for line in stdout.split("\n"):
        if line.startswith("{"):
            try:
                obj = json.loads(line)
            except ValueError:
                lines.append(line)
                continue
            obj.pop("timings_ms", None)
            line = json.dumps(obj)
        lines.append(_TEXT_TIMING.sub("[ms]", line))
    return "\n".join(lines)


def poly_problems(coeffs: list[int], nv: int, total: bool,
                  gamma) -> list[str]:
    problems = []
    lowest = next((i for i, c in enumerate(coeffs) if i and c), None)
    if gamma != lowest:
        problems.append(f"printed gamma {gamma} is not the least positive "
                        f"degree {lowest}")
    top = coeffs[nv] if len(coeffs) == nv + 1 else None
    if total:
        if nv >= 2 and top != 1:
            problems.append(f"d_|V| is {top}, not 1")
        return problems
    if sum(coeffs) % 2 == 0:
        problems.append("D(1) is even")
    if top != 1:
        problems.append(f"d_|V| is {top}, not 1")
    if nv >= 2 and len(coeffs) == nv + 1 and coeffs[nv - 1] != nv:
        problems.append(f"d_|V|-1 is {coeffs[nv - 1]}, not |V| = {nv}")
    return problems


def invariant_problems(argv: list[str], stdout: str) -> list[str]:
    """Invariants checkable from the printed output of one op."""
    cmd, n = argv[0], int(argv[1])
    total = "--total" in argv
    nv = vertex_count(n)
    if cmd == "table":
        problems = []
        for row in stdout.splitlines()[1:]:
            cols = row.split()
            if int(cols[2]) != nv:
                problems.append(f"|V| printed as {cols[2]}, not {nv}")
            if int(cols[-1]) % 2 == 0:
                problems.append("D(1) is even")
        return problems
    if cmd == "poly":
        obj = json.loads(stdout)
        return poly_problems([int(c) for c in obj["coeffs"]], nv, total,
                             obj["gamma"])
    if cmd == "verify":
        obj = json.loads(stdout)
        gamma = obj["gamma_total" if total else "gamma"]
        problems = []
        # The closed forms are transcriptions that can be wrong (the verifier
        # reports where); the invariants bind the two oracle methods.
        for method in ("brute", "classes"):
            coeffs = obj["methods"][method].get("coeffs")
            if coeffs is not None:
                problems += [f"{method}: {p}" for p in poly_problems(
                    [int(c) for c in coeffs], nv, total, gamma)]
        return problems
    return []


def op_problems(argv: list[str], code, stdout: str | None, error: str | None,
                expected: dict) -> list[str]:
    """Why one execution of an op failed; empty when it passed."""
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    problems = []
    if code != expected["code"]:
        problems.append(f"exit code {code}, recorded {expected['code']}")
    if normalize(stdout) != expected["stdout"]:
        problems.append("output differs from the recorded output")
    if code == 0:
        try:
            problems += invariant_problems(argv, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"output does not parse: {exc!r}")
    return problems
