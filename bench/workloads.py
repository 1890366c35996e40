"""The benchmark's workloads: each is a fixed set of CLI commands ("ops").

The op set of a workload never changes; the seed only shuffles the order, so
every seed does the same work.  This module does not import zdpoly: the op
sets and the vertex counts the invariant checks rely on are derived here from
first principles.
"""

from __future__ import annotations

import random
from math import gcd

# Largest |V| the verify ops are chosen for: the default brute-force limit,
# so every verify op runs all methods that apply.
BRUTE_VERTICES = 26

# (why, the layers it is meant to load); the why lines are repeated in
# BENCHMARK.json.
WORKLOADS = {
    "survey": (
        "table n n for n in 2..300: many small-k calls expose fixed costs; "
        "a few heavy moduli set the tail",
        "numtheory, zdgraph build, polyring evaluate, cli"),
    "engine_large": (
        "poly n --json, both kinds, n in 144/240/288/336, plus gamma 336: "
        "the class engine's reach, k = 13-18 classes",
        "domcount class engine (2^k sweep and assembly), polyring render"),
    "verify_brute": (
        "verify n --json, both kinds, for the 53 composite n with "
        "1 <= |V| <= 26: brute force and verify dominate",
        "domcount brute force, zdgraph expand, closedform, verify"),
}


# The host-speed probe each workload's ops are bracketed by (speed.py): the
# one that slows down with the host as the workload's ops do.
PROBE = {"survey": "bigint", "engine_large": "bigint", "verify_brute": "int"}


def vertex_count(n: int) -> int:
    """|V| of the zero-divisor graph of Z_n: nonzero v < n sharing a factor
    with n, counted directly."""
    return sum(1 for v in range(1, n) if gcd(v, n) > 1)


def verify_moduli() -> list[int]:
    # A composite n has a prime factor p <= sqrt(n), and the n/p - 1 nonzero
    # multiples of p are vertices, so |V| <= 26 forces n <= 27^2.
    return [n for n in range(2, 27 * 27 + 1)
            if 1 <= vertex_count(n) <= BRUTE_VERTICES]


def ops(workload: str) -> list[list[str]]:
    """The workload's op set, in canonical order, as CLI argument lists."""
    if workload == "survey":
        return [["table", str(n), str(n)] for n in range(2, 301)]
    if workload == "engine_large":
        polys = [["poly", str(n), "--json", *total]
                 for n in (144, 240, 288, 336) for total in ([], ["--total"])]
        # gamma 360 (k = 22, a single 20-27 s op) is left out: one execution
        # of it varied 11-15% between runs on the 2-core reference host, and
        # the budget of a run cannot repeat it.
        return polys + [["gamma", "336"]]
    if workload == "verify_brute":
        return [["verify", str(n), "--json", *total]
                for n in verify_moduli() for total in ([], ["--total"])]
    raise ValueError(f"unknown workload {workload!r}")


def shuffled(op_list: list[list[str]], rng: random.Random) -> list[list[str]]:
    order = list(op_list)
    rng.shuffle(order)
    return order
