"""Dominating-set counting, two ways.

``brute_force_poly`` enumerates all 2^|V| vertex subsets of an expanded graph
and histograms the dominating ones by size — slow but unarguable, so it serves
as the ground truth for everything else.

``class_engine_poly`` works on the divisor classes instead.  Class d (the
vertices v with gcd(v, n) = d) is joined to class e exactly when n | d*e
(Anderson and Livingston, J. Algebra 217, 1999), that is when n/d divides e.
So the classes covered by a set O of occupied classes form the up-set U of
the divisibility order generated by the partners {n/d : d in O}, and U is
generated by an antichain A of proper divisors.  Grouping vertex subsets by
U, the count factors class by class.  For class e of size m with partner
p = n/e:

    e in U,  p in A          (1+x)^m - 1   p is a generator: e is occupied
    e in U,  p in U \\ A      (1+x)^m       e may be occupied or not
    e in U,  p not in U      1             occupying e would grow U
    e not in U,  p in U      x^m           uncovered: every vertex selected
    e not in U,  p not in U  the term drops (e can be neither covered nor full)

D is the sum of these products over all antichains A.  Total domination
needs every class covered, so U is all classes and A is the primes p | n:

    D_t = prod over p | n of ((1+x)^(p-1) - 1) * (1+x)^(|V| - sum (p-1)),

since class n/p has p - 1 vertices.  A clique class covered only by itself
also needs a second selected vertex; that fails only when n = p^alpha and
the set is one vertex of the lone class n/p, so D_t loses (p-1)*x there.
The band reference in ``tests/band_reference.py`` enumerates per-class
occupancy bands outright and shares no code with this engine.
"""

from __future__ import annotations

import os
from collections import Counter
from enum import Enum
from itertools import groupby

from .errors import CapacityError
from .polyring import ONE, Polynomial, binomial_expand, min_positive_degree
from .zdgraph import ClassGraph, VertexGraph

DEFAULT_BRUTE_LIMIT = 26
BRUTE_LIMIT_ENV_VAR = "ZDPOLY_BRUTE_LIMIT"
# Most up-sets (antichains of proper divisors) the class engine takes on for
# D.  Counting them is cheap; assembling their terms is not, so the engine
# refuses before assembly.  n = 2520 has 59 540 up-sets and takes about
# 11 s, n = 5040 has 307 958.  Assembly also grows with |V|: n = 9828 has
# as many up-sets as 2520 but 7 235 vertices, and takes about 9 minutes.
ENGINE_UPSET_BUDGET = 60_000
# Most vertices the class engine takes on, for either kind.  The result has
# |V| + 1 coefficients of up to |V| bits: n = 70046 (35 023 vertices) peaks
# at 471 MB, where n = 720720 (582 479 vertices) would need over 100 GB.
ENGINE_VERTEX_LIMIT = 50_000

# Most vertices brute force takes on whatever the limit: 2^63 subsets is
# far beyond any run, and a larger limit would only start a loop that never
# ends.
BRUTE_CEILING = 63

_BRUTE_LOW_BITS = 20


class DominationKind(Enum):
    ORDINARY = "D"
    TOTAL = "Dt"


def resolve_brute_limit(flag: int | None = None) -> int:
    """Effective brute-force vertex limit: explicit argument beats the
    ZDPOLY_BRUTE_LIMIT environment variable, which beats the default.
    Raises ValueError for a negative limit from either source."""
    if flag is not None:
        name, value = "brute-force limit", flag
    else:
        raw = os.environ.get(BRUTE_LIMIT_ENV_VAR)
        if raw is None:
            return DEFAULT_BRUTE_LIMIT
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{BRUTE_LIMIT_ENV_VAR} must be an integer, "
                             f"got {raw!r}") from None
        name = BRUTE_LIMIT_ENV_VAR
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_brute_size(vertex_count: int, limit: int) -> None:
    """Raise CapacityError when a graph of ``vertex_count`` vertices is over
    the brute-force ``limit`` or BRUTE_CEILING; callers check before
    expanding the graph."""
    if vertex_count > limit:
        raise CapacityError(f"{vertex_count} vertices exceeds the "
                            f"brute-force limit of {limit}")
    if vertex_count > BRUTE_CEILING:
        raise CapacityError(
            f"brute force would enumerate 2^{vertex_count} vertex subsets "
            f"and stops at {BRUTE_CEILING} vertices")


def gamma_from_poly(p: Polynomial) -> int | None:
    """Domination number encoded in a counting polynomial: the least positive
    degree with a nonzero coefficient.  None when no positive-size dominating
    set exists (graphs with isolated vertices, in the total case)."""
    return min_positive_degree(p)


def brute_force_poly(vg: VertexGraph, kind: DominationKind,
                     limit: int | None = None) -> Polynomial:
    """Count dominating sets (or total dominating sets) of every size by
    direct enumeration of all vertex subsets.

    A subset S of the low (first 20) vertices is a bit position in Python-int
    bitsets of 2^low bits: bit S of ``hit[v]`` is set when S covers vertex v,
    and bit S of ``sized[s]`` when |S| = s.  For each subset of the remaining
    high vertices, ANDing the ``hit`` masks of the vertices it leaves
    uncovered marks the low subsets that complete a dominating set, counted
    by size with one popcount each.  Cost is O(2^|V|) bit operations.
    Refuses graphs above ``limit`` vertices or BRUTE_CEILING.
    """
    nv = len(vg.labels)
    check_brute_size(nv, resolve_brute_limit(limit))
    if kind is DominationKind.ORDINARY:
        nbh = list(vg.closed)
    else:
        nbh = [c & ~(1 << u) for u, c in enumerate(vg.closed)]
    low = min(nv, _BRUTE_LOW_BITS)
    hit = [0] * nv
    sized = [1] + [0] * low
    for b in range(low):
        half = 1 << b
        ones = (1 << half) - 1
        for v in range(nv):
            hit[v] |= (ones if nbh[v] >> b & 1 else hit[v]) << half
        for s in range(b + 1, 0, -1):
            sized[s] |= sized[s - 1] << half
    full = (1 << (1 << low)) - 1
    counts = [0] * (nv + 1)
    high_nbh = nbh[low:]
    for high in range(1 << (nv - low)):
        covered = 0
        h = high
        while h:
            covered |= high_nbh[(h & -h).bit_length() - 1]
            h &= h - 1
        dominated = full
        for v in range(nv):
            if not covered >> v & 1:
                dominated &= hit[v]
        base_size = high.bit_count()
        for s, mask in enumerate(sized):
            counts[s + base_size] += (dominated & mask).bit_count()
    return Polynomial(counts)


def class_engine_poly(cg: ClassGraph, kind: DominationKind) -> Polynomial:
    """Counting polynomial of ``cg``, a graph from ``build_class_graph``.

    The divisibility order is rebuilt from the class divisors and ``cg.n``;
    ``adjacency`` and ``is_clique`` are not read.  Each up-set contributes
    the product of the class weights in the module docstring.  Before any
    polynomial is built, CapacityError is raised past ENGINE_UPSET_BUDGET
    up-sets (D only) or ENGINE_VERTEX_LIMIT vertices.
    """
    divisors = [c.divisor for c in cg.classes]
    sizes = [c.size for c in cg.classes]
    k = len(divisors)
    index = {d: i for i, d in enumerate(divisors)}
    partner = [index[cg.n // d] for d in divisors]
    if kind is DominationKind.TOTAL:
        # The minimal classes are the primes p | n; their partners n/p
        # each have to be occupied.
        primes = [i for i in range(k) if not any(
            divisors[i] % divisors[j] == 0 for j in range(i))]
        terms = {_term(sum(1 << i for i in primes), (1 << k) - 1,
                       partner, sizes): 1}
    else:
        terms = _upset_terms(cg.n, divisors, partner, sizes)
    nv = sum(sizes)
    if nv > ENGINE_VERTEX_LIMIT:
        raise CapacityError(
            f"n={cg.n} has {nv} vertices, over the class-engine limit of "
            f"{ENGINE_VERTEX_LIMIT}")
    poly = _assemble(terms, nv)
    if kind is DominationKind.TOTAL and len(primes) == 1:
        poly -= Polynomial((0, sizes[partner[primes[0]]]))
    return poly


def _upset_terms(n, divisors, partner, sizes):
    """Count the up-sets by their _term key, enumerating antichains in
    ascending divisor order: a class joins only when it is outside the
    up-set of the classes already chosen."""
    k = len(divisors)
    up = [sum(1 << j for j in range(i, k) if divisors[j] % divisors[i] == 0)
          for i in range(k)]
    terms = Counter()
    count = 0
    stack = [(0, 0, 0)]
    while stack:
        start, gens, upset = stack.pop()
        count += 1
        if count > ENGINE_UPSET_BUDGET:
            raise CapacityError(
                f"counting up-sets of divisor classes for n={n} reached "
                f"{count}, over the class-engine budget of "
                f"{ENGINE_UPSET_BUDGET}")
        key = _term(gens, upset, partner, sizes)
        if key is not None:
            terms[key] += 1
        for j in range(start, k):
            if not upset >> j & 1:
                stack.append((j + 1, gens | 1 << j, upset | up[j]))
    return terms


def _term(gens, upset, partner, sizes):
    """(shift, free size, sorted generator sizes) of the product of class
    weights for the antichain bitmask ``gens`` and its up-set ``upset``, or
    None when the term drops."""
    shift = free = 0
    gen_sizes = []
    for e, m in enumerate(sizes):
        p = partner[e]
        if upset >> e & 1:
            if gens >> p & 1:
                gen_sizes.append(m)
            elif upset >> p & 1:
                free += m
        elif upset >> p & 1:
            shift += m
        else:
            return None
    return shift, free, tuple(sorted(gen_sizes))


def _assemble(terms, nv):
    """Sum of count * x^shift * (1+x)^free * prod((1+x)^m - 1 for m in gens)
    over the terms {(shift, free, gens): count}."""
    items = sorted(terms.items(), key=lambda t: t[0][2])
    return Polynomial(_fold(items, 0, nv))


def _fold(items, depth, nv):
    """Horner step on the trie of sorted generator tuples: every item here
    shares gens[:depth].  Items whose gens end at depth are added outright;
    the others are grouped by gens[depth] = m, folded one level deeper and
    multiplied once by (1+x)^m - 1."""
    acc = [0] * (nv + 1)
    for head, group in groupby(items, lambda t: t[0][2][depth:depth + 1]):
        if head:
            below = Polynomial(_fold(list(group), depth + 1, nv))
            for d, c in enumerate(
                    (below * (binomial_expand(head[0]) - ONE)).coeffs):
                acc[d] += c
        else:
            for (shift, free, _), count in group:
                for d, c in enumerate(binomial_expand(free).coeffs, shift):
                    acc[d] += count * c
    return acc
