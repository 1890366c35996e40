"""Dominating-set counting, two ways.

``brute_force_poly`` enumerates all 2^|V| vertex subsets of an expanded graph
and histograms the dominating ones by size — slow but unarguable, so it serves
as the ground truth for everything else.  It reads only the ``VertexGraph``.
It splits the vertices into the first 16 (low) and the rest (high).  A low
subset S completes a high subset H exactly when S meets N(v) ∩ low for every
vertex v that H leaves uncovered, so the size histogram of the completing S
depends only on the distinct low neighbourhoods among those v.  It is
computed once per such set of neighbourhoods (one AND per neighbourhood, 17
popcounts of 2^16 bits) and shifted by |H| for each of the 2^(|V|-16) high
subsets.

``class_engine_poly`` works on the divisor classes instead.  Class d (the
vertices v with gcd(v, n) = d) is joined to class e exactly when n | d*e,
that is when n/d divides e, so ``ClassGraph.neighbors`` of class d is the
up-set of its partner n/d.  The classes covered by a set O of occupied
classes form the up-set U of the divisibility order generated by the
partners {n/d : d in O}, and U is generated by an antichain A of proper
divisors.  Grouping vertex subsets by U, the count factors class by class.
For class e of size m with partner p = n/e:

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

The terms are summed with no polynomial product.  prod((1+x)^m - 1) over
the generator sizes multiplies out to 2^|gens| signed powers (1+x)^E, with
E = free + the sizes of a subset of the generators: the (1+x)-power form of
D(G, x) = sum over W of (-1)^|W| (1+x)^(|V| - |N[W]|) (Kotek, Preen, Simon,
Tittmann and Trinks, Electron. J. Combin. 19(3), 2012).  Each distinct row
(1+x)^E is expanded once and added, times its signed count, at each shift.

``class_engine_count`` reads the domination number and the count D(1) from
the same up-set keys (shift, free size, generator sizes) without building a
polynomial.  gamma is the least positive shift + |gens| over the keys, since
every term's lowest coefficient is positive and no coefficient is negative.
D(1) is the sum of count * 2^free * prod(2^m - 1), less p - 1 for D_t when
n = p^alpha; that loss takes all of the x coefficient, so gamma_t is then 2,
or undefined when n = 4 (one vertex).  So ``gamma`` and ``table`` pay only
for enumerating the up-sets.

The band reference in ``tests/band_reference.py`` enumerates per-class
occupancy bands outright and shares no code with this engine.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

from .errors import CapacityError
from .polyring import Polynomial, binomial_expand
from .zdgraph import ClassGraph, VertexGraph, check_vertex_limit

DEFAULT_BRUTE_LIMIT = 26
# Most up-sets (antichains of proper divisors) the class engine takes on for
# D, whether it builds the polynomial or only reads gamma and D(1) from the
# keys.  Enumerating them is cheap, and it is all class_engine_count pays:
# about 0.5 s for the 59 540 up-sets of n = 2520.  Assembling their
# polynomial is not, so the engine refuses before assembly:
# class_engine_poly takes about 4 s at n = 2520, and assembly grows with
# |V| too (n = 9828 has as many up-sets but 7 235 vertices, and takes about
# 60 s).  n = 5040 has 307 958 up-sets.
ENGINE_UPSET_BUDGET = 60_000

# Most vertices brute force takes on whatever the limit.  The time doubles
# with each vertex (per kind, 2-core Xeon, Python 3.11: 44-62 s at 39
# vertices, n = 76), so 40 takes about two minutes and 45 about an hour.
BRUTE_CEILING = 40

# How many vertices brute force treats as low: their subsets are the bit
# positions of 2^16-bit bitsets, and it loops over subsets of the rest in
# Python.  14 is slower, because that loop then dominates; 20 holds about
# 6 MB of tables where 16 holds 0.4 MB.
_BRUTE_LOW_BITS = 16


class DominationKind(Enum):
    ORDINARY = "D"
    TOTAL = "Dt"


def resolve_brute_limit(flag: int | None = None) -> int:
    """Effective brute-force vertex limit: ``flag``, or DEFAULT_BRUTE_LIMIT
    when it is None.  Raises ValueError for a negative limit."""
    if flag is None:
        return DEFAULT_BRUTE_LIMIT
    if flag < 0:
        raise ValueError(f"brute-force limit must be >= 0, got {flag}")
    return flag


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
    return next((i for i, c in enumerate(p.coeffs) if i and c), None)


def brute_force_poly(vg: VertexGraph, kind: DominationKind,
                     limit: int | None = None) -> Polynomial:
    """Count dominating sets (or total dominating sets) of every size by
    direct enumeration of all vertex subsets.

    A subset S of the low (first 16) vertices is a bit position in Python-int
    bitsets of 2^low bits.  Vertices are grouped by their low neighbourhood
    L = N(v) ∩ low: bit S of ``hit[g]`` is set when S meets group g's L, and
    bit S of ``sized[s]`` when |S| = s.  A subset H of the remaining high
    vertices leaves some vertices uncovered; S completes H to a dominating
    set exactly when it meets the L of each of them, so the groups with an
    uncovered member (the key) decide the answer.  Grouping is exact because
    vertices of one group pose the same condition on S, whatever their high
    neighbours.  For each new key, ANDing its ``hit`` masks marks the
    completing low subsets, counted by size with one popcount each; that
    histogram is cached and added shifted by |H|.  Cost is 2^(|V|-16) high
    subsets plus one AND chain and 17 popcounts of 2^16 bits per distinct
    key.  Refuses graphs above ``limit`` vertices or BRUTE_CEILING.
    """
    nv = len(vg.labels)
    check_brute_size(nv, resolve_brute_limit(limit))
    if kind is DominationKind.ORDINARY:
        nbh = list(vg.closed)
    else:
        nbh = [c & ~(1 << u) for u, c in enumerate(vg.closed)]
    low = min(nv, _BRUTE_LOW_BITS)
    low_mask = (1 << low) - 1
    groups = {}  # low neighbourhood -> bitmask of the vertices that have it
    for v in range(nv):
        low_nbh = nbh[v] & low_mask
        groups[low_nbh] = groups.get(low_nbh, 0) | 1 << v
    members = list(groups.values())
    hit = [0] * len(groups)
    sized = [1] + [0] * low
    for b in range(low):
        half = 1 << b
        ones = (1 << half) - 1
        for g, low_nbh in enumerate(groups):
            hit[g] |= (ones if low_nbh >> b & 1 else hit[g]) << half
        for s in range(b + 1, 0, -1):
            sized[s] |= sized[s - 1] << half
    full = (1 << (1 << low)) - 1
    counts = [0] * (nv + 1)
    high_nbh = nbh[low:]
    histograms = {}
    for high in range(1 << (nv - low)):
        covered = 0
        h = high
        while h:
            covered |= high_nbh[(h & -h).bit_length() - 1]
            h &= h - 1
        key = 0
        for g, vertices in enumerate(members):
            if vertices & ~covered:
                key |= 1 << g
        histogram = histograms.get(key)
        if histogram is None:
            dominated = full
            for g, low_hit in enumerate(hit):
                if key >> g & 1:
                    dominated &= low_hit
            histogram = [(dominated & mask).bit_count() for mask in sized]
            histograms[key] = histogram
        base_size = high.bit_count()
        for s, c in enumerate(histogram):
            counts[s + base_size] += c
    return Polynomial(counts)


def class_engine_poly(cg: ClassGraph, kind: DominationKind) -> Polynomial:
    """Counting polynomial of ``cg``, a graph from ``build_class_graph``:
    the sum of the up-set terms of ``_engine_terms``.  Raises CapacityError
    before any polynomial is built, as ``_engine_terms`` does."""
    terms, drop = _engine_terms(cg, kind)
    return _assemble(terms, cg.vertex_count) - Polynomial((0, drop))


def class_engine_count(cg: ClassGraph,
                       kind: DominationKind) -> tuple[int | None, int]:
    """(gamma, count) of ``cg``: ``gamma_from_poly`` and the value at 1 of
    ``class_engine_poly(cg, kind)``, read from the up-set keys of
    ``_engine_terms`` by the rules in the module docstring, without building
    a polynomial.  Raises CapacityError as ``class_engine_poly`` does."""
    terms, drop = _engine_terms(cg, kind)
    count = -drop
    for (_, free, gens), c in terms.items():
        for m in gens:
            c *= (1 << m) - 1
        count += c << free
    if drop:
        return (2 if cg.vertex_count >= 2 else None), count
    gamma = min((shift + len(gens) for shift, _, gens in terms
                 if shift + len(gens)), default=None)
    return gamma, count


def _engine_terms(cg, kind):
    """(terms, drop) for ``cg``: the up-set key table
    {(shift, free size, sorted generator sizes): count} whose terms sum to
    the counting polynomial plus drop * x, where drop is the p - 1 that D_t
    loses when n = p^alpha and 0 otherwise.

    The lowest bit of ``neighbors[i]`` is the partner class n/d_i, and
    ``neighbors[partner[j]]`` is the up-set of class j.  Each up-set
    contributes the product of the class weights in the module docstring.
    Raises CapacityError past ENGINE_UPSET_BUDGET up-sets (D only), then
    past zdgraph.VERTEX_LIMIT vertices.
    """
    sizes = [c.size for c in cg.classes]
    partner = [(mask & -mask).bit_length() - 1 for mask in cg.neighbors]
    up = [cg.neighbors[p] for p in partner]
    drop = 0
    if kind is DominationKind.TOTAL:
        # The minimal classes are the primes p | n, the classes in no other
        # class's up-set; their partners n/p each have to be occupied.
        primes = every = (1 << len(sizes)) - 1
        for j, upset in enumerate(up):
            primes &= ~upset | 1 << j
        terms = {_term(primes, every, partner, sizes): 1}
        if primes.bit_count() == 1:
            drop = sizes[partner[primes.bit_length() - 1]]
    else:
        terms = _upset_terms(cg.n, up, partner, sizes)
    check_vertex_limit(cg, "class-engine")
    return terms, drop


def _upset_terms(n, up, partner, sizes):
    """Count the up-sets by their _term key, enumerating antichains in
    ascending divisor order: a class joins only when it is outside the
    up-set of the classes already chosen."""
    k = len(sizes)
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
    over the terms {(shift, free, gens): count}, as binomial rows."""
    rows = {}  # E -> {shift: signed count of x^shift * (1+x)^E}
    for (shift, free, gens), count in terms.items():
        powers = [(free, count)]
        for m in gens:
            powers = ([(e + m, c) for e, c in powers]
                      + [(e, -c) for e, c in powers])
        for e, c in powers:
            rows.setdefault(e, Counter())[shift] += c
    acc = [0] * (nv + 1)
    for e, shifts in rows.items():
        row = binomial_expand(e).coeffs
        for shift, count in shifts.items():
            if count:
                for d, c in enumerate(row, shift):
                    acc[d] += count * c
    return Polynomial(acc)
