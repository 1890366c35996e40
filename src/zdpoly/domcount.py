"""Dominating-set counting, two ways.

``brute_force_poly`` enumerates all 2^|V| vertex subsets of an expanded graph
and histograms the dominating ones by size — slow but unarguable, so it serves
as the ground truth for everything else.  It reads only the ``VertexGraph``.
It splits the vertices into three runs, low, block and outer.  The subsets
of the low and block runs are the bit positions of Python-int bitsets, so
one bitwise operation tests up to 2^14 of them at once, and only the at
most 2^10 outer subsets are looped over.  For each outer subset it splits
the block subsets by the groups (vertices with one neighbourhood within
low) they leave with an uncovered member; a low subset completes such a
pair exactly when it covers a member of each of those groups, so the size
histogram of the completing low subsets is computed once per distinct set
of groups.  Since one bitwise operation tests thousands of subsets, a call
for D takes about 1 ms at 26 vertices and 0.14 s at 40, the ceiling.

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
the generator sizes multiplies out to signed powers (1+x)^E, with E = free +
the sizes of a subset of the generators: the (1+x)-power form of
D(G, x) = sum over W of (-1)^|W| (1+x)^(|V| - |N[W]|) (Kotek, Preen, Simon,
Tittmann and Trinks, Electron. J. Combin. 19(3), 2012).  Merged over the
terms, they make a row table {E: {shift: signed count}}, which two sums
read.  The flat sum expands each row (1+x)^E once and adds it, times its
count, at each shift: a multiply and an add per coefficient, so it counts
2 * sum (E+1) over the (E, shift) pairs.  Horner in (1+x) goes down from the
largest E, adds Q_E(x) = sum of count * x^shift, and multiplies by (1+x) for
each unit step of E with one add per live coefficient; it counts those
adds.  Both counts come from the table before any row is built, and the
smaller one picks the sum.  Horner wins when many shifts recur over many E
(n = 2520: 1.9 M against 18.5 M), flat when there are few rows (prime powers,
n = 2p, and D_t, whose 2^omega(n) rows all sit at shift 0).

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
from operator import add

from .errors import CapacityError
from .numtheory import factorize
from .polyring import Polynomial, binomial_expand
from .zdgraph import ClassGraph, VertexGraph, check_vertex_limit

DEFAULT_BRUTE_LIMIT = 26
# Most up-sets (antichains of proper divisors) the class engine enumerates
# for D, in class_engine_poly and class_engine_count alike.  On a 2-core
# Xeon with Python 3.11 a visit costs about 11 us at n = 5040 (307 958
# up-sets, 3.4-4 s).  A rank level of w divisors means at least 2^w
# up-sets, which refuses n = 27720 (w = 22) and 720720 (w = 46) before the
# walk; n = 7560 (w = 14, 651 k up-sets) is refused while counting, after
# about 3.3 s.
ENGINE_UPSET_LIMIT = 400_000

# Most work class_engine_poly takes on to sum the binomial rows: the count
# of the cheaper sum (see _assemble), checked before any row is built.  A
# unit costs about 0.1-0.4 us on the same machine, the more the wider the
# coefficients, so this is about 10 s at |V| = 7 235 (n = 9828 counts
# 26.2 M).
ENGINE_WORK_LIMIT = 30_000_000

# Most vertices brute force takes on whatever the limit.  Per kind, D and
# D_t, on a 2-core Xeon with Python 3.11: 1.0 and 0.5 ms at 26 vertices
# (n = 63), 46 and 24 ms at 34 (n = 75), 0.14 and 0.07 s at 40 (n = 185).
# Past 36 vertices each further vertex doubles the low bitsets, which hold
# 2^16 bits at 40.
BRUTE_CEILING = 40

# How brute force splits the vertices (see brute_force_poly): the subsets
# of the low and the block vertices are the bit positions of bitsets, and
# it loops over the subsets of the outer rest in Python.  Low takes at
# least _BRUTE_LOW_BITS vertices and whatever the block and
# _BRUTE_OUTER_BITS outer vertices leave, so the loop has at most 2^10
# steps.  A fixed low run of 16 made brute force on the benchmark's graphs
# of up to 26 vertices 2.6 times slower in all (one histogram per key over
# 2^16 bits), and a fixed 12 took 1.7-2.1 s for D at 40 vertices (2^14
# loop steps) against 0.14 s with the low run grown to 16.
_BRUTE_LOW_BITS = 12
_BRUTE_BLOCK_BITS = 14
_BRUTE_OUTER_BITS = 10


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

    The vertices split into three runs: low (the first _BRUTE_LOW_BITS, or
    more when the outer run would pass _BRUTE_OUTER_BITS), block (the next
    _BRUTE_BLOCK_BITS) and outer (the rest).  Low and block subsets are bit
    positions of Python-int bitsets; outer subsets are looped over, each
    covered set one OR from a smaller subset's.  Neighbourhoods are
    symmetric, so a subset S of a run covers vertex v when it meets
    N(v) ∩ run, and ``_meet_masks`` gives, for each vertex, the bitset of
    the run's subsets that cover it.

    Vertices are grouped by their low neighbourhood, since the low subsets
    that cover one member cover them all.  For an outer subset O, the block
    subsets A are split by their key: the groups with a member that neither
    O nor A covers.  Group g stays uncovered exactly for the A outside the
    AND of the cover bitsets of its members that O leaves uncovered.  Each
    part is counted by |A| with one popcount per size, and the counts are
    tallied by (key, |A| + |O|).  S completes A ∪ O to a dominating set
    exactly when it covers a member of each group in the key, so one AND
    chain and one popcount per size of the low bitsets give each key's size
    histogram, added shifted and times the tally.

    Cost is at most 2^_BRUTE_OUTER_BITS outer subsets, each one AND of
    2^block bits per member of a group it leaves uncovered and, for each
    part, one AND and popcount per block size; then, per distinct key, an
    AND chain and one popcount per low size over 2^low bits.  The tables
    are a bitset of 2^low bits per group and per low size and one of
    2^block bits per vertex and per block size, about 0.4 MB at 40
    vertices.  Refuses graphs above ``limit`` vertices or BRUTE_CEILING.
    """
    nv = len(vg.labels)
    check_brute_size(nv, resolve_brute_limit(limit))
    if kind is DominationKind.ORDINARY:
        nbh = list(vg.closed)
    else:
        nbh = [c & ~(1 << u) for u, c in enumerate(vg.closed)]
    low = min(nv, max(_BRUTE_LOW_BITS,
                      nv - _BRUTE_BLOCK_BITS - _BRUTE_OUTER_BITS))
    block = min(nv - low, _BRUTE_BLOCK_BITS)
    low_mask = (1 << low) - 1
    groups = {}  # low neighbourhood -> bitmask of the vertices that have it
    for v in range(nv):
        low_nbh = nbh[v] & low_mask
        groups[low_nbh] = groups.get(low_nbh, 0) | 1 << v
    hit, sized = _meet_masks(groups, low)
    block_mask = (1 << block) - 1
    covers, block_sized = _meet_masks(
        [c >> low & block_mask for c in nbh], block)
    members = [(vertices, [v for v in range(nv) if vertices >> v & 1])
               for vertices in groups.values()]
    every = (1 << (1 << block)) - 1
    outer_covered, outer_size = [0], [0]
    for c in nbh[low + block:]:
        outer_covered += [covered | c for covered in outer_covered]
        outer_size += [size + 1 for size in outer_size]
    tally = Counter()  # (key, |A| + |O|) -> number of pairs (A, O)
    for covered, size in zip(outer_covered, outer_size):
        parts = {0: every}  # key -> bitset of the block subsets with it
        for g, (vertices, vertex_list) in enumerate(members):
            if not vertices & ~covered:
                continue
            met = every
            for v in vertex_list:
                if not covered >> v & 1:
                    met &= covers[v]
            split = {}
            for key, part in parts.items():
                if part & met:
                    split[key] = part & met
                if part & ~met:
                    split[key | 1 << g] = part & ~met
            parts = split
        for key, part in parts.items():
            for s, mask in enumerate(block_sized, size):
                c = (part & mask).bit_count()
                if c:
                    tally[key, s] += c
    full = (1 << (1 << low)) - 1
    counts = [0] * (nv + 1)
    histograms = {}
    for (key, size), multiplicity in tally.items():
        histogram = histograms.get(key)
        if histogram is None:
            dominated = full
            for g, low_hit in enumerate(hit):
                if key >> g & 1:
                    dominated &= low_hit
            histogram = [(dominated & mask).bit_count() for mask in sized]
            histograms[key] = histogram
        for s, c in enumerate(histogram, size):
            counts[s] += c * multiplicity
    return Polynomial(counts)


def _meet_masks(conditions, bits):
    """(masks, sized) over the 2^bits subsets S of ``bits`` positions: bit S
    of masks[i] is set when S meets conditions[i], a bitmask of positions,
    and bit S of sized[s] when |S| = s.  Each doubling step copies the
    bitsets of the subsets without position b to those with it."""
    masks = [0] * len(conditions)
    sized = [1] + [0] * bits
    for b in range(bits):
        half = 1 << b
        ones = (1 << half) - 1
        for i, condition in enumerate(conditions):
            masks[i] |= (ones if condition >> b & 1 else masks[i]) << half
        for s in range(b + 1, 0, -1):
            sized[s] |= sized[s - 1] << half
    return masks, sized


def class_engine_poly(cg: ClassGraph, kind: DominationKind) -> Polynomial:
    """Counting polynomial of ``cg``, a graph from ``build_class_graph``:
    the sum of the up-set terms of ``_engine_terms``.  Raises CapacityError
    as ``_engine_terms`` does, or when the counted work of the sum is over
    ENGINE_WORK_LIMIT, before any row is built."""
    terms, drop = _engine_terms(cg, kind)
    nv = cg.vertex_count
    rows, work, sum_rows = _assemble(terms, nv)
    if work > ENGINE_WORK_LIMIT:
        raise CapacityError(
            f"summing the binomial rows for n={cg.n} counts {work} "
            f"operations, over the class-engine work limit of "
            f"{ENGINE_WORK_LIMIT}")
    return sum_rows(rows, nv) - Polynomial((0, drop))


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
    Raises CapacityError past ENGINE_UPSET_LIMIT up-sets (D only): at
    once when the widest rank level of the divisors already implies more,
    else while the walk counts them; then past zdgraph.VERTEX_LIMIT
    vertices.
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
        widest = _widest_rank_level(cg)
        if 1 << widest > ENGINE_UPSET_LIMIT:
            raise CapacityError(
                f"n={cg.n} has {widest} divisor classes of one rank, so at "
                f"least 2^{widest} up-sets, over the class-engine up-set "
                f"limit of {ENGINE_UPSET_LIMIT}")
        terms = _upset_terms(cg.n, up, partner, sizes)
    check_vertex_limit(cg, "class-engine")
    return terms, drop


def _widest_rank_level(cg):
    """The most classes whose divisors have one count of prime factors
    (with multiplicity).  No such divisor divides another, so every subset
    of the level is an antichain: 2^level bounds the up-sets below."""
    primes = [p for p, _ in factorize(cg.n).factors]
    levels = Counter()
    for c in cg.classes:
        d, rank = c.divisor, 0
        for p in primes:
            while d % p == 0:
                d //= p
                rank += 1
        levels[rank] += 1
    return max(levels.values(), default=0)


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
        if count > ENGINE_UPSET_LIMIT:
            raise CapacityError(
                f"counting up-sets of divisor classes for n={n} reached "
                f"{count}, over the class-engine up-set limit of "
                f"{ENGINE_UPSET_LIMIT}")
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
    """(rows, work, sum_rows) for the terms {(shift, free, gens): count}:
    the row table {E: {shift: signed count of x^shift * (1+x)^E}}, and the
    cheaper of _flat_sum and _horner_sum with the work it counts.  Each
    distinct ``gens``, and each prefix of one, multiplies out to its signed
    powers of (1+x) once."""
    offsets = {(): {0: 1}}  # gens -> {E: signed count of (1+x)^E}

    def expand(gens):
        signed = offsets.get(gens)
        if signed is None:
            m = gens[-1]
            signed = {}
            for e, c in expand(gens[:-1]).items():
                signed[e + m] = signed.get(e + m, 0) + c
                signed[e] = signed.get(e, 0) - c
            signed = offsets[gens] = {e: c for e, c in signed.items() if c}
        return signed

    # (E, shift) is keyed as the int E * width + shift: a Counter of pairs
    # took about twice as long to fill at n = 2520.
    width = nv + 1
    table = {}
    for (shift, free, gens), count in terms.items():
        base = free * width + shift
        for e, c in expand(gens).items():
            key = base + e * width
            table[key] = table.get(key, 0) + c * count
    rows = {}
    for key, c in table.items():
        if c:
            e, shift = divmod(key, width)
            rows.setdefault(e, {})[shift] = c
    flat = 2 * sum((e + 1) * len(shifts) for e, shifts in rows.items())
    horner, lo, reach = 0, nv, 0
    for e in range(max(rows, default=0), 0, -1):
        if e in rows:
            lo = min(lo, min(rows[e]))
            reach = max(reach, e + max(rows[e]))
        horner += reach - e - lo + 1
    if horner < flat:
        return rows, horner, _horner_sum
    return rows, flat, _flat_sum


def _flat_sum(rows, nv):
    """Add each row (1+x)^E, expanded once, times its count at each shift:
    one multiply and one add per coefficient."""
    acc = [0] * (nv + 1)
    for e, shifts in rows.items():
        row = binomial_expand(e).coeffs
        for shift, count in shifts.items():
            for d, c in enumerate(row, shift):
                acc[d] += count * c
    return Polynomial(acc)


def _horner_sum(rows, nv):
    """Horner in (1+x): going down from the largest E, add Q_E(x), the sum
    of count * x^shift, then multiply by (1+x) for the step down to E - 1
    with one add acc[d] += acc[d-1] per coefficient of the live range."""
    acc = [0] * (nv + 1)
    lo, hi = nv, 0
    for e in range(max(rows, default=0), -1, -1):
        for shift, count in rows.get(e, {}).items():
            acc[shift] += count
            lo = min(lo, shift)
            hi = max(hi, shift)
        if e:
            acc[lo + 1:hi + 2] = map(add, acc[lo + 1:hi + 2], acc[lo:hi + 1])
            hi += 1
    return Polynomial(acc)
