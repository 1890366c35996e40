"""Dominating-set counting, two ways.

``brute_force_poly`` enumerates all 2^|V| vertex subsets of an expanded graph
and histograms the dominating ones by size — slow but unarguable, so it serves
as the ground truth for everything else.  It reads only the ``VertexGraph``.
It counts the subsets that meet every distinct neighbourhood.  It splits
the vertices in half, low and block, and the subsets of each run are the
bit positions of a Python-int bitset, so one bitwise operation tests up to
2^20 of them at once.  The neighbourhoods are grouped by their low part,
and the block subsets are split by the groups whose block parts they do
not all meet; a low subset completes such a block subset exactly when it
meets the low part of each of those groups, so each part pairs its
block-size histogram with one low-size histogram.  A call for D takes
about 1 ms at 26 vertices and at most 35-65 ms up to 40, its limit.

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

D is the sum of these products over all antichains A.  With pi the partner
map, the five cases read from three bitmasks of classes, U, pi(U) and
pi(A), so an up-set's key costs a few mask operations:

    U & pi(A)             the generator sizes
    U & pi(U) & ~pi(A)    free: summed, the exponent of (1+x)
    U & ~pi(U)            weight 1
    ~U & pi(U)            shift: summed, the power of x
    ~U & ~pi(U)           the term drops when this is not empty

pi of class j's up-set is the down-set of its partner, so the walk over the
antichains carries pi(U) and pi(A) with one OR each per added generator.

Total domination needs every class covered, so U is all classes and A is
the primes p | n:

    D_t = prod over p | n of ((1+x)^(p-1) - 1) * (1+x)^(|V| - sum (p-1)),

since class n/p has p - 1 vertices.  A clique class covered only by itself
also needs a second selected vertex; that fails only when n = p^alpha and
the set is one vertex of the lone class n/p, so D_t's terms add -(p-1)x.

``sum_terms`` sums a term table {(shift, free, gens): signed count} with no
polynomial product: the engine's up-set terms and, in the same format, the
case terms of the closed forms in ``closedform``.  prod((1+x)^m - 1) over
the generator sizes multiplies out to signed powers (1+x)^E, with E = free
+ the sizes of a subset of the generators: the (1+x)-power form of
D(G, x) = sum over W of (-1)^|W| (1+x)^(|V| - |N[W]|) (Kotek, Preen, Simon,
Tittmann and Trinks, Electron. J. Combin. 19(3), 2012).  Merged over the
terms, they make a row table {E: {shift: signed count}}, summed by the
cheaper of two plans, priced from the table before any row is built.  The
flat sum expands each row (1+x)^E once (a multiply and a floor division
per coefficient) and adds it times its count at each shift (a multiply
and an add).  Horner in (1+x) runs from the largest E down to the lowest,
adding Q_E(x) = sum of count * x^shift at each row and multiplying by
(1+x) for each unit step of E, one add per live coefficient from x^0 up;
one flat row finishes it when the lowest row is above x^0, as it never is
for D.  Horner wins when many shifts recur over many E (n = 2520: 1.9 M
against 20 M), the flat sum when there are few rows and E is large (prime
powers, n = 2p).  D_t has 2^omega(n) rows at shift 0 (and, at n =
p^alpha, the x term), spanning only E_min ... E_min + sum (p - 1): Horner
wins when its primes are many and small (n = 336, 2520, 9828), the flat
sum when one is large (n = 2 * 3 * 17).  Horner holds its coefficients in
one of two ways, picked from the table: a list with one add per live
coefficient, or, while the coefficients are narrow, one integer, the sum
at x = 2^w for a slot width w bound by the counts (Kronecker
substitution), where a unit step is two big-int operations, a shift and
an add, and each row adds its Q_E(2^w) once.  The packed steps cost more
the wider the slots, so the list takes over past _PACKED_SLOT_BITS
(n = 336 sums packed, 2520 on the list).

``domination_number`` reads gamma with no polynomial and no up-set table.
D's counts are positive, so gamma is the least lowest degree, shift +
|gens|, of a kept term.  With L = ~U, the down-set of uncovered classes, a
term is kept when L and pi(L) are disjoint (L is pi-free); its shift is the
vertex count of L, and |gens| counts the minima of U outside pi(L).  The
down-sets of a pi-free L are pi-free, so a walk that grows L by a minimum
of U at a time, in ascending class order, skipping pi(L) and the class
that is its own partner, meets each kept term once, and it cuts a branch
once its shift, which only grows, reaches the best degree so far.  The
root, L empty, gives omega(n), so at every composite n < 10^5 it visits at
most 2 down-sets.  D_t's negative count, at n = p^alpha, takes all of the
x coefficient, so gamma_t is then 2, or undefined when n = 4 (one vertex).
``terms_count`` reads D(1), the sum of count * 2^free * prod(2^m - 1).

The band reference in ``tests/band_reference.py`` enumerates per-class
occupancy bands outright and shares no code with this engine; it brings its
own polynomial product, since ``Polynomial`` has none.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from operator import add, getitem

from .errors import CapacityError
from .polyring import Polynomial, binomial_expand
from .zdgraph import ClassGraph, VertexGraph, check_vertex_limit

# Most up-sets (antichains of proper divisors) engine_terms enumerates for
# D, whichever reader takes its table.  On a 2-core Xeon with Python 3.11 a
# visit costs about 3 us when its term is kept (n = 5040: 307 958 up-sets
# in 0.9 s; 10080: 1 301 608 in 4.3 s) and less when it drops.  A rank
# level of w divisors means at least 2^w up-sets, which refuses n = 27720
# (w = 22) and 720720 (w = 46) before the walk; n = 15120 (w = 15, 5.16 M
# up-sets) is refused while counting, after 1.5-2 s.
ENGINE_UPSET_LIMIT = 1_500_000

# Most work sum_terms takes on to sum the binomial rows, for the class
# engine and the closed forms alike: the count of the cheaper plan (see
# _assemble), checked before any row is built.  A unit costs about
# 0.1-0.4 us on the same machine, the more the wider the coefficients, so
# this is about 10 s at |V| = 7 235 (n = 9828 counts 26.2 M).  No closed
# form within zdgraph.VERTEX_LIMIT comes near it: one has at most 27
# (E, shift) pairs (n = pqr), each counting at most 4 * (|V| + 1) in the
# flat sum, so at most 5.4 M, whatever Horner counts.
ENGINE_WORK_LIMIT = 30_000_000

# The brute-force limit: most vertices brute force takes.  Per kind, D and
# D_t, on a shared 2-core Xeon with Python 3.11 (best of five calls, over
# seven runs whose speed varied twofold): 0.6-1.1 and 0.3-0.6 ms at 26
# vertices (n = 63), 5-10 and 2.5-5.5 ms at 34 (n = 75), 25-50 and 14-28 ms
# at 40 (n = 185), and at most 33-63 and 18-33 ms (n = 76 or 99; 76, 99,
# 185 or 1681).  Each further vertex doubles the bitsets of one run, 2^20
# bits each at 40.
BRUTE_CEILING = 40

# Widest slot, in bits, at which _sum_rows runs Horner on one packed integer
# instead of a list.  A packed unit step moves the whole integer twice, so
# it costs more the wider the slots, while a list add costs mostly its
# fixed overhead; a row costs another pass, and more with many shifts.
# For D at every n <= 1430 that Horner sums (2-core Xeon, Python 3.11),
# packed was the faster at all 110 tables up to 480 bits (n = 336 at 248
# bits: 0.8 against 1.7 ms).  Past it, tables of many rows lose (n = 630
# at 488 bits took 1.17 times the list's time, 780 at 592 bits 1.31), and
# past 640 bits 38 of 53 tables lose, 1260 at 976 bits by 2.9 times.
_PACKED_SLOT_BITS = 480

class DominationKind(Enum):
    ORDINARY = "D"
    TOTAL = "Dt"


def resolve_brute_limit(flag: int | None = None) -> int:
    """Effective brute-force vertex limit: ``flag`` capped at BRUTE_CEILING,
    BRUTE_CEILING when None.  Raises ValueError for a negative limit."""
    if flag is None:
        return BRUTE_CEILING
    if flag < 0:
        raise ValueError(f"brute-force limit must be >= 0, got {flag}")
    return min(flag, BRUTE_CEILING)


def check_brute_size(vertex_count: int, limit: int | None = None) -> None:
    """Raise CapacityError when a graph of ``vertex_count`` vertices is over
    ``resolve_brute_limit(limit)``; callers check before expanding the
    graph."""
    limit = resolve_brute_limit(limit)
    if vertex_count > limit:
        raise CapacityError(f"{vertex_count} vertices exceeds the "
                            f"brute-force limit of {limit}")


def gamma_from_poly(p: Polynomial) -> int | None:
    """Domination number encoded in a counting polynomial: the least positive
    degree with a nonzero coefficient.  None when no positive-size dominating
    set exists (graphs with isolated vertices, in the total case)."""
    return next((i for i, c in enumerate(p.coeffs) if i and c), None)


def brute_force_poly(vg: VertexGraph, kind: DominationKind,
                     limit: int | None = None) -> Polynomial:
    """Count dominating sets (or total dominating sets) of every size by
    direct enumeration of all vertex subsets.

    A set dominates when it meets every closed neighbourhood (every open
    one for D_t), so twins pose one constraint and only the distinct
    neighbourhoods are counted.  The vertices split in half: low, the
    first (|V| + 1) // 2, and block, the rest; the subsets of each run
    are the bit positions of Python-int bitsets, and ``_meet_masks`` gives
    the bitset of a run's subsets that meet a part of a neighbourhood.

    The neighbourhoods are grouped by their low part.  A block subset A
    meets every block part of a group when it is in ``met``, the AND of
    their cover bitsets; otherwise a low subset S must meet the group's
    low part.  ``parts`` pairs a bitset of block subsets with
    ``completing``, the bitset of the low subsets that complete each of
    them for the groups so far.  Each group splits each pair: the block
    subsets in ``met`` keep its ``completing``, and the rest take
    ``completing`` & the group's low cover, dropped when that is empty.
    Then S and A together dominate exactly when S is in the ``completing``
    of A's pair, so each pair adds its low-size histogram (a popcount per
    low size) times its block-size popcounts to the counts.

    Cost is, per group, an AND of 2^block bits per block part, and per
    pair an AND of 2^block bits and, when the pair splits, an AND of
    2^low bits and a XOR; then per pair a popcount per size of each run.  The tables are a
    bitset of 2^low bits per group and per low size and one of 2^block
    bits per distinct block part and per block size; the traced peak is
    about 13 MB at 40 vertices.  Refuses graphs above
    ``resolve_brute_limit(limit)`` vertices.
    """
    nv = len(vg.labels)
    check_brute_size(nv, limit)
    if kind is DominationKind.ORDINARY:
        nbh = set(vg.closed)
    else:
        nbh = {c & ~(1 << u) for u, c in enumerate(vg.closed)}
    low = (nv + 1) // 2
    block = nv - low
    low_mask = (1 << low) - 1
    groups = {}  # low part -> the block parts of the neighbourhoods with it
    for c in nbh:
        groups.setdefault(c & low_mask, set()).add(c >> low)
    hit, sized = _meet_masks(list(groups), low)
    block_parts = list({b for group in groups.values() for b in group})
    masks, block_sized = _meet_masks(block_parts, block)
    covers = dict(zip(block_parts, masks))
    every = (1 << (1 << block)) - 1
    parts = [((1 << (1 << low)) - 1, every)]  # (completing, block subsets)
    for low_hit, group in zip(hit, groups.values()):
        met = every
        for b in group:
            met &= covers[b]
        split = []
        for completing, part in parts:
            inside = part & met
            if inside:
                split.append((completing, inside))
            if inside != part and (rest := completing & low_hit):
                split.append((rest, part ^ inside))
        parts = split
    counts = [0] * (nv + 1)
    for completing, part in parts:
        histogram = [(completing & mask).bit_count() for mask in sized]
        for a, mask in enumerate(block_sized):
            multiplicity = (part & mask).bit_count()
            if multiplicity:
                for s, c in enumerate(histogram, a):
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
    the sum of the term table of ``engine_terms``.  Raises CapacityError
    as ``engine_terms`` and ``sum_terms`` do."""
    return sum_terms(cg, engine_terms(cg, kind), "class-engine")


def sum_terms(cg: ClassGraph, terms: dict, what: str) -> Polynomial:
    """The sum of the terms {(shift, free, gens): signed count}, of degree
    at most ``cg.vertex_count``: the table ``_assemble`` makes, summed by
    the plan it picks.  Every term table is summed, and refused, here, by
    CapacityError naming ``what``: over zdgraph.VERTEX_LIMIT before the
    fold, then over ENGINE_WORK_LIMIT of counted work before any row."""
    check_vertex_limit(cg, what)
    nv = cg.vertex_count
    rows, work, flat = _assemble(terms, nv)
    if work > ENGINE_WORK_LIMIT:
        raise CapacityError(
            f"summing the binomial rows for n={cg.n} counts {work} "
            f"operations, over the {what} work limit of {ENGINE_WORK_LIMIT}")
    return _sum_rows(rows, nv, flat)


def terms_count(terms: dict) -> int:
    """The value at 1 of the sum of ``terms``, an ``engine_terms`` table:
    the sum of count * 2^free * prod(2^m - 1) over its keys."""
    count = 0
    for (_, free, gens), c in terms.items():
        for m in gens:
            c *= (1 << m) - 1
        count += c << free
    return count


def domination_number(cg: ClassGraph, kind: DominationKind) -> int | None:
    """``gamma_from_poly`` of the counting polynomial of ``cg``: D's by
    the bounded walk in the module docstring, D_t's from its one key."""
    if kind is DominationKind.TOTAL:
        (_, _, gens), *signed = _total_terms(cg)
        if signed:
            return 2 if cg.vertex_count >= 2 else None
        return len(gens) or None
    k = len(cg.classes)
    if not k:
        return None
    sizes = [c.size for c in cg.classes]
    # neighbors[c] is the up-set of c's partner, so its k bits reversed
    # are c's down-set; below[c] leaves c out.
    below = [int(f"{m:0{k}b}"[::-1], 2) & ~(1 << c)
             for c, m in enumerate(cg.neighbors)]
    best = cg.vertex_count
    stack = [(0, 0, 0, 0)]  # (L, pi(L), its vertex count, least new class)
    while stack:
        low, pi_low, shift, start = stack.pop()
        if shift >= best:
            continue
        minima = [c for c in range(k)
                  if not (low >> c & 1 or below[c] & ~low)]
        best = min(best, shift + sum(not pi_low >> c & 1 for c in minima))
        stack += [(low | 1 << c, pi_low | 1 << k - 1 - c, shift + sizes[c],
                   c + 1) for c in minima
                  if c >= start and not pi_low >> c & 1 and 2 * c != k - 1]
    return best


def engine_terms(cg: ClassGraph, kind: DominationKind) -> dict:
    """The up-set key table {(shift, free size, sorted generator sizes):
    count} of ``cg``, whose terms sum to the counting polynomial.  D_t's
    table adds the key (1, 0, ()) with count -(p - 1) when n = p^alpha.

    The classes ascend, so the partner n/d_j of class j is class k - 1 - j,
    and ``neighbors[k - 1 - j]`` is the up-set of class j.  Each up-set
    contributes the product of the class weights in the module docstring.
    Every caller builds output of size |V|, so this raises CapacityError
    when the widest rank level of the divisors of n implies over
    ENGINE_UPSET_LIMIT up-sets (D only), then past zdgraph.VERTEX_LIMIT,
    then once D's walk counts past ENGINE_UPSET_LIMIT."""
    if kind is DominationKind.ORDINARY:
        widest = _widest_rank_level(cg)
        if 1 << widest > ENGINE_UPSET_LIMIT:
            raise CapacityError(
                f"n={cg.n} has {widest} divisor classes of one rank, so at "
                f"least 2^{widest} up-sets, over the class-engine up-set "
                f"limit of {ENGINE_UPSET_LIMIT}")
    check_vertex_limit(cg, "class-engine")
    if kind is DominationKind.ORDINARY:
        return _upset_terms(cg.n, cg.neighbors[::-1],
                            [c.size for c in cg.classes])
    return _total_terms(cg)


def _total_terms(cg):
    """D_t's table: one key, U all classes and its generators the partners
    n/p of the primes p | n, of p - 1 vertices each, and every other class
    free; a prime n has no classes, so no generators."""
    gens = tuple(p - 1 for p, _ in cg.factorization.factors if p < cg.n)
    terms = {(0, cg.vertex_count - sum(gens), gens): 1}
    if len(gens) == 1:
        terms[1, 0, ()] = -gens[0]
    return terms


def _bits(mask):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _widest_rank_level(cg):
    """The most proper divisors of n = cg.n with one count of prime factors
    (with multiplicity): the largest coefficient of prod over p^e || n of
    (1 + t + ... + t^e) but those of 1 and n.  No such divisor divides
    another, so every subset of the level is an antichain: 2^level bounds
    the up-sets below."""
    levels = [1]
    for _, e in cg.factorization.factors:
        levels = [sum(levels[max(0, r - e):r + 1])
                  for r in range(len(levels) + e)]
    return max(levels[1:-1], default=0)


def _upset_terms(n, up, sizes):
    """Count the up-sets by their key, enumerating antichains A in
    ascending divisor order: a class joins only when it is past the last
    generator and outside the up-set U of those already chosen.

    The walk carries U, pi(U) and pi(A) as bitmasks, pi the partner map,
    and reads the key from them by the mask rules in the module docstring,
    each size a sum of byte-table lookups.  The classes are the divisors
    1 < d < n in ascending order, so pi reverses them: pi(j) = k - 1 - j,
    pi of a mask is its k bits reversed, and pi of class j's up-set is the
    down-set of its partner."""
    k = len(sizes)
    every = (1 << k) - 1
    grow = {1 << j: (up[j], int(f"{up[j]:0{k}b}"[::-1], 2), 1 << k - 1 - j)
            for j in range(k)}  # bit of j -> (up-set, its image, pi(j))
    nbytes = (k + 7) // 8
    tables = []  # per byte of a mask: class sizes summed over its bits
    for low in range(0, k, 8):
        table = [0]
        for m in sizes[low:low + 8]:
            table += [t + m for t in table]
        tables.append(table)

    def size(mask):
        return sum(map(getitem, tables, mask.to_bytes(nbytes, "little")))
    gens_of = {}  # U & pi(A) -> sorted generator sizes
    terms = {}
    count = 0
    stack = [(0, 0, 0, every)]  # (U, pi(U), pi(A), candidate bits)
    while stack:
        upset, pi_upset, pi_gens, candidates = stack.pop()
        count += 1
        if count > ENGINE_UPSET_LIMIT:
            raise CapacityError(
                f"counting up-sets of divisor classes for n={n} reached "
                f"{count}, over the class-engine up-set limit of "
                f"{ENGINE_UPSET_LIMIT}")
        if upset | pi_upset == every:
            generators = upset & pi_gens
            gen_sizes = gens_of.get(generators)
            if gen_sizes is None:
                gen_sizes = gens_of[generators] = tuple(
                    sorted(sizes[e] for e in _bits(generators)))
            key = (size(pi_upset & ~upset),
                   size(upset & pi_upset & ~pi_gens), gen_sizes)
            terms[key] = terms.get(key, 0) + 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            up_j, pi_up_j, pi_j = grow[low]
            stack.append((upset | up_j, pi_upset | pi_up_j, pi_gens | pi_j,
                          candidates & ~up_j))
    return terms


def _assemble(terms, nv):
    """(rows, work, flat) for the terms {(shift, free, gens): count}: the
    row table {E: {shift: signed count of x^shift * (1+x)^E}}, the count
    of the cheaper plan for _sum_rows, and whether it is the flat sum (a
    tie goes flat).  The flat sum counts 2 * (E+1) per row and per
    (E, shift) pair; Horner, at each unit step of E down to the lowest
    row, low, one add per coefficient from x^0 up to the highest degree,
    reach, its rows have reached, and above x^0 one flat row at
    reach - low + 1 shifts.

    The keys are grouped by ``gens`` into tables of (E, shift) entries,
    starting at E = free.  Going from the longest ``gens`` down, each
    table folds into the one of its prefix: with m the last size, since
    (1+x)^m - 1 multiplies out to two signed powers, entry (E, shift, c)
    adds c at (E + m, shift) and -c at (E, shift).  The table of the empty
    ``gens`` is the row table."""
    # (E, shift) is keyed as the int E * width + shift: a Counter of pairs
    # took about twice as long to fill at n = 2520.
    width = nv + 1
    levels = [{} for _ in range(1 + max((len(gens) for _, _, gens in terms),
                                        default=0))]
    for (shift, free, gens), count in terms.items():
        levels[len(gens)].setdefault(gens, {})[free * width + shift] = count
    while len(levels) > 1:
        deepest = levels.pop()
        prefixes = levels[-1]
        for gens, table in deepest.items():
            prefix = prefixes.setdefault(gens[:-1], {})
            step = gens[-1] * width
            for key, c in table.items():
                if c:
                    prefix[key + step] = prefix.get(key + step, 0) + c
                    prefix[key] = prefix.get(key, 0) - c
    rows = {}
    for key, c in levels[0].get((), {}).items():
        if c:
            e, shift = divmod(key, width)
            rows.setdefault(e, {})[shift] = c
    flat = sum((e + 1) * (2 * len(shifts) + 2) for e, shifts in rows.items())
    low = min(rows, default=0)
    horner = reach = 0
    for e in range(max(rows, default=0), low, -1):
        if e in rows:
            reach = max(reach, e + max(rows[e]))
        horner += reach - e + 1
    if low:
        reach = max(reach, low + max(rows[low]))
        horner += (low + 1) * (2 * (reach - low + 1) + 2)
    return rows, min(flat, horner), flat <= horner


def _sum_rows(rows, nv, flat):
    """The sum of ``rows``: the flat sum when ``flat``, else Horner in
    (1+x) from the largest E down to the lowest, low, on the rows shifted
    down by it, finished above x^0 by its result R as one flat row at low.
    No coefficient of Horner's is larger than the sum of |count| *
    2^(E - low), so slots of that many bits and a sign bit, in whole
    bytes, hold them: up to _PACKED_SLOT_BITS, Horner runs on one integer,
    ``_packed_horner_sum``, and past it on a list, ``_window_horner_sum``."""
    if flat:
        return _flat_sum(rows, nv)
    low = min(rows)
    rows = {e - low: shifts for e, shifts in rows.items()}
    bound = sum(sum(map(abs, shifts.values())) << e
                for e, shifts in rows.items())
    slot = bound.bit_length() // 8 + 1
    if 8 * slot <= _PACKED_SLOT_BITS:
        r = _packed_horner_sum(rows, nv - low, slot)
    else:
        r = _window_horner_sum(rows, nv - low)
    if low:
        r = _flat_sum({low: {d: c for d, c in enumerate(r.coeffs) if c}}, nv)
    return r


def _flat_sum(rows, nv):
    """Expand each row (1+x)^E once, a multiply and a floor division per
    coefficient, and add it times its count at each shift: one multiply
    and one add per coefficient."""
    acc = [0] * (nv + 1)
    for e, shifts in rows.items():
        row = binomial_expand(e).coeffs
        for shift, count in shifts.items():
            for d, c in enumerate(row, shift):
                acc[d] += count * c
    return Polynomial(acc)


def _packed_horner_sum(rows, nv, slot):
    """Horner's sum at x = 2^w, w = 8 * slot (Kronecker substitution): the
    coefficient of x^d is the signed slot of bits [w*d, w*d + w) of one
    integer.  A unit step is ``acc += acc << w``, two big-int operations,
    and a row adds Q_E(2^w) once, built by Horner over its shifts.  Adding
    2^(w-1) to each slot brings every coefficient into [0, 2^w), so the
    slots read back from the bytes with no borrow between them."""
    w = 8 * slot
    acc = 0
    for e in range(max(rows, default=0), -1, -1):
        shifts = rows.get(e)
        if shifts:
            q, last = 0, max(shifts)
            for shift in sorted(shifts, reverse=True):
                q = (q << w * (last - shift)) + shifts[shift]
                last = shift
            acc += q << w * last
        if e:
            acc += acc << w
    size = slot * (nv + 1)
    bias = int.from_bytes((bytes(slot - 1) + b"\x80") * (nv + 1), "little")
    data = (acc + bias).to_bytes(size, "little")
    half = 1 << w - 1
    return Polynomial([int.from_bytes(data[i:i + slot], "little") - half
                       for i in range(0, size, slot)])


def _window_horner_sum(rows, nv):
    """Horner's sum on a list: the step to E - 1 is one add
    live[d] + live[d-1] per coefficient of the live window, from x^0 up to
    the highest degree the rows added so far reach."""
    live = []  # live[d] is the coefficient of x^d
    for e in range(max(rows, default=0), -1, -1):
        shifts = rows.get(e)
        if shifts:
            live += [0] * (max(shifts) + 1 - len(live))
            for shift, count in shifts.items():
                live[shift] += count
        if e:
            live.append(0)
            live = list(map(add, live, chain((0,), live)))
    return Polynomial(live)
