"""Dominating-set counting, two ways.

``brute_force_poly`` enumerates all 2^|V| vertex subsets of an expanded graph
and histograms the dominating ones by size — slow but unarguable, so it serves
as the ground truth for everything else.

``class_engine_poly`` works on the compressed class graph instead.  Because
all vertices of a divisor class are interchangeable, a subset of vertices is
described up to symmetry by how many vertices it takes from each class, and
whether a subset dominates depends only on each class's *occupancy band*:

    ZERO  nothing selected
    ONE   exactly one selected
    MID   at least two but not all selected
    FULL  every vertex selected

Validity is decided per class from its band, its neighbors' occupancy, and
whether the class is an internal clique; the counts within a band contribute a
fixed generating polynomial.  The engine never enumerates bands directly — it
sweeps the 2^k occupied/unoccupied patterns (k = number of classes), which is
equivalent and much smaller, and defers all polynomial arithmetic to a final
pass over deduplicated class-size signatures.  The test suite's band
reference (``tests/band_reference.py``) enumerates the bands outright.
"""

from __future__ import annotations

import os
from enum import Enum

import numpy as np

from .errors import CapacityError
from .polyring import Polynomial, binomial_expand, min_positive_degree
from .zdgraph import ClassGraph, VertexGraph

DEFAULT_BRUTE_LIMIT = 26
BRUTE_LIMIT_ENV_VAR = "ZDPOLY_BRUTE_LIMIT"
MAX_ENGINE_CLASSES = 64

# Above this many classes the 2^k sweep falls back from vectorized numpy to a
# plain loop to keep memory bounded.
_NUMPY_SWEEP_MAX = 22
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
    the brute-force ``limit``; callers check before expanding the graph."""
    if vertex_count > limit:
        raise CapacityError(f"{vertex_count} vertices exceeds the "
                            f"brute-force limit of {limit}")


def gamma_from_poly(p: Polynomial) -> int | None:
    """Domination number encoded in a counting polynomial: the least positive
    degree with a nonzero coefficient.  None when no positive-size dominating
    set exists (graphs with isolated vertices, in the total case)."""
    return min_positive_degree(p)


def brute_force_poly(vg: VertexGraph, kind: DominationKind,
                     limit: int | None = None) -> Polynomial:
    """Count dominating sets (or total dominating sets) of every size by
    direct enumeration of all vertex subsets.

    The low 20 vertices are precomputed as coverage/size tables; remaining
    vertices are folded in per outer iteration, so cost is O(2^|V|) with a
    small constant.  Refuses graphs above ``limit`` vertices.
    """
    nv = len(vg.labels)
    check_brute_size(nv, resolve_brute_limit(limit))
    if nv > 63:
        raise CapacityError(
            f"brute force packs subsets into machine words and cannot go "
            f"beyond 63 vertices (got {nv})")
    if nv == 0:
        return Polynomial((1,))
    if kind is DominationKind.ORDINARY:
        nbh = list(vg.closed)
    else:
        nbh = [c & ~(1 << u) for u, c in enumerate(vg.closed)]
    full = np.uint64((1 << nv) - 1)
    low = min(nv, _BRUTE_LOW_BITS)
    cover = np.zeros(1 << low, dtype=np.uint64)
    sel_size = np.zeros(1 << low, dtype=np.uint8)
    for v in range(low):
        half = 1 << v
        cover[half:2 * half] = cover[:half] | np.uint64(nbh[v])
        sel_size[half:2 * half] = sel_size[:half] + 1
    counts = [0] * (nv + 1)
    high_nbh = nbh[low:]
    for high in range(1 << (nv - low)):
        base = 0
        base_size = 0
        h = high
        while h:
            base |= high_nbh[(h & -h).bit_length() - 1]
            base_size += 1
            h &= h - 1
        dominated = (cover | np.uint64(base)) == full
        hist = np.bincount(sel_size[dominated], minlength=low + 1)
        for i in range(low + 1):
            c = int(hist[i])
            if c:
                counts[i + base_size] += c
    return Polynomial(counts)


def class_engine_poly(cg: ClassGraph, kind: DominationKind) -> Polynomial:
    """Counting polynomial from the compressed graph.

    Sweeps all 2^k occupied-class patterns, keeps the valid ones, and buckets
    each by its *signature*: how many classes of each size take the
    unrestricted weight (1+x)^m - 1, and what the remaining constrained
    classes force.  All polynomial products happen once per distinct
    signature, which keeps the sweep itself integer-only.
    """
    k = len(cg.classes)
    if k > MAX_ENGINE_CLASSES:
        raise CapacityError(
            f"{k} divisor classes exceeds the engine limit of {MAX_ENGINE_CLASSES}")
    if k == 0:
        return Polynomial((1,))
    sizes = [c.size for c in cg.classes]
    nv = sum(sizes)
    nbmask = []
    for i in range(k):
        row = cg.adjacency[i]
        nbmask.append(sum(1 << j for j in range(k) if row[j]))
    clique_mask = sum(1 << i for i, c in enumerate(cg.classes) if c.is_clique)
    big_clique_mask = sum(1 << i for i, c in enumerate(cg.classes)
                          if c.is_clique and c.size >= 2)
    distinct = sorted(set(sizes))
    size_masks = [sum(1 << i for i in range(k) if sizes[i] == s)
                  for s in distinct]
    if k <= _NUMPY_SWEEP_MAX:
        keyed = _sweep_numpy(k, nbmask, clique_mask, big_clique_mask,
                             size_masks, distinct, kind)
    else:
        keyed = _sweep_scalar(k, nbmask, clique_mask, big_clique_mask,
                              size_masks, distinct, kind)
    return _assemble(keyed, distinct, nv, kind)


def _sweep_numpy(k, nbmask, clique_mask, big_clique_mask, size_masks,
                 distinct, kind):
    full_int = (1 << k) - 1
    full = np.uint64(full_int)
    cover = np.zeros(1 << k, dtype=np.uint64)
    for v in range(k):
        block = cover.reshape(-1, 2, 1 << v)
        block[:, 1, :] |= np.uint64(nbmask[v])
    idx = np.arange(1 << k, dtype=np.uint64)
    valid = (idx | cover) == full
    if kind is DominationKind.TOTAL:
        not_big = np.uint64(full_int & ~big_clique_mask)
        valid &= (idx & ~cover & not_big) == 0
    sel = idx[valid]
    cov = cover[valid]
    g = len(size_masks)
    if kind is DominationKind.TOTAL:
        a_set = sel & cov
        c_set = sel & ~cov
        cols = [np.bitwise_count(a_set & np.uint64(m)) for m in size_masks]
        cols += [np.bitwise_count(c_set & np.uint64(m)) for m in size_masks]
        arr = np.stack(cols, axis=1)
        uniq, cnt = np.unique(arr, axis=0, return_counts=True)
        return {(tuple(int(x) for x in row[:g]),
                 tuple(int(x) for x in row[g:])): int(c)
                for row, c in zip(uniq, cnt)}
    a_set = sel & (cov | np.uint64(clique_mask))
    forced = sel & ~cov & np.uint64(full_int & ~clique_mask)
    cols = [np.bitwise_count(a_set & np.uint64(m)).astype(np.uint64)
            for m in size_masks]
    extra = np.zeros(len(sel), dtype=np.uint64)
    for s, m in zip(distinct, size_masks):
        extra += np.uint64(s) * np.bitwise_count(
            forced & np.uint64(m)).astype(np.uint64)
    cols.append(extra)
    arr = np.stack(cols, axis=1)
    uniq, cnt = np.unique(arr, axis=0, return_counts=True)
    return {(tuple(int(x) for x in row[:g]), int(row[g])): int(c)
            for row, c in zip(uniq, cnt)}


def _sweep_scalar(k, nbmask, clique_mask, big_clique_mask, size_masks,
                  distinct, kind):
    full = (1 << k) - 1
    not_clique = full & ~clique_mask
    not_big = full & ~big_clique_mask
    keyed: dict = {}
    for occupied in range(1 << k):
        cover = 0
        t = occupied
        while t:
            cover |= nbmask[(t & -t).bit_length() - 1]
            t &= t - 1
        if occupied | cover != full:
            continue
        if kind is DominationKind.TOTAL:
            c_set = occupied & ~cover
            if c_set & not_big:
                continue
            a_set = occupied & cover
            key = (tuple((a_set & m).bit_count() for m in size_masks),
                   tuple((c_set & m).bit_count() for m in size_masks))
        else:
            a_set = occupied & (cover | clique_mask)
            forced = occupied & ~cover & not_clique
            extra = sum(s * (forced & m).bit_count()
                        for s, m in zip(distinct, size_masks))
            key = (tuple((a_set & m).bit_count() for m in size_masks), extra)
        keyed[key] = keyed.get(key, 0) + 1
    return keyed


def _vector_power(vec, bases, cache):
    """Product over i of bases[i]**vec[i], memoized on the exponent vector."""
    poly = cache.get(vec)
    if poly is None:
        i = next(j for j, c in enumerate(vec) if c)
        prev = list(vec)
        prev[i] -= 1
        poly = _vector_power(tuple(prev), bases, cache) * bases[i]
        cache[vec] = poly
    return poly


def _assemble(keyed, distinct, nv, kind):
    one = Polynomial((1,))
    bases_a = [binomial_expand(s) - one for s in distinct]
    zero_vec = (0,) * len(distinct)
    cache_a = {zero_vec: one}
    coeffs = [0] * (nv + 1)
    if kind is DominationKind.TOTAL:
        bases_c = [binomial_expand(s) - Polynomial((1, s)) for s in distinct]
        cache_c = {zero_vec: one}
        for (acnt, ccnt), count in keyed.items():
            prod = (_vector_power(acnt, bases_a, cache_a)
                    * _vector_power(ccnt, bases_c, cache_c))
            for d, coef in enumerate(prod.coeffs):
                coeffs[d] += count * coef
    else:
        for (acnt, extra), count in keyed.items():
            prod = _vector_power(acnt, bases_a, cache_a)
            for d, coef in enumerate(prod.coeffs):
                coeffs[d + extra] += count * coef
    return Polynomial(coeffs)
