"""Band-enumeration reference for the class engine.

Every vertex subset of a class graph is described up to symmetry by one
*occupancy band* per divisor class:

    ZERO  nothing selected
    ONE   exactly one selected
    MID   at least two but not all selected
    FULL  every vertex selected

``reference_band_poly`` enumerates every band assignment outright, keeps the
dominating ones and sums their band weights.  It derives adjacency from the
class divisors itself (classes d and e are joined when n | d*e, and class d
is a clique when n | d^2) rather than reading ``ClassGraph.neighbors``, and
shares no code with the class engine, so the tests compare the two.  It
multiplies the band weights with its own dense ``product`` and adds the
results as coefficient lists, since ``Polynomial`` has no product: the
reference shares no arithmetic with ``src/``, only the constructor.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import comb
from typing import Sequence

from zdpoly.domcount import DominationKind
from zdpoly.polyring import Polynomial
from zdpoly.zdgraph import ClassGraph


class Band(Enum):
    ZERO = "zero"
    ONE = "one"
    MID = "mid"
    FULL = "full"


def bands_for_size(m: int) -> tuple[Band, ...]:
    """The meaningful bands for a class of m vertices.  Degenerate bands are
    dropped: with m == 1 selecting the single vertex is FULL (not ONE), and
    with m == 2 there is no strictly-between MID."""
    if m < 1:
        raise ValueError(f"class size must be >= 1, got {m}")
    if m == 1:
        return (Band.ZERO, Band.FULL)
    if m == 2:
        return (Band.ZERO, Band.ONE, Band.FULL)
    return (Band.ZERO, Band.ONE, Band.MID, Band.FULL)


def band_weight(m: int, band: Band) -> Polynomial:
    """Generating polynomial of the selection counts inside one band: the
    coefficient of x^a is the number of ways to pick a of the m vertices."""
    if m < 1:
        raise ValueError(f"class size must be >= 1, got {m}")
    if band is Band.ZERO:
        return Polynomial((1,))
    if band is Band.ONE:
        return Polynomial((0, m))
    if band is Band.MID:
        return Polynomial([0, 0] + [comb(m, a) for a in range(2, m)])
    return Polynomial((0,) * m + (1,))


def product(a: Polynomial, b: Polynomial) -> Polynomial:
    """Dense schoolbook product of two polynomials."""
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return Polynomial(out)


def band_occupies(band: Band) -> bool:
    return band is not Band.ZERO


def pattern_valid(pattern: Sequence[Band], cg: ClassGraph,
                  kind: DominationKind) -> bool:
    """Whether every selection drawn from this band pattern dominates.

    Domination is decidable at band level: a class's vertices are all hit by
    any occupied neighboring class, an internal clique hits its own unselected
    members once occupied, and a selected vertex of a clique has a selected
    open neighbor exactly when the class holds at least two selections (bands
    MID and FULL-with-m>=2 guarantee that, ONE never does).
    """
    if len(pattern) != len(cg.classes):
        raise ValueError(
            f"pattern has {len(pattern)} bands for {len(cg.classes)} classes")
    occ = [band_occupies(b) for b in pattern]
    for i, cls in enumerate(cg.classes):
        hit = any(occ[j] and (cls.divisor * other.divisor) % cg.n == 0
                  for j, other in enumerate(cg.classes) if j != i)
        is_clique = (cls.divisor * cls.divisor) % cg.n == 0
        band = pattern[i]
        if not occ[i]:
            if not hit:
                return False
            continue
        if kind is DominationKind.ORDINARY:
            # Occupied, unhit, no internal edges: unselected members would be
            # undominated, so the class must be fully selected.
            if not hit and not is_clique and band is not Band.FULL:
                return False
        else:
            if hit:
                continue
            if not (is_clique and cls.size >= 2):
                return False
            if band is Band.ONE:
                return False
    return True


def reference_band_poly(cg: ClassGraph, kind: DominationKind) -> Polynomial:
    """Independent engine: enumerate every band assignment outright."""
    total: list[int] = []
    options = [bands_for_size(c.size) for c in cg.classes]
    for pattern in itertools.product(*options):
        if not pattern_valid(pattern, cg, kind):
            continue
        prod = Polynomial((1,))
        for c, band in zip(cg.classes, pattern):
            prod = product(prod, band_weight(c.size, band))
        total += [0] * (len(prod.coeffs) - len(total))
        for i, c in enumerate(prod.coeffs):
            total[i] += c
    return Polynomial(total)
