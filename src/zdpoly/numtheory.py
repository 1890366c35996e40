"""Integer arithmetic: the factorization of n and the shape it gives n.

Everything here is exact and deterministic.  Trial division takes about
sqrt(n)/2 steps, 0.7-0.8 s at n near 10^14 (2-core Xeon, Python 3.11), and
a command pays it once: ``zdgraph.build_class_graph`` factors n, keeps the
result on the class graph, and builds the divisors of n and their totients
from it.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Factorization(NamedTuple):
    """Prime-power decomposition of n; primes in ascending order."""

    n: int
    factors: tuple[tuple[int, int], ...]


class Family(Enum):
    """Structural shape of n, used to select a closed-form formula."""

    TWO_P = "2p"
    P_SQUARE = "p^2"
    PQ = "pq"
    P_SQUARE_Q = "p^2q"
    PQR = "pqr"
    P_ALPHA = "p^alpha"
    OTHER = "other"


class FamilyTag(NamedTuple):
    """A family together with its parameters and whether the side conditions of
    the matching formula hold for those parameters (``hypothesis_met``).

    Parameter conventions: PQ and PQR keep p > q (> r); P_SQUARE_Q uses p for
    the squared prime, so n = p^2 * q even when p < q.
    """

    family: Family
    p: int | None = None
    q: int | None = None
    r: int | None = None
    alpha: int | None = None
    hypothesis_met: bool = False

    @property
    def label(self) -> str:
        return self.family.value

    def params(self) -> dict[str, int]:
        out = {}
        for name in ("p", "q", "r", "alpha"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division.  Requires n >= 2."""
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def classify_family(f: Factorization) -> FamilyTag:
    """Match a factorization against the shapes that have closed-form formulas.

    Primes and anything else without a formula land in OTHER.  n = p^2 with
    p = 2 and n = p^alpha with p = 2 are still classified (the graph exists),
    but hypothesis_met is False because the formulas assume odd p.
    """
    fs = f.factors
    if len(fs) == 1:
        p, e = fs[0]
        if e == 1:
            return FamilyTag(Family.OTHER)
        if e == 2:
            return FamilyTag(Family.P_SQUARE, p=p, hypothesis_met=p > 2)
        return FamilyTag(Family.P_ALPHA, p=p, alpha=e, hypothesis_met=p > 2)
    if len(fs) == 2:
        (p1, e1), (p2, e2) = fs
        if e1 == 1 and e2 == 1:
            if p1 == 2:
                return FamilyTag(Family.TWO_P, p=p2, hypothesis_met=True)
            return FamilyTag(Family.PQ, p=p2, q=p1, hypothesis_met=True)
        if {e1, e2} == {1, 2}:
            sq, lin = (p1, p2) if e1 == 2 else (p2, p1)
            return FamilyTag(Family.P_SQUARE_Q, p=sq, q=lin,
                             hypothesis_met=sq > lin > 2)
        return FamilyTag(Family.OTHER)
    if len(fs) == 3 and all(e == 1 for _, e in fs):
        r_, q_, p_ = (p for p, _ in fs)
        return FamilyTag(Family.PQR, p=p_, q=q_, r=r_, hypothesis_met=r_ > 2)
    return FamilyTag(Family.OTHER)
