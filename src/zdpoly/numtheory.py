"""Integer arithmetic: factorization, divisors, totients, and the shape of n.

Everything here is exact and deterministic; trial division is plenty for the
moduli this package targets (a few hundred up to a few million).
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


def proper_divisors(n: int) -> list[int]:
    """Divisors d of n with 1 < d < n, ascending.  Empty exactly when n is prime."""
    if n < 2:
        raise ValueError(f"proper_divisors requires n >= 2, got {n}")
    small, large = [], []
    d = 2
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    large.reverse()
    return small + large


def totient(n: int) -> int:
    """Euler's phi.  totient(1) == 1 by convention."""
    if n < 1:
        raise ValueError(f"totient requires n >= 1, got {n}")
    if n == 1:
        return 1
    result = n
    for p, _ in factorize(n).factors:
        result -= result // p
    return result


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
