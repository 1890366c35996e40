"""Integer arithmetic: the factorization of n and the shape it gives n.

Everything here is exact and deterministic.  Trial division runs d up to
the square root of the cofactor m left, about sqrt(m)/2 steps, 0.25 s at m
near 10^14 (2-core Xeon, Python 3.11), so it stops once m is a prime over
10^6, which a deterministic Miller-Rabin test proves in microseconds below
3.3 * 10^24.  So it costs about p/2 steps, p the second-largest prime
factor of n, as long as the cofactor is below that bound, and it refuses n
rather than divide past TRIAL_DIVISION_LIMIT.  A command factors n once:
``zdgraph.build_class_graph`` factors it, keeps the result on the class
graph, and builds the divisors of n and their totients from it.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import NamedTuple

from .errors import CapacityError

# Largest trial divisor: n is refused when its cofactor is neither proven
# prime nor factored by then.  On a 2-core Xeon with Python 3.11 an odd
# divisor costs about 0.05 us, so the refusal comes after about 1 s.
TRIAL_DIVISION_LIMIT = 40_000_000


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
    """Prime factorization by trial division, which stops as soon as the
    cofactor left is over 10^6 and ``_proven_prime``.  Requires n >= 2.
    Raises CapacityError when it would divide past TRIAL_DIVISION_LIMIT."""
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    twos = (n & -n).bit_length() - 1
    factors = [(2, twos)] if twos else []
    m = n >> twos
    d = 3
    while d * d <= m:  # m has no prime factor below d
        if m > 10 ** 6 and _proven_prime(m):
            break
        if d > TRIAL_DIVISION_LIMIT:
            raise CapacityError(
                f"factoring n={n} needs trial division past the limit of "
                f"{TRIAL_DIVISION_LIMIT}")
        for d in range(d, min(isqrt(m), TRIAL_DIVISION_LIMIT) + 1, 2):
            if m % d == 0:
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                factors.append((d, e))
                break
        d += 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def _proven_prime(m: int) -> bool:
    """Whether m > 41 is prime, by the strong probable-prime (Miller-Rabin)
    test to the 13 prime bases 2 ... 41, which no composite below
    3 317 044 064 679 887 385 961 981 passes (Sorenson and Webster, Math.
    Comp. 86, 2017; bases 2 ... 37 alone admit 318 665 857 834 031 151 167
    461).  At and above that bound it proves nothing, so it says False and
    trial division goes on."""
    if m >= 3_317_044_064_679_887_385_961_981:
        return False
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2^s, d odd
    d = (m - 1) >> s
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


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
