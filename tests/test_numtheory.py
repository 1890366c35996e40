"""Factorization, the proper divisors built from it, family classification,
and the totient reference."""

import math
import random

import pytest
from totient_reference import totient

from zdpoly import numtheory
from zdpoly.errors import CapacityError
from zdpoly.numtheory import Family, classify_family, factorize
from zdpoly.zdgraph import build_class_graph


def test_factorize_rejects_small():
    for bad in (-3, 0, 1):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorize_reconstructs_n():
    for n in range(2, 10_001):
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            prod *= p ** e
        assert prod == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e in f.factors)


def test_factorize_primes_are_prime():
    for n in range(2, 2000):
        for p, _ in factorize(n).factors:
            assert all(p % d for d in range(2, math.isqrt(p) + 1))


# The least composites that pass the strong probable-prime test to the
# first 12 and the first 13 prime bases (2 ... 37 and 2 ... 41).
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_factorize_matches_sympy():
    """Random n to 10^12, large primes up to just below PSI_13, 2p and
    small multiples of them, and n past PSI_13 with small factors."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    primes = [sympy.prevprime(10 ** k) for k in (7, 9, 12, 14, 18, 23)]
    primes += [100_000_000_000_031, 10 ** 18 + 3, sympy.prevprime(PSI_13)]
    cases = [rng.randrange(2, 10 ** 12) for _ in range(200)]
    cases += [m * p for p in primes for m in (1, 2, 6, 1024, 3 ** 5 * 7)]
    cases += [2 ** 100 * 3, 3 ** 60 * 5 * 7]
    for n in cases:
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_small_n_is_factored_by_trial_division_alone(monkeypatch):
    """Up to 10^6 no cofactor is large enough for the primality test."""
    def no_test(m):
        raise AssertionError(f"primality test on {m}")

    monkeypatch.setattr(numtheory, "_proven_prime", no_test)
    for n in [*range(2, 20_000), 999_983, 999_999, 2 * 499_979, 10 ** 6]:
        factorize(n)


@pytest.mark.parametrize("n", [
    2_000_000_000_081_000_000_000_117,  # (10^12 + 39)(2 * 10^12 + 3)
    3_317_044_064_679_887_385_962_123,  # the least prime past PSI_13
], ids=["semiprime", "unproven-prime"])
def test_factorize_refuses_past_the_trial_division_limit(n):
    """Neither n has a factor up to the limit, and neither cofactor is
    proven prime, so trial division would run on for hours: it refuses."""
    with pytest.raises(CapacityError) as err:
        factorize(n)
    assert str(err.value) == (
        f"factoring n={n} needs trial division past the limit of "
        f"{numtheory.TRIAL_DIVISION_LIMIT}")


def test_factorize_reaches_the_trial_division_limit(monkeypatch):
    """39 999 983, the largest prime up to the limit, times the next prime
    still factors.  With the limit at 1000, 997 * 1009 factors and
    1009 * 1013, whose cofactor is over 10^6 and composite, is refused."""
    assert numtheory.TRIAL_DIVISION_LIMIT == 40_000_000
    p, q = 39_999_983, 40_000_003
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    monkeypatch.setattr(numtheory, "TRIAL_DIVISION_LIMIT", 1000)
    assert factorize(997 * 1009).factors == ((997, 1), (1009, 1))
    with pytest.raises(CapacityError, match="past the limit of 1000$"):
        factorize(1009 * 1013)


def test_proven_prime_matches_sympy():
    """The Miller-Rabin test on random odd m in (10^6, PSI_13), Carmichael
    numbers, and the pseudoprimes that fool the first 12 or 13 bases."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    cases = [rng.randrange(10 ** 6, PSI_13) | 1 for _ in range(500)]
    cases += [sympy.prevprime(10 ** k) for k in range(7, 25)]
    cases += [1_024_651, 9_624_742_921, 1_713_045_574_801,
              sympy.prevprime(PSI_13)]
    for m in cases:
        assert numtheory._proven_prime(m) == sympy.isprime(m), m
    assert not sympy.isprime(PSI_12) and not numtheory._proven_prime(PSI_12)
    assert not numtheory._proven_prime(PSI_13)


def test_prime_has_one_factor():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 31):
        assert (factorize(n).factors == ((n, 1),)) == (n in primes)


def proper_divisors(n):
    # the divisors other than 1 and n, built from factorize(n) by the class
    # graph, one class per divisor
    return [c.divisor for c in build_class_graph(n).classes]


def test_proper_divisors_basic():
    assert proper_divisors(12) == [2, 3, 4, 6]
    assert proper_divisors(7) == []
    assert proper_divisors(4) == [2]
    assert proper_divisors(75) == [3, 5, 15, 25]
    with pytest.raises(ValueError):
        proper_divisors(1)


def test_proper_divisors_exhaustive_small():
    for n in range(2, 2000):
        assert proper_divisors(n) == [d for d in range(2, n) if n % d == 0], n


def test_totient_against_gcd_count():
    for n in range(1, 300):
        assert totient(n) == sum(
            1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    with pytest.raises(ValueError):
        totient(0)


FAMILY_CASES = [
    (4, Family.P_SQUARE, {"p": 2}, False),
    (9, Family.P_SQUARE, {"p": 3}, True),
    (49, Family.P_SQUARE, {"p": 7}, True),
    (6, Family.TWO_P, {"p": 3}, True),
    (26, Family.TWO_P, {"p": 13}, True),
    (15, Family.PQ, {"p": 5, "q": 3}, True),
    (77, Family.PQ, {"p": 11, "q": 7}, True),
    (45, Family.P_SQUARE_Q, {"p": 3, "q": 5}, False),
    (75, Family.P_SQUARE_Q, {"p": 5, "q": 3}, True),
    (12, Family.P_SQUARE_Q, {"p": 2, "q": 3}, False),
    (18, Family.P_SQUARE_Q, {"p": 3, "q": 2}, False),
    (50, Family.P_SQUARE_Q, {"p": 5, "q": 2}, False),
    (147, Family.P_SQUARE_Q, {"p": 7, "q": 3}, True),
    (30, Family.PQR, {"p": 5, "q": 3, "r": 2}, False),
    (105, Family.PQR, {"p": 7, "q": 5, "r": 3}, True),
    (8, Family.P_ALPHA, {"p": 2, "alpha": 3}, False),
    (27, Family.P_ALPHA, {"p": 3, "alpha": 3}, True),
    (16, Family.P_ALPHA, {"p": 2, "alpha": 4}, False),
    (243, Family.P_ALPHA, {"p": 3, "alpha": 5}, True),
    (2, Family.OTHER, {}, False),
    (7, Family.OTHER, {}, False),
    (100, Family.OTHER, {}, False),
    (210, Family.OTHER, {}, False),
    (360, Family.OTHER, {}, False),
]


@pytest.mark.parametrize("n,family,params,hyp", FAMILY_CASES)
def test_classify_family(n, family, params, hyp):
    tag = classify_family(factorize(n))
    assert tag.family is family
    assert tag.params() == params
    assert tag.hypothesis_met is hyp


def test_family_labels():
    assert classify_family(factorize(6)).label == "2p"
    assert classify_family(factorize(9)).label == "p^2"
    assert classify_family(factorize(15)).label == "pq"
    assert classify_family(factorize(75)).label == "p^2q"
    assert classify_family(factorize(30)).label == "pqr"
    assert classify_family(factorize(32)).label == "p^alpha"
    assert classify_family(factorize(11)).label == "other"
