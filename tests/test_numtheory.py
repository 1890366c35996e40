"""Factorization, divisors, totients, and family classification."""

import math

import pytest

from zdpoly.numtheory import (Family, classify_family, factorize,
                              proper_divisors, totient)


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
        assert list(f.primes) == sorted(f.primes)
        assert all(e >= 1 for e in f.exponents)


def test_factorize_primes_are_prime():
    for n in range(2, 2000):
        for p, _ in factorize(n).factors:
            assert all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime_flag():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 31):
        assert factorize(n).is_prime == (n in primes)


def test_proper_divisors_basic():
    assert proper_divisors(12) == [2, 3, 4, 6]
    assert proper_divisors(7) == []
    assert proper_divisors(4) == [2]
    assert proper_divisors(75) == [3, 5, 15, 25]
    with pytest.raises(ValueError):
        proper_divisors(1)


def test_proper_divisors_exhaustive_small():
    for n in range(2, 500):
        assert proper_divisors(n) == [d for d in range(2, n) if n % d == 0]


def test_divisor_class_sizes_partition_zero_divisors():
    # sum of phi(n/d) over proper divisors equals the zero-divisor count
    for n in range(2, 10_001):
        assert (sum(totient(n // d) for d in proper_divisors(n))
                == n - 1 - totient(n))


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
