"""Euler's phi, the reference the class sizes and the closed-form tests are
checked against.  The package builds the class sizes phi(n/d) together with
the divisors from n's factorization and has no totient of its own."""

from __future__ import annotations

from zdpoly.numtheory import factorize


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
