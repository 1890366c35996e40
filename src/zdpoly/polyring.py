"""Exact polynomial arithmetic over the integers.

Coefficients are arbitrary-precision Python ints, stored densely in ascending
degree order.  Instances are immutable and canonical: trailing zeros are
stripped on construction, so equal polynomials compare (and hash) equal.
The zero polynomial has an empty coefficient tuple.
"""

from __future__ import annotations

from typing import Iterable


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if i < 0:
            raise ValueError(f"coefficient index must be >= 0, got {i}")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError(f"shift requires k >= 0, got {k}")
        if not self.coeffs:
            return self
        return Polynomial((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        return evaluate_at(self, x)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


ZERO = Polynomial()
ONE = Polynomial((1,))


def binomial_expand(m: int) -> Polynomial:
    """(1 + x)^m expanded, i.e. coefficients C(m, 0) ... C(m, m)."""
    if m < 0:
        raise ValueError(f"binomial_expand requires m >= 0, got {m}")
    # Row recurrence C(m, i+1) = C(m, i) * (m - i) // (i + 1): each step
    # multiplies and divides by small ints, where math.comb recomputes every
    # coefficient from scratch (about 400x slower at m = 10 000).
    coeffs = [1]
    for i in range(m):
        coeffs.append(coeffs[-1] * (m - i) // (i + 1))
    return Polynomial(coeffs)


def evaluate_at(p: Polynomial, x: int) -> int:
    """Horner evaluation; exact for int arguments."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def render(p: Polynomial) -> str:
    """Human-readable form like ``1 + 3*x + x^2``; zero renders as ``0``.

    Unit coefficients are omitted on x-terms and negative coefficients are
    joined with `` - ``.
    """
    if not p.coeffs:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            xpart = "x" if i == 1 else f"x^{i}"
            term = xpart if mag == 1 else f"{mag}*{xpart}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
