"""Closed-form counting formulas for the recognized modulus families.

Every formula is implemented exactly as stated for its family, side
conditions and all; nothing here is corrected or simplified.  When a formula
is wrong for some modulus, the point of this package is to let the verifier
catch it against the brute-force and class-engine counts, so this module must
stay a faithful transcription.

Throughout, coefficient sums like

    sum over a+b+c = i, a >= 1, b >= 1 of C(f1,a) C(f2,b) C(f3,c)

are evaluated as the polynomial product ((1+x)^f1 - 1)((1+x)^f2 - 1)(1+x)^f3,
which has exactly those coefficients; shifts x^t implement forced selections
of t vertices.
"""

from __future__ import annotations

from .errors import UnsupportedFamilyError
from .numtheory import Family, FamilyTag
from .polyring import ONE, ZERO, Polynomial, binomial_expand


def complete_graph_polys(m: int) -> tuple[Polynomial, Polynomial]:
    """Domination and total-domination polynomials of the complete graph K_m:
    (1+x)^m - 1 and (1+x)^m - m*x - 1."""
    if m < 1:
        raise ValueError(f"complete graph needs m >= 1, got {m}")
    d = binomial_expand(m) - ONE
    dt = binomial_expand(m) - Polynomial((1, m))
    return d, dt


def star_polys(m: int) -> tuple[Polynomial, Polynomial]:
    """Domination and total-domination polynomials of the star K_{1,m}:
    x*(1+x)^m + x^m and x*((1+x)^m - 1)."""
    if m < 1:
        raise ValueError(f"star needs m >= 1 leaves, got {m}")
    d = binomial_expand(m).shift(1) + Polynomial((0,) * m + (1,))
    dt = (binomial_expand(m) - ONE).shift(1)
    return d, dt


def join_domination(d1: Polynomial, d2: Polynomial,
                    n1: int, n2: int) -> Polynomial:
    """Domination polynomial of the join of two graphs with n1 and n2 vertices
    and domination polynomials d1, d2:

        ((1+x)^n1 - 1)((1+x)^n2 - 1) + d1 + d2
    """
    cross = (binomial_expand(n1) - ONE) * (binomial_expand(n2) - ONE)
    return cross + d1 + d2


def _monomial(k: int) -> Polynomial:
    return Polynomial((0,) * k + (1,))


def _atleast_one(m: int) -> Polynomial:
    """(1+x)^m - 1: choose at least one of m vertices."""
    return binomial_expand(m) - ONE


def _psquareq_cases(p: int, q: int) -> list[Polynomial]:
    """The dominating-set cases for n = p^2 q, split by which of the two
    cut classes (the gcd-pq class of p-1 vertices and the gcd-p^2 class of
    q-1 vertices) are occupied."""
    fp, fq = p - 1, q - 1
    fp2 = p * (p - 1)
    fpq = (p - 1) * (q - 1)
    return [
        _atleast_one(fp) * _atleast_one(fq) * binomial_expand(fp2 + fpq),
        (_atleast_one(fp) * binomial_expand(fpq)).shift(fp2),
        (_atleast_one(fq) * binomial_expand(fp2)).shift(fpq),
        _monomial(fp2 + fpq),
    ]


def _pqr_cases(p: int, q: int, r: int) -> list[Polynomial]:
    """The eight dominating-set cases for n = pqr, split by which of the
    three pairwise-adjacent two-prime classes are occupied."""
    fp, fq, fr = p - 1, q - 1, r - 1
    fpq, fpr, fqr = fp * fq, fp * fr, fq * fr
    return [
        (_atleast_one(fp) * _atleast_one(fq) * _atleast_one(fr)
         * binomial_expand(fpq + fpr + fqr)),
        (_atleast_one(fp) * _atleast_one(fq)
         * binomial_expand(fpr + fqr)).shift(fpq),
        (_atleast_one(fp) * _atleast_one(fr)
         * binomial_expand(fpq + fqr)).shift(fpr),
        (_atleast_one(fq) * _atleast_one(fr)
         * binomial_expand(fpq + fpr)).shift(fqr),
        (_atleast_one(fp) * binomial_expand(fqr)).shift(fpq + fpr),
        (_atleast_one(fq) * binomial_expand(fpr)).shift(fpq + fqr),
        (_atleast_one(fr) * binomial_expand(fpq)).shift(fpr + fqr),
        _monomial(fpq + fpr + fqr),
    ]


def _phi_power(p: int, j: int) -> int:
    """phi(p^j) for prime p, j >= 1."""
    return (p - 1) * p ** (j - 1)


def _palpha_D(p: int, alpha: int) -> Polynomial:
    """Dominating sets of the prime-power graph, n = p^alpha, alpha >= 2.

    Classes are indexed by gcd p^r; the class at level r can serve as the
    innermost selected clique level only for r up to alpha/2.  Each such r
    contributes

        x^(sum of phi(p^(alpha-k)) for k < r)
        * ((1+x)^phi(p^r) - 1)
        * (1+x)^(|V| - phi(p^r) - sum over k < r of phi(p^k)+phi(p^(alpha-k)))

    For odd alpha a single extra set appears at size
    sum of phi(p^(alpha-k)) for k = 1..floor(alpha/2); for even alpha the
    middle class of phi(p^(alpha/2)) vertices contributes
    x^threshold ((1+x)^phi(p^(alpha/2)) - 1) above the same threshold.
    """
    nv = p ** (alpha - 1) - 1
    half = alpha // 2
    top = half if alpha % 2 == 1 else half - 1
    total = Polynomial()
    for r in range(1, top + 1):
        offset = sum(_phi_power(p, alpha - k) for k in range(1, r))
        spent = sum(_phi_power(p, k) + _phi_power(p, alpha - k)
                    for k in range(1, r))
        free = nv - _phi_power(p, r) - spent
        term = _atleast_one(_phi_power(p, r)) * binomial_expand(free)
        total = total + term.shift(offset)
    if alpha % 2 == 1:
        special = sum(_phi_power(p, alpha - k) for k in range(1, half + 1))
        total = total + _monomial(special)
    else:
        threshold = sum(_phi_power(p, alpha - k) for k in range(1, half))
        total = total + _atleast_one(_phi_power(p, half)).shift(threshold)
    return total


def _palpha_Dt(p: int, alpha: int) -> Polynomial:
    """Total-dominating formula for n = p^alpha: coefficient of x^i is the
    sum over a+b = i, a,b >= 1 of C(phi(p), a) C(|V| - phi(p), b)."""
    nv = p ** (alpha - 1) - 1
    return _atleast_one(p - 1) * _atleast_one(nv - (p - 1))


# One entry per family: n rebuilt from the tag, then the D and the D_t
# formula, each a function of the tag.
_FORMULAS = {
    Family.TWO_P: (
        lambda t: 2 * t.p,
        lambda t: star_polys(t.p - 1)[0],
        lambda t: star_polys(t.p - 1)[1]),
    Family.P_SQUARE: (
        lambda t: t.p ** 2,
        lambda t: complete_graph_polys(t.p - 1)[0],
        lambda t: complete_graph_polys(t.p - 1)[1]),
    Family.PQ: (
        lambda t: t.p * t.q,
        lambda t: join_domination(_monomial(t.q - 1), _monomial(t.p - 1),
                                  t.q - 1, t.p - 1),
        lambda t: _atleast_one(t.q - 1) * _atleast_one(t.p - 1)),
    Family.P_SQUARE_Q: (
        lambda t: t.p ** 2 * t.q,
        lambda t: sum(_psquareq_cases(t.p, t.q), ZERO),
        lambda t: _psquareq_cases(t.p, t.q)[0]),
    Family.PQR: (
        lambda t: t.p * t.q * t.r,
        lambda t: sum(_pqr_cases(t.p, t.q, t.r), ZERO),
        lambda t: _pqr_cases(t.p, t.q, t.r)[0]),
    Family.P_ALPHA: (
        lambda t: t.p ** t.alpha,
        lambda t: (complete_graph_polys(t.p - 1)[0] if t.alpha == 2
                   else _palpha_D(t.p, t.alpha)),
        lambda t: (complete_graph_polys(t.p - 1)[1] if t.alpha == 2
                   else _palpha_Dt(t.p, t.alpha))),
}


def _formulas(n: int, tag: FamilyTag, what: str):
    """The (D, D_t) formulas of the tag's family, once the tag is checked
    to describe n."""
    if tag.family not in _FORMULAS:
        raise UnsupportedFamilyError(
            f"no closed-form {what} formula applies to n={n}")
    rebuild, domination, total_domination = _FORMULAS[tag.family]
    expected = rebuild(tag)
    if expected != n:
        raise ValueError(
            f"family tag {tag} describes {expected}, not {n}")
    return domination, total_domination


def closed_domination(n: int, tag: FamilyTag) -> Polynomial:
    """Domination polynomial of the zero-divisor graph of Z_n from the
    family's closed form.  Raises UnsupportedFamilyError when no formula
    covers the family."""
    return _formulas(n, tag, "domination")[0](tag)


def closed_total_domination(n: int, tag: FamilyTag) -> Polynomial:
    """Total-domination polynomial of the zero-divisor graph of Z_n from the
    family's closed form.  Raises UnsupportedFamilyError when no formula
    covers the family."""
    return _formulas(n, tag, "total-domination")[1](tag)
