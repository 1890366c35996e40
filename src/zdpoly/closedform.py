"""Closed-form counting formulas for the recognized modulus families.

Every formula is implemented exactly as stated for its family, side
conditions and all; nothing here is corrected or simplified.  When a formula
is wrong for some modulus, the point of this package is to let the verifier
catch it against the brute-force and class-engine counts, so this module must
stay a faithful transcription.

Throughout, coefficient sums like

    sum over a+b+c = i, a >= 1, b >= 1 of C(f1,a) C(f2,b) C(f3,c)

are the coefficients of ((1+x)^f1 - 1)((1+x)^f2 - 1)(1+x)^f3, and a shift
x^t implements a forced selection of t vertices.  Each such case of a
formula is written as a term (shift, free, gens) = (t, f3, (f1, f2)), the
key of the class engine's up-set terms, and ``domcount.sum_terms`` sums a
formula's terms as it sums the engine's, with no polynomial product.

``closed_form_poly`` reads a formula on the caller's class graph, as
``domcount.class_engine_poly`` reads the engine's table.  It refuses a
family with no formula and a tag that is not the graph's classification;
``sum_terms`` refuses the table of any caller past its limits.
"""

from __future__ import annotations

from collections import Counter

from .domcount import DominationKind, sum_terms
from .errors import UnsupportedFamilyError
from .numtheory import Family, FamilyTag, classify_family
from .polyring import Polynomial
from .zdgraph import ClassGraph, build_class_graph


def _psquareq_cases(p: int, q: int) -> list[tuple]:
    """The dominating-set cases for n = p^2 q, split by which of the two
    cut classes (the gcd-pq class of p-1 vertices and the gcd-p^2 class of
    q-1 vertices) are occupied."""
    fp, fq = p - 1, q - 1
    fp2 = p * (p - 1)
    fpq = (p - 1) * (q - 1)
    return [
        (0, fp2 + fpq, (fp, fq)),
        (fp2, fpq, (fp,)),
        (fpq, fp2, (fq,)),
        (fp2 + fpq, 0, ()),
    ]


def _pqr_cases(p: int, q: int, r: int) -> list[tuple]:
    """The eight dominating-set cases for n = pqr, split by which of the
    three pairwise-adjacent two-prime classes are occupied."""
    fp, fq, fr = p - 1, q - 1, r - 1
    fpq, fpr, fqr = fp * fq, fp * fr, fq * fr
    return [
        (0, fpq + fpr + fqr, (fp, fq, fr)),
        (fpq, fpr + fqr, (fp, fq)),
        (fpr, fpq + fqr, (fp, fr)),
        (fqr, fpq + fpr, (fq, fr)),
        (fpq + fpr, fqr, (fp,)),
        (fpq + fqr, fpr, (fq,)),
        (fpr + fqr, fpq, (fr,)),
        (fpq + fpr + fqr, 0, ()),
    ]


def _phi_power(p: int, j: int) -> int:
    """phi(p^j) for prime p, j >= 1."""
    return (p - 1) * p ** (j - 1)


def _palpha_D(p: int, alpha: int) -> list[tuple]:
    """Dominating sets of the prime-power graph, n = p^alpha, alpha >= 3;
    n = p^2 is the P_SQUARE family, the complete graph K_(p-1).

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
    terms = []
    for r in range(1, top + 1):
        offset = sum(_phi_power(p, alpha - k) for k in range(1, r))
        spent = sum(_phi_power(p, k) + _phi_power(p, alpha - k)
                    for k in range(1, r))
        free = nv - _phi_power(p, r) - spent
        terms.append((offset, free, (_phi_power(p, r),)))
    if alpha % 2 == 1:
        special = sum(_phi_power(p, alpha - k) for k in range(1, half + 1))
        terms.append((special, 0, ()))
    else:
        threshold = sum(_phi_power(p, alpha - k) for k in range(1, half))
        terms.append((threshold, 0, (_phi_power(p, half),)))
    return terms


def _palpha_Dt(p: int, alpha: int) -> list[tuple]:
    """Total-dominating formula for n = p^alpha: coefficient of x^i is the
    sum over a+b = i, a,b >= 1 of C(phi(p), a) C(|V| - phi(p), b)."""
    nv = p ** (alpha - 1) - 1
    return [(0, 0, (p - 1, nv - (p - 1)))]


# The D and the D_t formula of each family, each a function of the tag that
# gives its term table {key: signed count}.  n = 2p is the star K_(1,p-1),
# with D = x(1+x)^(p-1) + x^(p-1) and D_t = x((1+x)^(p-1) - 1); n = p^2 is
# the complete graph K_(p-1), with D = (1+x)^(p-1) - 1 and
# D_t = (1+x)^(p-1) - (p-1)x - 1, -(p-1)x a term of count 1 - p; n = pq is
# the join of the edgeless graphs on q-1 and p-1 vertices, with D_t =
# ((1+x)^(q-1) - 1)((1+x)^(p-1) - 1) and D = D_t + x^(q-1) + x^(p-1).
_FORMULAS = {
    Family.TWO_P: (lambda t: Counter([(1, t.p - 1, ()), (t.p - 1, 0, ())]),
                   lambda t: Counter([(1, 0, (t.p - 1,))])),
    Family.P_SQUARE: (lambda t: Counter([(0, 0, (t.p - 1,))]),
                      lambda t: {(0, 0, (t.p - 1,)): 1, (1, 0, ()): 1 - t.p}),
    Family.PQ: (lambda t: Counter([(0, 0, (t.q - 1, t.p - 1)),
                                   (t.q - 1, 0, ()), (t.p - 1, 0, ())]),
                lambda t: Counter([(0, 0, (t.q - 1, t.p - 1))])),
    Family.P_SQUARE_Q: (lambda t: Counter(_psquareq_cases(t.p, t.q)),
                        lambda t: Counter(_psquareq_cases(t.p, t.q)[:1])),
    Family.PQR: (lambda t: Counter(_pqr_cases(t.p, t.q, t.r)),
                 lambda t: Counter(_pqr_cases(t.p, t.q, t.r)[:1])),
    Family.P_ALPHA: (lambda t: Counter(_palpha_D(t.p, t.alpha)),
                     lambda t: Counter(_palpha_Dt(t.p, t.alpha))),
}


def closed_form_poly(cg: ClassGraph, tag: FamilyTag,
                     kind: DominationKind) -> Polynomial:
    """The sum of the term table of the D (or, for TOTAL, the D_t) formula
    of the tag's family on ``cg``, checked before any of it runs:
    UnsupportedFamilyError when the family has no formula and ValueError
    when the tag is not ``classify_family(cg.factorization)``.  ``sum_terms``
    then refuses the sum with CapacityError, before any row is built, when
    the graph is over zdgraph.VERTEX_LIMIT and then when its counted work is
    over domcount.ENGINE_WORK_LIMIT."""
    total = kind is DominationKind.TOTAL
    what = "total-domination" if total else "domination"
    if tag.family not in _FORMULAS:
        raise UnsupportedFamilyError(
            f"no closed-form {what} formula applies to n={cg.n}")
    if tag != classify_family(cg.factorization):
        raise ValueError(f"family tag {tag} is not the one of n={cg.n}")
    return sum_terms(cg, _FORMULAS[tag.family][total](tag), "closed-form")


def closed_domination(n: int, tag: FamilyTag) -> Polynomial:
    """Domination polynomial of the zero-divisor graph of Z_n from the
    family's closed form.  Raises as ``closed_form_poly`` does."""
    return closed_form_poly(build_class_graph(n), tag, DominationKind.ORDINARY)


def closed_total_domination(n: int, tag: FamilyTag) -> Polynomial:
    """Total-domination polynomial of the zero-divisor graph of Z_n from the
    family's closed form.  Raises as ``closed_form_poly`` does."""
    return closed_form_poly(build_class_graph(n), tag, DominationKind.TOTAL)
