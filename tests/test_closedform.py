"""Family formulas: checked against independent sum-by-sum reconstructions,
against brute force on synthetic graphs, and characterized exactly where they
deviate from the engine."""

from collections import Counter
from functools import cache
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from totient_reference import totient

import zdpoly.closedform as cf
import zdpoly.domcount as dc
from zdpoly.closedform import closed_domination, closed_total_domination
from zdpoly.domcount import (DominationKind, brute_force_poly,
                             class_engine_poly, sum_terms)
from zdpoly.errors import CapacityError, UnsupportedFamilyError
from zdpoly.numtheory import Family, FamilyTag, classify_family, factorize
from zdpoly.polyring import Polynomial, binomial_expand
from zdpoly.zdgraph import VertexGraph, build_class_graph

ORD = DominationKind.ORDINARY
TOT = DominationKind.TOTAL


def graph_from_edges(nv, edges):
    closed = [1 << i for i in range(nv)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return VertexGraph(n=0, labels=tuple(range(1, nv + 1)),
                       closed=tuple(closed))


def complete_graph(m):
    return graph_from_edges(
        m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def empty_graph(m):
    return graph_from_edges(m, [])


def star_graph(m):
    return graph_from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def monomial(k):
    return Polynomial([0] * k + [1])


def family_formula(family, kind, nv, **params):
    """The sum of the D (or D_t) terms of ``family``'s formula at ``params``,
    which need not be primes, for a graph of ``nv`` vertices: the formula
    read on the graph it describes."""
    formula = cf._FORMULAS[family][kind is TOT]
    graph = SimpleNamespace(n=0, vertex_count=nv)
    return sum_terms(graph, formula(FamilyTag(family, **params)),
                     "closed-form")


def test_complete_graph_polys_vs_brute():
    # n = p^2 is the complete graph K_(p-1)
    for m in range(1, 9):
        vg = complete_graph(m)
        for kind in (ORD, TOT):
            assert (family_formula(Family.P_SQUARE, kind, m, p=m + 1)
                    == brute_force_poly(vg, kind)), (m, kind)


def test_star_polys_vs_brute():
    # n = 2p is the star K_(1,p-1)
    for m in range(1, 9):
        vg = star_graph(m)
        for kind in (ORD, TOT):
            assert (family_formula(Family.TWO_P, kind, m + 1, p=m + 1)
                    == brute_force_poly(vg, kind)), (m, kind)


def test_join_reproduces_four_cycle():
    # n = pq is the join of the edgeless graphs on q-1 and p-1 vertices;
    # two-vertex ones joined make C_4
    assert (family_formula(Family.PQ, ORD, 4, p=3, q=3)
            == Polynomial([0, 0, 6, 4, 1]))


# --- transcription oracles: the same sums written out naively --------------

def psquareq_D_sums(p, q):
    fp, fq = p - 1, q - 1
    fp2, fpq = totient(p * p), totient(p * q)
    nv = fp + fq + fp2 + fpq
    coeffs = [0] * (nv + 1)
    for i in range(nv + 1):
        val = 0
        for a in range(1, fp + 1):
            for b in range(1, fq + 1):
                c = i - a - b
                if 0 <= c <= fp2 + fpq:
                    val += comb(fp, a) * comb(fq, b) * comb(fp2 + fpq, c)
        for a in range(1, fp + 1):
            b = i - fp2 - a
            if 0 <= b <= fpq:
                val += comb(fp, a) * comb(fpq, b)
        for a in range(1, fq + 1):
            b = i - fpq - a
            if 0 <= b <= fp2:
                val += comb(fq, a) * comb(fp2, b)
        coeffs[i] = val + (1 if i == fp2 + fpq else 0)
    return Polynomial(coeffs)


def psquareq_Dt_sums(p, q):
    fp, fq = p - 1, q - 1
    fp2, fpq = totient(p * p), totient(p * q)
    nv = fp + fq + fp2 + fpq
    coeffs = [0] * (nv + 1)
    for i in range(2, nv + 1):
        val = 0
        for a in range(1, fp + 1):
            for b in range(1, fq + 1):
                c = i - a - b
                if 0 <= c <= fp2 + fpq:
                    val += comb(fp, a) * comb(fq, b) * comb(fp2 + fpq, c)
        coeffs[i] = val
    return Polynomial(coeffs)


def pqr_D_sums(p, q, r):
    fp, fq, fr = p - 1, q - 1, r - 1
    fpq, fpr, fqr = fp * fq, fp * fr, fq * fr
    nv = fp + fq + fr + fpq + fpr + fqr
    coeffs = [0] * (nv + 1)
    for i in range(nv + 1):
        val = 0
        for a in range(1, fp + 1):
            for b in range(1, fq + 1):
                for c in range(1, fr + 1):
                    rest = i - a - b - c
                    if 0 <= rest <= fpq + fpr + fqr:
                        val += (comb(fp, a) * comb(fq, b) * comb(fr, c)
                                * comb(fpq + fpr + fqr, rest))
        for a in range(1, fp + 1):
            for b in range(1, fq + 1):
                c = i - fpq - a - b
                if 0 <= c <= fpr + fqr:
                    val += comb(fp, a) * comb(fq, b) * comb(fpr + fqr, c)
        for a in range(1, fp + 1):
            for b in range(1, fr + 1):
                c = i - fpr - a - b
                if 0 <= c <= fpq + fqr:
                    val += comb(fp, a) * comb(fr, b) * comb(fpq + fqr, c)
        for a in range(1, fq + 1):
            for b in range(1, fr + 1):
                c = i - fqr - a - b
                if 0 <= c <= fpq + fpr:
                    val += comb(fq, a) * comb(fr, b) * comb(fpq + fpr, c)
        for a in range(1, fp + 1):
            b = i - fpq - fpr - a
            if 0 <= b <= fqr:
                val += comb(fp, a) * comb(fqr, b)
        for a in range(1, fq + 1):
            b = i - fpq - fqr - a
            if 0 <= b <= fpr:
                val += comb(fq, a) * comb(fpr, b)
        for a in range(1, fr + 1):
            b = i - fpr - fqr - a
            if 0 <= b <= fpq:
                val += comb(fr, a) * comb(fpq, b)
        coeffs[i] = val + (1 if i == fpq + fpr + fqr else 0)
    return Polynomial(coeffs)


def pqr_Dt_sums(p, q, r):
    fp, fq, fr = p - 1, q - 1, r - 1
    hubs_rest = fp * fq + fp * fr + fq * fr
    nv = fp + fq + fr + hubs_rest
    coeffs = [0] * (nv + 1)
    for i in range(3, nv + 1):
        val = 0
        for a in range(1, fp + 1):
            for b in range(1, fq + 1):
                for c in range(1, fr + 1):
                    rest = i - a - b - c
                    if 0 <= rest <= hubs_rest:
                        val += (comb(fp, a) * comb(fq, b) * comb(fr, c)
                                * comb(hubs_rest, rest))
        coeffs[i] = val
    return Polynomial(coeffs)


def palpha_D_sums(p, alpha):
    nv = p ** (alpha - 1) - 1
    half = alpha // 2
    coeffs = [0] * (nv + 1)
    top = half + 1 if alpha % 2 else half
    for i in range(nv + 1):
        val = 0
        for level in range(1, top):
            head = totient(p ** level)
            upper_spent = sum(totient(p ** (alpha - k))
                              for k in range(1, level))
            lower_spent = sum(totient(p ** k) for k in range(1, level))
            free = nv - head - upper_spent - lower_spent
            for a in range(1, head + 1):
                rest = i - a - upper_spent
                if 0 <= rest <= free:
                    val += comb(head, a) * comb(free, rest)
        if alpha % 2:
            if i == sum(totient(p ** (alpha - k)) for k in range(1, half + 1)):
                val += 1
        else:
            threshold = sum(totient(p ** (alpha - k)) for k in range(1, half))
            if i - threshold >= 1:
                val += comb(totient(p ** half), i - threshold)
        coeffs[i] = val
    return Polynomial(coeffs)


def palpha_Dt_sums(p, alpha):
    nv = p ** (alpha - 1) - 1
    fp = p - 1
    coeffs = [0] * (nv + 1)
    for i in range(nv + 1):
        val = 0
        for a in range(1, fp + 1):
            b = i - a
            if 1 <= b <= nv - fp:
                val += comb(fp, a) * comb(nv - fp, b)
        coeffs[i] = val
    return Polynomial(coeffs)


@pytest.mark.parametrize("n,p,q", [(45, 3, 5), (75, 5, 3), (12, 2, 3),
                                   (18, 3, 2), (50, 5, 2), (147, 7, 3)])
def test_psquareq_transcription(n, p, q):
    tag = classify_family(factorize(n))
    assert tag.family is Family.P_SQUARE_Q
    assert closed_domination(n, tag) == psquareq_D_sums(p, q)
    assert closed_total_domination(n, tag) == psquareq_Dt_sums(p, q)


@pytest.mark.parametrize("n,p,q,r", [(30, 5, 3, 2), (105, 7, 5, 3),
                                     (110, 11, 5, 2)])
def test_pqr_transcription(n, p, q, r):
    tag = classify_family(factorize(n))
    assert tag.family is Family.PQR
    assert closed_domination(n, tag) == pqr_D_sums(p, q, r)
    assert closed_total_domination(n, tag) == pqr_Dt_sums(p, q, r)


@pytest.mark.parametrize("n,p,alpha", [(8, 2, 3), (16, 2, 4), (32, 2, 5),
                                       (27, 3, 3), (81, 3, 4), (243, 3, 5),
                                       (125, 5, 3), (64, 2, 6)])
def test_palpha_transcription(n, p, alpha):
    tag = classify_family(factorize(n))
    assert tag.family is Family.P_ALPHA
    assert closed_domination(n, tag) == palpha_D_sums(p, alpha)
    assert closed_total_domination(n, tag) == palpha_Dt_sums(p, alpha)


# --- every family member up to AUDIT_BOUND against the engine --------------

AUDIT_BOUND = 1000
README = Path(__file__).resolve().parent.parent / "README.md"


@cache
def family_members():
    """(n, tag) for every n in 4..AUDIT_BOUND that has a family formula."""
    tags = ((n, classify_family(factorize(n)))
            for n in range(4, AUDIT_BOUND + 1))
    return tuple((n, tag) for n, tag in tags if tag.family is not Family.OTHER)


@cache
def deviation(n, kind):
    """The closed form minus the class engine at n."""
    tag = classify_family(factorize(n))
    closed = (closed_domination if kind is ORD
              else closed_total_domination)(n, tag)
    return closed - class_engine_poly(build_class_graph(n), kind)


def some_not_all(m, k):
    """x^k ((1+x)^m - 1 - x^m): some but not all of m vertices chosen, on
    top of k forced ones."""
    part = binomial_expand(m) - monomial(0) - monomial(m)
    return Polynomial([0] * k + list(part.coeffs))


def palpha_total_deviation(tag):
    # the formula misses selections of two or more vertices from the class
    # adjacent to everything, with nothing else chosen
    return Polynomial([1, tag.p - 1]) - binomial_expand(tag.p - 1)


def psquareq_deviation(tag):
    # some but not all of the q-1 cut vertices chosen on top of the forced
    # full class, leaving the rest of the cut class undominated
    return some_not_all(tag.q - 1, totient(tag.p * tag.q))


def pqr_deviation(tag):
    # the three single-occupied-hub cases: hub s of s-1 vertices, partly
    # chosen, on top of the forced full classes it shares with t and u
    primes = (tag.p, tag.q, tag.r)
    out = Polynomial()
    for s in primes:
        t, u = (o for o in primes if o != s)
        out = out + some_not_all(s - 1, (s - 1) * (t + u - 2))
    return out


# Closed form minus engine for the (family, kind) pairs where the formula
# deviates, with the text README's findings table gives it; every other
# pair agrees at every member.
DEVIATIONS = {
    (Family.P_SQUARE_Q, ORD): ("x^((p-1)(q-1)) δ(q-1)", psquareq_deviation),
    (Family.PQR, ORD): ("Σ_s x^((s-1)(t+u-2)) δ(s-1)", pqr_deviation),
    (Family.P_ALPHA, TOT): ("1 + (p-1)x - (1+x)^(p-1)",
                            palpha_total_deviation),
}


def check_deviation(family, kind):
    """Every member of ``family`` deviates in ``kind`` exactly as
    characterized; returns the n where the deviation vanishes."""
    characterize = DEVIATIONS[family, kind][1]
    vanishing = []
    for n, tag in family_members():
        if tag.family is family:
            expected = characterize(tag)
            assert deviation(n, kind) == expected, n
            if not expected:
                vanishing.append(n)
    return vanishing


def test_exact_families_agree_with_engine():
    agreeing = Counter()
    for n, tag in family_members():
        for kind in (ORD, TOT):
            if (tag.family, kind) not in DEVIATIONS:
                assert not deviation(n, kind), (n, kind)
                agreeing[kind] += 1
    # 2p, p^2 and pq in both kinds, p^alpha in D, p^2q and pqr in D_t
    assert agreeing == {ORD: 94 + 11 + 194 + 14, TOT: 94 + 11 + 194 + 108 + 135}


def test_palpha_total_formula_misses_deep_class_subsets():
    # engine minus formula is (1+x)^(p-1) - 1 - (p-1)x, zero only at p = 2
    vanishing = check_deviation(Family.P_ALPHA, TOT)
    assert vanishing == [8, 16, 32, 64, 128, 256, 512]


def test_psquareq_formula_overcounts_partial_cut_class():
    # zero only at n = 2p^2, where the cut class has q - 1 = 1 vertex
    vanishing = check_deviation(Family.P_SQUARE_Q, ORD)
    assert vanishing == [2 * p * p for p in (3, 5, 7, 11, 13, 17, 19)]


def test_pqr_formula_overcounts_lone_hub_cases():
    # never zero: q - 1 >= 2, so the hub of q - 1 vertices deviates
    assert check_deviation(Family.PQR, ORD) == []


def findings_table():
    """README's findings table as rows of cell texts, header dropped."""
    section = README.read_text().split("## Findings", 1)[1]
    rows = [line.strip().strip("|").split("|")
            for line in section.split("\n\n## ", 1)[0].splitlines()
            if line.startswith("|")]
    return [[cell.strip() for cell in row] for row in rows[2:]]


def test_readme_findings_table():
    """README's table gives, per family, the members up to AUDIT_BOUND and
    the closed form minus the engine in each kind; the cells must be what
    this audit finds."""
    expected = []
    for family in Family:
        members = [n for n, tag in family_members() if tag.family is family]
        if not members:
            continue
        row = [family.value, str(len(members))]
        for kind in (ORD, TOT):
            if (family, kind) in DEVIATIONS:
                count = sum(1 for n in members if deviation(n, kind))
                row.append(f"deviates at {count}: "
                           f"`{DEVIATIONS[family, kind][0]}`")
            else:
                row.append("agrees")
        expected.append(row)
    assert findings_table() == expected


# --- dispatch edges --------------------------------------------------------

def test_closed_form_sums_match_flat():
    """For every family member up to AUDIT_BOUND, both kinds, the sum to
    the stop the counts pick and Horner's sum to the lowest row equal the
    flat sum of the formula's rows.  The D_t tables of p^2q and pqr start
    above (1+x)^0, so there Horner stops at their lowest row and one
    binomial row finishes."""
    tails = Counter()
    for n, tag in family_members():
        nv = build_class_graph(n).vertex_count
        for kind in (ORD, TOT):
            terms = cf._FORMULAS[tag.family][kind is TOT](tag)
            rows, _, stop = dc._assemble(terms, nv)
            low = min(rows, default=0)
            flat = dc._flat_sum(rows, nv)
            for at in {stop, low}:
                assert dc._sum_rows(rows, nv, at) == flat, (n, kind)
            if low:
                tails[tag.family, kind] += 1
    assert tails == {(Family.P_SQUARE_Q, TOT): 108, (Family.PQR, TOT): 135}


def test_unsupported_family_raises():
    for n in (2, 7, 100, 210):
        tag = classify_family(factorize(n))
        with pytest.raises(UnsupportedFamilyError):
            closed_domination(n, tag)
        with pytest.raises(UnsupportedFamilyError):
            closed_total_domination(n, tag)


TAG_45 = classify_family(factorize(45))


@pytest.mark.parametrize("n, tag", [
    (44, TAG_45),
    (25, FamilyTag(Family.P_ALPHA, p=5, alpha=2, hypothesis_met=True)),
    (15, FamilyTag(Family.PQ, p=3, q=5, hypothesis_met=True)),
    (45, TAG_45._replace(hypothesis_met=not TAG_45.hypothesis_met)),
], ids=["other-modulus", "p^2-as-p^alpha", "pq-swapped", "hypothesis-flipped"])
def test_tag_modulus_consistency_checked(n, tag):
    """A tag is taken only when it is n's classification, field for field."""
    for closed in (closed_domination, closed_total_domination):
        with pytest.raises(ValueError):
            closed(n, tag)


def test_library_callers_refused_before_any_work(monkeypatch):
    # n = 2 * 100003 and 2 * 50021 are 2p graphs of 100 003 and 50 021
    # vertices: over the shared limit, so the term sum refuses either
    # formula before it folds the terms, whoever calls it.
    def no_fold(*args):
        raise AssertionError("a closed form ran over the vertex limit")

    monkeypatch.setattr(dc, "_assemble", no_fold)
    for closed, n, nv in ((closed_domination, 200006, 100003),
                          (closed_total_domination, 100042, 50021)):
        with pytest.raises(CapacityError) as err:
            closed(n, classify_family(factorize(n)))
        assert str(err.value) == (f"n={n} has {nv} vertices, over the "
                                  f"closed-form limit of 50000")


def test_closed_form_work_limit_refuses_before_rows(monkeypatch):
    """Past ENGINE_WORK_LIMIT, a closed form is refused, named as such,
    before the sum builds a row.  D_t's count at 75 includes the one
    binomial row that finishes Horner's sum below its lowest E."""
    def no_rows(*args):
        raise AssertionError("a binomial row was built")

    monkeypatch.setattr(dc, "ENGINE_WORK_LIMIT", 0)
    monkeypatch.setattr(dc, "binomial_expand", no_rows)
    monkeypatch.setattr(dc, "_sum_rows", no_rows)
    for closed, work in ((closed_domination, 595),
                         (closed_total_domination, 485)):
        with pytest.raises(CapacityError) as err:
            closed(75, classify_family(factorize(75)))
        assert str(err.value) == (
            f"summing the binomial rows for n=75 counts {work} operations, "
            f"over the closed-form work limit of 0")
