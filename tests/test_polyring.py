"""The result polynomial: canonical form, addition and subtraction,
evaluation, rendering, and the binomial rows."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdpoly.domcount import gamma_from_poly
from zdpoly.polyring import Polynomial, binomial_expand, evaluate_at, render

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
ZERO, ONE = Polynomial(), Polynomial([1])


def test_canonicalization():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0, 0]).coeffs == ()
    assert Polynomial([]).coeffs == ()
    assert Polynomial(()) == ZERO


def test_degree_and_coefficient():
    p = Polynomial([3, 0, 5])
    assert p.degree == 2
    assert p.coefficient(0) == 3
    assert p.coefficient(1) == 0
    assert p.coefficient(99) == 0
    assert ZERO.degree == -1
    with pytest.raises(ValueError):
        p.coefficient(-1)


def test_immutable():
    p = Polynomial([1])
    with pytest.raises(AttributeError):
        p.coeffs = (2,)


def test_hash_consistency():
    assert hash(Polynomial([1, 2, 0])) == hash(Polynomial([1, 2]))
    assert len({Polynomial([1]), ONE}) == 1


@given(coeff_lists, coeff_lists)
def test_add_commutes(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    assert pa + pb == pb + pa


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    # The additive group's: the type has no product.
    pa, pb, pc = Polynomial(a), Polynomial(b), Polynomial(c)
    assert (pa + pb) + pc == pa + (pb + pc)
    assert (pa - pb) + pb == pa
    assert pa - (pb + pc) == (pa - pb) - pc


@given(coeff_lists)
def test_identities(a):
    p = Polynomial(a)
    assert p + ZERO == p
    assert p + (-p) == ZERO
    assert p - p == ZERO


@given(coeff_lists, coeff_lists, st.integers(min_value=-9, max_value=9))
def test_evaluation_is_ring_homomorphism(a, b, t):
    pa, pb = Polynomial(a), Polynomial(b)
    assert evaluate_at(pa + pb, t) == evaluate_at(pa, t) + evaluate_at(pb, t)
    assert evaluate_at(pa - pb, t) == evaluate_at(pa, t) - evaluate_at(pb, t)


def test_evaluate_matches_direct_sum():
    p = Polynomial([5, -3, 0, 7])
    for t in range(-5, 6):
        assert evaluate_at(p, t) == 5 - 3 * t + 7 * t ** 3
    assert evaluate_at(ZERO, 12) == 0


def test_binomial_expand():
    for m in range(0, 200):
        p = binomial_expand(m)
        assert p.coeffs == tuple(comb(m, i) for i in range(m + 1))
        assert evaluate_at(p, 1) == 2 ** m
    with pytest.raises(ValueError):
        binomial_expand(-1)


def test_min_positive_degree():
    # The least positive degree with a nonzero coefficient is read by
    # gamma_from_poly; constants and ZERO have none.
    assert gamma_from_poly(ZERO) is None
    assert gamma_from_poly(ONE) is None
    assert gamma_from_poly(Polynomial([7])) is None
    assert gamma_from_poly(Polynomial([0, 0, 3, 1])) == 2
    assert gamma_from_poly(Polynomial([4, 5])) == 1


RENDER_CASES = [
    (Polynomial([]), "0"),
    (Polynomial([5]), "5"),
    (Polynomial([0, 1]), "x"),
    (Polynomial([0, 2, 1]), "2*x + x^2"),
    (Polynomial([1, 3]), "1 + 3*x"),
    (Polynomial([0, 0, 9, 16, 15, 6, 1]),
     "9*x^2 + 16*x^3 + 15*x^4 + 6*x^5 + x^6"),
    (Polynomial([1, -1]), "1 - x"),
    (Polynomial([-2, 0, 4]), "-2 + 4*x^2"),
]


@pytest.mark.parametrize("poly,text", RENDER_CASES)
def test_render(poly, text):
    assert render(poly) == text
    assert str(poly) == text
