from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import poly_to_sympy, sympy_lm_exps, sympy_vars
from spechtfan.combinatorics import VariableOrder
from spechtfan.polyring import (
    Polynomial,
    leading_monomial,
    leading_term,
    lex_key,
)


def poly_st(n, max_terms=5, max_exp=3):
    coeff = st.integers(-3, 3).filter(bool)
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(lambda d: Polynomial(n, d))


def order_st(n):
    return st.permutations(range(1, n + 1)).map(lambda p: VariableOrder(tuple(p)))


triples_st = st.integers(2, 4).flatmap(
    lambda n: st.tuples(poly_st(n), poly_st(n), poly_st(n))
)


class TestLexOrder:
    def test_largest_variable_dominates(self):
        order = VariableOrder.identity(3)
        a = (0, 1, 2)
        b = (3, 3, 1)
        # more x3 beats any amount of the smaller variables
        assert lex_key(a, order) > lex_key(b, order)
        f = Polynomial(3, {a: 1, b: 1})
        assert leading_monomial(f, order) == a
        assert leading_monomial(f, VariableOrder.parse("3,2,1")) == b

    def test_key_reads_descending(self):
        order = VariableOrder.parse("2,3,1")
        assert lex_key((5, 6, 7), order) == (5, 7, 6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            leading_monomial(Polynomial.one(2), VariableOrder.identity(3))


class TestPolynomialBasics:
    def test_zero_one_variable(self):
        assert Polynomial.zero(3).is_zero()
        assert not Polynomial.zero(3)
        assert len(Polynomial.one(3)) == 1
        assert Polynomial.variable(2, 1).coefficient((1, 0)) == 1
        with pytest.raises(ValueError):
            Polynomial.variable(3, 4)

    def test_difference(self):
        f = Polynomial.difference(3, 1, 3)
        assert f.coefficient((1, 0, 0)) == 1
        assert f.coefficient((0, 0, 1)) == -1
        with pytest.raises(ValueError):
            Polynomial.difference(3, 2, 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): 1})
        with pytest.raises(TypeError):
            Polynomial(2, {(1, 0): 0.5})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Polynomial(1, {(1,): True}),
            lambda: Polynomial(1, {(1,): 0.0}),
            lambda: Polynomial(1, [((1,), 1), ((1,), -1.0)]),
            lambda: Polynomial(1, {(1,): 3}) * True,
            lambda: True * Polynomial(1, {(1,): 3}),
        ],
        ids=["bool", "float-zero", "float-cancels", "times-bool", "bool-times"],
    )
    def test_each_coefficient_is_type_checked(self, build):
        # each input is checked before it is added, so a bool or float that
        # sums to an int or to zero is refused as well
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "exps,kind", [((1.7, 0), "float"), ((True, False), "bool")], ids=["float", "bool"]
    )
    def test_each_exponent_is_type_checked(self, exps, kind):
        # int() would read both as x1
        with pytest.raises(TypeError, match=f"exponents must be int, got {kind}"):
            Polynomial(2, {exps: 1})

    @pytest.mark.parametrize(
        "build,what",
        [
            (lambda: Polynomial(2.9, {(1, 0): 1}), "ring size must be int, got float"),
            (lambda: Polynomial.variable(2, True), "variable index must be int, got bool"),
        ],
        ids=["float-ring-size", "bool-variable-index"],
    )
    def test_ring_size_and_variable_index_are_type_checked(self, build, what):
        # int(2.9) would build a ring of two variables, and True would name x1
        with pytest.raises(TypeError, match=what):
            build()

    def test_like_terms_collapse(self):
        f = Polynomial(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 5)])
        assert len(f) == 1
        assert f.coefficient((0, 1)) == 5

    def test_integral_fractions_become_ints(self):
        f = Polynomial(2, {(1, 0): Fraction(4, 2)})
        ((_, c),) = f.terms()
        assert c == 2
        assert isinstance(c, int)
        g = Polynomial(2, {(1, 0): Fraction(1, 2)})
        assert g.coefficient((1, 0)) == Fraction(1, 2)

    def test_terms_descend_in_identity_lex(self):
        f = Polynomial(2, {(1, 0): 1, (0, 1): 1, (2, 0): 1})
        assert [m for m, _ in f.terms()] == [(0, 1), (2, 0), (1, 0)]

    def test_to_json_and_str(self):
        f = Polynomial(2, {(0, 1): 1, (1, 0): -1})  # x2 - x1
        assert f.terms() == [((0, 1), 1), ((1, 0), -1)]
        assert str(f) == "x2 - x1"
        assert str(Polynomial.zero(2)) == "0"
        g = Polynomial(3, {(2, 0, 1): 2, (0, 1, 0): 1, (0, 0, 0): -1})
        assert str(g) == "2*x1^2*x3 + x2 - 1"
        assert str(Polynomial.one(3)) == "1"


class TestArithmetic:
    @given(triples_st)
    def test_ring_laws(self, fgh):
        f, g, h = fgh
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f - f == Polynomial.zero(f.n)
        assert f + Polynomial.zero(f.n) == f
        assert f * Polynomial.one(f.n) == f

    @given(st.integers(2, 4).flatmap(lambda n: poly_st(n)), st.integers(-4, 4))
    def test_scalar_mul(self, f, c):
        assert f * c == c * f
        if c == 0:
            assert (f * c).is_zero()
        else:
            assert (f * c) * Fraction(1, c) == f

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.one(2) + Polynomial.one(3)


class TestLeadingTerm:
    def test_three_variable_alternating_product(self):
        f = (
            Polynomial.difference(3, 1, 2)
            * Polynomial.difference(3, 1, 3)
            * Polynomial.difference(3, 2, 3)
        )
        assert len(f) == 6
        ido = VariableOrder.identity(3)
        assert leading_monomial(f, ido) == (0, 1, 2)
        assert leading_term(f, ido)[1] == -1
        # reversing the order makes x1 the big variable
        rev = VariableOrder.parse("3,2,1")
        m, c = leading_term(f, rev)
        assert m == (2, 1, 0)
        assert c == 1

    def test_zero_has_no_leading_monomial(self):
        with pytest.raises(ValueError):
            leading_monomial(Polynomial.zero(2), VariableOrder.identity(2))

    def test_one_variable(self):
        f = Polynomial(1, {(3,): 2, (1,): -1, (0,): 5})
        order = VariableOrder.identity(1)
        assert leading_monomial(f, order) == (3,)
        assert leading_term(f, order) == ((3,), 2)
        assert leading_monomial(f, order) == sympy_lm_exps(poly_to_sympy(f), order)
        assert leading_monomial(Polynomial.one(1), order) == (0,)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.tuples(poly_st(n).filter(bool), order_st(n))
    ))
    def test_matches_sympy(self, case):
        f, order = case
        expr = poly_to_sympy(f)
        assert leading_monomial(f, order) == sympy_lm_exps(expr, order)


class TestSevenVariableProduct:
    def test_expansion(self):
        # product of the column differences of a three row filling of 1..7
        n = 7
        f = (
            Polynomial.difference(n, 3, 4)
            * Polynomial.difference(n, 3, 6)
            * Polynomial.difference(n, 4, 6)
            * Polynomial.difference(n, 5, 2)
        )
        assert len(f) == 12
        assert all(c in (1, -1) for _, c in f.terms())
        xs = sympy_vars(n)
        want = sympy.expand(
            (xs[2] - xs[3]) * (xs[2] - xs[5]) * (xs[3] - xs[5]) * (xs[4] - xs[1])
        )
        assert sympy.expand(poly_to_sympy(f) - want) == 0
