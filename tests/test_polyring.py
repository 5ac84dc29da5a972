from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import poly_to_sympy, specht_expr, sympy_lm_exps
from spechtfan.combinatorics import Tableau, VariableOrder
from spechtfan.polyring import Polynomial, _field_scale, _pack, _unpack, leading_monomial


def poly_st(n, max_terms=5, max_exp=3):
    coeff = st.integers(-3, 3).filter(bool)
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(lambda d: Polynomial(n, d))


def order_st(n):
    return st.permutations(range(1, n + 1)).map(lambda p: VariableOrder(tuple(p)))


class TestLexOrder:
    def test_largest_variable_dominates(self):
        order = VariableOrder.identity(3)
        a = (0, 1, 2)
        b = (3, 3, 1)
        # more x3 beats any amount of the smaller variables
        assert tuple(a[i] for i in order.desc0) > tuple(b[i] for i in order.desc0)
        f = Polynomial(3, {a: 1, b: 1})
        assert leading_monomial(f, order) == a
        assert leading_monomial(f, VariableOrder.parse("3,2,1")) == b

    def test_key_reads_descending(self):
        order = VariableOrder.parse("2,3,1")
        assert tuple((5, 6, 7)[i] for i in order.desc0) == (5, 7, 6)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(order_st(n), st.lists(st.integers(0, 15), min_size=n, max_size=n))))
    def test_field_scale_weights_each_variable_as_pack_places_it(self, case):
        order, exps = case
        scale = _field_scale(order.desc0, 5)
        assert scale[0] == 0
        assert sum(e * s for e, s in zip(exps, scale[1:])) == _pack(exps, order.desc0, 5)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 20), st.data())
    def test_unpack_reads_back_what_pack_packed(self, w, data):
        # any variable order and any exponents that fill their w-bit fields, guard bit included
        exps = tuple(data.draw(st.lists(st.integers(0, 2**w - 1), min_size=1, max_size=8)))
        desc = tuple(data.draw(st.permutations(range(len(exps)))))
        assert _unpack(_pack(exps, desc, w), desc, w) == exps

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            leading_monomial(Polynomial(2, {(0, 0): 1}), VariableOrder.identity(3))


class TestPolynomialBasics:
    def test_zero_one_variable(self):
        assert Polynomial(3).is_zero()
        assert not Polynomial(3, {})
        assert len(Polynomial(3, {(0, 0, 0): 1})) == 1
        x1 = Polynomial(2, {(1, 0): 1})
        assert x1.coefficient((1, 0)) == 1
        assert x1.coefficient((0, 1)) == 0

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
            lambda: Polynomial(1, {(1,): Fraction(1, 2)}),
            lambda: Polynomial(2, {(1, 0): Fraction(4, 2)}),
        ],
        ids=["bool", "float-zero", "float-cancels", "fraction", "integral-fraction"],
    )
    def test_each_coefficient_is_type_checked(self, build):
        # each input is checked before it is added, so a bool or float that
        # sums to an int or to zero is refused as well; coefficients are ints,
        # so a Fraction is refused even when its value is whole
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "exps,kind", [((1.7, 0), "float"), ((True, False), "bool")], ids=["float", "bool"]
    )
    def test_each_exponent_is_type_checked(self, exps, kind):
        # int() would read both as x1
        with pytest.raises(TypeError, match=f"exponents must be int, got {kind}"):
            Polynomial(2, {exps: 1})

    def test_ring_size_is_type_checked(self):
        # int(2.9) would build a ring of two variables
        with pytest.raises(TypeError, match="ring size must be int, got float"):
            Polynomial(2.9, {(1, 0): 1})

    def test_like_terms_collapse(self):
        f = Polynomial(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 5)])
        assert len(f) == 1
        assert f.coefficient((0, 1)) == 5

    def test_terms_descend_in_identity_lex(self):
        f = Polynomial(2, {(1, 0): 1, (0, 1): 1, (2, 0): 1})
        assert [m for m, _ in f.terms()] == [(0, 1), (2, 0), (1, 0)]

    def test_to_json_and_str(self):
        f = Polynomial(2, {(0, 1): 1, (1, 0): -1})  # x2 - x1
        assert f.terms() == [((0, 1), 1), ((1, 0), -1)]
        assert str(f) == "x2 - x1"
        assert str(Polynomial(2)) == "0"
        g = Polynomial(3, {(2, 0, 1): 2, (0, 1, 0): 1, (0, 0, 0): -1})
        assert str(g) == "2*x1^2*x3 + x2 - 1"
        assert str(Polynomial(3, {(0, 0, 0): 1})) == "1"


class TestLeadingTerm:
    def test_three_variable_alternating_product(self):
        # (x1 - x2)(x1 - x3)(x2 - x3), the Vandermonde product with lead -x2*x3^2
        f = Polynomial(
            3,
            {
                (2, 1, 0): 1,
                (2, 0, 1): -1,
                (1, 2, 0): -1,
                (1, 0, 2): 1,
                (0, 2, 1): 1,
                (0, 1, 2): -1,
            },
        )
        assert poly_to_sympy(f) == specht_expr(Tableau(((1,), (2,), (3,))))
        ido = VariableOrder.identity(3)
        assert leading_monomial(f, ido) == (0, 1, 2)
        assert f.coefficient(leading_monomial(f, ido)) == -1
        # reversing the order makes x1 the big variable
        rev = VariableOrder.parse("3,2,1")
        m = leading_monomial(f, rev)
        assert m == (2, 1, 0)
        assert f.coefficient(m) == 1

    def test_zero_has_no_leading_monomial(self):
        with pytest.raises(ValueError):
            leading_monomial(Polynomial(2), VariableOrder.identity(2))

    def test_one_variable(self):
        f = Polynomial(1, {(3,): 2, (1,): -1, (0,): 5})
        order = VariableOrder.identity(1)
        assert leading_monomial(f, order) == (3,)
        assert f.coefficient(leading_monomial(f, order)) == 2
        assert leading_monomial(f, order) == sympy_lm_exps(poly_to_sympy(f), order)
        assert leading_monomial(Polynomial(1, {(0,): 1}), order) == (0,)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.tuples(poly_st(n).filter(bool), order_st(n))
    ))
    def test_matches_sympy(self, case):
        f, order = case
        expr = poly_to_sympy(f)
        assert leading_monomial(f, order) == sympy_lm_exps(expr, order)
