import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtfan.combinatorics import (
    Partition,
    VariableOrder,
    enumerate_partitions,
    sample_orders,
)
from spechtfan.oracle import (
    DEFAULT_ORACLE_LIMIT,
    MarkedBasis,
    certify_groebner,
    elimination_polynomial_check,
    marked_basis,
    reduce,
    s_polynomial,
)
from spechtfan.polyring import Monomial, Polynomial, leading_monomial
from spechtfan.specht import (
    initial_ideal,
    lex_groebner_generators,
    minimalize,
    universal_groebner_generators,
)


def lex_basis(parts, order=None):
    lam = Partition.parse(parts)
    order = order or VariableOrder.identity(lam.n)
    return marked_basis(lex_groebner_generators(lam, order).polynomials(), order)


class TestMarkedBasis:
    def test_builder_marks_leading_monomials(self):
        basis = lex_basis("2,1")
        assert len(basis) == 2
        assert [m.exps for _, m in basis.elements] == [(0, 0, 1), (0, 1, 0)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MarkedBasis((), VariableOrder.identity(2))

    def test_rejects_foreign_ring(self):
        f = Polynomial.difference(2, 1, 2)
        with pytest.raises(ValueError):
            MarkedBasis(((f, Monomial((0, 1))),), VariableOrder.identity(3))

    def test_rejects_absent_mark(self):
        f = Polynomial.difference(2, 1, 2)
        with pytest.raises(ValueError):
            MarkedBasis(((f, Monomial((1, 1))),), VariableOrder.identity(2))

    def test_rejects_non_leading_mark(self):
        f = Polynomial.difference(2, 1, 2)  # leading monomial is x2
        with pytest.raises(ValueError):
            MarkedBasis(((f, Monomial((1, 0))),), VariableOrder.identity(2))


class TestReduce:
    def test_basis_elements_vanish(self):
        basis = lex_basis("2,2")
        for f in basis.polynomials():
            assert reduce(f, basis).is_zero()

    def test_known_member(self):
        # x1*(x2 - x3) = x1*(x1 - x3) - x1*(x1 - x2)
        basis = lex_basis("2,1")
        f = Polynomial.variable(3, 1) * Polynomial.difference(3, 2, 3)
        assert reduce(f, basis).is_zero()

    def test_constants_pass_through(self):
        basis = lex_basis("2,1")
        assert reduce(Polynomial.one(3), basis) == Polynomial.one(3)
        assert reduce(Polynomial.zero(3), basis).is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            reduce(Polynomial.one(2), lex_basis("2,1"))

    def test_remainder_is_irreducible_and_stable(self):
        basis = lex_basis("2,2")
        f = Polynomial(4, {(3, 1, 2, 0): 5, (0, 0, 2, 2): -1, (1, 1, 1, 1): 7})
        r = reduce(f, basis)
        marks = [m for _, m in basis.elements]
        for exps, _ in r.items():
            assert not any(m.divides(Monomial(exps)) for m in marks)
        assert reduce(f, basis) == r
        assert reduce(r, basis) == r

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 2)] * 4),
                st.integers(-3, 3),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_ideal_combinations_reduce_to_zero(self, picks):
        basis = lex_basis("2,2")
        polys = basis.polynomials()
        acc = Polynomial.zero(4)
        for exps, c, which in picks:
            acc = acc + Polynomial(4, {exps: c}) * polys[which]
        assert reduce(acc, basis).is_zero()

    @settings(deadline=None, max_examples=40)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * 4),
            st.integers(-3, 3).filter(bool),
            max_size=4,
        ),
        st.tuples(*[st.integers(0, 2)] * 4),
        st.integers(-3, 3).filter(bool),
    )
    def test_reduction_is_linear_over_the_ideal(self, fdict, gexps, gc):
        basis = lex_basis("2,2")
        f = Polynomial(4, fdict)
        member = Polynomial(4, {gexps: gc}) * basis.polynomials()[0]
        assert reduce(f + member, basis) == reduce(f, basis)


class TestSPolynomial:
    def test_anchor(self):
        ido = VariableOrder.identity(3)
        f = Polynomial.difference(3, 1, 3)
        g = Polynomial.difference(3, 1, 2)
        s = s_polynomial(f, g, ido)
        assert s == Polynomial(3, {(1, 0, 1): 1, (1, 1, 0): -1})

    def test_self_pair_vanishes(self):
        ido = VariableOrder.identity(3)
        f = Polynomial.difference(3, 1, 3)
        assert s_polynomial(f, f, ido).is_zero()

    def test_coprime_monomials_cancel(self):
        ido = VariableOrder.identity(3)
        s = s_polynomial(Polynomial.variable(3, 2), Polynomial.variable(3, 3), ido)
        assert s.is_zero()

    def test_zero_rejected(self):
        ido = VariableOrder.identity(2)
        with pytest.raises(ValueError):
            s_polynomial(Polynomial.zero(2), Polynomial.one(2), ido)

    def test_leading_terms_cancel(self):
        ido = VariableOrder.identity(4)
        polys = lex_basis("2,2").polynomials()
        s = s_polynomial(polys[0], polys[1], ido)
        lcm = Monomial(
            tuple(
                max(a, b)
                for a, b in zip(
                    leading_monomial(polys[0], ido).exps,
                    leading_monomial(polys[1], ido).exps,
                )
            )
        )
        if not s.is_zero():
            assert leading_monomial(s, ido) != lcm


class TestCertify:
    def test_two_one_skips_its_single_coprime_pair(self):
        cert = certify_groebner(lex_basis("2,1"))
        assert cert.passed
        assert cert.pairs_total == 1
        assert cert.pairs_skipped_coprime == 1
        assert cert.pairs_reduced == 0

    def test_two_two_full_pass(self):
        cert = certify_groebner(lex_basis("2,2"))
        assert cert.to_json() == {
            "pairs_total": 10,
            "pairs_skipped_coprime": 0,
            "pairs_reduced": 10,
            "failures": [],
            "pass": True,
        }

    def test_truncated_basis_fails_with_known_remainder(self):
        # dropping the last generator leaves a certifiably incomplete basis
        ido = VariableOrder.identity(4)
        polys = lex_groebner_generators(Partition.parse("2,2"), ido).polynomials()
        cert = certify_groebner(marked_basis(polys[:4], ido))
        assert not cert.passed
        assert [(i, j) for i, j, _ in cert.failures] == [(0, 1), (1, 3), (2, 3)]
        first = cert.failures[0][2]
        assert first == Polynomial(
            4,
            {
                (0, 1, 2, 0): 1,
                (1, 0, 2, 0): -1,
                (0, 2, 1, 0): -1,
                (2, 0, 1, 0): 1,
                (1, 2, 0, 0): 1,
                (2, 1, 0, 0): -1,
            },
        )
        assert cert.failures[1][2] == -first
        assert cert.failures[2][2] == -first * Polynomial.variable(4, 3)
        assert cert.to_json()["failures"] == [
            {"i": 0, "j": 1, "remainder_terms": 6},
            {"i": 1, "j": 3, "remainder_terms": 6},
            {"i": 2, "j": 3, "remainder_terms": 6},
        ]

    @pytest.mark.parametrize("n", [3, 4])
    def test_lex_bases_certify_and_marks_match_closed_form(self, n):
        rng = random.Random(f"certify|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 3, rng)
        for lam in enumerate_partitions(n):
            if lam.m < 2:
                continue
            for order in orders:
                basis = marked_basis(
                    lex_groebner_generators(lam, order).polynomials(), order
                )
                assert certify_groebner(basis).passed, (lam, order)
                marks = minimalize([m.exps for _, m in basis.elements])
                assert marks == initial_ideal(lam, order)

    @pytest.mark.parametrize("n", [3, 4])
    def test_universal_bases_certify(self, n):
        rng = random.Random(f"universal|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 2, rng)
        for lam in enumerate_partitions(n):
            if lam.m < 2:
                continue
            for order in orders:
                basis = marked_basis(
                    universal_groebner_generators(lam, order).polynomials(), order
                )
                assert certify_groebner(basis).passed, (lam, order)


class TestEliminationPolynomial:
    def test_two_two_identity(self):
        rep = elimination_polynomial_check(
            Partition.parse("2,2"), VariableOrder.identity(4)
        )
        assert rep.passed
        assert rep.base_certified and rep.hat_certified
        assert rep.hat_partition == Partition.parse("1,1,1")
        assert rep.subset_checked == 1
        assert rep.superset_checked == 1
        assert rep.failures == ()

    @pytest.mark.parametrize(
        "parts,subset,superset",
        [("3,1", 2, 2), ("2,1", 1, 1)],
    )
    def test_small_anchors(self, parts, subset, superset):
        lam = Partition.parse(parts)
        rep = elimination_polynomial_check(lam, VariableOrder.identity(lam.n))
        assert rep.passed
        assert rep.subset_checked == subset
        assert rep.superset_checked == superset

    def test_sampled_orders_pass(self):
        rng = random.Random("elim-poly")
        for parts in ["2,2", "3,2", "2,2,1", "3,1,1"]:
            lam = Partition.parse(parts)
            for order in sample_orders(lam.n, 3, rng):
                assert elimination_polynomial_check(lam, order).passed, (lam, order)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            elimination_polynomial_check(
                Partition.parse("1,1"), VariableOrder.identity(2)
            )
        with pytest.raises(ValueError):
            elimination_polynomial_check(
                Partition.parse("4"), VariableOrder.identity(4)
            )
        with pytest.raises(ValueError):
            elimination_polynomial_check(
                Partition.parse("5,1"), VariableOrder.identity(6)
            )
        rep = elimination_polynomial_check(
            Partition.parse("5,1"), VariableOrder.identity(6), limit=6
        )
        assert rep.passed

    def test_limit_default(self):
        assert DEFAULT_ORACLE_LIMIT == 5
