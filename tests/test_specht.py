import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtfan.combinatorics
import spechtfan.specht
from helpers import expansion_initial_ideal, naive_minimalize, specht_expr, sympy_lm_exps
from spechtfan.combinatorics import (
    Partition,
    Tableau,
    VariableOrder,
    dominated_partitions,
    enumerate_partitions,
    sample_orders,
    standard_tableau_count,
    standard_tableaux,
)
from spechtfan.errors import CapacityError
from spechtfan.polyring import Monomial, Polynomial, leading_coefficient
from spechtfan.specht import (
    INITIAL_IDEAL_N_LIMIT,
    INITIAL_IDEAL_TABLEAU_LIMIT,
    MonomialIdeal,
    gap_condition_audit,
    closed_form_initial_monomial,
    initial_ideal,
    lex_groebner_generators,
    minimalize,
    specht_polynomial,
    transposition_sign_check,
    universal_groebner_generators,
)


def all_shapes(n):
    return [lam for lam in enumerate_partitions(n) if lam.m >= 2]


class TestSpechtPolynomial:
    def test_single_row_is_one(self):
        assert specht_polynomial(Tableau(((1, 2, 3),))) == Polynomial.one(3)

    def test_single_column_is_difference_product(self):
        t = Tableau(((1,), (2,), (3,)))
        want = (
            Polynomial.difference(3, 1, 2)
            * Polynomial.difference(3, 1, 3)
            * Polynomial.difference(3, 2, 3)
        )
        assert specht_polynomial(t) == want
        assert len(specht_polynomial(t)) == 6

    def test_two_by_two(self):
        f = specht_polynomial(Tableau(((1, 2), (3, 4))))
        assert f == Polynomial.difference(4, 1, 3) * Polynomial.difference(4, 2, 4)

    def test_column_order_within_rows_changes_nothing_after_sign(self):
        # swapping both members of a column pair flips each factor once
        f = specht_polynomial(Tableau(((1, 2), (3, 4))))
        g = specht_polynomial(Tableau(((3, 4), (1, 2))))
        assert g == f


class TestClosedForm:
    def test_row_positions_become_exponents(self):
        ido = VariableOrder.identity(4)
        t = Tableau(((1, 2), (3, 4)))
        assert closed_form_initial_monomial(t, ido) == Monomial((0, 0, 1, 1))
        tall = Tableau(((1, 4), (2,), (3,)))
        assert closed_form_initial_monomial(tall, ido) == Monomial((0, 1, 2, 0))

    def test_rejects_non_column_standard(self):
        t = Tableau(((3, 5, 1, 7), (4, 2), (6,)))
        with pytest.raises(ValueError):
            closed_form_initial_monomial(t, VariableOrder.identity(7))

    def test_depends_only_on_row_membership(self):
        ido = VariableOrder.identity(3)
        a = Tableau(((1, 2), (3,)))
        b = Tableau(((2, 1), (3,)))
        assert closed_form_initial_monomial(a, ido) == Monomial((0, 0, 1))
        assert closed_form_initial_monomial(b, ido) == Monomial((0, 0, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_expansion_identity(self, n):
        ido = VariableOrder.identity(n)
        for lam in all_shapes(n):
            for t in standard_tableaux(lam, ido):
                got = closed_form_initial_monomial(t, ido)
                assert got.exps == sympy_lm_exps(specht_expr(t), ido)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_expansion_sampled_orders(self, n):
        rng = random.Random(f"closed-form|{n}")
        for order in sample_orders(n, 6, rng):
            for lam in all_shapes(n):
                for t in standard_tableaux(lam, order):
                    got = closed_form_initial_monomial(t, order)
                    assert got.exps == sympy_lm_exps(specht_expr(t), order)

    def test_leading_coefficient_is_plus_minus_one(self):
        ido = VariableOrder.identity(4)
        for lam in all_shapes(4):
            for t in standard_tableaux(lam, ido):
                assert leading_coefficient(specht_polynomial(t), ido) in (1, -1)


class TestSignCheck:
    def test_same_column_swap_negates(self):
        res = transposition_sign_check(Tableau(((1, 2), (3, 4))), 1, 3)
        assert res.negation_holds
        assert res.swapped_tableau.rows == ((3, 2), (1, 4))
        assert res.swapped_polynomial == -res.polynomial

    def test_tall_column_swap_negates(self):
        res = transposition_sign_check(Tableau(((1,), (2,), (3,))), 1, 3)
        assert res.negation_holds

    def test_cross_column_swap_rejected(self):
        with pytest.raises(ValueError):
            transposition_sign_check(Tableau(((1, 2), (3, 4))), 1, 2)


class TestMonomialIdeal:
    def test_minimalize_drops_multiples(self):
        out = minimalize([(1, 1), (1, 0), (0, 2)])
        assert list(out.min_gens) == [(0, 2), (1, 0)]

    def test_minimalize_dedupes(self):
        out = minimalize([(1, 0), (1, 0)])
        assert len(out.min_gens) == 1

    def test_minimalize_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            minimalize([])
        with pytest.raises(ValueError):
            minimalize([(1,), (1, 0)])

    def test_minimalize_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            minimalize([(1, 0), (0, -1)])

    def test_minimalize_edge_cases(self):
        assert minimalize([(3,), (1,), (2,)]).to_json() == {"n": 1, "min_gens": [[1]]}
        assert minimalize([(0, 0), (1, 2), (0, 0)]).to_json() == {"n": 2, "min_gens": [[0, 0]]}
        # 2**20 sets the highest bit below its field's guard bit
        big = 2**20
        out = minimalize([(1, 0), (0, big), (1, big), (0, big - 1)])
        assert list(out.min_gens) == [(0, big - 1), (1, 0)]

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_minimalize_matches_naive(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        entry = st.one_of(st.integers(0, 3), st.integers(0, 2**20))
        gens = data.draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=25), label="gens")
        gens += data.draw(st.lists(st.sampled_from(gens), max_size=5), label="duplicates")
        if data.draw(st.booleans(), label="with one"):
            gens.append((0,) * n)
        got = list(minimalize(gens).min_gens)
        assert got == sorted(naive_minimalize(gens))

    def test_constructor_requires_sorted_gens(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 0), (0, 1)))

    def test_constructor_and_contains_check_the_ring(self):
        for gens in [(), ((0, 1), (1, 0, 0)), ((-1, 1),)]:
            with pytest.raises(ValueError):
                MonomialIdeal(2, gens)
        with pytest.raises(ValueError):
            minimalize([(0, 1)]).contains((0, 1, 0))

    def test_contains(self):
        ideal = minimalize([(0, 1), (2, 0)])
        assert ideal.contains((0, 3))
        assert ideal.contains((2, 1))
        assert not ideal.contains((1, 0))

    def test_str_and_json(self):
        ideal = minimalize([(0, 1), (2, 0)])
        assert str(ideal) == "<x2, x1^2>"
        assert ideal.to_json() == {"n": 2, "min_gens": [[0, 1], [2, 0]]}


class TestGeneratingSystems:
    def test_counts_for_small_shapes(self):
        ido3 = VariableOrder.identity(3)
        ido4 = VariableOrder.identity(4)
        assert len(lex_groebner_generators(Partition.parse("2,1"), ido3).generators) == 2
        assert len(universal_groebner_generators(Partition.parse("2,1"), ido3).generators) == 3
        assert len(lex_groebner_generators(Partition.parse("2,2"), ido4).generators) == 5
        assert len(universal_groebner_generators(Partition.parse("2,2"), ido4).generators) == 6

    def test_lex_tableaux_and_marks_for_two_two(self):
        ido = VariableOrder.identity(4)
        sys = lex_groebner_generators(Partition.parse("2,2"), ido)
        tabs = [str(t) for t, _ in sys.generators]
        assert tabs == ["1,2/3,4", "1,3/2,4", "1,2/3/4", "1,3/2/4", "1,4/2/3"]
        marks = [closed_form_initial_monomial(t, ido).exps for t, _ in sys.generators]
        assert marks == [
            (0, 0, 1, 1),
            (0, 1, 0, 1),
            (0, 0, 1, 2),
            (0, 1, 0, 2),
            (0, 1, 2, 0),
        ]

    def test_lex_is_subset_of_universal(self):
        order = VariableOrder.parse("3,1,4,2")
        lam = Partition.parse("2,2")
        lex = {t.rows for t, _ in lex_groebner_generators(lam, order).generators}
        uni = {t.rows for t, _ in universal_groebner_generators(lam, order).generators}
        assert lex < uni

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            lex_groebner_generators(Partition.parse("3"), VariableOrder.identity(3))

    def test_order_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_groebner_generators(Partition.parse("2,1"), VariableOrder.identity(4))

    def test_validate_catches_tampering(self):
        sys = lex_groebner_generators(Partition.parse("2,1"), VariableOrder.identity(3))
        sys.validate()
        t, f = sys.generators[0]
        bad = type(sys)(sys.partition, sys.order, ((t, f + Polynomial.one(3)),) + sys.generators[1:])
        with pytest.raises(AssertionError):
            bad.validate()


class TestInitialIdeal:
    def test_two_one_under_rotations(self):
        lam = Partition.parse("2,1")
        assert initial_ideal(lam, VariableOrder.identity(3)).to_json() == {
            "n": 3,
            "min_gens": [[0, 0, 1], [0, 1, 0]],
        }
        assert initial_ideal(lam, VariableOrder.parse("3,2,1")).to_json() == {
            "n": 3,
            "min_gens": [[0, 1, 0], [1, 0, 0]],
        }

    def test_two_two_identity(self):
        got = initial_ideal(Partition.parse("2,2"), VariableOrder.identity(4))
        assert list(got.min_gens) == [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 2, 0)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_expansion_pipeline(self, n):
        rng = random.Random(f"ideal|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 3, rng)
        for lam in all_shapes(n):
            for order in orders:
                got = frozenset(initial_ideal(lam, order).min_gens)
                assert got == expansion_initial_ideal(lam, order)


def closed_form_route(lam, order):
    """The checked public route: Tableau objects and closed_form_initial_monomial."""
    return minimalize([
        closed_form_initial_monomial(t, order).exps
        for mu in dominated_partitions(lam, same_first_part=True)
        for t in standard_tableaux(mu, order)
    ])


class TestInitialIdealFastPath:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_order_matches_closed_form_route(self, n):
        for lam in all_shapes(n):
            for sigma in permutations(range(1, n + 1)):
                order = VariableOrder(sigma)
                assert initial_ideal(lam, order) == closed_form_route(lam, order), (lam, order)

    @pytest.mark.parametrize("n", [7, 8])
    def test_sampled_orders_match_closed_form_route(self, n):
        rng = random.Random(f"fast-path|{n}")
        for lam in all_shapes(n):
            for order in sample_orders(n, 2, rng):
                assert initial_ideal(lam, order) == closed_form_route(lam, order), (lam, order)

    def test_six_four_two_generator_count(self):
        ideal = initial_ideal(Partition.parse("6,4,2"), VariableOrder.identity(12))
        assert len(ideal.min_gens) == 3331

    def test_every_shape_to_n12_is_under_the_limit(self):
        for lam in all_shapes(12):
            shapes = dominated_partitions(lam, same_first_part=True)
            assert sum(standard_tableau_count(mu) for mu in shapes) <= INITIAL_IDEAL_TABLEAU_LIMIT

    def test_above_the_limit_is_refused_before_any_tableau(self, monkeypatch):
        def refuse(parts):
            raise AssertionError("tableaux were built before the size check")

        cache = spechtfan.combinatorics._identity_fillings
        before = cache.cache_info().currsize
        monkeypatch.setattr(spechtfan.specht, "_identity_fillings", refuse)
        with pytest.raises(CapacityError, match="generating tableaux"):
            initial_ideal(Partition.parse("7,5,3"), VariableOrder.identity(15))
        assert cache.cache_info().currsize == before

    def test_large_n_is_refused_before_the_shapes_are_listed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the partitions of n were listed before the size check")

        monkeypatch.setattr(spechtfan.specht, "dominated_partitions", refuse)
        n = INITIAL_IDEAL_N_LIMIT + 1
        with pytest.raises(CapacityError, match="initial-ideal limit"):
            initial_ideal(Partition((n - 1, 1)), VariableOrder.identity(n))

    def test_hook_at_the_n_limit(self):
        n = INITIAL_IDEAL_N_LIMIT
        ideal = initial_ideal(Partition((n - 1, 1)), VariableOrder.identity(n))
        assert list(ideal.min_gens) == [
            tuple(int(i == j) for i in range(n)) for j in range(n - 1, 0, -1)
        ]


class TestGapAudit:
    def test_two_two_identity_structure(self):
        rep = gap_condition_audit(Partition.parse("2,2"), VariableOrder.identity(4))
        assert rep.k == 0
        assert rep.passed
        assert len(rep.entries) == 3
        assert [e.row_of_largest for e in rep.entries] == [2, 2, 1]
        assert rep.violations == ()

    def test_neighbor_rank_is_recorded(self):
        rep = gap_condition_audit(Partition.parse("3,1"), VariableOrder.identity(4))
        assert rep.k == 2
        deep = [e for e in rep.entries if e.row_of_largest >= 2]
        assert deep and all(e.neighbor_rank is not None for e in deep)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_small_shapes_pass(self, n):
        rng = random.Random(f"audit|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 5, rng)
        for lam in all_shapes(n):
            for order in orders:
                rep = gap_condition_audit(lam, order)
                assert rep.passed, (lam, order, rep.violations)
                assert len(rep.entries) == len(initial_ideal(lam, order).min_gens)
