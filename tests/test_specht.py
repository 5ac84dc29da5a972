import random
from itertools import islice, permutations
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtfan.combinatorics
import spechtfan.specht
from helpers import (
    difference_product,
    expansion_initial_ideal,
    naive_minimalize,
    poly_to_sympy,
    specht_expr,
    sympy_lm_exps,
)
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
from spechtfan.oracle import _specht_basis
from spechtfan.polyring import Polynomial, _field_scale, _pack, leading_monomial
from spechtfan.specht import (
    _lane,
    _lane_list,
    _lane_pack,
    _lane_system,
    _lane_term,
    _lowest_lane,
    _term_lanes,
    INITIAL_IDEAL_N_LIMIT,
    INITIAL_IDEAL_TABLEAU_LIMIT,
    MonomialIdeal,
    gap_condition_audit,
    closed_form_initial_monomial,
    initial_ideal,
    lex_groebner_generators,
    minimalize,
    specht_polynomial,
    universal_groebner_generators,
)


def all_shapes(n):
    return [lam for lam in enumerate_partitions(n) if lam.m >= 2]


class TestSpechtPolynomial:
    def test_single_row_is_one(self):
        assert specht_polynomial(Tableau(((1, 2, 3),))) == Polynomial(3, {(0, 0, 0): 1})

    def test_single_column_is_difference_product(self):
        t = Tableau(((1,), (2,), (3,)))
        # (x1 - x2)(x1 - x3)(x2 - x3)
        want = Polynomial(
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
        assert specht_polynomial(t) == want
        assert len(specht_polynomial(t)) == 6

    def test_two_by_two(self):
        f = specht_polynomial(Tableau(((1, 2), (3, 4))))
        # (x1 - x3)(x2 - x4)
        assert f == Polynomial(
            4, {(1, 1, 0, 0): 1, (1, 0, 0, 1): -1, (0, 1, 1, 0): -1, (0, 0, 1, 1): 1}
        )

    def test_column_order_within_rows_changes_nothing_after_sign(self):
        # swapping both members of a column pair flips each factor once
        f = specht_polynomial(Tableau(((1, 2), (3, 4))))
        g = specht_polynomial(Tableau(((3, 4), (1, 2))))
        assert g == f

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_sympy_expansion(self, n):
        orders = [VariableOrder.identity(n)] + sample_orders(n, 2, random.Random(f"expand|{n}"))
        for lam in enumerate_partitions(n):
            for order in orders:
                for t in standard_tableaux(lam, order):
                    f = specht_polynomial(t)
                    assert poly_to_sympy(f) == specht_expr(t), t
                    assert all(type(c) is int for _, c in f.items())
                    col = t.columns()[0]
                    if len(col) > 1:
                        # swapping two entries of one column negates the generator
                        swap = {col[0]: col[-1], col[-1]: col[0]}
                        s = Tableau(tuple(tuple(swap.get(a, a) for a in row) for row in t.rows))
                        assert poly_to_sympy(specht_polynomial(s)) == specht_expr(s), s
                        assert specht_polynomial(s) == Polynomial(n, {e: -c for e, c in f.items()}), s

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_every_standard_tableau_matches_difference_product(self, n):
        for lam in enumerate_partitions(n):
            for order in (VariableOrder.identity(n), VariableOrder(tuple(range(n, 0, -1)))):
                for t in standard_tableaux(lam, order):
                    assert specht_polynomial(t) == difference_product(t), t

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.sampled_from(enumerate_partitions(n)),
            st.permutations(range(1, n + 1)),
        )
    ))
    def test_any_filling_matches_difference_product(self, case):
        # neither rows nor columns need increase: relabeling holds for every filling
        lam, word = case
        labels = iter(word)
        t = Tableau(tuple(tuple(islice(labels, p)) for p in lam.parts))
        assert specht_polynomial(t) == difference_product(t), t

    def test_each_call_returns_a_fresh_term_map(self):
        t0 = Tableau(((1, 2, 3), (4, 5), (6,)))
        f, g = specht_polynomial(t0), specht_polynomial(t0)
        assert f == g
        assert f._terms is not g._terms
        assert f._terms is not spechtfan.specht._shape_terms((3, 2, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lanes_decode_to_the_expansion(self, n):
        # every shape, every tableau under two orders: each lane decodes to a term of the
        # expansion, and packing under the lex scale packs every term of specht_polynomial
        rng = random.Random(f"lanes|{n}")
        for lam in enumerate_partitions(n):
            lanes = _term_lanes(lam.parts)
            for order in [VariableOrder.identity(n)] + sample_orders(n, 1, rng):
                desc = order.desc0
                scale = _field_scale(desc, 8)
                assert tuple(t for t, *_ in _lane_system(lam, order, scale)) == standard_tableaux(lam, order)
                for t, word, terms, lead in _lane_system(lam, order, scale):
                    f = specht_polynomial(t)
                    assert f == difference_product(t), t
                    decoded = [_lane_term(lanes, word, i) for i in range(len(lanes.coeffs))]
                    assert dict(zip(decoded, lanes.coeffs)) == dict(f.items()), t
                    assert terms == [_pack(e, desc, 8) for e in decoded], t
                    assert decoded[lead] == leading_monomial(f, order), t
            # entries of row d carry exponent d in the closed-form lead; a column of c cells
            # is a Vandermonde product, with exponents up to c - 1
            assert lanes.degree == sum(d * p for d, p in enumerate(lam.parts))
            assert lanes.top == lam.m - 1

    def test_lanes_pack_every_term_at_once(self):
        # (2,1) under 3,1,2: x2 is largest, then x1, then x3
        t = Tableau(((1, 3), (2,)))
        f = specht_polynomial(t)
        desc = VariableOrder.parse("3,1,2").desc0
        lanes = _term_lanes((2, 1))
        packed = _lane_pack(lanes.cols, t.row_word(), _field_scale(desc, 8))
        terms = _lane_list(packed, len(lanes.coeffs))
        assert dict(zip(terms, lanes.coeffs)) == {_pack(e, desc, 8): c for e, c in f.items()}
        assert [_lane(packed, i) for i in range(len(terms))] == terms
        assert _lane_list(sum(lanes.cols), len(lanes.coeffs)) == [1] * len(f)
        assert _lane_list(lanes.ones, 2) == [1, 1]
        assert (lanes.degree, lanes.top) == (1, 1)

    def test_the_lowest_lane_holds_the_lowest_set_bit(self):
        assert _lowest_lane(1) == 0
        assert _lowest_lane(1 << 63) == 0
        assert _lowest_lane(1 << 64) == 1
        assert _lowest_lane((1 << 130) | (1 << 200)) == 2

    def test_the_lane_cache_is_keyed_by_shape_only(self):
        spechtfan.specht._term_lanes.cache_clear()
        lam = Partition.parse("3,2")
        for order in sample_orders(5, 6, random.Random("lane-cache")):
            _specht_basis(lam, order, False)
        info = spechtfan.specht._term_lanes.cache_info()
        # one expansion per dominated shape, whatever the order
        assert (info.misses, info.currsize) == (len(dominated_partitions(lam)),) * 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_leading_monomial_matches_sympy(self, n):
        rng = random.Random(f"expand-lm|{n}")
        for lam in enumerate_partitions(n):
            for order in [VariableOrder.identity(n)] + sample_orders(n, 3, rng):
                for t in standard_tableaux(lam, order):
                    got = leading_monomial(specht_polynomial(t), order)
                    assert got == sympy_lm_exps(specht_expr(t), order)


class TestClosedForm:
    def test_row_positions_become_exponents(self):
        ido = VariableOrder.identity(4)
        t = Tableau(((1, 2), (3, 4)))
        assert closed_form_initial_monomial(t, ido) == (0, 0, 1, 1)
        tall = Tableau(((1, 4), (2,), (3,)))
        assert closed_form_initial_monomial(tall, ido) == (0, 1, 2, 0)

    def test_rejects_non_column_standard(self):
        t = Tableau(((3, 5, 1, 7), (4, 2), (6,)))
        with pytest.raises(ValueError):
            closed_form_initial_monomial(t, VariableOrder.identity(7))

    def test_depends_only_on_row_membership(self):
        ido = VariableOrder.identity(3)
        a = Tableau(((1, 2), (3,)))
        b = Tableau(((2, 1), (3,)))
        assert closed_form_initial_monomial(a, ido) == (0, 0, 1)
        assert closed_form_initial_monomial(b, ido) == (0, 0, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_expansion_identity(self, n):
        ido = VariableOrder.identity(n)
        for lam in all_shapes(n):
            for t in standard_tableaux(lam, ido):
                got = closed_form_initial_monomial(t, ido)
                assert got == sympy_lm_exps(specht_expr(t), ido)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_expansion_sampled_orders(self, n):
        rng = random.Random(f"closed-form|{n}")
        for order in sample_orders(n, 6, rng):
            for lam in all_shapes(n):
                for t in standard_tableaux(lam, order):
                    got = closed_form_initial_monomial(t, order)
                    assert got == sympy_lm_exps(specht_expr(t), order)

    def test_leading_coefficient_is_plus_minus_one(self):
        # the oracle refuses any other lead; the universal system contains the lex one
        seen = 0
        for n in range(2, 6):
            for lam in all_shapes(n):
                for sigma in permutations(range(1, n + 1)):
                    order = VariableOrder(sigma)
                    for t, f in universal_groebner_generators(lam, order):
                        assert f.coefficient(leading_monomial(f, order)) in (1, -1), (lam, order, t)
                        seen += 1
        assert seen == 9866


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

    @pytest.mark.parametrize(
        "build,kind",
        [
            (lambda: minimalize([(1.5, 0), (0, 2.0)]), "float"),
            # 1 == True, so a set would keep only one of the two
            (lambda: minimalize([(1, 0), (True, 0)]), "bool"),
            (lambda: MonomialIdeal(2, ((0.5, 1),)), "float"),
        ],
        ids=["minimalize-float", "minimalize-bool", "ideal-float"],
    )
    def test_float_and_bool_exponents_are_refused(self, build, kind):
        # at a truncating int() these would read <x2^2, x1>, <x1> and <x2>
        with pytest.raises(TypeError, match=f"exponents must be int, got {kind}"):
            build()

    @pytest.mark.parametrize("n,kind", [(True, "bool"), (1.0, "float")], ids=["bool", "float"])
    def test_ring_size_must_be_int(self, n, kind):
        # {1} == {True} == {1.0}, so the length check alone lets both through
        with pytest.raises(TypeError, match=f"ring size must be int, got {kind}"):
            MonomialIdeal(n, ((1,),))

    def test_minimalize_edge_cases(self):
        assert minimalize([(3,), (1,), (2,)]).to_json() == {"n": 1, "min_gens": ((1,),)}
        assert minimalize([(0, 0), (1, 2), (0, 0)]).to_json() == {"n": 2, "min_gens": ((0, 0),)}
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

    @settings(deadline=None, max_examples=20)
    @given(st.integers(3, 7), st.integers(100, 300), st.randoms(use_true_random=False))
    def test_minimalize_matches_naive_on_hundreds_of_generators(self, n, size, rng):
        # degrees within two of 3(n-1) keep most draws minimal, so the kept
        # lanes run into the hundreds; a 2**20 widens every field to 22 bits
        gens = []
        for _ in range(size):
            head = [rng.randint(0, 3) for _ in range(n - 1)]
            tail = rng.choice((0, 1, 2, 2**20)) if rng.random() < 0.05 else rng.randint(0, 2)
            gens.append((*head, 3 * (n - 1) - sum(head) + tail))
        got = list(minimalize(gens).min_gens)
        assert got == sorted(naive_minimalize(gens))

    def test_minimalize_matches_naive_on_a_closed_form_candidate_set(self):
        lam = Partition.parse("6,3,1")
        sigma = list(range(1, 11))
        random.Random("minimalize|6,3,1").shuffle(sigma)
        order = VariableOrder(tuple(sigma))
        candidates = [
            closed_form_initial_monomial(t, order)
            for mu in dominated_partitions(lam, same_first_part=True)
            for t in standard_tableaux(mu, order)
        ]
        got = minimalize(candidates).min_gens
        assert list(got) == sorted(naive_minimalize(candidates))
        assert (len(candidates), len(got)) == (1016, 329)
        # the kept generators span several degrees, so the lanes grow level by level
        assert sorted(set(map(sum, got))) == [5, 6, 7, 10]

    @pytest.mark.parametrize(
        "divided,divisor",
        [((0, 71, 1), (0, 70, 1)), ((71, 0, 1), (70, 0, 1))],
        ids=["lane-0", "last-lane"],
    )
    def test_the_only_divisor_in_the_first_or_last_of_many_lanes(self, divided, divisor):
        # 71 generators of degree 71 fill lanes 0..70 in exponent order, so
        # (0,70,1) sits in lane 0 and (70,0,1) in lane 70
        level = [(i, 70 - i, 1) for i in range(71)]
        assert level[0] == (0, 70, 1) and level[-1] == (70, 0, 1)
        assert [g for g in level if all(map(le, g, divided))] == [divisor]
        free = [(0, 72, 0), (72, 0, 0)]  # one degree up, divided by no lane
        got = minimalize(level + [divided] + free).min_gens
        assert list(got) == sorted(level + free)

    def test_a_full_field_just_below_the_lane_boundary(self):
        # the largest exponent 7 gives w = 4, so 7 = 2**(w-1) - 1 fills every
        # bit under its field's guard; the first variable's field is the top
        # of its lane and the last variable's the bottom, right above the
        # lane below it
        gens = [(7, 0, 0), (0, 0, 7), (7, 1, 0), (1, 0, 7), (0, 1, 7), (6, 0, 2), (6, 2, 0), (0, 2, 6)]
        got = list(minimalize(gens).min_gens)
        assert got == sorted(naive_minimalize(gens))
        assert got == [(0, 0, 7), (0, 2, 6), (6, 0, 2), (6, 2, 0), (7, 0, 0)]

    def test_minimalize_in_zero_and_one_variables(self):
        assert minimalize([()]).to_json() == {"n": 0, "min_gens": ((),)}
        assert minimalize([(), ()]).min_gens == ((),)
        assert minimalize([(0,)]).to_json() == {"n": 1, "min_gens": ((0,),)}
        assert minimalize([(5,), (0,), (9,)]).min_gens == ((0,),)

    def test_constructor_requires_sorted_gens(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 0), (0, 1)))
        # sorted but not minimal: <x2, x2^2> is <x2>, and would compare unequal to it
        with pytest.raises(ValueError, match="minimal"):
            MonomialIdeal(2, ((0, 1), (0, 2)))
        assert MonomialIdeal(2, ((0, 1),)) == minimalize([(0, 1), (0, 2)])

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
        readme = initial_ideal(Partition.parse("2,2"), VariableOrder.identity(4))
        assert str(readme) == "<x3*x4, x2*x4, x2*x3^2>"
        assert ideal.to_json() == {"n": 2, "min_gens": ((0, 1), (2, 0))}


class TestGeneratingSystems:
    def test_counts_for_small_shapes(self):
        ido3 = VariableOrder.identity(3)
        ido4 = VariableOrder.identity(4)
        assert len(lex_groebner_generators(Partition.parse("2,1"), ido3)) == 2
        assert len(universal_groebner_generators(Partition.parse("2,1"), ido3)) == 3
        assert len(lex_groebner_generators(Partition.parse("2,2"), ido4)) == 5
        assert len(universal_groebner_generators(Partition.parse("2,2"), ido4)) == 6

    def test_lex_tableaux_and_marks_for_two_two(self):
        ido = VariableOrder.identity(4)
        sys = lex_groebner_generators(Partition.parse("2,2"), ido)
        tabs = [str(t) for t, _ in sys]
        assert tabs == ["1,2/3,4", "1,3/2,4", "1,2/3/4", "1,3/2/4", "1,4/2/3"]
        marks = [closed_form_initial_monomial(t, ido) for t, _ in sys]
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
        lex = {t.rows for t, _ in lex_groebner_generators(lam, order)}
        uni = {t.rows for t, _ in universal_groebner_generators(lam, order)}
        assert lex < uni

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            lex_groebner_generators(Partition.parse("3"), VariableOrder.identity(3))

    def test_order_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_groebner_generators(Partition.parse("2,1"), VariableOrder.identity(4))

    def test_each_polynomial_is_its_tableau_column_product(self):
        for lam, order in [
            (Partition.parse("2,1"), VariableOrder.identity(3)),
            (Partition.parse("2,2,1"), VariableOrder.parse("4,1,5,2,3")),
            (Partition.parse("3,2,1"), VariableOrder.parse("6,2,4,1,5,3")),
        ]:
            for build in (lex_groebner_generators, universal_groebner_generators):
                for t, f in build(lam, order):
                    assert f == difference_product(t), (build.__name__, t)


class TestInitialIdeal:
    def test_two_one_under_rotations(self):
        lam = Partition.parse("2,1")
        assert initial_ideal(lam, VariableOrder.identity(3)).to_json() == {
            "n": 3,
            "min_gens": ((0, 0, 1), (0, 1, 0)),
        }
        assert initial_ideal(lam, VariableOrder.parse("3,2,1")).to_json() == {
            "n": 3,
            "min_gens": ((0, 1, 0), (1, 0, 0)),
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
        closed_form_initial_monomial(t, order)
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
        assert gap_condition_audit(Partition.parse("2,2"), VariableOrder.identity(4)) == ""

    def test_neighbor_rank_is_recorded(self, monkeypatch):
        # (3,1) has k = 2; at k = 3 the gap 3 - 1 under x4 in 1,2,3/4 is too small
        monkeypatch.setattr(spechtfan.specht, "min_gap_k", lambda lam: 3)
        got = gap_condition_audit(Partition.parse("3,1"), VariableOrder.identity(4))
        assert got == (
            "generator x4 from tableau 1,2,3/4: x4 in row 2, gap 2 with k=3, "
            "x1 above at rank 1, under 1,2,3,4"
        )

    def test_generators_before_the_first_violation_pass(self, monkeypatch):
        # at k = 1 the first generator x3*x4*x5^2 passes (x5 in row 3 of
        # 1,2/3,4/5 under a gap of 1), and the second fails
        monkeypatch.setattr(spechtfan.specht, "min_gap_k", lambda lam: 1)
        got = gap_condition_audit(Partition.parse("2,2,1"), VariableOrder.identity(5))
        assert got == (
            "generator x3*x4^2*x5 from tableau 1,2/3,5/4: x5 in row 2, gap 0 with k=1, "
            "x2 above at rank 2, under 1,2,3,4,5"
        )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_small_shapes_pass(self, n):
        rng = random.Random(f"audit|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 5, rng)
        for lam in all_shapes(n):
            for order in orders:
                assert gap_condition_audit(lam, order) == "", (lam, order)
