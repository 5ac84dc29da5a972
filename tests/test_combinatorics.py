import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtfan.combinatorics
from helpers import brute_standard_tableaux, partition_count
from spechtfan.combinatorics import (
    Partition,
    Tableau,
    VariableOrder,
    _permuter,
    dominance_leq,
    dominated_partitions,
    embed_exponents,
    enumerate_partitions,
    hat,
    is_column_standard,
    is_row_standard,
    is_standard,
    min_gap_k,
    prefix_standardization,
    sample_orders,
    standard_tableau_count,
    standard_tableaux,
)
from spechtfan.errors import CapacityError

partitions_st = st.integers(2, 7).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))
)


def orders_st(n):
    return st.permutations(range(1, n + 1)).map(lambda p: VariableOrder(tuple(p)))


class TestPartition:
    def test_parse_round_trip(self):
        lam = Partition.parse("4,2,1")
        assert lam.parts == (4, 2, 1)
        assert lam.n == 7
        assert lam.m == 3
        assert str(lam) == "4,2,1"

    def test_trailing_zeros_dropped(self):
        assert Partition((3, 1, 0, 0)).parts == (3, 1)

    @pytest.mark.parametrize("bad", ["2,3", "1,-1", "0", "", "a,b"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            Partition.parse(bad)

    def test_part_is_one_based_and_padded(self):
        lam = Partition.parse("2,2")
        assert lam.part(1) == 2
        assert lam.part(2) == 2
        assert lam.part(3) == 0

    def test_repeated_part_flag(self):
        assert Partition.parse("2,2").has_repeated_part()
        assert Partition.parse("3,2,2,1").has_repeated_part()
        assert not Partition.parse("3,1").has_repeated_part()
        assert not Partition.parse("4,2,1").has_repeated_part()


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_matches_dp(self, n):
        assert len(enumerate_partitions(n)) == partition_count(n)

    def test_all_sum_to_n_and_sorted(self):
        for n in range(1, 9):
            lams = enumerate_partitions(n)
            assert all(lam.n == n for lam in lams)
            assert lams[0].parts == (n,)
            assert lams[-1].parts == (1,) * n
            assert [l.parts for l in lams] == sorted(
                (l.parts for l in lams), reverse=True
            )


class TestDominance:
    def test_known_pairs(self):
        assert dominance_leq(Partition.parse("2,2"), Partition.parse("3,1"))
        assert not dominance_leq(Partition.parse("3,1"), Partition.parse("2,2"))
        # incomparable pair
        assert not dominance_leq(Partition.parse("3,3"), Partition.parse("4,1,1"))
        assert not dominance_leq(Partition.parse("4,1,1"), Partition.parse("3,3"))

    @given(partitions_st)
    def test_reflexive_with_extremes(self, lam):
        n = lam.n
        assert dominance_leq(lam, lam)
        assert dominance_leq(Partition((1,) * n), lam)
        assert dominance_leq(lam, Partition((n,)))

    @given(partitions_st)
    def test_dominated_matches_filter(self, lam):
        got = dominated_partitions(lam)
        want = [mu for mu in enumerate_partitions(lam.n) if dominance_leq(mu, lam)]
        assert sorted(got, key=lambda p: p.parts) == sorted(want, key=lambda p: p.parts)
        assert [p.parts for p in got] == sorted((p.parts for p in got), reverse=True)

    @given(partitions_st)
    def test_same_first_part_filter(self, lam):
        got = dominated_partitions(lam, same_first_part=True)
        assert all(mu.parts[0] == lam.parts[0] for mu in got)
        full = dominated_partitions(lam)
        assert set(p.parts for p in got) == {
            p.parts for p in full if p.parts[0] == lam.parts[0]
        }


class TestGapAndHat:
    @pytest.mark.parametrize(
        "parts,k",
        [("2,2", 0), ("3,1", 2), ("6,1", 5), ("4,2,1", 1), ("2,1,1", 0), ("3,2", 1)],
    )
    def test_min_gap(self, parts, k):
        assert min_gap_k(Partition.parse(parts)) == k

    def test_min_gap_needs_second_row(self):
        with pytest.raises(ValueError):
            min_gap_k(Partition.parse("5"))

    @pytest.mark.parametrize(
        "parts,expected",
        [
            ("2,2", "1,1,1"),
            ("4,2,1", "3,2,1"),
            ("3,1", "2,1"),
            ("2,1", "1,1"),
            ("6,1", "5,1"),
            ("3,3", "2,2,1"),
        ],
    )
    def test_hat_examples(self, parts, expected):
        assert hat(Partition.parse(parts)) == Partition.parse(expected)

    def test_hat_needs_wide_first_row(self):
        with pytest.raises(ValueError):
            hat(Partition((1, 1, 1)))

    @given(partitions_st.filter(lambda p: p.parts[0] >= 2))
    def test_hat_shape_laws(self, lam):
        h = hat(lam)
        assert h.n == lam.n - 1
        assert h.parts[0] == lam.parts[0] - 1
        # prefix sums stay strictly below those of the source shape
        for i in range(1, h.m + 1):
            assert sum(h.parts[:i]) <= sum(lam.part(j) for j in range(1, i + 1)) - 1


class TestVariableOrder:
    def test_identity_and_parse(self):
        ido = VariableOrder.identity(4)
        assert ido.sigma == (1, 2, 3, 4)
        assert VariableOrder.parse("2,3,1").sigma == (2, 3, 1)

    @pytest.mark.parametrize("make", [lambda: VariableOrder(()), lambda: VariableOrder.identity(0)])
    def test_zero_variables_are_refused(self, make):
        with pytest.raises(ValueError, match="n must be at least 1"):
            make()

    @pytest.mark.parametrize("bad", ["1,1", "1,3", "0,1", "", "2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            VariableOrder.parse(bad)

    def test_apply_rank_largest(self):
        o = VariableOrder.parse("3,1,2")
        assert o.apply(1) == 3
        assert o.rank_of(3) == 1
        assert o.rank_of(2) == 3
        assert o.largest == 2

    def test_sample_orders_distinct_and_deterministic(self):
        a = sample_orders(4, 10, random.Random("seed-a"))
        b = sample_orders(4, 10, random.Random("seed-a"))
        assert a == b
        assert len(set(a)) == len(a) == 10
        small = sample_orders(2, 10, random.Random("x"))
        assert len(small) == 2

    def test_sample_orders_refuses_n_above_8_before_listing_orders(self, monkeypatch):
        def refuse(n):
            raise AssertionError("all n! orders were listed before the size check")

        monkeypatch.setattr(spechtfan.combinatorics, "_all_one_line", refuse)
        for count in (1, 10**6):
            with pytest.raises(CapacityError, match="sampling limit 8"):
                sample_orders(9, count, random.Random("big"))


def scatter(sigma, exps):
    """Give variable sigma(a) the exponent of variable a, one entry at a time."""
    out = [None] * len(sigma)
    for a, e in enumerate(exps, start=1):
        out[sigma[a - 1] - 1] = e
    return tuple(out)


class TestPermuter:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_a_scatter_loop_for_every_sigma(self, n):
        exps = tuple(range(10, 10 + n))  # distinct entries, so any misplacement shows
        for sigma in permutations(range(1, n + 1)):
            got = _permuter(sigma)(exps)
            assert type(got) is tuple
            assert got == scatter(sigma, exps), sigma

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_a_left_action(self, n):
        # a permuter that gathered instead of scattered would compose as tau∘sigma
        exps = tuple(range(10, 10 + n))
        perms = list(permutations(range(1, n + 1)))
        for sigma in perms:
            for tau in perms:
                composed = tuple(sigma[t - 1] for t in tau)  # a -> sigma(tau(a))
                want = _permuter(composed)(exps)
                assert _permuter(sigma)(_permuter(tau)(exps)) == want, (sigma, tau)


class TestTableau:
    def test_positions(self):
        t = Tableau(((1, 2), (3,)))
        assert t.shape == Partition.parse("2,1")
        assert t.row_of(3) == 2
        assert t.column_of(2) == 2
        assert t.column(1) == (1, 3)
        assert str(t) == "1,2/3"

    def test_rejects_bad_fillings(self):
        with pytest.raises(ValueError):
            Tableau(((1, 2), (2,)))
        with pytest.raises(ValueError):
            Tableau(((1,), (2, 3)))

    def test_standard_predicates(self):
        ido = VariableOrder.identity(4)
        good = Tableau(((1, 2), (3, 4)))
        assert is_standard(good, ido)
        cols_only = Tableau(((2, 1), (3, 4)))
        assert is_column_standard(cols_only, ido)
        assert not is_row_standard(cols_only, ido)


class TestStandardTableaux:
    @pytest.mark.parametrize(
        "parts,count",
        [("2,1", 2), ("2,2", 2), ("3,1", 3), ("2,1,1", 3), ("3,2", 5), ("2,2,1", 5)],
    )
    def test_known_counts(self, parts, count):
        lam = Partition.parse(parts)
        assert len(standard_tableaux(lam, VariableOrder.identity(lam.n))) == count

    def test_trivial_shapes(self):
        assert len(standard_tableaux(Partition.parse("4"), VariableOrder.identity(4))) == 1
        assert len(standard_tableaux(Partition((1, 1, 1)), VariableOrder.identity(3))) == 1

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.sampled_from(enumerate_partitions(n)),
            st.permutations(range(1, n + 1)),
        )
    ))
    def test_matches_brute_force(self, case):
        lam, perm = case
        order = VariableOrder(tuple(perm))
        got = standard_tableaux(lam, order)
        want = brute_standard_tableaux(lam, order)
        assert sorted(t.rows for t in got) == sorted(t.rows for t in want)
        assert all(is_standard(t, order) for t in got)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_built_tableaux_equal_checked_ones(self, n):
        orders = [VariableOrder.identity(n)] + sample_orders(n, 4, random.Random(f"wrap|{n}"))
        for lam in enumerate_partitions(n):
            for order in orders:
                for t in standard_tableaux(lam, order):
                    checked = Tableau(t.rows)
                    assert t == checked
                    for e in range(1, n + 1):
                        assert t.row_of(e) == checked.row_of(e), (t, e)
                        assert t.column_of(e) == checked.column_of(e), (t, e)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_hook_length_count_matches_brute_force(self, n):
        ido = VariableOrder.identity(n)
        for lam in enumerate_partitions(n):
            assert standard_tableau_count(lam) == len(brute_standard_tableaux(lam, ido))

    @pytest.mark.parametrize("parts,count", [("5,5", 42), ("3,3,3", 42), ("4,4,4", 462)])
    def test_hook_length_count_known_values(self, parts, count):
        lam = Partition.parse(parts)
        assert standard_tableau_count(lam) == count
        assert len(standard_tableaux(lam, VariableOrder.identity(lam.n))) == count

    def test_count_is_order_free(self):
        lam = Partition.parse("3,2")
        counts = {
            len(standard_tableaux(lam, o))
            for o in sample_orders(5, 12, random.Random("cnt"))
        }
        assert counts == {5}


class TestPrefixStandardization:
    def test_identity(self):
        inner, removed, asc = prefix_standardization(VariableOrder.identity(4))
        assert inner == VariableOrder.identity(3)
        assert removed == 4
        assert asc == (1, 2, 3)

    def test_mixed(self):
        inner, removed, asc = prefix_standardization(VariableOrder.parse("2,1,4,3"))
        assert removed == 3
        assert asc == (1, 2, 4)
        assert inner == VariableOrder.parse("2,1,3")

    @settings(deadline=None, max_examples=40)
    @given(st.integers(3, 7).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_rank_consistency(self, perm):
        order = VariableOrder(tuple(perm))
        inner, removed, asc = prefix_standardization(order)
        assert removed == order.largest
        assert asc == tuple(sorted(set(perm) - {removed}))
        assert inner.n == order.n - 1
        pos = {v: i for i, v in enumerate(asc, start=1)}
        for i in range(1, order.n):
            assert inner.apply(i) == pos[order.apply(i)]

    def test_embed_exponents(self):
        _, removed, asc = prefix_standardization(VariableOrder.parse("2,1,4,3"))
        out = embed_exponents((5, 6, 7), 4, asc)
        assert out == (5, 6, 0, 7)
        assert out[removed - 1] == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition((2.7, 1)),
        lambda: VariableOrder((1.5, 2.2, 3.9)),
        lambda: Tableau(((1.0, 2.9), (3.2,))),
    ],
    ids=["partition", "order", "tableau"],
)
def test_float_entries_are_refused(build):
    # int() would truncate each of these to a valid value: 2,1 / 1,2,3 / 1,2/3
    with pytest.raises(TypeError, match="must be int, got float"):
        build()
