import random
from math import factorial

import jsonschema
import pytest

from helpers import brute_fan
from spechtfan.combinatorics import (
    Partition,
    VariableOrder,
    enumerate_partitions,
    min_gap_k,
    sample_orders,
    standard_tableaux,
)
from spechtfan.errors import CapacityError
from spechtfan.fan import (
    degree_statistic,
    elimination_identity_check,
    enumerate_fan,
    monotonicity_check,
    order_class_predictor,
    theorem_count,
)
from spechtfan.specht import initial_ideal

FAN_SCHEMA = {
    "type": "object",
    "required": ["lambda", "n", "k", "total_orders", "distinct_count", "classes"],
    "properties": {
        "lambda": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "n": {"type": "integer", "minimum": 2},
        "k": {"type": "integer", "minimum": 0},
        "total_orders": {"type": "integer", "minimum": 2},
        "distinct_count": {"type": "integer", "minimum": 1},
        "classes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ideal", "size", "representative"],
                "properties": {
                    "ideal": {
                        "type": "object",
                        "required": ["n", "min_gens"],
                        "properties": {
                            "n": {"type": "integer"},
                            "min_gens": {
                                "type": "array",
                                "items": {
                                    "type": "array",
                                    "items": {"type": "integer", "minimum": 0},
                                },
                            },
                        },
                    },
                    "size": {"type": "integer", "minimum": 1},
                    "representative": {"type": "array"},
                },
            },
        },
    },
}


def shapes(n):
    return [lam for lam in enumerate_partitions(n) if lam.m >= 2]


class TestTheoremCount:
    @pytest.mark.parametrize(
        "parts,count",
        [
            ("2,1", 3),
            ("2,2", 24),
            ("3,1", 4),
            ("2,1,1", 24),
            ("4,3", 2520),
            ("6,1", 7),
        ],
    )
    def test_anchors(self, parts, count):
        assert theorem_count(Partition.parse(parts)) == count

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            theorem_count(Partition.parse("4"))


class TestEnumerateFan:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_order_by_order_recomputation(self, n):
        for lam in shapes(n):
            summary = enumerate_fan(lam)
            assert summary.classes == brute_fan(lam)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_and_class_sizes(self, n):
        for lam in shapes(n):
            summary = enumerate_fan(lam)
            k = min_gap_k(lam)
            assert summary.k == k
            assert summary.total_orders == factorial(n)
            assert summary.distinct_count == theorem_count(lam)
            assert len(summary.classes) == summary.distinct_count
            assert all(len(v) == factorial(k + 1) for v in summary.classes.values())

    def test_two_one_classes_exactly(self):
        summary = enumerate_fan(Partition.parse("2,1"))
        got = {
            ideal.min_gens: orders for ideal, orders in summary.classes.items()
        }
        assert got == {
            ((0, 0, 1), (0, 1, 0)): ((1, 2, 3), (1, 3, 2)),
            ((0, 0, 1), (1, 0, 0)): ((2, 1, 3), (2, 3, 1)),
            ((0, 1, 0), (1, 0, 0)): ((3, 1, 2), (3, 2, 1)),
        }

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_fan(Partition.parse("8,1"))
        with pytest.raises(CapacityError):
            enumerate_fan(Partition.parse("2,1"), limit=2)
        with pytest.raises(ValueError):
            enumerate_fan(Partition.parse("3"))

    def test_summary_accessors(self):
        summary = enumerate_fan(Partition.parse("2,2"))
        lookup = summary.order_to_ideal()
        assert len(lookup) == 24
        for ideal, orders in summary.classes.items():
            assert summary.representative(ideal) == orders[0]
            assert orders[0] == min(orders)
            assert all(lookup[o] == ideal for o in orders)

    def test_json_shape(self):
        doc = enumerate_fan(Partition.parse("3,1")).to_json()
        jsonschema.validate(doc, FAN_SCHEMA)
        assert doc["lambda"] == [3, 1]
        assert doc["distinct_count"] == 4
        assert sum(c["size"] for c in doc["classes"]) == doc["total_orders"]


class TestOrderClassPredictor:
    def test_zero_gap_means_identical_orders(self):
        lam = Partition.parse("2,2")
        a = VariableOrder.parse("1,2,3,4")
        b = VariableOrder.parse("1,2,4,3")
        assert order_class_predictor(lam, a.sigma, a.sigma)
        assert not order_class_predictor(lam, a.sigma, b.sigma)

    def test_wide_gap_frees_the_tail(self):
        lam = Partition.parse("3,1")  # k = 2: only the first position binds
        a = VariableOrder.parse("2,1,3,4")
        b = VariableOrder.parse("2,4,3,1")
        c = VariableOrder.parse("1,2,3,4")
        assert order_class_predictor(lam, a.sigma, b.sigma)
        assert not order_class_predictor(lam, a.sigma, c.sigma)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            order_class_predictor(
                Partition.parse("2,1"),
                VariableOrder.identity(3).sigma,
                VariableOrder.identity(4).sigma,
            )

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_fan_exhaustively(self, n):
        for lam in shapes(n):
            lookup = enumerate_fan(lam).order_to_ideal()
            orders = [VariableOrder(s) for s in sorted(lookup)]
            for a in orders:
                for b in orders:
                    predicted = order_class_predictor(lam, a.sigma, b.sigma)
                    assert predicted == (lookup[a.sigma] is lookup[b.sigma]), (lam, a, b)


class TestDegreeStatistic:
    def test_anchors(self):
        assert degree_statistic(
            Partition.parse("2,1"), VariableOrder.identity(3)
        ).values == (0, 1, 1)
        assert degree_statistic(
            Partition.parse("2,2"), VariableOrder.identity(4)
        ).values == (0, 1, 1, 2)
        assert degree_statistic(
            Partition.parse("1,1"), VariableOrder.identity(2)
        ).values == (0, 1)

    def test_value_of_is_one_based(self):
        stat = degree_statistic(Partition.parse("2,2"), VariableOrder.identity(4))
        assert stat.value_of(4) == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_total_mass(self, n):
        # each tableau contributes (row index - 1) per box, independent of the filling
        rng = random.Random(f"degmass|{n}")
        for lam in shapes(n):
            per_tableau = sum((i - 1) * p for i, p in enumerate(lam.parts, start=1))
            for order in sample_orders(n, 4, rng):
                stat = degree_statistic(lam, order)
                count = len(standard_tableaux(lam, order))
                assert sum(stat.values) == count * per_tableau


class TestMonotonicity:
    def test_two_two_identity_pairs(self):
        rep = monotonicity_check(Partition.parse("2,2"), VariableOrder.identity(4))
        assert rep.passed
        assert rep.values == (0, 1, 1, 2)
        flags = [(p.strict, p.witness) for p in rep.pairs]
        # the middle pair is an equality and no tableau shares its column
        assert flags == [(True, True), (False, False), (True, True)]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small_shapes_pass(self, n):
        rng = random.Random(f"mono|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 3, rng)
        for lam in shapes(n):
            for order in orders:
                rep = monotonicity_check(lam, order)
                assert rep.passed, (lam, order, rep.failures)
                assert len(rep.pairs) == n - 1


class TestEliminationIdentity:
    def test_two_two_identity(self):
        rep = elimination_identity_check(Partition.parse("2,2"), VariableOrder.identity(4))
        assert not rep.skipped
        assert rep.hat_partition == Partition.parse("1,1,1")
        assert rep.lhs == ((0, 1, 2, 0),)
        assert rep.equal and rep.passed

    def test_preconditions(self):
        with pytest.raises(ValueError):
            elimination_identity_check(Partition.parse("1,1,1"), VariableOrder.identity(3))
        with pytest.raises(ValueError):
            elimination_identity_check(Partition.parse("3"), VariableOrder.identity(3))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_small_shapes_pass(self, n):
        rng = random.Random(f"elim|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 3, rng)
        for lam in shapes(n):
            if lam.parts[0] < 2:
                continue
            for order in orders:
                rep = elimination_identity_check(lam, order)
                assert rep.passed, (lam, order)
                # the filtered side really is free of the top variable
                top = order.largest
                assert all(e[top - 1] == 0 for e in rep.lhs)


class TestAgainstWeightForms:
    def test_each_class_is_initial_ideal_stable(self):
        # ideals attached to classes equal a fresh computation at the representative
        for lam in shapes(4):
            summary = enumerate_fan(lam)
            for ideal in summary.classes:
                rep = summary.representative(ideal)
                assert initial_ideal(lam, VariableOrder(rep)) == ideal
