import json
import random
from itertools import permutations
from math import factorial

import jsonschema
import pytest

import spechtfan.fan
from helpers import brute_fan
from spechtfan.combinatorics import (
    Partition,
    VariableOrder,
    _permuter,
    enumerate_partitions,
    min_gap_k,
    sample_orders,
    standard_tableaux,
)
from spechtfan.errors import CapacityError
from spechtfan.fan import (
    _FIELD,
    _TAIL,
    DEFAULT_ENUMERATION_LIMIT,
    _degree_values,
    _order_groups,
    elimination_identity_check,
    enumerate_fan,
    monotonicity_check,
    order_class_predictor,
    theorem_count,
)
from spechtfan.reporting import json_text
from spechtfan.specht import MonomialIdeal, initial_ideal

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


def permuter_classes(lam):
    """The fan's classes as (generators, orders) in key order, each order
    acting on the identity ideal's generators through the sigma-action."""
    base = initial_ideal(lam, VariableOrder.identity(lam.n)).min_gens
    groups = {}
    for s in permutations(range(1, lam.n + 1)):
        groups.setdefault(tuple(sorted(map(_permuter(s), base))), []).append(s)
    return [(gens, tuple(groups[gens])) for gens in sorted(groups)]


def fan_classes(lam):
    return [(ideal.min_gens, orders) for ideal, orders in enumerate_fan(lam).classes.items()]


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

    @pytest.mark.parametrize("parts", ["7,1", "6,2", "5,3", "4,4", "1,1,1,1,1,1,1,1"])
    def test_full_lane_width_keeps_the_class_order(self, parts):
        # at n = 8 a head part fills four 3-bit fields and a tail row four more;
        # (4,4) has k = 0, so all 40,320 classes must come out sorted by their
        # generators, and (1^8) puts the exponent 7, all three bits set, in a decode
        lam = Partition.parse(parts)
        assert fan_classes(lam) == permuter_classes(lam)

    @pytest.mark.parametrize("parts", ["1,1", "2,1", "2,2", "3,1,1", "3,2,1", "4,2,1"])
    def test_every_head_length_keeps_the_class_order(self, parts):
        # n = 2..7 walks tau as a head of 0, 0, 0, 1, 2 and 3 entries before its
        # placed tail; with no head, every generator is in one block
        lam = Partition.parse(parts)
        assert fan_classes(lam) == permuter_classes(lam)

    @pytest.mark.parametrize("lam", shapes(6), ids=str)
    def test_every_n6_shape_keeps_the_class_order(self, lam):
        # a head of 2 entries: blocks of one generator and of several, for every k
        assert fan_classes(lam) == permuter_classes(lam)

    @pytest.mark.parametrize("parts", ["3,3", "4,3", "5,3"])
    def test_classes_share_one_tuple_per_generator(self, parts):
        # the JSON writer renders each distinct generator once because it is one object
        ideals = enumerate_fan(Partition.parse(parts)).classes
        gens = [g for ideal in ideals for g in ideal.min_gens]
        assert len({id(g) for g in gens}) == len(set(gens)) < len(gens)

    def test_an_exponent_wider_than_a_field_is_refused(self, monkeypatch):
        # 8 = 0b1000 would carry into the field of the next variable
        wide = MonomialIdeal(3, ((0, 1, 0), (8, 0, 0)))
        monkeypatch.setattr(spechtfan.fan, "initial_ideal", lambda lam, order: wide)
        with pytest.raises(CapacityError, match="exponent 8 does not fit the 3-bit field"):
            enumerate_fan(Partition.parse("2,1"))

    def test_enumeration_limit_fits_one_lane(self):
        # every shape the fan enumerates has exponents up to 7, so no 3-bit field
        # carries; a decoded generator fills n <= 8 fields, 24 bits, and a head part
        # its n - 4 <= 4 fields above the tail-set index in a 64-bit lane
        assert _FIELD * DEFAULT_ENUMERATION_LIMIT <= 24
        for n in range(2, DEFAULT_ENUMERATION_LIMIT + 1):
            for lam in shapes(n):
                gens = initial_ideal(lam, VariableOrder.identity(n)).min_gens
                assert max(map(max, gens)) <= 7, lam
        for parts in ["5,3", "3,3,2"]:
            _, tails = _order_groups(Partition.parse(parts), orders=False)
            assert len(tails).bit_length() + _FIELD * (DEFAULT_ENUMERATION_LIMIT - _TAIL) <= 64

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_order_groups_count_the_classes(self, n):
        # `count` reads the number of groups and builds no ideal and no order
        for lam in shapes(n):
            groups, _ = _order_groups(lam, orders=False)
            assert set(groups.values()) == {None}, lam
            assert groups.keys() == _order_groups(lam)[0].keys()
            assert len(groups) == enumerate_fan(lam).distinct_count, lam

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

    def test_capacity_guard(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an initial ideal was built before the size check")

        monkeypatch.setattr(spechtfan.fan, "initial_ideal", refuse)
        with pytest.raises(CapacityError, match="enumeration limit 8"):
            enumerate_fan(Partition.parse("8,1"))
        with pytest.raises(ValueError):
            enumerate_fan(Partition.parse("3"))

    def test_summary_accessors(self):
        summary = enumerate_fan(Partition.parse("2,2"))
        lookup = {o: ideal for ideal, orders in summary.classes.items() for o in orders}
        assert len(lookup) == summary.total_orders == 24
        assert summary.distinct_count == len(summary.classes)
        for ideal, orders in summary.classes.items():
            assert orders[0] == min(orders)
            assert all(lookup[o] == ideal for o in orders)

    def test_json_shape(self):
        # the report's bytes, as a reader parses them: to_json keeps the ideals' tuples
        doc = json.loads(json_text(enumerate_fan(Partition.parse("3,1")).to_json()))
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

    def test_class_key_anchor(self):
        # head = n-k-1 positions in order, the rest as a set
        assert spechtfan.fan._class_key(2, (1, 2, 4, 3)) == ((1, 2), frozenset({3, 4}))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            order_class_predictor(
                Partition.parse("2,1"),
                VariableOrder.identity(3).sigma,
                VariableOrder.identity(4).sigma,
            )

    @pytest.mark.parametrize(
        "sigma, error",
        [((1, 1, 1), ValueError), ((1, 1, 3), ValueError), ((1, 2, 3.0), TypeError)],
    )
    def test_rejects_an_order_that_is_not_a_permutation(self, sigma, error):
        lam = Partition.parse("2,1")
        with pytest.raises(error):
            order_class_predictor(lam, sigma, (1, 2, 3))
        with pytest.raises(error):
            order_class_predictor(lam, (1, 2, 3), sigma)

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_fan_exhaustively(self, n):
        for lam in shapes(n):
            classes = enumerate_fan(lam).classes
            lookup = {o: ideal for ideal, orders in classes.items() for o in orders}
            orders = [VariableOrder(s) for s in sorted(lookup)]
            for a in orders:
                for b in orders:
                    predicted = order_class_predictor(lam, a.sigma, b.sigma)
                    assert predicted == (lookup[a.sigma] is lookup[b.sigma]), (lam, a, b)


def degrees(lam, order):
    """Sum of initial-monomial exponents of each variable over STab(lam)."""
    return _degree_values(lam.n, standard_tableaux(lam, order))


class TestDegrees:
    def test_anchors(self):
        assert degrees(Partition.parse("2,1"), VariableOrder.identity(3)) == (0, 1, 1)
        assert degrees(Partition.parse("2,2"), VariableOrder.identity(4)) == (0, 1, 1, 2)
        assert degrees(Partition.parse("1,1"), VariableOrder.identity(2)) == (0, 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_total_mass(self, n):
        # each tableau contributes (row index - 1) per box, independent of the filling
        rng = random.Random(f"degmass|{n}")
        for lam in shapes(n):
            per_tableau = sum((i - 1) * p for i, p in enumerate(lam.parts, start=1))
            for order in sample_orders(n, 4, rng):
                stat = degrees(lam, order)
                count = len(standard_tableaux(lam, order))
                assert sum(stat) == count * per_tableau


class TestMonotonicity:
    def test_two_two_identity_pairs(self):
        # degrees (0, 1, 1, 2): the middle pair is an equality and no tableau
        # shares its column; the outer pairs are strict and share one
        assert monotonicity_check(Partition.parse("2,2"), VariableOrder.identity(4)) == ""

    @pytest.mark.parametrize(
        "values,line",
        [
            # x2 < x3 strictly, yet no standard tableau of (2,2) puts 2 and 3 in one column
            ((0, 1, 2, 2), "positions 2,3: x2 has degree 1, x3 has 2, no shared column"),
            # a decrease fails whatever the columns say
            ((1, 0, 1, 2), "positions 1,2: x1 has degree 1, x2 has 0, shared column"),
            # the first two pairs pass; 3 and 4 share a column of 1,3/2,4 but tie
            ((0, 1, 1, 1), "positions 3,4: x3 has degree 1, x4 has 1, shared column"),
        ],
        ids=["strict-apart", "decrease", "tie-in-a-column"],
    )
    def test_tampered_degrees_name_the_first_failing_pair(self, monkeypatch, values, line):
        monkeypatch.setattr(spechtfan.fan, "_degree_values", lambda n, tabs: values)
        got = monotonicity_check(Partition.parse("2,2"), VariableOrder.identity(4))
        assert got == f"{line}, under 1,2,3,4"

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small_shapes_pass(self, n):
        rng = random.Random(f"mono|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 3, rng)
        for lam in shapes(n):
            for order in orders:
                assert monotonicity_check(lam, order) == "", (lam, order)


class TestEliminationIdentity:
    def test_two_two_identity(self):
        assert elimination_identity_check(Partition.parse("2,2"), VariableOrder.identity(4)) == ""

    @pytest.mark.parametrize(
        "hat_gen,line",
        [
            # the one generator of (2,2) free of x4 is x2*x3^2 = (0,1,2,0)
            ((0, 2, 1), "generator x2*x3^2 is free of x4, not from hat=1,1,1"),
            ((0, 0, 3), "generator x3^3 is from hat=1,1,1 only"),
        ],
        ids=["left-only", "hat-only"],
    )
    def test_a_tampered_hat_ideal_names_a_generator(self, monkeypatch, hat_gen, line):
        real = spechtfan.fan.initial_ideal

        def tampered(lam, order):
            return MonomialIdeal(3, (hat_gen,)) if lam.n == 3 else real(lam, order)

        monkeypatch.setattr(spechtfan.fan, "initial_ideal", tampered)
        got = elimination_identity_check(Partition.parse("2,2"), VariableOrder.identity(4))
        assert got == f"{line}, under 1,2,3,4"

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
                assert elimination_identity_check(lam, order) == "", (lam, order)


class TestAgainstWeightForms:
    def test_each_class_is_initial_ideal_stable(self):
        # ideals attached to classes equal a fresh computation at the representative
        for lam in shapes(4):
            summary = enumerate_fan(lam)
            for ideal, orders in summary.classes.items():
                assert initial_ideal(lam, VariableOrder(orders[0])) == ideal
