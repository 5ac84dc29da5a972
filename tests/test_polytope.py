from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtfan.fan
import spechtfan.polytope
from helpers import in_hull_exact
from spechtfan.combinatorics import Partition, VariableOrder
from spechtfan.errors import CapacityError, TheoremViolationError
from spechtfan.fan import enumerate_fan
from spechtfan.polyring import WeightVector
from spechtfan.polytope import (
    PNK_COORDINATE_LIMIT,
    PNK_VERTEX_LIMIT,
    BraidCone,
    PointSet,
    braid_refinement_check,
    cone_membership,
    edge_direction_violations,
    interior_sample,
    is_extreme_point,
    pnk_vertices,
    vertex_for_order,
    vertex_ideal_bijection,
    weight_initial_ideal,
)
from spechtfan.specht import initial_ideal

cones_st = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.permutations(range(1, n + 1)).map(lambda p: VariableOrder(tuple(p))),
        st.integers(0, n - 1),
        st.integers(0, 10_000),
    )
)


class TestPointSet:
    def test_normalizes_sorted_and_deduped(self):
        ps = PointSet(((2, 1), (1, 2), (2, 1)))
        assert ps.points == ((1, 2), (2, 1))
        assert len(ps) == 2
        assert (2, 1) in ps
        assert (3, 0) not in ps
        assert ps.n == 2
        assert ps.coordinate_sum() == 3
        assert ps.to_json() == [[1, 2], [2, 1]]

    def test_validation(self):
        with pytest.raises(ValueError):
            PointSet(())
        with pytest.raises(ValueError):
            PointSet(((1, 2), (1, 2, 0)))
        with pytest.raises(ValueError):
            PointSet(((1, 2), (2, 2)))

    def test_affine_dimension(self):
        assert PointSet(((1, 2, 3),)).affine_dimension() == 0
        assert PointSet(((1, 2), (2, 1))).affine_dimension() == 1
        square = PointSet(((0, 0, 2), (0, 2, 0), (2, 0, 0), (1, 1, 0), (0, 1, 1)))
        assert square.affine_dimension() == 2


class TestPnkVertices:
    def test_three_one(self):
        assert pnk_vertices(3, 1).points == ((1, 2, 2), (2, 1, 2), (2, 2, 1))

    def test_full_permutohedron(self):
        ps = pnk_vertices(4, 0)
        assert len(ps) == 24
        assert (1, 2, 3, 4) in ps and (4, 3, 2, 1) in ps

    @pytest.mark.parametrize("n", range(2, 9))
    def test_top_k_is_a_simplex(self, n):
        ps = pnk_vertices(n, n - 2)
        assert len(ps) == n
        assert ps.affine_dimension() == n - 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_counts_and_sums(self, n):
        for k in range(0, n - 1):
            ps = pnk_vertices(n, k)
            assert len(ps) == factorial(n) // factorial(k + 1)
            assert ps.coordinate_sum() == (n - k - 1) * (n - k) // 2 + (k + 1) * (n - k)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_affine_dimension_is_n_minus_one(self, n):
        for k in range(0, n - 1):
            assert pnk_vertices(n, k).affine_dimension() == n - 1

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            pnk_vertices(4, 3)
        with pytest.raises(ValueError):
            pnk_vertices(4, -1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_all_coordinate_permutations(self, n):
        for k in range(0, n - 1):
            u = tuple(range(1, n - k)) + (n - k,) * (k + 1)
            assert set(pnk_vertices(n, k).points) == set(permutations(u))

    def test_vertex_limit_is_checked_first(self):
        assert len(pnk_vertices(9, 0)) == PNK_VERTEX_LIMIT
        with pytest.raises(CapacityError):
            pnk_vertices(10, 0)
        with pytest.raises(CapacityError):
            pnk_vertices(40, 0)

    def test_coordinate_limit_is_checked_first(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(spechtfan.polytope, "permutations", reached)
        # 1807 points of 1807 coordinates stay within 9 * 9!, 1808 of 1808 do not
        assert 1807 * 1807 <= PNK_COORDINATE_LIMIT < 1808 * 1808
        with pytest.raises(Reached):
            pnk_vertices(1807, 1805)
        for n, k in [(1808, 1806), (10**6, 10**6 - 2), (10**4000, 0), (10**4000, 10**4000 - 2)]:
            with pytest.raises(CapacityError):
                pnk_vertices(n, k)


class TestBraidCone:
    def test_validation(self):
        order = VariableOrder.identity(3)
        BraidCone(order, 2)
        with pytest.raises(ValueError):
            BraidCone(order, 3)
        with pytest.raises(ValueError):
            BraidCone(order, -1)

    def test_class_key(self):
        cone = BraidCone(VariableOrder.parse("1,2,4,3"), 1)
        assert cone.class_key() == ((1, 2), frozenset({3, 4}))

    def test_membership_anchors(self):
        ido = VariableOrder.identity(3)
        assert cone_membership(WeightVector.of([0, 1, 5]), BraidCone(ido, 0))
        assert cone_membership(WeightVector.of([0, 5, 1]), BraidCone(ido, 1))
        assert not cone_membership(WeightVector.of([5, 0, 1]), BraidCone(ido, 1))
        assert not cone_membership(WeightVector.of([0, 5, 1]), BraidCone(ido, 0))

    def test_boundary_weights_are_members(self):
        ido = VariableOrder.identity(3)
        assert cone_membership(WeightVector.of([1, 1, 1]), BraidCone(ido, 0))

    def test_top_k_cone_is_everything(self):
        cone = BraidCone(VariableOrder.parse("3,1,2"), 2)
        assert cone_membership(WeightVector.of([-4, 17, Fraction(1, 3)]), cone)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cone_membership(WeightVector.of([1, 2]), BraidCone(VariableOrder.identity(3), 0))


class TestInteriorSample:
    @settings(deadline=None, max_examples=80)
    @given(cones_st)
    def test_member_distinct_deterministic(self, case):
        order, k, seed = case
        cone = BraidCone(order, k)
        w = interior_sample(cone, seed)
        assert cone_membership(w, cone)
        assert len(set(w.weights)) == order.n
        assert interior_sample(cone, seed) == w

    def test_strictness_along_the_chain(self):
        cone = BraidCone(VariableOrder.identity(5), 1)
        w = interior_sample(cone, 7).weights
        assert w[0] < w[1] < w[2]
        assert w[2] < w[3] and w[2] < w[4]

    @pytest.mark.parametrize("n", [3, 4])
    def test_cone_equality_matches_class_key(self, n):
        from itertools import permutations

        for k in range(0, n):
            cones = [BraidCone(VariableOrder(s), k) for s in permutations(range(1, n + 1))]
            for a in cones:
                for b in cones:
                    same_key = a.class_key() == b.class_key()
                    # mutual containment of interior samples decides set equality
                    # because the samples are strictly interior
                    ab = all(
                        cone_membership(interior_sample(a, s), b) for s in range(3)
                    )
                    ba = all(
                        cone_membership(interior_sample(b, s), a) for s in range(3)
                    )
                    assert same_key == (ab and ba), (a, b)


class TestVertexCorrespondence:
    def test_vertex_for_order_anchor(self):
        assert vertex_for_order(3, 1, VariableOrder.identity(3).sigma) == (1, 2, 2)
        assert vertex_for_order(3, 1, VariableOrder.parse("2,1,3").sigma) == (2, 1, 2)
        assert vertex_for_order(4, 0, VariableOrder.parse("4,3,2,1").sigma) == (4, 3, 2, 1)
        with pytest.raises(ValueError):
            vertex_for_order(4, 0, VariableOrder.identity(3).sigma)

    def test_two_one_bijection(self):
        got = vertex_ideal_bijection(Partition.parse("2,1"))
        assert {
            v: ideal.min_gens for v, ideal in got.items()
        } == {
            (1, 2, 2): ((0, 0, 1), (0, 1, 0)),
            (2, 1, 2): ((0, 0, 1), (1, 0, 0)),
            (2, 2, 1): ((0, 1, 0), (1, 0, 0)),
        }

    def test_two_two_bijection_count(self):
        got = vertex_ideal_bijection(Partition.parse("2,2"))
        assert len(got) == 24
        assert set(got) == set(pnk_vertices(4, 0).points)
        ideals = list(got.values())
        assert len({i.min_gens for i in ideals}) == 24

    @pytest.mark.parametrize("n", [4, 5])
    def test_hook_shape_bijection(self, n):
        lam = Partition((n - 1, 1))
        got = vertex_ideal_bijection(lam)
        assert len(got) == n
        for v, ideal in got.items():
            pivot = v.index(1) + 1
            want = sorted(
                tuple(1 if j == i else 0 for j in range(1, n + 1))
                for i in range(1, n + 1)
                if i != pivot
            )
            assert list(ideal.min_gens) == want

    def test_limit_is_forwarded(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an initial ideal was built before the size check")

        monkeypatch.setattr(spechtfan.fan, "initial_ideal", refuse)
        with pytest.raises(CapacityError, match="enumeration limit 8"):
            vertex_ideal_bijection(Partition.parse("8,1"))


class TestExtremality:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_vertex_is_extreme(self, n):
        for k in range(0, n - 1):
            ps = pnk_vertices(n, k)
            assert all(is_extreme_point(ps, p) for p in ps.points)

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            is_extreme_point(pnk_vertices(3, 0), (9, 9, 9))

    def test_non_extreme_member_is_detected(self):
        # a point set containing an interior lattice point of its hull
        ps = PointSet(((0, 0, 3), (0, 3, 0), (3, 0, 0), (1, 1, 1)))
        assert not is_extreme_point(ps, (1, 1, 1))
        assert is_extreme_point(ps, (0, 0, 3))

    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 1)])
    def test_hull_oracle_agrees_small(self, n, k):
        pts = pnk_vertices(n, k).points
        for v in pts:
            others = [q for q in pts if q != v]
            assert not in_hull_exact(v, others)

    def test_hull_oracle_positive_cases(self):
        pts = pnk_vertices(3, 0).points
        assert in_hull_exact((2, 2, 2), pts)  # barycenter
        assert in_hull_exact((Fraction(3, 2), Fraction(5, 2), 2), pts)  # edge midpoint
        assert not in_hull_exact((0, 2, 4), pts)

    def test_hull_oracle_n4(self):
        # the exhaustive oracle is slow at 24 points; one vertex suffices there
        pts40 = pnk_vertices(4, 0).points
        v = pts40[0]
        assert not in_hull_exact(v, [q for q in pts40 if q != v])
        for k in (1, 2):
            pts = pnk_vertices(4, k).points
            for v in pts:
                assert not in_hull_exact(v, [q for q in pts if q != v])


class TestEdgeDirections:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pnk_has_no_violations(self, n):
        for k in range(0, n - 1):
            assert edge_direction_violations(pnk_vertices(n, k)) == ()

    def test_wide_differences_are_not_flagged(self):
        # only pairs touching exactly two coordinates are candidate edges;
        # equal coordinate sums then force the two deltas to cancel
        ps = PointSet(((0, 0, 4), (2, 1, 1)))
        assert edge_direction_violations(ps) == ()


class TestWeightInitialIdeal:
    @pytest.mark.parametrize("parts", ["2,1", "2,2", "3,1", "2,1,1"])
    def test_interior_weights_recover_the_lex_ideal(self, parts):
        from itertools import permutations

        from spechtfan.combinatorics import min_gap_k

        lam = Partition.parse(parts)
        k = min_gap_k(lam)
        for s in permutations(range(1, lam.n + 1)):
            order = VariableOrder(s)
            w = interior_sample(BraidCone(order, k), 11)
            assert weight_initial_ideal(lam, order, w) == initial_ideal(lam, order)

    def test_tied_weights_are_rejected(self):
        lam = Partition.parse("2,1")
        order = VariableOrder.identity(3)
        with pytest.raises(ValueError):
            weight_initial_ideal(lam, order, WeightVector.of([1, 1, 1]))


class TestBraidRefinement:
    def test_two_one(self, count_calls):
        # 3! orders, and two weight patterns on the two lex generators of each
        calls = count_calls(spechtfan.polytope, "lex_groebner_generators", "initial_form")
        assert braid_refinement_check(Partition.parse("2,1")) == ""
        assert calls == {"lex_groebner_generators": 6, "initial_form": 24}

    @pytest.mark.parametrize("parts", ["2,2", "3,1", "3,2", "2,2,1"])
    def test_small_shapes_pass(self, parts):
        assert braid_refinement_check(Partition.parse(parts)) == ""

    def test_a_wrong_leading_term_names_the_first_order(self, monkeypatch):
        real = spechtfan.polytope.leading_term
        monkeypatch.setattr(
            spechtfan.polytope, "leading_term", lambda f, order: (real(f, order)[0], 0)
        )
        got = braid_refinement_check(Partition.parse("2,1"))
        assert got == "order=1,2,3 weights=consecutive tableau=1,2/3"

    def test_limit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a basis was built before the size check")

        monkeypatch.setattr(spechtfan.polytope, "lex_groebner_generators", refuse)
        with pytest.raises(ValueError, match="limit 5"):
            braid_refinement_check(Partition.parse("5,1"))
