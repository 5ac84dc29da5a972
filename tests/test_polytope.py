import random
from fractions import Fraction
from itertools import permutations
from math import factorial
from operator import mul

import pytest

import spechtfan.polytope
from helpers import in_hull_exact, in_hull_simplex
from spechtfan.combinatorics import Partition, VariableOrder
from spechtfan.errors import CapacityError, TheoremViolationError
from spechtfan.fan import enumerate_fan
from spechtfan.polyring import Polynomial, leading_monomial, lex_key
from spechtfan.polytope import (
    PNK_COORDINATE_LIMIT,
    PNK_VERTEX_LIMIT,
    PointSet,
    _chamber_escape,
    braid_refinement_check,
    edge_direction_violations,
    is_extreme_point,
    pnk_vertices,
    vertex_for_order,
    vertex_ideal_bijection,
)
from spechtfan.specht import initial_ideal, lex_groebner_generators, minimalize


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

    @pytest.mark.parametrize(
        "points,kind",
        [(((1.5, 2.9), (2.2, 1.0)), "float"), (((True, 2), (2, 1)), "bool")],
        ids=["float", "bool"],
    )
    def test_coordinates_must_be_ints(self, points, kind):
        # int() would read the floats as (1, 2) and (2, 1), and True as 1
        with pytest.raises(TypeError, match=f"coordinates must be int, got {kind}"):
            PointSet(points)

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

    @pytest.mark.parametrize("n, k", [(3, True), (3, False), (True, 0), (3, 1.0)])
    def test_n_and_k_must_be_int(self, n, k):
        with pytest.raises(TypeError, match="n and k must be int"):
            pnk_vertices(n, k)

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


class TestVertexCorrespondence:
    def test_vertex_for_order_anchor(self):
        assert vertex_for_order(3, 1, VariableOrder.identity(3).sigma) == (1, 2, 2)
        assert vertex_for_order(3, 1, VariableOrder.parse("2,1,3").sigma) == (2, 1, 2)
        assert vertex_for_order(4, 0, VariableOrder.parse("4,3,2,1").sigma) == (4, 3, 2, 1)
        with pytest.raises(ValueError):
            vertex_for_order(4, 0, VariableOrder.identity(3).sigma)

    @pytest.mark.parametrize(
        "n, k, sigma, error",
        [
            (3, 0, (1, 1, 3), ValueError),
            (3, 0, (0, 1, 2), ValueError),
            (3, 0, (1, 2, 3.0), TypeError),
            (3, 0, (True, 2, 3), TypeError),
            (3, 5, (1, 2, 3), ValueError),
            (3, 2, (1, 2, 3), ValueError),
            (3, -1, (1, 2, 3), ValueError),
            (3, True, (1, 2, 3), TypeError),
            (3, False, (1, 2, 3), TypeError),
        ],
    )
    def test_vertex_for_order_rejects_bad_input(self, n, k, sigma, error):
        with pytest.raises(error):
            vertex_for_order(n, k, sigma)

    def test_two_one_bijection(self):
        got = vertex_ideal_bijection(enumerate_fan(Partition.parse("2,1")))
        assert {
            v: ideal.min_gens for v, ideal in got.items()
        } == {
            (1, 2, 2): ((0, 0, 1), (0, 1, 0)),
            (2, 1, 2): ((0, 0, 1), (1, 0, 0)),
            (2, 2, 1): ((0, 1, 0), (1, 0, 0)),
        }

    def test_two_two_bijection_count(self):
        got = vertex_ideal_bijection(enumerate_fan(Partition.parse("2,2")))
        assert len(got) == 24
        assert set(got) == set(pnk_vertices(4, 0).points)
        ideals = list(got.values())
        assert len({i.min_gens for i in ideals}) == 24

    @pytest.mark.parametrize("n", [4, 5])
    def test_hook_shape_bijection(self, n):
        lam = Partition((n - 1, 1))
        got = vertex_ideal_bijection(enumerate_fan(lam))
        assert len(got) == n
        for v, ideal in got.items():
            pivot = v.index(1) + 1
            want = sorted(
                tuple(1 if j == i else 0 for j in range(1, n + 1))
                for i in range(1, n + 1)
                if i != pivot
            )
            assert list(ideal.min_gens) == want


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
            assert not in_hull_simplex(v, others)

    def test_hull_oracle_positive_cases(self):
        pts = pnk_vertices(3, 0).points
        for in_hull in (in_hull_exact, in_hull_simplex):
            assert in_hull((2, 2, 2), pts)  # barycenter
            assert in_hull((Fraction(3, 2), Fraction(5, 2), 2), pts)  # edge midpoint
            assert not in_hull((0, 2, 4), pts)

    def test_hull_oracles_agree_on_random_sets(self):
        rng = random.Random("hull-oracles")
        verdicts = set()
        for _ in range(60):
            dim = rng.randint(1, 3)
            pts = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 6))]
            queries = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(3)]
            queries.append(tuple(Fraction(sum(c), len(pts)) for c in zip(*pts)))
            queries.append(tuple(Fraction(3 * a + b, 4) for a, b in zip(pts[0], pts[-1])))
            for p in queries:
                got = in_hull_simplex(p, pts)
                assert got == in_hull_exact(p, pts), (p, pts)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_hull_oracle_n4(self):
        for k in (0, 1, 2):
            pts = pnk_vertices(4, k).points
            for v in pts:
                assert not in_hull_simplex(v, [q for q in pts if q != v])


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
        # one integer point of each open chamber, by plain dot products: a spot
        # check of what braid_refinement_check proves for the whole chamber
        lam = Partition.parse(parts)
        rng = random.Random(parts)
        for sigma in permutations(range(1, lam.n + 1)):
            order = VariableOrder(sigma)
            w = [0] * lam.n
            for v, weight in zip(sigma, sorted(rng.sample(range(-50, 50), lam.n))):
                w[v - 1] = weight
            tops = []
            for _, f in lex_groebner_generators(lam, order):
                by_weight = {}
                for m, _ in f.items():
                    by_weight.setdefault(sum(map(mul, w, m)), []).append(m)
                (top,) = by_weight[max(by_weight)]
                tops.append(top)
            assert minimalize(tops) == initial_ideal(lam, order), (order, w)


class TestBraidRefinement:
    def test_two_one(self, count_calls):
        # 3! orders, each with two lex generators whose leads are taken once
        calls = count_calls(spechtfan.polytope, "lex_groebner_generators", "leading_monomial")
        assert braid_refinement_check(Partition.parse("2,1")) == ""
        assert calls == {"lex_groebner_generators": 6, "leading_monomial": 12}

    @pytest.mark.parametrize("parts", ["2,2", "3,1", "3,2", "2,2,1", "5,1"])
    def test_small_shapes_pass(self, parts):
        assert braid_refinement_check(Partition.parse(parts)) == ""

    @pytest.mark.parametrize("parts,failing,pairs", [("2,2", 48, 120), ("3,3", 3600, 22320)])
    def test_a_swapped_chamber_fails_as_pinned(self, parts, failing, pairs):
        # each order's lex generators against the chamber with its two largest variables swapped
        lam = Partition.parse(parts)
        seen = []
        for sigma in permutations(range(1, lam.n + 1)):
            order = VariableOrder(sigma)
            first, second, *rest = order.desc0
            for _, f in lex_groebner_generators(lam, order):
                seen.append(_chamber_escape(f, leading_monomial(f, order), (second, first, *rest)))
        assert (len(seen) - seen.count(None), len(seen)) == (failing, pairs)

    def test_a_swapped_chamber_names_the_first_order(self, monkeypatch):
        real = spechtfan.polytope._chamber_escape

        def swapped(f, lead, chamber):
            return real(f, lead, (chamber[1], chamber[0], *chamber[2:]))

        monkeypatch.setattr(spechtfan.polytope, "_chamber_escape", swapped)
        # under 1,2,3,4 the lead x2*x4 of (x1 - x2)(x3 - x4) loses to x1*x3 once w3 > w4
        got = braid_refinement_check(Partition.parse("2,2"))
        assert got == "order=1,2,3,4 tableau=1,3/2,4 term=x1*x3"

    def test_a_wrong_leading_term_names_the_first_order(self, monkeypatch):
        def last(f, order):
            return min((m for m, _ in f.items()), key=lambda m: lex_key(m, order))

        monkeypatch.setattr(spechtfan.polytope, "leading_monomial", last)
        # the true lead x3 is then the term that escapes
        got = braid_refinement_check(Partition.parse("2,1"))
        assert got == "order=1,2,3 tableau=1,2/3 term=x3"

    def test_a_tampered_basis_names_the_escaping_term(self, monkeypatch):
        real = spechtfan.polytope.lex_groebner_generators
        x1, x2 = Polynomial.variable(3, 1), Polynomial.variable(3, 2)

        def tampered(lam, order):
            (t, f), *rest = real(lam, order)
            # x1*x3 still leads in lex, but x2^2 outweighs it wherever 2*w2 > w1 + w3
            return ((t, f * x1 - x2 * x2), *rest)

        monkeypatch.setattr(spechtfan.polytope, "lex_groebner_generators", tampered)
        got = braid_refinement_check(Partition.parse("2,1"))
        assert got == "order=1,2,3 tableau=1,2/3 term=x2^2"

    def test_a_non_homogeneous_generator_is_refused(self):
        # x3 leads, and x3 - x1^2 has partial sums 1, 1, -1 read from x3 down
        f = Polynomial(3, {(0, 0, 1): 1, (2, 0, 0): -1})
        with pytest.raises(ValueError, match="not homogeneous"):
            _chamber_escape(f, (0, 0, 1), VariableOrder.identity(3).desc0)

    def test_limit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a basis was built before the size check")

        monkeypatch.setattr(spechtfan.polytope, "lex_groebner_generators", refuse)
        with pytest.raises(ValueError, match="limit 6"):
            braid_refinement_check(Partition.parse("6,1"))
