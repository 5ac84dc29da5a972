import random
from fractions import Fraction
from itertools import permutations
from math import factorial
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtfan.polytope
import spechtfan.specht
from helpers import (
    chamber_escape,
    in_hull_exact,
    in_hull_simplex,
    naive_minimalize,
    packed_chamber_escape,
    reference_braid_check,
)
from spechtfan.combinatorics import Partition, VariableOrder, enumerate_partitions
from spechtfan.errors import CapacityError, TheoremViolationError
from spechtfan.fan import enumerate_fan
from spechtfan.polyring import Polynomial, leading_monomial
from spechtfan.polytope import (
    PNK_COORDINATE_LIMIT,
    PNK_VERTEX_LIMIT,
    _affine_rank,
    _chamber_weights,
    braid_refinement_check,
    pnk_vertices,
    vertex_ideal_bijection,
)
from spechtfan.specht import initial_ideal, lex_groebner_generators


@st.composite
def point_lists(draw):
    """1-9 points of 1-6 coordinates in -60..60, some repeated and some dependent.

    A dependent point is an offset plus a combination of at most six small
    directions, so its entries stay within -60..60.
    """
    dim = draw(st.integers(1, 6))
    small = st.tuples(*[st.integers(-3, 3)] * dim)
    offset = draw(st.tuples(*[st.integers(-6, 6)] * dim))
    dirs = draw(st.lists(small, min_size=1, max_size=6))

    def spanned(coefs):
        return tuple(o + sum(c * d[i] for c, d in zip(coefs, dirs)) for i, o in enumerate(offset))

    free = st.tuples(*[st.integers(-60, 60)] * dim)
    combos = st.tuples(*[st.integers(-3, 3)] * len(dirs)).map(spanned)
    pts = draw(st.lists(st.one_of(free, combos), min_size=1, max_size=9))
    pts += draw(st.lists(st.sampled_from(pts), max_size=9 - len(pts)))
    return draw(st.permutations(pts))


class TestPointSet:
    """A point set is a tuple of integer points; its affine dimension is _affine_rank."""

    def test_affine_dimension(self):
        assert _affine_rank(((1, 2, 3),)) == 0
        assert _affine_rank(((1, 2), (2, 1))) == 1
        square = ((0, 0, 2), (0, 2, 0), (2, 0, 0), (1, 1, 0), (0, 1, 1))
        assert _affine_rank(square) == 2

    @settings(deadline=None, max_examples=200)
    @given(point_lists())
    def test_affine_dimension_matches_sympy(self, pts):
        p0 = pts[0]
        want = sympy.Matrix([[a - b for a, b in zip(q, p0)] for q in pts]).rank()
        assert _affine_rank(pts) == want


class TestPnkVertices:
    def test_three_one(self):
        assert pnk_vertices(3, 1) == ((1, 2, 2), (2, 1, 2), (2, 2, 1))

    def test_full_permutohedron(self):
        ps = pnk_vertices(4, 0)
        assert len(ps) == 24
        assert (1, 2, 3, 4) in ps and (4, 3, 2, 1) in ps

    @pytest.mark.parametrize("n", range(2, 9))
    def test_top_k_is_a_simplex(self, n):
        ps = pnk_vertices(n, n - 2)
        assert len(ps) == n
        assert _affine_rank(ps) == n - 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_counts_and_sums(self, n):
        for k in range(0, n - 1):
            ps = pnk_vertices(n, k)
            assert len(ps) == len(set(ps)) == factorial(n) // factorial(k + 1)
            assert sum(ps[0]) == (n - k - 1) * (n - k) // 2 + (k + 1) * (n - k)
            assert len({sum(p) for p in ps}) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_affine_dimension_is_n_minus_one(self, n):
        for k in range(0, n - 1):
            assert _affine_rank(pnk_vertices(n, k)) == n - 1

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
            assert set(pnk_vertices(n, k)) == set(permutations(u))

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
        # the vertex of the class that holds the order
        anchors = [("2,1", "1,2,3", (1, 2, 2)), ("2,1", "2,1,3", (2, 1, 2)), ("2,2", "4,3,2,1", (4, 3, 2, 1))]
        for parts, sigma, vertex in anchors:
            fan = enumerate_fan(Partition.parse(parts))
            order = VariableOrder.parse(sigma).sigma
            (ideal,) = [i for i, orders in fan.classes.items() if order in orders]
            assert vertex_ideal_bijection(fan)[vertex] == ideal

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
        assert set(got) == set(pnk_vertices(4, 0))
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
    @pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 1)])
    def test_hull_oracle_agrees_small(self, n, k):
        pts = pnk_vertices(n, k)
        for v in pts:
            others = [q for q in pts if q != v]
            assert not in_hull_exact(v, others)
            assert not in_hull_simplex(v, others)

    def test_hull_oracle_positive_cases(self):
        pts = pnk_vertices(3, 0)
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
            pts = pnk_vertices(4, k)
            for v in pts:
                assert not in_hull_simplex(v, [q for q in pts if q != v])


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
            assert naive_minimalize(tops) == frozenset(initial_ideal(lam, order).min_gens), (order, w)


def packed_escape(f, lead, chamber):
    """`packed_chamber_escape` on weights packed at the lead's degree."""
    return packed_chamber_escape(f, lead, *_chamber_weights(chamber, sum(lead)))


@st.composite
def chamber_cases(draw):
    """A polynomial of 2-6 variables, homogeneous of degree 0-40 but for an
    optional stray term of another degree, one of its terms as lead, a
    drawn chamber, and a packing degree no less than the lead's, as when
    another generator of the same order has a larger one."""
    n = draw(st.integers(2, 6))
    degree = draw(st.integers(0, 40))
    cuts = st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1).map(sorted)
    exps = st.builds(lambda c: tuple(b - a for a, b in zip([0, *c], [*c, degree])), cuts)
    terms = draw(st.lists(st.tuples(exps, st.integers(-3, 3).filter(bool)), min_size=1, max_size=12))
    if draw(st.booleans()):
        stray = draw(st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) != degree))
        terms.insert(draw(st.integers(0, len(terms))), (stray, 1))
    f = Polynomial(n, dict(terms))
    lead = draw(st.sampled_from([e for e, _ in f.items() if sum(e) == degree]))
    chamber = tuple(draw(st.permutations(range(n))))
    return f, lead, chamber, degree + draw(st.sampled_from([0, 0, 1, 30]))


def escape_or_refusal(escape, f, lead, chamber):
    try:
        return escape(f, lead, chamber)
    except ValueError as err:
        return str(err)


class TestPackedChamberEscape:
    @settings(deadline=None, max_examples=400)
    @given(chamber_cases())
    def test_matches_the_partial_sums(self, case):
        # the same first escaping term, None, or the same refusal
        f, lead, chamber, at = case

        def packed(f, lead, chamber):
            return packed_chamber_escape(f, lead, *_chamber_weights(chamber, at))

        assert escape_or_refusal(packed, f, lead, chamber) == escape_or_refusal(chamber_escape, f, lead, chamber)

    def test_weights_hold_the_prefix_sums(self):
        # chamber x3 > x1 > x2 at degree 5: three-bit value fields under a guard bit
        weights, guard = _chamber_weights((2, 0, 1), 5)
        packed = sum(map(mul, (1, 2, 2), weights))
        assert [(packed >> (4 * j)) & 15 for j in range(3)] == [2, 3, 5]
        assert guard == 0b100010001000


class TestBraidRefinement:
    def test_two_one(self, count_calls):
        # 3! orders, each with one lex shape of two generators whose lanes are read out once for their leads
        calls = count_calls(spechtfan.polytope, "_lane_system")
        lists = count_calls(spechtfan.specht, "standard_tableaux", "_lane_list")
        assert braid_refinement_check(Partition.parse("2,1")) == ""
        assert calls == {"_lane_system": 6}
        assert lists == {"standard_tableaux": 6, "_lane_list": 12}

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
                seen.append(packed_escape(f, leading_monomial(f, order), (second, first, *rest)))
        assert (len(seen) - seen.count(None), len(seen)) == (failing, pairs)

    def test_a_swapped_chamber_names_the_first_order(self, monkeypatch):
        real = spechtfan.polytope._chamber_weights

        def swapped(chamber, degree):
            return real((chamber[1], chamber[0], *chamber[2:]), degree)

        monkeypatch.setattr(spechtfan.polytope, "_chamber_weights", swapped)
        # under 1,2,3,4 the lead x2*x4 of (x1 - x2)(x3 - x4) loses to x1*x3 once w3 > w4
        got = braid_refinement_check(Partition.parse("2,2"))
        assert got == "order=1,2,3,4 tableau=1,3/2,4 term=x1*x3"

    def test_a_wrong_leading_term_names_the_first_order(self, monkeypatch):
        real = spechtfan.polytope._field_scale
        # the lex scale of the reversed order, so the lex-smallest term leads
        monkeypatch.setattr(spechtfan.polytope, "_field_scale", lambda desc, w: real(desc[::-1], w))
        # x1 then leads x1 - x3, and the true lead x3 is the term that escapes
        got = braid_refinement_check(Partition.parse("2,1"))
        assert got == "order=1,2,3 tableau=1,2/3 term=x3"

    def test_a_tampered_basis_names_the_escaping_term(self, tamper_lanes):
        # T0 = 1,2/3 gives x1 - x3; x1*(x1 - x3) - x2^2 keeps x1*x3 as its lex lead,
        # but x2^2 outweighs it wherever 2*w2 > w1 + w3
        tamper_lanes({(2, 1): {(2, 0, 0): 1, (1, 0, 1): -1, (0, 2, 0): -1}})
        got = braid_refinement_check(Partition.parse("2,1"))
        assert got == "order=1,2,3 tableau=1,2/3 term=x2^2"

    def test_a_non_homogeneous_lane_set_is_refused(self, tamper_lanes, monkeypatch):
        # x3 - x1^2: x3 leads, with partial sums 1, 1, -1 read from x3 down
        tamper_lanes({(2, 1): {(0, 0, 1): 1, (2, 0, 0): -1}})

        def refuse(*args):
            raise AssertionError("an order was walked before the degree check")

        monkeypatch.setattr(spechtfan.polytope, "_lane_system", refuse)
        with pytest.raises(ValueError, match="shape 2,1 is not homogeneous"):
            braid_refinement_check(Partition.parse("2,1"))
        # homogeneous of degree 2**20: three 22-bit fields of partial sums do not fit a lane
        tamper_lanes({(2, 1): {(2**20, 0, 0): 1, (0, 0, 2**20): -1}})
        with pytest.raises(ValueError, match="3 fields of 22 bits do not fit"):
            braid_refinement_check(Partition.parse("2,1"))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_per_term_reference_on_every_order(self, n):
        for lam in enumerate_partitions(n):
            if lam.m >= 2:
                assert braid_refinement_check(lam) == reference_braid_check(lam) == "", lam

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_the_per_term_reference_on_seeded_orders(self, n, monkeypatch):
        sigmas = random.Random(f"braid-lanes-{n}").sample(list(permutations(range(1, n + 1))), 10)
        monkeypatch.setattr(spechtfan.polytope, "permutations", lambda values: iter(sigmas))
        for lam in enumerate_partitions(n):
            if lam.m >= 2:
                assert braid_refinement_check(lam) == reference_braid_check(lam, sigmas) == "", lam

    @pytest.mark.parametrize("parts", ["2,2", "2,1,1", "3,2", "2,2,1"])
    def test_a_swapped_chamber_fails_as_the_reference_does(self, parts, monkeypatch):
        # both sides test each order's generators on the chamber with its two largest variables swapped
        real = spechtfan.polytope._chamber_weights

        def swap(chamber):
            return (chamber[1], chamber[0], *chamber[2:])

        monkeypatch.setattr(spechtfan.polytope, "_chamber_weights", lambda c, d: real(swap(c), d))
        lam = Partition.parse(parts)
        want = reference_braid_check(lam, chamber=lambda order: swap(order.desc0))
        assert want
        assert braid_refinement_check(lam) == want

    def test_a_non_homogeneous_generator_is_refused(self):
        # x3 leads, and x3 - x1^2 has partial sums 1, 1, -1 read from x3 down
        f = Polynomial(3, {(0, 0, 1): 1, (2, 0, 0): -1})
        with pytest.raises(ValueError, match="not homogeneous"):
            packed_escape(f, (0, 0, 1), VariableOrder.identity(3).desc0)

    def test_limit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a basis was built before the size check")

        monkeypatch.setattr(spechtfan.polytope, "_term_lanes", refuse)
        monkeypatch.setattr(spechtfan.polytope, "_lane_system", refuse)
        with pytest.raises(ValueError, match="limit 6"):
            braid_refinement_check(Partition.parse("6,1"))
