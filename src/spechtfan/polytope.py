"""Permutation polytopes, braid cones, and the vertex/ideal correspondence."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from .combinatorics import Partition, VariableOrder, min_gap_k
from .errors import CapacityError, TheoremViolationError
from .fan import enumerate_fan
from .polyring import WeightVector, initial_form, leading_term
from .specht import MonomialIdeal, lex_groebner_generators, minimalize

__all__ = [
    "PNK_VERTEX_LIMIT",
    "PNK_COORDINATE_LIMIT",
    "PointSet",
    "BraidCone",
    "pnk_vertices",
    "cone_membership",
    "interior_sample",
    "vertex_for_order",
    "vertex_ideal_bijection",
    "is_extreme_point",
    "edge_direction_violations",
    "weight_initial_ideal",
    "braid_refinement_check",
]

# The full permutohedron P(9,0) builds in a few seconds; P(10,0) would hold 3.6M points.
PNK_VERTEX_LIMIT = factorial(9)
# Few vertices can still be many coordinates: P(n,n-2) has n points of n entries.
PNK_COORDINATE_LIMIT = 9 * PNK_VERTEX_LIMIT


@dataclass(frozen=True)
class PointSet:
    """Finite set of integer points sharing one coordinate sum.

    Points are deduplicated and kept sorted, so two PointSets compare equal
    iff they contain the same points.
    """

    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pts = sorted({tuple(int(c) for c in p) for p in self.points})
        if not pts:
            raise ValueError("a point set needs at least one point")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("points must have equal length")
        s = sum(pts[0])
        if any(sum(p) != s for p in pts):
            raise ValueError("points must share one coordinate sum")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def n(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in set(self.points)

    def coordinate_sum(self) -> int:
        return sum(self.points[0])

    def affine_dimension(self) -> int:
        """Rank of the difference vectors, by exact fraction elimination."""
        pts = self.points
        if len(pts) == 1:
            return 0
        base = pts[0]
        cap = self.n - 1
        rows: list[list[Fraction]] = []
        pivots: list[int] = []
        for q in pts[1:]:
            vec = [Fraction(a - b) for a, b in zip(q, base)]
            for row, col in zip(rows, pivots):
                if vec[col]:
                    f = vec[col] / row[col]
                    vec = [x - f * y for x, y in zip(vec, row)]
            piv = next((i for i, x in enumerate(vec) if x), None)
            if piv is None:
                continue
            rows.append(vec)
            pivots.append(piv)
            if len(rows) == cap:
                break
        return len(rows)

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self.points]


@dataclass(frozen=True)
class BraidCone:
    """Chain on the first n-k-1 order positions, with the chain's top bounded
    above by each of the remaining k+1 coordinates."""

    order: VariableOrder
    k: int

    def __post_init__(self):
        if not 0 <= self.k < self.order.n:
            raise ValueError("k must satisfy 0 <= k < n")

    @property
    def n(self) -> int:
        return self.order.n

    def class_key(self) -> tuple:
        """Two cones are equal as sets iff their keys agree."""
        head = self.n - self.k - 1
        return (self.order.sigma[:head], frozenset(self.order.sigma[head:]))

    def __str__(self) -> str:
        return f"C({self.order},k={self.k})"


def pnk_vertices(n: int, k: int) -> PointSet:
    """All distinct coordinate permutations of (1,...,n-k-1, n-k,...,n-k).

    A point is fixed by the positions of the distinct values 1..n-k-1, so the
    n!/(k+1)! placements are walked instead of all n! permutations. More than
    PNK_VERTEX_LIMIT points or PNK_COORDINATE_LIMIT coordinates raise
    CapacityError before any work; the count n(n-1)...(k+2) stops growing as
    soon as it passes a limit, so a huge n costs a few multiplications.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n - 2:
        raise ValueError("k must satisfy 0 <= k <= n-2")
    count = 1
    for factor in range(n, k + 1, -1):
        count *= factor
        if count > PNK_VERTEX_LIMIT or count * n > PNK_COORDINATE_LIMIT:
            raise CapacityError(
                f"P(n={n},k={k}) has more than {PNK_VERTEX_LIMIT} vertices "
                f"or {PNK_COORDINATE_LIMIT} coordinates"
            )
    points = []
    for places in permutations(range(n), n - k - 1):
        p = [n - k] * n
        for value, i in enumerate(places, start=1):
            p[i] = value
        points.append(tuple(p))
    return PointSet(tuple(points))


def cone_membership(w: WeightVector, cone: BraidCone) -> bool:
    """Exact rational test of the cone's defining weak inequalities."""
    if w.n != cone.n:
        raise ValueError("weight length must match the cone's n")
    head = cone.n - cone.k - 1
    sig = cone.order.sigma
    for i in range(head - 1):
        if w.weights[sig[i] - 1] > w.weights[sig[i + 1] - 1]:
            return False
    if head >= 1:
        anchor = w.weights[sig[head - 1] - 1]
        for j in range(head, cone.n):
            if anchor > w.weights[sig[j] - 1]:
                return False
    return True


def interior_sample(cone: BraidCone, seed: int) -> WeightVector:
    """Deterministic rational point satisfying every cone inequality strictly.

    All coordinates come out pairwise distinct, so the sample also lies in a
    single open chamber of the full chain refinement.
    """
    n = cone.n
    rng = random.Random(f"interior|{cone.order}|{cone.k}|{seed}")
    head = n - cone.k - 1
    jit = lambda: Fraction(rng.randrange(32), 64)
    vals: list[Fraction] = [Fraction(0)] * n
    for i in range(1, head + 1):
        vals[cone.order.apply(i) - 1] = i + jit()
    offsets = list(range(1, cone.k + 2))
    rng.shuffle(offsets)
    for off, pos in zip(offsets, range(head + 1, n + 1)):
        vals[cone.order.apply(pos) - 1] = head + off + jit()
    return WeightVector(tuple(vals))


def vertex_for_order(n: int, k: int, sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Vertex whose normal cone contains the chain cone of the order sigma.

    Position sigma(j) receives the j-th coordinate of the base point
    (1,...,n-k-1, n-k,...,n-k), so larger values sit on later order positions.
    """
    if len(sigma) != n:
        raise ValueError("order length must be n")
    u = tuple(range(1, n - k)) + (n - k,) * (k + 1)
    p = [0] * n
    for v, c in zip(sigma, u):
        p[v - 1] = c
    return tuple(p)


def vertex_ideal_bijection(lam: Partition) -> dict[tuple[int, ...], MonomialIdeal]:
    """Map each vertex of the predicted polytope to its initial ideal.

    Raises TheoremViolationError if any ideal class maps to two vertices,
    two classes collide on one vertex, or the vertex set disagrees with
    pnk_vertices(n, k).
    """
    fan = enumerate_fan(lam)
    n = lam.n
    k = fan.k
    mapping: dict[tuple[int, ...], MonomialIdeal] = {}
    for ideal, orders in fan.classes.items():
        verts = {vertex_for_order(n, k, o) for o in orders}
        if len(verts) != 1:
            raise TheoremViolationError(
                f"orders sharing the ideal {ideal} produced {len(verts)} vertices"
            )
        v = verts.pop()
        if v in mapping:
            raise TheoremViolationError(f"two distinct ideals landed on vertex {v}")
        mapping[v] = ideal
    expected = pnk_vertices(n, k)
    if set(mapping) != set(expected.points):
        raise TheoremViolationError(
            "vertex set from ideal classes does not match the predicted polytope"
        )
    return dict(sorted(mapping.items()))


def is_extreme_point(ps: PointSet, p: tuple[int, ...]) -> bool:
    """Certify extremality with the functional w = p.

    Sound always; complete on point sets whose members share one coordinate
    multiset, since equal-norm points make the self inner product a strict
    maximum.
    """
    if p not in ps:
        raise ValueError("point must belong to the set")
    s = sum(c * c for c in p)
    return all(sum(a * b for a, b in zip(p, q)) < s for q in ps.points if q != p)


def edge_direction_violations(ps: PointSet) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Pairs differing in exactly two coordinates whose difference is not a
    multiple of a difference of two unit vectors."""
    bad = []
    for p, q in combinations(ps.points, 2):
        diff = [(i, a - b) for i, (a, b) in enumerate(zip(p, q)) if a != b]
        if len(diff) == 2 and diff[0][1] + diff[1][1] != 0:
            bad.append((p, q))
    return tuple(bad)


def weight_initial_ideal(lam: Partition, order: VariableOrder, w: WeightVector) -> MonomialIdeal:
    """Minimalized monomials picked by the weight from the order's basis.

    Requires the weight to isolate a single term in every generator, which
    holds whenever all its coordinates are pairwise distinct.
    """
    monos = []
    for f in lex_groebner_generators(lam, order).polynomials():
        g = initial_form(f, w)
        if len(g) != 1:
            raise ValueError("weight vector does not isolate a single term")
        ((exps, _),) = g.items()
        monos.append(exps)
    return minimalize(monos)


def braid_refinement_check(lam: Partition) -> str:
    """Interior weights of every maximal chain cone must pick the leading term.

    For each order, two strictly spaced integer weight patterns (consecutive
    integers and powers of two along the chain) are applied to every basis
    generator; the weight-initial form has to be the single leading term.
    A pass certifies each chain cone sits inside one initial-ideal cone.
    Refuses n beyond 5. Returns "" on a pass, else a line naming the first
    failing order, weight pattern and tableau.
    """
    n = lam.n
    if n > 5:
        raise ValueError(f"n={n} exceeds the refinement check limit 5")
    for sigma in permutations(range(1, n + 1)):
        order = VariableOrder(sigma)
        system = lex_groebner_generators(lam, order)
        leads = [leading_term(f, order) for _, f in system.generators]
        patterns = [
            [0] * n,
            [0] * n,
        ]
        for i in range(1, n + 1):
            patterns[0][sigma[i - 1] - 1] = i
            patterns[1][sigma[i - 1] - 1] = 2**i
        for name, pat in zip(("consecutive", "powers"), patterns):
            w = WeightVector.of(pat)
            for (t, f), (lead_m, lead_c) in zip(system.generators, leads):
                g = initial_form(f, w)
                if len(g) != 1 or g.coefficient(lead_m) != lead_c:
                    return f"order={order} weights={name} tableau={t}"
    return ""
