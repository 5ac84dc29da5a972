"""Permutation polytopes, the braid-chamber certificate, and the vertex/ideal correspondence."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, permutations
from math import factorial
from operator import itemgetter, sub

from .combinatorics import Partition, VariableOrder, _check_ints, _permuter
from .errors import CapacityError, TheoremViolationError
from .fan import FanSummary
from .polyring import Exponents, Polynomial, _monomial_text, leading_monomial
from .specht import MonomialIdeal, lex_groebner_generators

__all__ = [
    "PNK_VERTEX_LIMIT",
    "PNK_COORDINATE_LIMIT",
    "PointSet",
    "pnk_vertices",
    "vertex_for_order",
    "vertex_ideal_bijection",
    "is_extreme_point",
    "edge_direction_violations",
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
        pts = [tuple(p) for p in self.points]
        _check_ints(chain.from_iterable(pts), "coordinates")
        pts = sorted(set(pts))
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


def _check_nk(n: int, k: int) -> None:
    _check_ints((n, k), "n and k")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n - 2:
        raise ValueError("k must satisfy 0 <= k <= n-2")


def pnk_vertices(n: int, k: int) -> PointSet:
    """All distinct coordinate permutations of (1,...,n-k-1, n-k,...,n-k).

    A point is fixed by the positions of the distinct values 1..n-k-1, so the
    n!/(k+1)! placements are walked instead of all n! permutations. More than
    PNK_VERTEX_LIMIT points or PNK_COORDINATE_LIMIT coordinates raise
    CapacityError before any work; the count n(n-1)...(k+2) stops growing as
    soon as it passes a limit, so a huge n costs a few multiplications.
    """
    _check_nk(n, k)
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


def vertex_for_order(n: int, k: int, sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Vertex whose normal cone contains the chain cone of the order sigma.

    Position sigma(j) receives the j-th coordinate of the base point
    (1,...,n-k-1, n-k,...,n-k), so larger values sit on later order positions.
    sigma must be a permutation of 1..n and k must suit pnk_vertices(n, k).
    """
    _check_nk(n, k)
    if len(sigma) != n:
        raise ValueError("order length must be n")
    sigma = VariableOrder(sigma).sigma  # raises unless sigma permutes 1..n
    return _permuter(sigma)(tuple(range(1, n - k)) + (n - k,) * (k + 1))


def vertex_ideal_bijection(fan: FanSummary) -> dict[tuple[int, ...], MonomialIdeal]:
    """Map each vertex of the predicted polytope to the initial ideal of fan.

    Raises TheoremViolationError if any ideal class maps to two vertices,
    two classes collide on one vertex, or the vertex set disagrees with
    pnk_vertices(n, k).
    """
    n = fan.partition.n
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


def _chamber_escape(f: Polynomial, lead: Exponents, chamber: tuple[int, ...]) -> Exponents | None:
    """The first term m of f, other than lead, that some w in the open
    chamber ranks at least as high as lead; None if there is none.

    The chamber lists 0-based variable indices from the largest weight
    down. With v = lead - m read in that order, v.w > 0 on the whole open
    chamber iff every partial sum is >= 0, given that the full sum is 0.
    Raises ValueError on a term whose degree differs from the lead's.
    """
    get = itemgetter(*chamber)
    top = get(lead)
    for m, _ in f.items():
        if m == lead:
            continue
        sums = tuple(accumulate(map(sub, top, get(m))))
        if sums[-1]:
            raise ValueError(f"{f} is not homogeneous")
        if min(sums) < 0:
            return m
    return None


def braid_refinement_check(lam: Partition) -> str:
    """Every open braid chamber must lie in the Groebner cone of its lex ideal.

    For each order sigma, every generator of the lex system under sigma
    has to keep its leading term strictly above each other term for every
    weight w with w_sigma(1) < ... < w_sigma(n), proved with integer
    partial sums, not sampled weights. Since the lex system is a Groebner
    basis under sigma (the oracle rows certify that), a pass puts the whole
    chamber inside the Groebner cone of in_sigma(I). Refuses n beyond 6.
    Returns "" on a pass, else a line naming the first failing order,
    tableau and term.
    """
    n = lam.n
    if n > 6:
        raise ValueError(f"n={n} exceeds the refinement check limit 6")
    for sigma in permutations(range(1, n + 1)):
        order = VariableOrder(sigma)
        for t, f in lex_groebner_generators(lam, order):
            m = _chamber_escape(f, leading_monomial(f, order), order.desc0)
            if m is not None:
                return f"order={order} tableau={t} term={_monomial_text(m)}"
    return ""
