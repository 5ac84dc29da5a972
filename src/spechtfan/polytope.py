"""Permutation polytopes, the braid-chamber certificate, and the vertex/ideal correspondence."""

from __future__ import annotations

from itertools import permutations
from math import factorial, gcd
from operator import sub

from .combinatorics import (
    Partition,
    VariableOrder,
    _check_ints,
    _permuter,
    dominated_partitions,
)
from .errors import CapacityError, TheoremViolationError
from .fan import FanSummary
from .polyring import _field_scale, _guard_bits, _monomial_text
from .specht import (
    MonomialIdeal,
    _check_shape,
    _lane,
    _lane_pack,
    _lane_system,
    _lane_term,
    _lowest_lane,
    _term_lanes,
)

__all__ = [
    "PNK_VERTEX_LIMIT",
    "PNK_COORDINATE_LIMIT",
    "pnk_vertices",
    "vertex_ideal_bijection",
    "braid_refinement_check",
]

# The full permutohedron P(9,0) builds in a few seconds; P(10,0) would hold 3.6M points.
PNK_VERTEX_LIMIT = factorial(9)
# Few vertices can still be many coordinates: P(n,n-2) has n points of n entries.
PNK_COORDINATE_LIMIT = 9 * PNK_VERTEX_LIMIT


def _check_nk(n: int, k: int) -> None:
    _check_ints((n, k), "n and k")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n - 2:
        raise ValueError("k must satisfy 0 <= k <= n-2")


def pnk_vertices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All distinct coordinate permutations of (1,...,n-k-1, n-k,...,n-k), sorted.

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
    return tuple(sorted(points))


def _affine_rank(points) -> int:
    """Rank of the differences q - points[0], by fraction-free integer elimination.

    Each stored row has a pivot column that every later row is cleared in
    by cross-multiplication, and is divided by the gcd of its entries.
    """
    base, *rest = points
    rows: list[tuple[int, list[int]]] = []
    for q in rest:
        vec = list(map(sub, q, base))
        for col, row in rows:
            if vec[col]:
                a, b = vec[col], row[col]
                vec = [b * x - a * y for x, y in zip(vec, row)]
        col = next((i for i, x in enumerate(vec) if x), None)
        if col is not None:
            g = gcd(*vec)
            rows.append((col, [x // g for x in vec]))
    return len(rows)


def vertex_ideal_bijection(fan: FanSummary) -> dict[tuple[int, ...], MonomialIdeal]:
    """Map each vertex of the predicted polytope to the initial ideal of fan.

    Raises TheoremViolationError if any ideal class maps to two vertices,
    two classes collide on one vertex, or the vertex set disagrees with
    pnk_vertices(n, k).
    """
    n = fan.partition.n
    k = fan.k
    # position sigma(j) receives the j-th coordinate, so larger values sit on later order positions
    base = tuple(range(1, n - k)) + (n - k,) * (k + 1)
    mapping: dict[tuple[int, ...], MonomialIdeal] = {}
    for ideal, orders in fan.classes.items():
        verts = {_permuter(o)(base) for o in orders}
        if len(verts) != 1:
            raise TheoremViolationError(
                f"orders sharing the ideal {ideal} produced {len(verts)} vertices"
            )
        v = verts.pop()
        if v in mapping:
            raise TheoremViolationError(f"two distinct ideals landed on vertex {v}")
        mapping[v] = ideal
    if set(mapping) != set(pnk_vertices(n, k)):
        raise TheoremViolationError(
            "vertex set from ideal classes does not match the predicted polytope"
        )
    return dict(sorted(mapping.items()))


def _chamber_weights(chamber: tuple[int, ...], degree: int) -> tuple[tuple[int, ...], int]:
    """(weights, guard): one packed int per variable, so that sum(m_a * weights[a])
    holds in field j the sum of m over the first j+1 variables of the chamber.

    The chamber lists 0-based variable indices from the largest weight down,
    and weights[a] has a one in each field rank(a)..n-1. A field is w bits
    wide, with 2**(w-1) > degree, so partial sums of a monomial of that
    degree fit below the field's top bit; guard holds those top bits.
    """
    n = len(chamber)
    w = degree.bit_length() + 1
    weights = [0] * n
    ones = 0
    for rank in reversed(range(n)):
        ones |= 1 << (rank * w)
        weights[chamber[rank]] = ones
    return tuple(weights), _guard_bits(n, w)


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

    Each generator is packed from its shape's lanes (`specht._term_lanes`),
    one term per 64-bit lane, with no per-term Python (`_lane_system`):
    - under the lex scale of sigma (`_field_scale`), whose largest lane is
      the leading term, the expansion's own, not the closed form;
    - under the chamber weights (`_chamber_weights`), whose lane i holds the
      packed partial sums P(m) of term m read from the largest variable
      down. With v = lead - m, v.w > 0 on the whole open chamber iff every
      partial sum of v is >= 0, given that the full sum is 0.
    Copying (P(lead) | guard) into every lane and subtracting the packed
    sums tests all n partial sums of every term at once: m escapes iff a
    field of its lane loses its top bit. A shape whose terms differ in
    degree is refused with ValueError before any order, and so are fields
    too wide for a lane; then every field stays in range, and no field or
    lane borrows from the next.
    """
    n = lam.n
    if n > 6:
        raise ValueError(f"n={n} exceeds the refinement check limit 6")
    _check_shape(lam, VariableOrder.identity(n))
    shapes = []
    degree = 0
    for mu in dominated_partitions(lam, same_first_part=True):
        lanes = _term_lanes(mu.parts)
        if lanes.degree is None:
            raise ValueError(f"the expansion of shape {mu} is not homogeneous")
        degree = max(degree, lanes.degree)
        shapes.append((mu, lanes))
    # the field width of `_chamber_weights`; no exponent exceeds the degree, so lex fits it too
    w = degree.bit_length() + 1
    if n * w > 64:
        raise ValueError(f"{n} fields of {w} bits do not fit a 64-bit lane")
    for sigma in permutations(range(1, n + 1)):
        order = VariableOrder(sigma)
        lex = _field_scale(order.desc0, w)
        weights, guard = _chamber_weights(order.desc0, degree)
        prefix = (0, *weights)
        for mu, lanes in shapes:
            guards = guard * lanes.ones
            for t, word, _, lead in _lane_system(mu, order, lex):
                sums = _lane_pack(lanes.cols, word, prefix)
                lost = guards & ~((_lane(sums, lead) | guard) * lanes.ones - sums)
                if lost:
                    m = _lane_term(lanes, word, _lowest_lane(lost))
                    return f"order={order} tableau={t} term={_monomial_text(m)}"
    return ""
