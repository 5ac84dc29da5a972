"""Specht polynomials and their initial monomial ideals.

The generator attached to a tableau is the product of within-column
differences. For a column-standard tableau its lex leading monomial can be
read off without expanding anything: the entry sitting in row d contributes
exponent d-1 to its variable. Initial ideals are assembled from those
closed-form monomials alone; polynomial expansion is reserved for the
generating systems handed to the division-algorithm layer.

`initial_ideal` reads the closed form off the identity-standard fillings,
each with lam's first part, so its support is the n - lam_1 entries off its
first row. A divisor's support lies in its multiple's, so only candidates
with one first row divide each other (elementary, not the paper's theorem):
each such group is minimalized alone, and its survivors moved by sigma.
Candidates are built packed (`_packed_fillings`); a filling of shape mu has
degree sum (i-1)*mu_i, so each shape is one degree level of `_minimal`.

The expansion is made once per shape, for T0, and every tableau's is T0's
with its variables renamed. `specht_polynomial` renames term by term; the
braid row and the oracle's bases read the same expansion as lanes
(`_term_lanes`) and pack all of a tableau's terms at once (`_lane_pack`,
`_lane_system`). The 64-bit lane layout stays in this module: the oracle
packs through `_lane_system`, the braid row packs through `_lane_pack` and
reads lanes back through `_lane`, `_lowest_lane` and `_lane_term`, and
`_lane_list` is read only here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, groupby, islice
from operator import itemgetter, le, lt, mul
from struct import pack
from typing import NamedTuple

from .combinatorics import (
    Partition,
    Tableau,
    VariableOrder,
    _check_ints,
    _permuter,
    _removable_corners,
    dominated_partitions,
    is_column_standard,
    min_gap_k,
    standard_tableau_count,
    standard_tableaux,
)
from .errors import CapacityError
from .polyring import Polynomial, _guard_bits, _monomial_text, _pack, _unpack

__all__ = [
    "INITIAL_IDEAL_N_LIMIT",
    "INITIAL_IDEAL_TABLEAU_LIMIT",
    "MonomialIdeal",
    "specht_polynomial",
    "closed_form_initial_monomial",
    "lex_groebner_generators",
    "universal_groebner_generators",
    "minimalize",
    "initial_ideal",
    "gap_condition_audit",
]

# initial_ideal refuses shapes whose generating tableaux outnumber this;
# every shape up to n=12 stays below it, (5,5,3) at n=13 does not.
INITIAL_IDEAL_TABLEAU_LIMIT = 50_000
# The tableaux are counted over the partitions of n, 37,338 at n=40 but
# 190,569,292 at n=100, so n itself is bounded first.
INITIAL_IDEAL_N_LIMIT = 40


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its minimal generators' exponent tuples, strictly sorted."""

    n: int
    min_gens: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_ints((self.n,), "ring size")
        gens = tuple(map(tuple, self.min_gens))
        if not gens:
            raise ValueError("a monomial ideal here always has at least one generator")
        _check_ints(chain.from_iterable(gens), "exponents")
        if set(map(len, gens)) != {self.n}:
            raise ValueError("generators must all live in the ambient ring")
        if self.n and min(map(min, gens)) < 0:
            raise ValueError("exponents must be nonnegative")
        if not all(map(lt, gens, gens[1:])):
            raise ValueError("generators must be strictly sorted by exponent tuple")
        if minimalize(gens).min_gens != gens:
            raise ValueError("generators must be minimal: none may divide another")
        object.__setattr__(self, "min_gens", gens)

    @classmethod
    def _wrap(cls, n: int, gens: tuple[tuple[int, ...], ...]) -> "MonomialIdeal":
        """An ideal from int tuples already checked to be minimal and strictly sorted."""
        ideal = cls.__new__(cls)
        object.__setattr__(ideal, "n", n)
        object.__setattr__(ideal, "min_gens", gens)
        return ideal

    def contains(self, exps: tuple[int, ...]) -> bool:
        """Membership of a monomial: some generator divides the exponent tuple."""
        if len(exps) != self.n:
            raise ValueError("monomial lives in a different ring")
        return any(all(map(le, g, exps)) for g in self.min_gens)

    def to_json(self) -> dict:
        return {"n": self.n, "min_gens": self.min_gens}

    def __str__(self) -> str:
        return "<" + ", ".join(map(_monomial_text, self.min_gens)) + ">"


def minimalize(gens) -> MonomialIdeal:
    """Drop every exponent tuple strictly divisible by another; sort what is left.

    The surviving set is the unique minimal generating set of the ideal the
    input generates, found by `_minimal` in one pool of `_pack`ed sets, one per
    degree. A divisor's support lies in its multiple's: `initial_ideal` runs
    `_minimal` once per support.
    """
    gens = list(map(tuple, gens))
    # before any set: 1 == True, so a bool could hide behind an equal int
    _check_ints(chain.from_iterable(gens), "exponents")
    if not gens:
        raise ValueError("cannot minimalize an empty generating set")
    n = len(gens[0])
    if any(len(e) != n for e in gens):
        raise ValueError("generators must all live in the ambient ring")
    if n and min(map(min, gens)) < 0:
        raise ValueError("exponents must be nonnegative")
    w = (max(map(max, gens)) if n else 0).bit_length() + 1
    desc = range(n - 1, -1, -1)
    levels = [{_pack(e, desc, w) for e in level} for _, level in groupby(sorted(gens, key=sum), sum)]
    kept = _minimal(levels, n, w)
    return MonomialIdeal._wrap(n, tuple(sorted(_unpack(p, desc, w) for p in kept)))


def _minimal(levels, n: int, w: int) -> list[int]:
    """The packed monomials of levels that no other divides, each level distinct
    monomials of one degree, levels in weakly increasing degree.

    Monomials are packed (`_pack`) with w bits for each of n variables, every
    exponent below 2**(w - 1). With G the top bit of every field, f divides e
    exactly when ((pack(e) | G) - pack(f)) & G == G, and no field borrows.

    Every generator kept so far sits in its own lane of n*w + 1 bits of one
    int F (`packs`), the i-th kept at bit (n*w + 1)*i; T is the lane's top
    bit. With R (`ones`) holding a 1 at the bottom of each lane,
    (pack(e) | G | T) * R puts a copy in every lane, and subtracting F leaves
    T + ((pack(e) | G) - pack(f_i)) in lane i. That lies in [T, 2T), so no
    borrow crosses a lane, and V = ((pack(e) | G | T) * R - F) & G_all
    (`guards`) has lane i's guards all set exactly when f_i divides e.
    Adding T - G to each lane (`carries`) carries into T just there: that
    sum is T_all - (V ^ G_all), the lane-wise zero test with the xor folded
    in, and no lane carries out, so its T bits (`tops`) are nonzero exactly
    when some kept generator divides e. Five big-int operations test e
    against every kept generator at once.

    A divisor has lower degree, so it is kept or dropped a level before its
    multiples; a monomial equal to a kept one is dropped. Two distinct monomials
    of one degree never divide each other, so the lanes grow once per level.
    """
    guard = _guard_bits(n, w)
    lane = n * w + 1
    top = 1 << (lane - 1)
    high, carry = guard | top, top - guard
    kept: list[int] = []
    packs = ones = guards = carries = tops = 0
    for level in levels:
        fresh = [p for p in level if not ((((p | high) * ones - packs) & guards) + carries) & tops]
        if fresh:
            # this level's survivors become lanes len(kept) onward
            block = 0
            for p in reversed(fresh):
                block = block << lane | p
            packs |= block << (lane * len(kept))
            kept += fresh
            ones = ((1 << (lane * len(kept))) - 1) // ((1 << lane) - 1)
            guards, carries, tops = guard * ones, carry * ones, ones << (lane - 1)
    return kept


@lru_cache(maxsize=None)
def _packed_fillings(parts: tuple[int, ...], w: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The closed-form monomials of the identity-standard fillings of `parts` by
    first row, packed as `_pack(e, range(n - 1, -1, -1), w)` packs e.

    `_identity_fillings`' recursion: entry n placed in 0-based row r adds
    r << w*(n-1), so x_v's exponent sits in the field at w*(v-1).
    """
    n = sum(parts)
    if n == 0:
        return {(): (0,)}
    out: dict[tuple[int, ...], tuple[int, ...]] = {}
    for r, sub in _removable_corners(parts):
        shift = r << (w * (n - 1))
        for first, packs in _packed_fillings(sub, w).items():
            if r == 0:
                out[first + (n,)] = packs
            else:
                out[first] = out.get(first, ()) + tuple(map(shift.__add__, packs))
    return out


@lru_cache(maxsize=None)
def _shape_terms(parts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Terms of the column product of T0, the filling numbering the cells 1..n row by row."""
    labels = iter(range(1, sum(parts) + 1))
    t0 = Tableau._wrap(tuple(tuple(islice(labels, p)) for p in parts))
    terms = {(0,) * t0.n: 1}
    for col in t0.columns():
        for a, b in combinations(col, 2):
            # times (x_a - x_b): every term shifted up in x_a, minus it shifted in x_b
            out: dict[tuple[int, ...], int] = {}
            for e, c in terms.items():
                up = e[: a - 1] + (e[a - 1] + 1,) + e[a:]
                out[up] = out.get(up, 0) + c
                up = e[: b - 1] + (e[b - 1] + 1,) + e[b:]
                out[up] = out.get(up, 0) - c
            terms = {e: c for e, c in out.items() if c}
    return terms


# the mask of one 64-bit lane
_LANE_MASK = (1 << 64) - 1


class _Lanes(NamedTuple):
    """A shape's T0 expansion as lanes: term i's exponent of x_{j+1} sits in
    64-bit lane i of cols[j], and its coefficient in coeffs[i]."""

    cols: tuple[int, ...]
    coeffs: tuple[int, ...]
    # a one at the bottom of each lane, so that v * ones copies v < 2**64 into every lane
    ones: int
    # the terms' common degree, or None if they differ
    degree: int | None
    # the largest exponent of any term
    top: int


@lru_cache(maxsize=None)
def _term_lanes(parts: tuple[int, ...]) -> _Lanes:
    """`_shape_terms(parts)` as `_Lanes`, built once per shape.

    Every tableau of the shape relabels T0's terms, so one multiply-add per
    column packs all of a tableau's terms at once (`_lane_pack`).
    """
    terms = _shape_terms(parts)
    form = f"={len(terms)}Q"
    cols = tuple(
        int.from_bytes(pack(form, *map(itemgetter(j), terms)), sys.byteorder)
        for j in range(sum(parts))
    )
    degrees = set(map(sum, terms))
    return _Lanes(
        cols,
        tuple(terms.values()),
        ((1 << (64 * len(terms))) - 1) // _LANE_MASK,
        degrees.pop() if len(degrees) == 1 else None,
        max(map(max, terms)),
    )


def _lane_pack(cols: tuple[int, ...], word: tuple[int, ...], scale) -> int:
    """Every term of a relabelled T0 packed at once: lane i holds sum_v e_v * scale[v]
    for term i, e_v its exponent of x_v.

    T0's x_c is renamed x_v, v = word[c-1] (a tableau's row word), so column
    c of `_term_lanes` is weighted by scale[v]. The caller keeps each lane's
    sum below 2**64, so no lane carries into the next.
    """
    return sum(map(mul, cols, map(scale.__getitem__, word)))


def _lane_list(p: int, count: int) -> list[int]:
    """The `count` 64-bit lanes of p, lowest first."""
    return memoryview(p.to_bytes(8 * count, sys.byteorder)).cast("Q").tolist()


def _lane(p: int, i: int) -> int:
    """Lane i of p."""
    return p >> (64 * i) & _LANE_MASK


def _lowest_lane(p: int) -> int:
    """The index of the lowest nonzero lane of p > 0."""
    return ((p & -p).bit_length() - 1) >> 6


def _lane_term(lanes: _Lanes, word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The exponent tuple of term i of T0's expansion relabelled by the row word."""
    exps = [0] * len(word)
    for col, v in zip(lanes.cols, word):
        exps[v - 1] = _lane(col, i)
    return tuple(exps)


def _lane_system(mu: Partition, order: VariableOrder, scale):
    """(tableau, row word, terms, lead) for each standard tableau of mu under order:
    terms lists its Specht polynomial's terms packed under scale
    (`_lane_pack`) in lane order, and lead is the index of the largest."""
    lanes = _term_lanes(mu.parts)
    count = len(lanes.coeffs)
    for t in standard_tableaux(mu, order):
        word = t.row_word()
        terms = _lane_list(_lane_pack(lanes.cols, word, scale), count)
        yield t, word, terms, terms.index(max(terms))


def specht_polynomial(t: Tableau) -> Polynomial:
    """Product over all columns of (x_a - x_b) for each pair with a above b.

    A single row yields the constant 1, a single column the full
    pairwise-difference product. The product for T0, which numbers the
    cells 1..n row by row, is expanded once per shape; t's is T0's with
    each x_i renamed to x_v, v being t's entry in the cell T0 numbers i.
    """
    relabel = _permuter(t.row_word())
    terms = _shape_terms(tuple(map(len, t.rows)))
    return Polynomial._wrap(t.n, {relabel(e): c for e, c in terms.items()})


def _row_exponents(rows) -> tuple[int, ...]:
    """Exponent tuple putting r0 on each entry of 0-based row r0 of a bijective filling."""
    exps = [0] * sum(map(len, rows))
    for r0 in range(1, len(rows)):
        for entry in rows[r0]:
            exps[entry - 1] = r0
    return tuple(exps)


def closed_form_initial_monomial(t: Tableau, order: VariableOrder) -> tuple[int, ...]:
    """Leading monomial of the column product, read from row positions.

    Valid only for column-standard fillings: there each difference factor
    (x_a - x_b) with a above b has x_b as its larger variable, so the
    product's leading monomial collects, for the entry in row d, the
    exponent d-1 on its variable.
    """
    if t.n != order.n:
        raise ValueError("tableau and order must agree on the number of variables")
    if not is_column_standard(t, order):
        raise ValueError(f"tableau {t} is not column standard for order {order}")
    return _row_exponents(t.rows)


def _check_shape(lam: Partition, order: VariableOrder) -> None:
    if lam.m < 2:
        raise ValueError("a single-row shape generates the unit ideal; nothing to do")
    if lam.n != order.n:
        raise ValueError("partition and order must agree on n")


_Pairs = tuple[tuple[Tableau, Polynomial], ...]


def _expanded_system(lam: Partition, order: VariableOrder, same_first_part: bool) -> _Pairs:
    _check_shape(lam, order)
    return tuple(
        (t, specht_polynomial(t))
        for mu in dominated_partitions(lam, same_first_part=same_first_part)
        for t in standard_tableaux(mu, order)
    )


def lex_groebner_generators(lam: Partition, order: VariableOrder) -> _Pairs:
    """(tableau, expanded polynomial) pairs for the standard tableaux of the
    dominated shapes sharing lam's first part."""
    return _expanded_system(lam, order, same_first_part=True)


def universal_groebner_generators(lam: Partition, order: VariableOrder) -> _Pairs:
    """(tableau, expanded polynomial) pairs for the standard tableaux of every
    dominated shape.

    A superset of the lex system; stays a Groebner basis under every
    variable order.
    """
    return _expanded_system(lam, order, same_first_part=False)


def initial_ideal(lam: Partition, order: VariableOrder) -> MonomialIdeal:
    """Minimal generators of the lex initial ideal, via closed-form monomials only.

    n and the tableau count are checked against INITIAL_IDEAL_N_LIMIT and
    INITIAL_IDEAL_TABLEAU_LIMIT before any tableau is built. Relabeled by
    sigma, an identity-standard filling is sigma-standard, so its closed-form
    monomial under sigma is the identity filling's moved by sigma. Each
    first-row group, one support (module docstring), is minimalized alone, a
    level per shape by degree, and unpacked by `desc0`, moving x_v to x_sigma(v).
    """
    _check_shape(lam, order)
    if lam.n > INITIAL_IDEAL_N_LIMIT:
        raise CapacityError(f"n={lam.n} exceeds the initial-ideal limit {INITIAL_IDEAL_N_LIMIT}")
    shapes = dominated_partitions(lam, same_first_part=True)
    count = sum(standard_tableau_count(mu) for mu in shapes)
    if count > INITIAL_IDEAL_TABLEAU_LIMIT:
        raise CapacityError(
            f"lambda={lam} has {count} generating tableaux, above the limit "
            f"{INITIAL_IDEAL_TABLEAU_LIMIT}"
        )
    w = (max(mu.m for mu in shapes) - 1).bit_length() + 1
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for _, parts in sorted((sum(i * p for i, p in enumerate(mu.parts)), mu.parts) for mu in shapes):
        for first, packs in _packed_fillings(parts, w).items():
            groups.setdefault(first, []).append(packs)
    kept = [p for levels in groups.values() for p in _minimal(levels, lam.n, w)]
    return MonomialIdeal._wrap(lam.n, tuple(sorted(_unpack(p, order.desc0, w) for p in kept)))


def gap_condition_audit(lam: Partition, order: VariableOrder) -> str:
    """Audit every minimal generator against the row-gap constraints.

    Each minimal generator's first witnessing standard tableau is located
    in one pass over the dominated shapes in dominance-descending order,
    which stops once every generator has a witness.
    When the largest variable sits in row j >= 2 of the witness, the shape
    must satisfy mu_{j-1} - mu_j >= k and the entry directly above must
    rank below n - k in the order. Returns "" on a pass, else a line naming
    the first violating generator, its witness tableau and the order.
    """
    k = min_gap_k(lam)
    ideal = initial_ideal(lam, order)
    n = lam.n
    largest = order.largest
    witnesses: dict[tuple[int, ...], tuple[Partition, Tableau]] = {}
    for mu in dominated_partitions(lam):
        for t in standard_tableaux(mu, order):
            witnesses.setdefault(closed_form_initial_monomial(t, order), (mu, t))
        if all(gen in witnesses for gen in ideal.min_gens):
            break
    else:
        gen = next(gen for gen in ideal.min_gens if gen not in witnesses)
        raise AssertionError(f"no witness tableau for minimal generator {gen}")
    for gen in ideal.min_gens:
        mu, t = witnesses[gen]
        j = t.row_of(largest)
        if j == 1:
            continue
        gap = mu.part(j - 1) - mu.part(j)
        above = t.rows[j - 2][mu.part(j) - 1]
        rank = order.rank_of(above)
        if gap < k or rank >= n - k:
            return (
                f"generator {_monomial_text(gen)} from tableau {t}: x{largest} in row {j}, "
                f"gap {gap} with k={k}, x{above} above at rank {rank}, under {order}"
            )
    return ""
