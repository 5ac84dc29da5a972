"""Initial ideals across all variable orders: counting, classes, and checks.

The fan of a shape is enumerated from the identity-order minimal generators,
computed once. An order sigma sends a generator g to the exponent tuple whose
entry j is g[tau(j)], with tau = sigma^-1; any coordinate permutation keeps
divisibility, so the permuted set is again minimal, and its sorted tuple is
the initial ideal of sigma. The key loop, `_order_groups`, walks tau in lex
order as a head, its first h = n - 4 entries, and a placement of the columns
left. The head fixes the top h exponents of every permuted generator, its
head part, so the generators fall into blocks of equal head part. Which
generators share a block depends only on the head's column set, so the split
is made once per set. Each block's rows on the remaining columns, placed in
each of their 4! = 24 orders and packed 3 bits an exponent with the first on
top (`polyring._pack`), are sorted and interned once per distinct row set.
The key of an order is one tail-set index per block, blocks in head-part
order, and the packed head parts as bytes; the 24 keys of a head come from
one zip, with no sort per order.

The key is a function of the permuted set S: S fixes its distinct head
parts, so the bytes, and for each head part the set of tail rows beside it,
so the indices. It is also injective: it lists every head part with its tail
rows, which is S again. So two orders share a key exactly when they share an
initial ideal, no merge pass is needed, and a key decodes straight to the
sorted generators of its class, head parts ascending and each block's tail
rows ascending (see enumerate_fan). Packing keeps order and equality only
while no exponent carries into the next field, so exponents above 7 are
refused before the loop. `count` takes only the number of keys.

The direct route, specht.initial_ideal, moves each closed-form monomial with
the sigma-action `combinatorics._permuter` before minimalizing.
`TestInitialIdealFastPath` checks `_permuter` against the tableaux
standard_tableaux relabels on its own, for every sigma with n <= 5;
`test_fan.py` compares enumerate_fan with `helpers.brute_fan` and with the
classes `_permuter` gives, at every head length, on every n = 6 shape, and at
n = 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, permutations, repeat
from math import factorial
from operator import add, itemgetter, lshift
from struct import Struct, unpack

from .combinatorics import (
    Partition,
    VariableOrder,
    embed_exponents,
    hat,
    min_gap_k,
    prefix_standardization,
    standard_tableaux,
)
from .errors import CapacityError
from .polyring import _monomial_text, _pack, _unpack
from .specht import MonomialIdeal, _row_exponents, initial_ideal

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "FanSummary",
    "monotonicity_check",
    "theorem_count",
    "order_class_predictor",
    "enumerate_fan",
    "elimination_identity_check",
]

DEFAULT_ENUMERATION_LIMIT = 8
_FIELD = 3  # bits per packed exponent: up to 7
_TAIL = 4  # the last entries of tau, placed in each of their 24 orders per head


def _degree_values(n: int, tabs) -> tuple[int, ...]:
    values = (0,) * n
    for t in tabs:
        values = tuple(map(add, values, _row_exponents(t.rows)))
    return values


def monotonicity_check(lam: Partition, order: VariableOrder) -> str:
    """Degrees must weakly increase along the order, strictly exactly when
    some standard tableau of the shape puts the two variables in one column.

    Returns "" on a pass, else a line naming the first failing pair and the order.
    """
    tabs = standard_tableaux(lam, order)
    values = _degree_values(lam.n, tabs)
    for i in range(1, lam.n):
        a = order.sigma[i - 1]
        b = order.sigma[i]
        da = values[a - 1]
        db = values[b - 1]
        witness = any(t.column_of(a) == t.column_of(b) for t in tabs)
        if da > db or (da < db) != witness:
            shared = "shared" if witness else "no shared"
            return (
                f"positions {i},{i + 1}: x{a} has degree {da}, x{b} has {db}, "
                f"{shared} column, under {order}"
            )
    return ""


def theorem_count(lam: Partition) -> int:
    """Predicted number of distinct initial ideals: n! / (k+1)!."""
    return factorial(lam.n) // factorial(min_gap_k(lam) + 1)


def order_class_predictor(lam: Partition, sigma: tuple[int, ...], tau: tuple[int, ...]) -> bool:
    """Whether two orders, given in one-line notation, should share an initial ideal.

    True exactly when the orders agree position-by-position up to n-k-1 and
    agree as sets on the last k+1 positions.
    """
    n = lam.n
    if len(sigma) != n or len(tau) != n:
        raise ValueError("orders must match the partition's n")
    for s in (sigma, tau):
        VariableOrder(s)  # raises unless s permutes 1..n
    head = n - min_gap_k(lam) - 1
    return _class_key(head, sigma) == _class_key(head, tau)


def _class_key(head: int, sigma: tuple[int, ...]) -> tuple:
    """The predicted class of an order, with head = n-k-1: two orders share
    an initial ideal exactly when their keys are equal."""
    return (sigma[:head], frozenset(sigma[head:]))


@dataclass
class FanSummary:
    """The ideal-to-orders grouping over all n! orders, each in one-line notation."""

    partition: Partition
    k: int
    classes: dict[MonomialIdeal, tuple[tuple[int, ...], ...]]

    @property
    def total_orders(self) -> int:
        return factorial(self.partition.n)

    @property
    def distinct_count(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.partition.parts),
            "n": self.partition.n,
            "k": self.k,
            "total_orders": self.total_orders,
            "distinct_count": self.distinct_count,
            "classes": [
                {
                    "ideal": ideal.to_json(),
                    "size": len(orders),
                    "representative": list(orders[0]),
                }
                for ideal, orders in self.classes.items()
            ],
        }


def _order_groups(
    lam: Partition, orders: bool = True
) -> tuple[dict[tuple, list[tuple[int, ...]] | None], list[tuple[int, ...]]]:
    """All n! orders of lam grouped by the key of their initial ideal, and the
    tail sets the keys index, each a sorted tuple of packed tail rows.

    The key loop of enumerate_fan (see the module docstring). A key is
    (i_1, ..., i_B, parts): parts packs block b's head part, shifted left by
    the bit length of the number of tail sets, in 64-bit lane b, and i_b
    indexes block b's tail set, so lane b plus i_b is block b's code. With
    orders=True each group lists its orders sigma in one-line notation,
    unsorted. `count` reads only how many groups there are and passes
    orders=False: no order is built or kept, and every group holds None.
    """
    n = lam.n
    if lam.m < 2:
        raise ValueError("fan enumeration needs a shape with at least two rows")
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise CapacityError(f"n={n} exceeds the enumeration limit {DEFAULT_ENUMERATION_LIMIT}")
    base = initial_ideal(lam, VariableOrder.identity(n)).min_gens
    top = max(map(max, base))
    if top >> _FIELD:
        raise CapacityError(f"exponent {top} does not fit the {_FIELD}-bit field of a fan key")
    t = min(_TAIL, n)
    h = n - t
    placements = list(permutations(range(t)))
    tails: dict[tuple[int, ...], int] = {}  # sorted packed tail rows -> index
    placed: dict[tuple[tuple[int, ...], ...], list[int]] = {}  # sorted rest rows -> tail set per placement
    splits = []
    for head_cols in combinations(range(n), h):
        rest = tuple(c for c in range(n) if c not in head_cols)
        blocks: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # head part -> rows on rest
        for g in base:
            blocks.setdefault(tuple(g[c] for c in head_cols), []).append(tuple(g[c] for c in rest))
        ids = []
        for rows in map(tuple, map(sorted, blocks.values())):
            if rows not in placed:
                placed[rows] = [
                    tails.setdefault(tuple(sorted(_pack(r, p, _FIELD) for r in rows)), len(tails))
                    for p in placements
                ]
            ids.append(placed[rows])
        splits.append((head_cols, rest, list(blocks), ids))
    # the tail-set index fills the low bits of a code, so codes hash apart
    bits = len(tails).bit_length()
    head_shifts = range(bits + _FIELD * (h - 1), bits - 1, -_FIELD)
    layout = {}
    for head_cols, rest, parts, ids in splits:
        # head column c holds each block's exponent of x_(c+1), block b in lane b
        cols = {c: sum(part[j] << 64 * b for b, part in enumerate(parts)) for j, c in enumerate(head_cols)}
        layout[frozenset(head_cols)] = (rest, cols, Struct(f"<{len(parts)}Q"), ids)
    # sigma = tau^-1 takes tau's head entry j to j + 1 and its tail entry p_j to h + 1 + j
    arrs = [tuple(range(1, h + 1)) + tuple(h + 1 + p.index(i) for i in range(t)) for p in placements]

    groups: dict[tuple, list[tuple[int, ...]] | None] = {}
    for head in permutations(range(n), h):
        rest, cols, lanes, ids = layout[frozenset(head)]
        x = sum(map(lshift, map(cols.__getitem__, head), head_shifts))
        # the blocks in head-part order; the parts are distinct, so no id list is compared
        parts, lists = zip(*sorted(zip(lanes.unpack(x.to_bytes(lanes.size, "little")), ids)))
        keys = zip(*lists, repeat(lanes.pack(*parts)))
        if not orders:
            groups.update(zip(keys, repeat(None)))
            continue
        get = itemgetter(*sorted(range(n), key=(head + rest).__getitem__))
        for key, sigma in zip(keys, map(get, arrs)):
            groups.setdefault(key, []).append(sigma)
    return groups, list(tails)


def enumerate_fan(lam: Partition) -> FanSummary:
    """Group all n! variable orders by their initial ideal.

    Brute force over the symmetric group; refuses n beyond DEFAULT_ENUMERATION_LIMIT.
    Each key of _order_groups decodes straight to the sorted generators of
    its class: block by block, the head part above each of the block's tail
    rows, read back with `_unpack`. A block is decoded once per code and a generator once per packed
    form, so the classes share one tuple per distinct generator, which the
    JSON writer's memo relies on. The classes come out sorted by their
    generators, and each class's orders sorted.
    """
    groups, tails = _order_groups(lam)
    n = lam.n
    tail_bits = _FIELD * min(_TAIL, n)
    gen = cache(lambda v: _unpack(v, range(n), _FIELD))
    bits = len(tails).bit_length()
    index = (1 << bits) - 1

    @cache
    def block(code: int) -> tuple[tuple[int, ...], ...]:
        return tuple(map(gen, map(add, repeat(code >> bits << tail_bits), tails[code & index])))

    def gens(key: tuple) -> tuple[tuple[int, ...], ...]:
        parts = unpack(f"<{len(key) - 1}Q", key[-1])
        return tuple(chain.from_iterable(map(block, map(add, parts, key))))

    # each key permutes the checked generators of base, so it is minimal and sorted
    decoded = sorted(zip(map(gens, groups), groups.values()), key=itemgetter(0))
    classes = {MonomialIdeal._wrap(n, g): tuple(sorted(orders)) for g, orders in decoded}
    return FanSummary(lam, min_gap_k(lam), classes)


def elimination_identity_check(lam: Partition, order: VariableOrder) -> str:
    """Generators free of the largest variable must match the shrunken shape's ideal.

    The right side is computed for hat(lam) in the inner order on the
    surviving n-1 variables and embedded back into the ambient ring; for
    monomial ideals this filtering is an exact intersection with the
    subring. hat(lam) has a second row too: its first part lam_1 - 1 is
    below its n - 1 boxes. Returns "" on a pass, else a line naming the
    smallest generator on one side only, that side, and the order.
    """
    if lam.parts[0] < 2 or lam.m < 2:
        raise ValueError("elimination needs a first part >= 2 and a second row")
    lhat = hat(lam)
    n = lam.n
    inner, removed, asc = prefix_standardization(order)
    lhs = {e for e in initial_ideal(lam, order).min_gens if e[removed - 1] == 0}
    rhs = {embed_exponents(e, n, asc) for e in initial_ideal(lhat, inner).min_gens}
    if lhs == rhs:
        return ""
    first = min(lhs ^ rhs)
    side = f"free of x{removed}, not from hat={lhat}" if first in lhs else f"from hat={lhat} only"
    return f"generator {_monomial_text(first)} is {side}, under {order}"
