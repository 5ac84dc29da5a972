"""Initial ideals across all variable orders: counting, classes, and checks.

The fan of a shape is enumerated by computing the identity-order minimal
generators once, packing them as n column ints, and permuting those columns
for every sigma. Each generator then sits in a 32-bit lane, 3 bits per
variable with x1 on top, so lane ints compare as exponent tuples, and the
sorted lanes packed big-endian as bytes key the class (see enumerate_fan).
Sigma is taken as a head, its first n-4 images, and a tail, an order of the
4 values left, whose shifted column sums are computed once per value set.
Divisibility between monomials is preserved by any coordinate permutation, so
the permuted sets are again minimal. The direct route, specht.initial_ideal,
moves each closed-form monomial with the sigma-action `combinatorics._permuter`
before minimalizing; the fan moves no tuple and shifts column a into the field
of x_sigma(a). `count` takes only the number of keys (`_order_groups`).
`TestInitialIdealFastPath` checks `_permuter` against the tableaux
standard_tableaux relabels on its own, for every sigma with n <= 5;
`test_fan.py` compares enumerate_fan with `helpers.brute_fan` and, at every
head length and at full lane width, with the classes `_permuter` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from math import factorial
from operator import add
from struct import Struct

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
from .polyring import _monomial_text
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
_FIELD = 3  # bits per variable in a fan key lane: exponents up to 7, n <= 8 in 24 bits
_TAIL = 4  # the last images of sigma, whose shifted column sums are shared


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


def _order_groups(lam: Partition) -> dict[bytes, list[tuple[int, ...]]]:
    """All n! orders of lam, in lex order, grouped by the key of their initial ideal.

    The key loop of enumerate_fan, which decodes the keys; `count` reads only
    how many there are. Lane i of a key is the big-endian 32-bit word
    `polyring._pack(sigma·g_i, range(n), 3)`, and the lanes are sorted.
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
    cols = tuple(sum(g[a] << 32 * i for i, g in enumerate(base)) for a in range(n))
    lanes = Struct(f"<{len(base)}I")  # lane i is bits 32i to 32i+31 of a little-endian int
    keys = Struct(f">{len(base)}I")  # big-endian, so bytes order is lane-tuple order
    unpack, size, pack = lanes.unpack, lanes.size, keys.pack
    h = max(0, n - _TAIL)

    @cache
    def tails(rest: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        # each order of the values left, columns h.. shifted into their fields, x1 on top
        return [
            (tail, sum(cols[h + j] << _FIELD * (n - v) for j, v in enumerate(tail)))
            for tail in permutations(rest)
        ]

    groups: dict[bytes, list[tuple[int, ...]]] = {}
    # the heads come in lex order and each one's tails too, so head + tail is sigma
    # in lex order, and every class list is sorted
    for head in permutations(range(1, n + 1), h):
        x = sum(cols[a] << _FIELD * (n - v) for a, v in enumerate(head))
        rest = tuple(v for v in range(1, n + 1) if v not in head)
        for tail, y in tails(rest):
            key = pack(*sorted(unpack((x + y).to_bytes(size, "little"))))
            groups.setdefault(key, []).append(head + tail)
    return groups


def enumerate_fan(lam: Partition) -> FanSummary:
    """Group all n! variable orders by their initial ideal.

    Brute force over the symmetric group; refuses n beyond DEFAULT_ENUMERATION_LIMIT.
    The identity ideal's generators are packed once as n column ints, column
    a holding the exponent of x_(a+1) in generator i in the 32-bit lane i.
    Each sigma shifts column a into the 3-bit field n-sigma(a) of every lane,
    the field of x_sigma(a), so lane i becomes sigma·g_i packed with x1 on top.
    With n <= 8 the fields fill at most 24 bits of a lane, and with every
    exponent at most 7 (checked before the loop) no field carries into the
    next, so lane ints compare as the exponent tuples, and the class key, the
    sorted lanes packed big-endian as bytes, sorts as the sorted tuples would.
    Sigma is split into a head, its first max(0, n-4) images, and a tail, an
    order of the values left; each value set's tails and the sum of their
    shifted columns are computed once, so one order costs one big-int add.
    After the loop each distinct lane is decoded once; the classes share its tuple.
    """
    groups = _order_groups(lam)
    n = lam.n
    keys = Struct(f">{len(next(iter(groups))) // 4}I")
    shifts = range(_FIELD * (n - 1), -1, -_FIELD)
    decode = cache(lambda v: tuple(v >> s & 7 for s in shifts))
    # each key permutes the checked generators of base, so it is minimal and sorted
    classes = {
        MonomialIdeal._wrap(n, tuple(map(decode, keys.unpack(key)))): tuple(groups[key])
        for key in sorted(groups)
    }
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
