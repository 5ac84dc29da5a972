"""Initial ideals across all variable orders: counting, classes, and checks.

The fan of a shape is enumerated by computing the identity-order minimal
generators once and permuting their exponent tuples for every sigma.
Divisibility between monomials is preserved by any coordinate permutation,
so the permuted sets are again minimal; the direct per-sigma route stays
available through specht.initial_ideal and the two are compared in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from operator import itemgetter

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
from .specht import MonomialIdeal, initial_ideal

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "DegreeStatistic",
    "MonotonicityPair",
    "MonotonicityReport",
    "FanSummary",
    "EliminationIdentityReport",
    "degree_statistic",
    "monotonicity_check",
    "theorem_count",
    "order_class_predictor",
    "enumerate_fan",
    "elimination_identity_check",
]

DEFAULT_ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class DegreeStatistic:
    """Per-variable total degree across the initial monomials of one shape."""

    partition: Partition
    order: VariableOrder
    values: tuple[int, ...]

    def value_of(self, variable: int) -> int:
        return self.values[variable - 1]


def _degree_values(n: int, tabs) -> tuple[int, ...]:
    values = [0] * n
    for t in tabs:
        for r0, row in enumerate(t.rows):
            for entry in row:
                values[entry - 1] += r0
    return tuple(values)


def degree_statistic(lam: Partition, order: VariableOrder) -> DegreeStatistic:
    """Sum of initial-monomial exponents of each variable over STab(lam)."""
    if lam.n != order.n:
        raise ValueError("partition and order must agree on n")
    return DegreeStatistic(lam, order, _degree_values(lam.n, standard_tableaux(lam, order)))


@dataclass(frozen=True)
class MonotonicityPair:
    position: int
    lower_variable: int
    upper_variable: int
    lower_value: int
    upper_value: int
    strict: bool
    witness: bool

    @property
    def ok(self) -> bool:
        return self.lower_value <= self.upper_value and self.strict == self.witness


@dataclass(frozen=True)
class MonotonicityReport:
    partition: Partition
    order: VariableOrder
    values: tuple[int, ...]
    pairs: tuple[MonotonicityPair, ...]
    failures: tuple[MonotonicityPair, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def monotonicity_check(lam: Partition, order: VariableOrder) -> MonotonicityReport:
    """Degrees must weakly increase along the order, strictly exactly when
    some standard tableau of the shape puts the two variables in one column."""
    tabs = standard_tableaux(lam, order)
    values = _degree_values(lam.n, tabs)
    pairs = []
    failures = []
    for i in range(1, lam.n):
        a = order.sigma[i - 1]
        b = order.sigma[i]
        da = values[a - 1]
        db = values[b - 1]
        witness = any(t.column_of(a) == t.column_of(b) for t in tabs)
        pair = MonotonicityPair(i, a, b, da, db, da < db, witness)
        pairs.append(pair)
        if not pair.ok:
            failures.append(pair)
    return MonotonicityReport(lam, order, values, tuple(pairs), tuple(failures))


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
    head = n - min_gap_k(lam) - 1
    return sigma[:head] == tau[:head] and set(sigma[head:]) == set(tau[head:])


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

    def representative(self, ideal: MonomialIdeal) -> tuple[int, ...]:
        """Lexicographically smallest order in the class."""
        return self.classes[ideal][0]

    def order_to_ideal(self) -> dict[tuple[int, ...], MonomialIdeal]:
        return {o: ideal for ideal, orders in self.classes.items() for o in orders}

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


def enumerate_fan(lam: Partition, limit: int = DEFAULT_ENUMERATION_LIMIT) -> FanSummary:
    """Group all n! variable orders by their initial ideal.

    Brute force over the symmetric group; refuses n beyond `limit`.
    """
    n = lam.n
    if lam.m < 2:
        raise ValueError("fan enumeration needs a shape with at least two rows")
    if n > limit:
        raise CapacityError(f"n={n} exceeds the enumeration limit {limit}")
    base = initial_ideal(lam, VariableOrder.identity(n)).min_gens
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    # permutations yields the orders in lex order, so every class list is sorted
    for sigma in permutations(range(1, n + 1)):
        # variable sigma(a) takes the exponent of variable a; n >= 2, so a tuple
        move = itemgetter(*sorted(range(n), key=sigma.__getitem__))
        key = tuple(sorted(map(move, base)))
        groups.setdefault(key, []).append(sigma)
    classes = {MonomialIdeal(n, key): tuple(groups[key]) for key in sorted(groups)}
    return FanSummary(lam, min_gap_k(lam), classes)


@dataclass(frozen=True)
class EliminationIdentityReport:
    """Monomial-level elimination comparison for one order, on exponent tuples."""

    partition: Partition
    order: VariableOrder
    hat_partition: Partition | None
    skipped: bool
    lhs: tuple[tuple[int, ...], ...]
    rhs: tuple[tuple[int, ...], ...]
    equal: bool

    @property
    def passed(self) -> bool:
        return self.skipped or self.equal


def elimination_identity_check(lam: Partition, order: VariableOrder) -> EliminationIdentityReport:
    """Generators free of the largest variable must match the shrunken shape's ideal.

    The right side is computed for hat(lam) in the inner order on the
    surviving n-1 variables and embedded back into the ambient ring; for
    monomial ideals this filtering is an exact intersection with the
    subring.
    """
    if lam.parts[0] < 2 or lam.m < 2:
        raise ValueError("elimination needs a first part >= 2 and a second row")
    lhat = hat(lam)
    if lhat.m < 2:
        return EliminationIdentityReport(lam, order, lhat, True, (), (), True)
    n = lam.n
    inner, removed, asc = prefix_standardization(order)
    lhs = tuple(e for e in initial_ideal(lam, order).min_gens if e[removed - 1] == 0)
    # asc is increasing, so embedding keeps the sorted order of min_gens
    rhs = tuple(embed_exponents(e, n, asc) for e in initial_ideal(lhat, inner).min_gens)
    return EliminationIdentityReport(lam, order, lhat, False, lhs, rhs, lhs == rhs)
