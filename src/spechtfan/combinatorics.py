"""Partitions, variable orders, and Young tableaux.

Everything downstream is built from three small immutable values: a
Partition (weakly decreasing positive parts), a VariableOrder (a
permutation in one-line notation listing the variables from smallest to
largest), and a Tableau (a bijective filling of a Young diagram).
Standardness of a filling is always judged relative to a VariableOrder,
never to the plain integer order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, permutations
from math import factorial
from operator import itemgetter
from random import Random

from .errors import CapacityError

__all__ = [
    "Partition",
    "VariableOrder",
    "Tableau",
    "enumerate_partitions",
    "dominance_leq",
    "dominated_partitions",
    "min_gap_k",
    "hat",
    "standard_tableaux",
    "standard_tableau_count",
    "is_column_standard",
    "prefix_standardization",
    "embed_exponents",
    "sample_orders",
]


def _check_ints(values, what: str) -> None:
    """TypeError unless every value is an int; int() would truncate a float or a bool.

    Each value's type is taken once; the test then runs per distinct type.
    """
    for t in set(map(type, values)):
        if t is bool or not issubclass(t, int):
            raise TypeError(f"{what} must be int, got {t.__name__}")


def _permuter(sigma: tuple[int, ...]):
    """The action of a valid permutation sigma of 1..n on exponent tuples of length n.

    The returned callable maps e to the tuple that gives x_sigma(a) the
    exponent e[a-1] of x_a, so applying tau's and then sigma's is sigma∘tau's.
    """
    if len(sigma) == 1:
        return tuple  # a one-index itemgetter would return a scalar
    return itemgetter(*sorted(range(len(sigma)), key=sigma.__getitem__))


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; trailing zeros are dropped on input."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        _check_ints(parts, "parts")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if not parts:
            raise ValueError("a partition needs at least one positive part")
        if any(b > a for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated parts such as "4,2,1"."""
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse partition from {text!r}") from exc
        return cls(parts)

    @property
    def n(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    @property
    def m(self) -> int:
        """Number of rows."""
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based; zero past the last row."""
        if i < 1:
            raise ValueError("part index is 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def has_repeated_part(self) -> bool:
        return any(a == b for a, b in zip(self.parts, self.parts[1:]))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class VariableOrder:
    """One-line notation sigma; x_{sigma[0]} is smallest, x_{sigma[-1]} largest."""

    sigma: tuple[int, ...]
    # position of each variable in the order, 1-based; derived, not compared
    ranks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    # variable indices from largest to smallest, 0-based; used by lex keys
    desc0: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        sigma = tuple(self.sigma)
        _check_ints(sigma, "order entries")
        object.__setattr__(self, "sigma", sigma)
        n = len(sigma)
        if n < 1:
            raise ValueError("n must be at least 1")
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {sigma}")
        ranks = [0] * n
        for pos, v in enumerate(sigma, start=1):
            ranks[v - 1] = pos
        object.__setattr__(self, "ranks", tuple(ranks))
        object.__setattr__(self, "desc0", tuple(v - 1 for v in reversed(sigma)))

    @classmethod
    def identity(cls, n: int) -> "VariableOrder":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def parse(cls, text: str) -> "VariableOrder":
        """Parse one-line notation such as "2,3,1"."""
        try:
            sigma = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse permutation from {text!r}") from exc
        return cls(sigma)

    @property
    def n(self) -> int:
        return len(self.sigma)

    def rank_of(self, variable: int) -> int:
        """Position of a variable in the order, 1-based."""
        return self.ranks[variable - 1]

    @property
    def largest(self) -> int:
        """The lex-largest variable, sigma(n)."""
        return self.sigma[-1]

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.sigma)


@dataclass(frozen=True)
class Tableau:
    """A bijective filling of a Young diagram by 1..n, stored row by row."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        Partition(tuple(len(r) for r in rows))  # validates the shape
        entries = list(chain.from_iterable(rows))
        _check_ints(entries, "tableau entries")
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"entries must be a bijective filling by 1..{n}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _wrap(cls, rows: tuple[tuple[int, ...], ...]) -> "Tableau":
        """A tableau from int-tuple rows already known to fill a partition shape bijectively."""
        t = cls.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def row_of(self, entry: int) -> int:
        for i, row in enumerate(self.rows, 1):
            if entry in row:
                return i
        raise ValueError(f"{entry} is not an entry of the tableau {self}")

    def column_of(self, entry: int) -> int:
        return self.rows[self.row_of(entry) - 1].index(entry) + 1

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Entries of each column, left to right, each top to bottom."""
        return tuple(tuple(r[c] for r in self.rows if len(r) > c) for c in range(len(self.rows[0])))

    def row_word(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.rows))

    def __str__(self) -> str:
        return "/".join(",".join(str(e) for e in row) for row in self.rows)


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in decreasing lexicographic order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(Partition(p) for p in _partition_tuples(n, n))


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """Whether mu is dominated by lam: every prefix sum of mu is <= that of lam."""
    if mu.n != lam.n:
        raise ValueError("dominance compares partitions of the same n")
    acc_mu = 0
    acc_lam = 0
    for i in range(1, max(mu.m, lam.m) + 1):
        acc_mu += mu.part(i)
        acc_lam += lam.part(i)
        if acc_mu > acc_lam:
            return False
    return True


@lru_cache(maxsize=None)
def dominated_partitions(lam: Partition, same_first_part: bool = False) -> tuple[Partition, ...]:
    """Partitions of lam.n dominated by lam, in decreasing lex order.

    Decreasing lex is a linear extension of dominance, so this listing is
    dominance-descending. With same_first_part=True only shapes whose first
    part equals lam's are kept.
    """
    out = []
    for mu in enumerate_partitions(lam.n):
        if same_first_part and mu.parts[0] != lam.parts[0]:
            continue
        if dominance_leq(mu, lam):
            out.append(mu)
    return tuple(out)


def min_gap_k(lam: Partition) -> int:
    """Minimum difference between consecutive parts; zero iff a part repeats."""
    if lam.m < 2:
        raise ValueError("the gap statistic needs at least two parts")
    return min(a - b for a, b in zip(lam.parts, lam.parts[1:]))


def hat(lam: Partition) -> Partition:
    """The companion shape of n-1 boxes obtained by the greedy shrink rule.

    The first part drops by one; each later part is the largest value that
    keeps the parts weakly decreasing while never letting the prefix sums
    reach those of lam. Rows are appended past lam.m (reading missing parts
    as zero) until the total is n-1.
    """
    if lam.parts[0] < 2:
        raise ValueError("hat needs a first part of at least 2")
    n = lam.n
    out = [lam.parts[0] - 1]
    total = out[0]
    prefix = lam.parts[0]
    i = 2
    while total < n - 1:
        prefix += lam.part(i)
        nxt = min(out[-1], prefix - total - 1)
        if nxt < 1:
            raise AssertionError(f"shrink rule degenerated on {lam}")
        out.append(nxt)
        total += nxt
        i += 1
    return Partition(tuple(out))


@lru_cache(maxsize=None)
def _identity_fillings(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Fillings of `parts` by 1..n with rows and columns increasing naturally."""
    n = sum(parts)
    if n == 0:
        return ((),)
    out = []
    for r in range(len(parts)):
        if r + 1 < len(parts) and parts[r] == parts[r + 1]:
            continue  # not a removable corner
        sub = tuple(p for p in parts[:r] + (parts[r] - 1,) + parts[r + 1:] if p > 0)
        for rows in _identity_fillings(sub):
            grown = list(rows)
            if r < len(grown):
                grown[r] = grown[r] + (n,)
            else:
                grown.append((n,))
            out.append(tuple(grown))
    return tuple(out)


def standard_tableaux(shape: Partition, order: VariableOrder) -> tuple[Tableau, ...]:
    """All fillings of `shape` standard with respect to `order`.

    Computed by relabeling the identity-standard fillings through sigma,
    which is a bijection onto the sigma-standard ones. Returned sorted by
    row-reading word so the listing is reproducible.
    """
    if shape.n != order.n:
        raise ValueError(f"shape has {shape.n} boxes but order has {order.n} variables")
    tabs = [
        Tableau._wrap(tuple(tuple(order.sigma[a - 1] for a in row) for row in rows))
        for rows in _identity_fillings(shape.parts)
    ]
    tabs.sort(key=Tableau.row_word)
    return tuple(tabs)


def standard_tableau_count(shape: Partition) -> int:
    """Number of standard tableaux of a shape under any order, without building one.

    Hook-length formula (Frame, Robinson and Thrall, 1954): n! divided by
    the product over all boxes of arm + leg + 1.
    """
    parts = shape.parts
    hooks = 1
    for r, p in enumerate(parts):
        for c in range(p):
            hooks *= p - c + sum(1 for q in parts[r + 1:] if q > c)
    return factorial(shape.n) // hooks


def is_column_standard(t: Tableau, order: VariableOrder) -> bool:
    """Whether every column increases top to bottom in the given order."""
    for col in t.columns():
        for a, b in zip(col, col[1:]):
            if order.rank_of(a) >= order.rank_of(b):
                return False
    return True


def prefix_standardization(order: VariableOrder) -> tuple[VariableOrder, int, tuple[int, ...]]:
    """Split off the largest variable and renumber the rest to 1..n-1.

    Returns (inner, removed, kept_ascending) where inner is the order the
    surviving variables induce after rank renumbering, removed = sigma(n),
    and kept_ascending lists the surviving variable names in increasing
    integer order (so kept_ascending[r-1] is the variable renamed to r).
    """
    if order.n < 2:
        raise ValueError("nothing left after dropping the largest variable")
    kept = order.sigma[:-1]
    removed = order.sigma[-1]
    asc = tuple(sorted(kept))
    rank = {v: r for r, v in enumerate(asc, start=1)}
    inner = VariableOrder(tuple(rank[v] for v in kept))
    return inner, removed, asc


def embed_exponents(exps: tuple[int, ...], n: int, asc: tuple[int, ...]) -> tuple[int, ...]:
    """Write the exponents of n-1 renumbered variables back into n variables.

    Inverse of the renaming in prefix_standardization: exps[r-1] becomes the
    exponent of asc[r-1], and the removed variable gets exponent 0.
    """
    out = [0] * n
    for r0, v in enumerate(asc):
        out[v - 1] = exps[r0]
    return tuple(out)


@lru_cache(maxsize=None)
def _all_one_line(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(1, n + 1)))


def sample_orders(n: int, count: int, rng: Random) -> list[VariableOrder]:
    """Up to `count` distinct variable orders, deterministic for a given rng."""
    # drawn from the list of all n! orders, so n is bounded before it is built
    if n > 8:
        raise CapacityError(f"n={n} exceeds the order sampling limit 8")
    if count >= factorial(n):
        return [VariableOrder(s) for s in _all_one_line(n)]
    return [VariableOrder(s) for s in rng.sample(_all_one_line(n), count)]
