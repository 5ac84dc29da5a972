"""Specht polynomials and their initial monomial ideals.

The generator attached to a tableau is the product of within-column
differences. For a column-standard tableau its lex leading monomial can be
read off without expanding anything: the entry sitting in row d contributes
exponent d-1 to its variable. Initial ideals are assembled from those
closed-form monomials alone; polynomial expansion is reserved for the
generating systems handed to the division-algorithm layer.

`initial_ideal` works on raw exponent tuples read off fillings that are
standard by construction; the public `closed_form_initial_monomial` keeps
its column-standardness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import le, lt

from .combinatorics import (
    Partition,
    Tableau,
    VariableOrder,
    _identity_fillings,
    dominated_partitions,
    is_column_standard,
    min_gap_k,
    standard_tableau_count,
    standard_tableaux,
)
from .errors import CapacityError
from .polyring import Monomial, Polynomial

__all__ = [
    "INITIAL_IDEAL_N_LIMIT",
    "INITIAL_IDEAL_TABLEAU_LIMIT",
    "MonomialIdeal",
    "SpechtSystem",
    "SignCheckResult",
    "GapAuditEntry",
    "GapAuditReport",
    "specht_polynomial",
    "closed_form_initial_monomial",
    "transposition_sign_check",
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
        gens = tuple(map(tuple, self.min_gens))
        if not gens:
            raise ValueError("a monomial ideal here always has at least one generator")
        if set(map(len, gens)) != {self.n}:
            raise ValueError("generators must all live in the ambient ring")
        if self.n and min(map(min, gens)) < 0:
            raise ValueError("exponents must be nonnegative")
        if not all(map(lt, gens, gens[1:])):
            raise ValueError("generators must be strictly sorted by exponent tuple")
        object.__setattr__(self, "min_gens", gens)

    def contains(self, exps: tuple[int, ...]) -> bool:
        """Monomial membership: some generator divides the exponent tuple."""
        if len(exps) != self.n:
            raise ValueError("monomial lives in a different ring")
        return any(all(map(le, g, exps)) for g in self.min_gens)

    def to_json(self) -> dict:
        return {"n": self.n, "min_gens": [list(g) for g in self.min_gens]}

    def __str__(self) -> str:
        return "<" + ", ".join(str(Monomial(g)) for g in self.min_gens) + ">"


def minimalize(gens) -> MonomialIdeal:
    """Drop every exponent tuple strictly divisible by another; sort what is left.

    The surviving set is the unique minimal generating set of the ideal the
    input generates. Each exponent tuple is packed into one int with w bits
    per variable, one more than the largest exponent needs; with G the top
    bit of every field, f divides e exactly when
    ((pack(e) | G) - pack(f)) & G == G, and no field borrows. Monomials are
    taken by degree, so every divisor is kept or dropped before its multiples.
    """
    pool = {tuple(map(int, g)) for g in gens}
    if not pool:
        raise ValueError("cannot minimalize an empty generating set")
    n = len(next(iter(pool)))
    if any(len(e) != n for e in pool):
        raise ValueError("generators must all live in the ambient ring")
    if n and min(map(min, pool)) < 0:
        raise ValueError("exponents must be nonnegative")
    w = (max(map(max, pool)) if n else 0).bit_length() + 1
    guard = sum(1 << (w * i + w - 1) for i in range(n))
    kept: list[tuple[int, ...]] = []
    packed: list[int] = []
    for e in sorted(pool, key=lambda e: (sum(e), e)):
        p = 0
        for x in e:
            p = (p << w) | x
        high = p | guard
        for f in packed:
            if (high - f) & guard == guard:
                break
        else:
            kept.append(e)
            packed.append(p)
    kept.sort()
    return MonomialIdeal(n, tuple(kept))


def specht_polynomial(t: Tableau) -> Polynomial:
    """Product over all columns of (x_a - x_b) for each pair with a above b.

    A single-row tableau has no such pairs and yields the constant 1; a
    single column yields the full pairwise-difference product of its
    entries.
    """
    n = t.n
    out = Polynomial.one(n)
    for col in t.columns():
        for a, b in combinations(col, 2):
            out = out * Polynomial.difference(n, a, b)
    return out


def closed_form_initial_monomial(t: Tableau, order: VariableOrder) -> Monomial:
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
    exps = [0] * t.n
    for r0, row in enumerate(t.rows):
        for entry in row:
            exps[entry - 1] = r0
    return Monomial(tuple(exps))


@dataclass(frozen=True)
class SignCheckResult:
    """Outcome of swapping two same-column entries of a tableau."""

    tableau: Tableau
    swapped_tableau: Tableau
    polynomial: Polynomial
    swapped_polynomial: Polynomial
    negation_holds: bool


def transposition_sign_check(t: Tableau, i: int, j: int) -> SignCheckResult:
    """Swap entries i and j (same column) and test that the generator flips sign."""
    if t.column_of(i) != t.column_of(j):
        raise ValueError(f"entries {i} and {j} are not in the same column of {t}")
    swapped = t.with_entries_swapped(i, j)
    f = specht_polynomial(t)
    g = specht_polynomial(swapped)
    return SignCheckResult(t, swapped, f, g, g == -f)


@dataclass(frozen=True)
class SpechtSystem:
    """A generating system: (tableau, expanded polynomial) pairs under one order."""

    partition: Partition
    order: VariableOrder
    generators: tuple[tuple[Tableau, Polynomial], ...]

    def polynomials(self) -> list[Polynomial]:
        return [f for _, f in self.generators]

    def validate(self) -> None:
        """Recheck the construction invariants; used by tests, not hot paths."""
        for t, f in self.generators:
            if specht_polynomial(t) != f:
                raise AssertionError(f"stored polynomial for {t} is not its column product")


def _check_shape(lam: Partition, order: VariableOrder) -> None:
    if lam.m < 2:
        raise ValueError("a single-row shape generates the unit ideal; nothing to do")
    if lam.n != order.n:
        raise ValueError("partition and order must agree on n")


def _generating_tableaux(lam: Partition, order: VariableOrder, same_first_part: bool):
    _check_shape(lam, order)
    for mu in dominated_partitions(lam, same_first_part=same_first_part):
        yield from standard_tableaux(mu, order)


def lex_groebner_generators(lam: Partition, order: VariableOrder) -> SpechtSystem:
    """Standard tableaux of dominated shapes sharing lam's first part, expanded."""
    gens = tuple(
        (t, specht_polynomial(t))
        for t in _generating_tableaux(lam, order, same_first_part=True)
    )
    return SpechtSystem(lam, order, gens)


def universal_groebner_generators(lam: Partition, order: VariableOrder) -> SpechtSystem:
    """Standard tableaux of every dominated shape, expanded.

    A superset of the lex system; stays a Groebner basis under every
    variable order.
    """
    gens = tuple(
        (t, specht_polynomial(t))
        for t in _generating_tableaux(lam, order, same_first_part=False)
    )
    return SpechtSystem(lam, order, gens)


def initial_ideal(lam: Partition, order: VariableOrder) -> MonomialIdeal:
    """Minimal generators of the lex initial ideal, via closed-form monomials only.

    n and the tableau count are checked against INITIAL_IDEAL_N_LIMIT and
    INITIAL_IDEAL_TABLEAU_LIMIT before any tableau is built. Relabeled by
    sigma, an identity-standard filling is sigma-standard, so entry a in
    row r0 puts exponent r0 on sigma(a).
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
    var0 = [v - 1 for v in order.sigma]
    monos = []
    for mu in shapes:
        for rows in _identity_fillings(mu.parts):
            exps = [0] * lam.n
            for r0 in range(1, len(rows)):
                for a in rows[r0]:
                    exps[var0[a - 1]] = r0
            monos.append(tuple(exps))
    return minimalize(monos)


@dataclass(frozen=True)
class GapAuditEntry:
    """One minimal generator (exponent tuple), its witness tableau and the row-gap verdict."""

    monomial: tuple[int, ...]
    shape: Partition
    tableau: Tableau
    row_of_largest: int
    gap_ok: bool
    neighbor_ok: bool
    neighbor_rank: int | None


@dataclass(frozen=True)
class GapAuditReport:
    partition: Partition
    order: VariableOrder
    k: int
    entries: tuple[GapAuditEntry, ...]
    violations: tuple[GapAuditEntry, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def gap_condition_audit(lam: Partition, order: VariableOrder) -> GapAuditReport:
    """Audit every minimal generator against the row-gap constraints.

    Each minimal generator's first witnessing standard tableau is located
    in one pass over the dominated shapes in dominance-descending order,
    which stops once every generator has a witness.
    When the largest variable sits in row j >= 2 of the witness, the shape
    must satisfy mu_{j-1} - mu_j >= k and the entry directly above must
    rank below n - k in the order.
    """
    k = min_gap_k(lam)
    ideal = initial_ideal(lam, order)
    n = lam.n
    largest = order.largest
    witnesses: dict[tuple[int, ...], tuple[Partition, Tableau]] = {}
    for mu in dominated_partitions(lam):
        for t in standard_tableaux(mu, order):
            witnesses.setdefault(closed_form_initial_monomial(t, order).exps, (mu, t))
        if all(gen in witnesses for gen in ideal.min_gens):
            break
    entries: list[GapAuditEntry] = []
    violations: list[GapAuditEntry] = []
    for gen in ideal.min_gens:
        if gen not in witnesses:
            raise AssertionError(f"no witness tableau for minimal generator {gen}")
        mu, t = witnesses[gen]
        j = t.row_of(largest)
        if j == 1:
            entry = GapAuditEntry(gen, mu, t, j, True, True, None)
        else:
            gap_ok = mu.part(j - 1) - mu.part(j) >= k
            above = t.rows[j - 2][mu.part(j) - 1]
            rank = order.rank_of(above)
            entry = GapAuditEntry(gen, mu, t, j, gap_ok, rank < n - k, rank)
        entries.append(entry)
        if not (entry.gap_ok and entry.neighbor_ok):
            violations.append(entry)
    return GapAuditReport(lam, order, k, tuple(entries), tuple(violations))
