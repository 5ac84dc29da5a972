"""Buchberger-style certification used as an independent cross-check.

Everything here works from expanded polynomials and classical division,
never from the closed-form initial monomials, so agreement between the two
routes is meaningful evidence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .combinatorics import (
    Partition,
    VariableOrder,
    embed_exponents,
    hat,
    prefix_standardization,
    standard_tableaux,
)
from .polyring import Monomial, Polynomial, leading_coefficient, leading_monomial, lex_key
from .specht import lex_groebner_generators, specht_polynomial

__all__ = [
    "DEFAULT_ORACLE_LIMIT",
    "MarkedBasis",
    "marked_basis",
    "reduce",
    "s_polynomial",
    "GroebnerCertificate",
    "certify_groebner",
    "EliminationPolynomialReport",
    "elimination_polynomial_check",
]

DEFAULT_ORACLE_LIMIT = 5


@dataclass(frozen=True)
class MarkedBasis:
    """Polynomials with their leading monomials pinned under one order."""

    elements: tuple[tuple[Polynomial, Monomial], ...]
    order: VariableOrder

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a marked basis needs at least one element")
        for f, mark in self.elements:
            if f.n != self.order.n or mark.n != self.order.n:
                raise ValueError("basis entries must live in the order's ring")
            if not f.coefficient(mark):
                raise ValueError("marked monomial must occur in its polynomial")
            if leading_monomial(f, self.order) != mark:
                raise ValueError("marked monomial must be the leading monomial")

    def __len__(self) -> int:
        return len(self.elements)

    def polynomials(self) -> tuple[Polynomial, ...]:
        return tuple(f for f, _ in self.elements)


def marked_basis(polys, order: VariableOrder) -> MarkedBasis:
    elems = tuple((f, leading_monomial(f, order)) for f in polys)
    return MarkedBasis(elems, order)


def reduce(f: Polynomial, basis: MarkedBasis) -> Polynomial:
    """Remainder of f on division by the basis.

    Terms are consumed largest first via a heap with stale entries skipped.
    When several marks divide the current term the one with the lex-smallest
    mark wins, ties broken by basis position, so remainders are deterministic.
    """
    order = basis.order
    n = f.n
    if n != order.n:
        raise ValueError("polynomial must live in the basis ring")
    if f.is_zero():
        return f
    by_mark = sorted(
        range(len(basis.elements)),
        key=lambda i: (lex_key(basis.elements[i][1].exps, order), i),
    )
    marks = [basis.elements[i][1].exps for i in by_mark]
    polys = [basis.elements[i][0] for i in by_mark]
    lcs = [polys[i].coefficient(marks[i]) for i in range(len(polys))]

    def negkey(exps):
        return tuple(-v for v in lex_key(exps, order))

    work = dict(f.items())
    heap = [(negkey(e), e) for e in work]
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], object] = {}
    while heap:
        _, exps = heapq.heappop(heap)
        coeff = work.pop(exps, 0)
        if not coeff:
            continue
        hit = next(
            (i for i in range(len(marks)) if all(a >= b for a, b in zip(exps, marks[i]))),
            None,
        )
        if hit is None:
            remainder[exps] = coeff
            continue
        lc = lcs[hit]
        if lc == 1:
            factor = coeff
        elif lc == -1:
            factor = -coeff
        else:
            factor = Fraction(coeff) / Fraction(lc)
        mark = marks[hit]
        shift = tuple(a - b for a, b in zip(exps, mark))
        for e2, c2 in polys[hit].items():
            if e2 == mark:
                continue
            target = tuple(a + b for a, b in zip(e2, shift))
            prev = work.get(target, 0)
            new = prev - factor * c2
            if new:
                work[target] = new
                if not prev:
                    heapq.heappush(heap, (negkey(target), target))
            else:
                work.pop(target, None)
    return Polynomial._wrap(n, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: VariableOrder) -> Polynomial:
    """lcm-cofactor difference with both leading coefficients normalized out."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial needs nonzero inputs")
    mf = leading_monomial(f, order)
    mg = leading_monomial(g, order)
    lcm = tuple(max(a, b) for a, b in zip(mf.exps, mg.exps))
    qf = tuple(a - b for a, b in zip(lcm, mf.exps))
    qg = tuple(a - b for a, b in zip(lcm, mg.exps))
    cf = Fraction(1) / Fraction(leading_coefficient(f, order))
    cg = Fraction(1) / Fraction(leading_coefficient(g, order))
    left = Polynomial._wrap(f.n, {qf: cf}) * f
    right = Polynomial._wrap(g.n, {qg: cg}) * g
    return left - right


@dataclass(frozen=True)
class GroebnerCertificate:
    pairs_total: int
    pairs_skipped_coprime: int
    pairs_reduced: int
    failures: tuple[tuple[int, int, Polynomial], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "pairs_total": self.pairs_total,
            "pairs_skipped_coprime": self.pairs_skipped_coprime,
            "pairs_reduced": self.pairs_reduced,
            "failures": [
                {"i": i, "j": j, "remainder_terms": len(r)} for i, j, r in self.failures
            ],
            "pass": self.passed,
        }


def certify_groebner(basis: MarkedBasis) -> GroebnerCertificate:
    """Reduce every S-pair; pass iff all remainders vanish.

    Pairs with coprime leading monomials are skipped, which is the one
    classical shortcut that never changes the verdict.
    """
    total = 0
    skipped = 0
    reduced = 0
    failures = []
    for i, j in combinations(range(len(basis.elements)), 2):
        total += 1
        mi = basis.elements[i][1].exps
        mj = basis.elements[j][1].exps
        if all(a == 0 or b == 0 for a, b in zip(mi, mj)):
            skipped += 1
            continue
        s = s_polynomial(basis.elements[i][0], basis.elements[j][0], basis.order)
        reduced += 1
        r = reduce(s, basis)
        if not r.is_zero():
            failures.append((i, j, r))
    return GroebnerCertificate(total, skipped, reduced, tuple(failures))


def _project(f: Polynomial, asc: tuple[int, ...]) -> Polynomial:
    """Drop the removed variable; caller guarantees it is absent from f."""
    terms = {}
    for exps, c in f.items():
        terms[tuple(exps[v - 1] for v in asc)] = c
    return Polynomial._wrap(len(asc), terms)


@dataclass(frozen=True)
class EliminationPolynomialReport:
    partition: Partition
    order: VariableOrder
    hat_partition: Partition
    base_certified: bool
    hat_certified: bool
    subset_checked: int
    superset_checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.base_certified and self.hat_certified and not self.failures


def elimination_polynomial_check(
    lam: Partition, order: VariableOrder, limit: int = DEFAULT_ORACLE_LIMIT
) -> EliminationPolynomialReport:
    """Two-sided division check that dropping the largest variable lands on hat(lam).

    Subset side: every generator of the smaller ideal, written in the
    surviving variables, reduces to zero against the certified basis of the
    big ideal. Superset side: every big-ideal generator whose leading
    monomial avoids the removed variable must avoid it entirely, and its
    projection reduces to zero against the certified basis of the small
    ideal.
    """
    n = lam.n
    if n > limit:
        raise ValueError(f"n={n} exceeds the oracle limit {limit}")
    if lam.parts[0] < 2 or lam.m < 2:
        raise ValueError("check needs a first part >= 2 and a second row")
    lhat = hat(lam)
    if lhat.m < 2:
        raise ValueError("shrunken shape has fewer than two rows")
    inner, removed, asc = prefix_standardization(order)
    base = marked_basis(lex_groebner_generators(lam, order).polynomials(), order)
    small = marked_basis(lex_groebner_generators(lhat, inner).polynomials(), inner)
    base_cert = certify_groebner(base)
    small_cert = certify_groebner(small)
    failures = []
    subset = 0
    for t in standard_tableaux(lhat, inner):
        subset += 1
        g = Polynomial._wrap(
            n, {embed_exponents(e, n, asc): c for e, c in specht_polynomial(t).items()}
        )
        r = reduce(g, base)
        if not r.is_zero():
            failures.append(f"subset: generator of {lhat} from {t} left a remainder")
    superset = 0
    for t, f in lex_groebner_generators(lam, order).generators:
        if leading_monomial(f, order).exps[removed - 1] != 0:
            continue
        superset += 1
        if any(exps[removed - 1] != 0 for exps, _ in f.items()):
            failures.append(f"superset: {t} has a free leading monomial but uses x{removed}")
            continue
        r = reduce(_project(f, asc), small)
        if not r.is_zero():
            failures.append(f"superset: projection of {t} left a remainder")
    return EliminationPolynomialReport(
        partition=lam,
        order=order,
        hat_partition=lhat,
        base_certified=base_cert.passed,
        hat_certified=small_cert.passed,
        subset_checked=subset,
        superset_checked=superset,
        failures=tuple(failures),
    )
