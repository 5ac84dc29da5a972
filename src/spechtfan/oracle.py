"""Buchberger-style certification used as an independent cross-check.

Everything here works from expanded polynomials and classical division,
never from the closed-form initial monomials, so agreement between the two
routes is meaningful evidence. Every Specht generator is a product of
linear forms x_a - x_b, so its leading coefficient is +-1 under every
order; the division layer relies on that, stays in the integers, and
refuses a basis or an S-pair whose leading coefficient is anything else.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import add, itemgetter, sub

from .combinatorics import (
    Partition,
    VariableOrder,
    embed_exponents,
    hat,
    prefix_standardization,
    standard_tableaux,
)
from .polyring import Polynomial, _guard_bits, _pack, leading_monomial
from .specht import lex_groebner_generators, specht_polynomial

__all__ = [
    "DEFAULT_ORACLE_LIMIT",
    "MarkedBasis",
    "marked_basis",
    "reduce",
    "s_polynomial",
    "GroebnerCertificate",
    "certify_groebner",
    "elimination_polynomial_check",
]

DEFAULT_ORACLE_LIMIT = 6


@dataclass(frozen=True)
class MarkedBasis:
    """Polynomials with their leading monomials pinned under one order, each with
    leading coefficient +-1."""

    elements: tuple[tuple[Polynomial, tuple[int, ...]], ...]
    order: VariableOrder

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a marked basis needs at least one element")
        for f, mark in self.elements:
            if f.n != self.order.n or len(mark) != self.order.n:
                raise ValueError("basis entries must live in the order's ring")
            if leading_monomial(f, self.order) != mark:
                raise ValueError("marked monomial must be the leading monomial")
            if f.coefficient(mark) not in (1, -1):
                raise ValueError("leading coefficient must be +1 or -1")

    @cached_property
    def division_table(self) -> tuple[int, tuple]:
        """(w, rows): `_division_rows` at a field width that holds every exponent
        of the basis with room to spare, computed once per basis."""
        top = max(max(e) for f, _ in self.elements for e, _ in f.items())
        w = max(16, top.bit_length() + 2)
        return w, _division_rows(self, w)


def marked_basis(polys, order: VariableOrder) -> MarkedBasis:
    elems = tuple((f, leading_monomial(f, order)) for f in polys)
    return MarkedBasis(elems, order)


def _unpack(p: int, desc: tuple[int, ...], w: int) -> tuple[int, ...]:
    exps = [0] * len(desc)
    mask = (1 << w) - 1
    for i in reversed(desc):
        exps[i] = p & mask
        p >>= w
    return tuple(exps)


def _division_rows(basis: MarkedBasis, w: int):
    """(mark, tail) per element, packed at width w and sorted by (mark, position).

    The tail lists every other term as (exponents, -c/lc), so one division
    step adds (current coefficient) * (tail coefficient) at each shifted
    exponent. The lead coefficient lc is +-1 (`MarkedBasis` checks it), its
    own inverse, so -c/lc is the int -c*lc.
    """
    desc = basis.order.desc0
    rows = []
    for f, mark in basis.elements:
        lc = f.coefficient(mark)
        tail = tuple((_pack(e, desc, w), -c * lc) for e, c in f.items() if e != mark)
        rows.append((_pack(mark, desc, w), tail))
    # a stable sort on the mark alone keeps basis position as the tie break
    return tuple(sorted(rows, key=itemgetter(0)))


def _divide(f: Polynomial, rows, desc: tuple[int, ...], w: int) -> Polynomial | None:
    """Remainder of f by the packed rows, or None if an exponent outgrows w - 1 bits."""
    guard = _guard_bits(len(desc), w)
    work = dict(f.items())
    if max(map(max, work)) >> (w - 1):
        return None
    work = {_pack(e, desc, w): c for e, c in work.items()}
    heap = [-p for p in work]
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], int] = {}
    while heap:
        p = -heapq.heappop(heap)
        coeff = work.pop(p, 0)
        if not coeff:
            continue
        # mark divides p exactly when no field of p - mark borrows
        high = p | guard
        for mark, tail in rows:
            if (high - mark) & guard == guard:
                break
        else:
            remainder[_unpack(p, desc, w)] = coeff
            continue
        shift = p - mark
        for e2, c2 in tail:
            target = e2 + shift
            if target & guard:
                return None
            prev = work.get(target, 0)
            new = prev + coeff * c2
            if new:
                work[target] = new
                if not prev:
                    heapq.heappush(heap, -target)
            else:
                del work[target]
    return Polynomial._wrap(f.n, remainder)


def reduce(f: Polynomial, basis: MarkedBasis) -> Polynomial:
    """Remainder of f on division by the basis.

    Terms are consumed largest first via a heap with stale entries skipped.
    When several marks divide the current term the one with the lex-smallest
    mark wins, ties broken by basis position, so remainders are deterministic.
    Every lead coefficient of the basis is +-1, so the division runs in the
    integers and needs no fraction.
    Exponents are packed into ints (`_pack`); if one outgrows its field the
    division restarts at twice the width.
    """
    if f.n != basis.order.n:
        raise ValueError("polynomial must live in the basis ring")
    if f.is_zero():
        return f
    desc = basis.order.desc0
    w, rows = basis.division_table
    while (remainder := _divide(f, rows, desc, w)) is None:
        w *= 2
        rows = _division_rows(basis, w)
    return remainder


def s_polynomial(f: Polynomial, g: Polynomial, order: VariableOrder) -> Polynomial:
    """lcm-cofactor difference with both leading coefficients normalized out.

    Both leading coefficients must be +-1, each its own inverse, so the
    result has int coefficients; any other leading coefficient raises
    ValueError.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial needs nonzero inputs")
    mf = leading_monomial(f, order)
    mg = leading_monomial(g, order)
    lcm = tuple(map(max, mf, mg))
    qf = tuple(map(sub, lcm, mf))
    qg = tuple(map(sub, lcm, mg))
    cf = f.coefficient(mf)
    cg = -g.coefficient(mg)
    if cf not in (1, -1) or cg not in (1, -1):
        raise ValueError("S-polynomial needs leading coefficients +1 or -1")
    out = {tuple(map(add, e, qf)): c * cf for e, c in f.items()}
    for e, c in g.items():
        e = tuple(map(add, e, qg))
        new = out.get(e, 0) + c * cg
        if new:
            out[e] = new
        else:
            del out[e]
    return Polynomial._wrap(f.n, out)


@dataclass(frozen=True)
class GroebnerCertificate:
    pairs_total: int
    pairs_skipped_coprime: int
    pairs_skipped_chain: int
    pairs_reduced: int
    failures: tuple[tuple[int, int, Polynomial], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "pairs_total": self.pairs_total,
            "pairs_skipped_coprime": self.pairs_skipped_coprime,
            "pairs_skipped_chain": self.pairs_skipped_chain,
            "pairs_reduced": self.pairs_reduced,
            "failures": [
                {"i": i, "j": j, "remainder_terms": len(r)} for i, j, r in self.failures
            ],
            "pass": self.passed,
        }


def _some_mark_divides(candidates: int, high: int, packed: list[int], guard: int) -> bool:
    """True if packed[k] divides high (a packed monomial with its guard bits set)
    for some k whose bit is set in candidates."""
    while candidates:
        low = candidates & -candidates
        if (high - packed[low.bit_length() - 1]) & guard == guard:
            return True
        candidates ^= low
    return False


def certify_groebner(basis: MarkedBasis) -> GroebnerCertificate:
    """Reduce the S-pairs that no criterion settles; pass iff every remainder vanishes.

    Pairs (i, j) are walked in `combinations` order, and two classical
    criteria skip a pair without reducing it:

    - coprime: the marks of i and j share no variable;
    - chain (Buchberger 1979; Gebauer and Moeller, "On an installation of
      Buchberger's algorithm", J. Symbolic Comput. 6, 1988): the mark of
      some k outside {i, j} divides lcm(mark_i, mark_j), and the pairs
      (i, k) and (j, k) are both already settled.

    A pair is settled when it is coprime, reduced to zero, or skipped by the
    chain criterion. A pair whose remainder is nonzero never settles, so the
    criterion never chains through a failure, and every settled S-pair has
    an lcm representation. A basis is a Groebner basis iff every S-pair has
    one (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, Ch. 2
    Sec. 10), so a run with no failure certifies the basis; a nonzero
    remainder is an ideal member whose leading monomial no mark divides, so
    one failure refutes it. `failures` lists every reduced pair with a
    nonzero remainder. Divisibility of the lcm is tested on marks packed
    with guard bits, as in `reduce`.
    """
    elements = basis.elements
    desc = basis.order.desc0
    w, _ = basis.division_table
    guard = _guard_bits(len(desc), w)
    marks = [mark for _, mark in elements]
    packed = [_pack(m, desc, w) for m in marks]
    # bit k of settled[i] is set once the pair {i, k} is settled
    settled = [0] * len(elements)
    total = coprime = chain = reduced = 0
    failures = []
    for i, j in combinations(range(len(elements)), 2):
        total += 1
        mi = marks[i]
        mj = marks[j]
        if all(a == 0 or b == 0 for a, b in zip(mi, mj)):
            coprime += 1
        elif (common := settled[i] & settled[j]) and _some_mark_divides(
            common, _pack(tuple(map(max, mi, mj)), desc, w) | guard, packed, guard
        ):
            chain += 1
        else:
            reduced += 1
            r = reduce(s_polynomial(elements[i][0], elements[j][0], basis.order), basis)
            if not r.is_zero():
                failures.append((i, j, r))
                continue
        settled[i] |= 1 << j
        settled[j] |= 1 << i
    return GroebnerCertificate(total, coprime, chain, reduced, tuple(failures))


def _project(f: Polynomial, asc: tuple[int, ...]) -> Polynomial:
    """Drop the removed variable; caller guarantees it is absent from f."""
    terms = {}
    for exps, c in f.items():
        terms[tuple(exps[v - 1] for v in asc)] = c
    return Polynomial._wrap(len(asc), terms)


def elimination_polynomial_check(lam: Partition, order: VariableOrder) -> str:
    """Two-sided division check that dropping the largest variable lands on hat(lam).

    Subset side: every generator of the smaller ideal, written in the
    surviving variables, reduces to zero against the certified basis of the
    big ideal. Superset side: every big-ideal generator whose leading
    monomial avoids the removed variable must avoid it entirely, and its
    projection reduces to zero against the certified basis of the small
    ideal. Refuses n beyond DEFAULT_ORACLE_LIMIT. Returns "" on a pass, else
    a line naming the first basis or side that failed and the order.
    """
    n = lam.n
    if n > DEFAULT_ORACLE_LIMIT:
        raise ValueError(f"n={n} exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}")
    if lam.parts[0] < 2 or lam.m < 2:
        raise ValueError("check needs a first part >= 2 and a second row")
    lhat = hat(lam)
    if lhat.m < 2:
        raise ValueError("shrunken shape has fewer than two rows")
    inner, removed, asc = prefix_standardization(order)
    system = lex_groebner_generators(lam, order)
    base = marked_basis([f for _, f in system], order)
    small = marked_basis([f for _, f in lex_groebner_generators(lhat, inner)], inner)
    if not certify_groebner(base).passed:
        return f"basis of {lam} failed certification under {order}"
    if not certify_groebner(small).passed:
        return f"basis of hat={lhat} failed certification under {inner}, from {order}"
    for t in standard_tableaux(lhat, inner):
        g = Polynomial._wrap(
            n, {embed_exponents(e, n, asc): c for e, c in specht_polynomial(t).items()}
        )
        if not reduce(g, base).is_zero():
            return f"subset: generator of {lhat} from {t} left a remainder under {order}"
    for t, f in system:
        if leading_monomial(f, order)[removed - 1] != 0:
            continue
        if any(exps[removed - 1] != 0 for exps, _ in f.items()):
            return f"superset: {t} has a free leading monomial but uses x{removed} under {order}"
        if not reduce(_project(f, asc), small).is_zero():
            return f"superset: projection of {t} left a remainder under {order}"
    return ""
