"""Buchberger-style certification used as an independent cross-check.

Everything here works from expanded polynomials and classical division,
never from the closed-form initial monomials, so agreement between the two
routes is meaningful evidence. Every Specht generator is a product of
linear forms x_a - x_b, so its leading coefficient is +-1 under every
order; the division layer relies on that, stays in the integers, and
refuses a basis whose leading coefficient is anything else. Division and
S-pairs work on monomials packed into ints (`polyring._pack`), one field
per variable, from the packed rows of `MarkedBasis.division_table`.

The Specht systems that verify and `spechtfan oracle` certify are packed
straight from the expansion: `specht._term_lanes` holds each shape's T0
expansion once, term i's exponent of x_j in 64-bit lane i of column j, and
`_specht_basis` packs all of a tableau's terms under the order at once, at
8-bit fields (`specht._lane_system`). The polynomials are built only if
a division outgrows those fields and starts again wider.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .combinatorics import (
    Partition,
    Tableau,
    VariableOrder,
    dominated_partitions,
    hat,
    prefix_standardization,
    standard_tableaux,
)
from .polyring import Polynomial, _field_scale, _guard_bits, _pack, leading_monomial
from .specht import (
    _check_shape,
    _lane_list,
    _lane_pack,
    _lane_system,
    _term_lanes,
    specht_polynomial,
)

__all__ = [
    "DEFAULT_ORACLE_LIMIT",
    "MarkedBasis",
    "marked_basis",
    "reduce",
    "GroebnerCertificate",
    "certify_groebner",
    "elimination_polynomial_check",
]

DEFAULT_ORACLE_LIMIT = 6
# bits per exponent field of a basis packed from lanes (`_specht_basis`)
_LANE_W = 8


class _DivisionTable(NamedTuple):
    """A marked basis packed at field width w (`_pack`), with `guard` the top bit of each field."""

    w: int
    guard: int
    # (packed mark, tail) per element, in basis order
    rows: tuple
    # the same row tuples, sorted by mark with basis position breaking ties
    by_mark: tuple


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
    def marks(self) -> tuple[tuple[int, ...], ...]:
        """The marked monomials, in basis order."""
        return tuple(mark for _, mark in self.elements)

    @cached_property
    def division_table(self) -> _DivisionTable:
        """`_division_table` at a width whose fields hold twice every exponent of
        the basis, so an S-pair built from the rows always fits; computed once
        per basis."""
        top = max(max(e) for f, _ in self.elements for e, _ in f.items())
        return _division_table(self, max(16, top.bit_length() + 2))


def marked_basis(polys, order: VariableOrder) -> MarkedBasis:
    elems = tuple((f, leading_monomial(f, order)) for f in polys)
    return MarkedBasis(elems, order)


class _LaneBasis:
    """The marked basis `_specht_basis` packs from lanes.

    It holds what `certify_groebner`, `reduce` and `_remainder` read of a
    `MarkedBasis` (order, marks, division_table, elements), and the
    tableaux. `elements` builds the polynomials (`specht_polynomial`) when
    first read, which on a certificate's path only a restart at a wider
    table does. Two lane bases compare by identity, so neither == nor repr
    builds them.
    """

    def __init__(self, order: VariableOrder, tableaux: tuple, marks: tuple, division_table: _DivisionTable):
        self.order = order
        self.tableaux = tableaux
        self.marks = marks
        self.division_table = division_table

    @cached_property
    def elements(self) -> tuple[tuple[Polynomial, tuple[int, ...]], ...]:
        return tuple(zip(map(specht_polynomial, self.tableaux), self.marks))


def _specht_basis(lam: Partition, order: VariableOrder, same_first_part: bool) -> _LaneBasis:
    """The lex (same_first_part) or universal Specht system of lam under order,
    in `marked_basis` order, packed from lanes with no per-term Python.

    Each tableau's terms are packed at _LANE_W-bit fields (`_lane_system`);
    the largest is the mark, the others zip with their coefficients times
    -lc into the tail. Refuses, before any work, an n whose fields overflow
    a 64-bit lane, and then a shape with an exponent of 2**(_LANE_W - 2) or
    more: as with `MarkedBasis.division_table`, the fields must hold twice
    every exponent, so that each S-pair built from the rows fits. A
    division that outgrows them starts again at 16 bits.
    """
    n = lam.n
    if n * _LANE_W > 64:
        raise ValueError(f"n={n} does not fit {_LANE_W}-bit fields in a 64-bit lane")
    _check_shape(lam, order)
    desc = order.desc0
    scale = _field_scale(desc, _LANE_W)
    tableaux, marks, rows = [], [], []
    for mu in dominated_partitions(lam, same_first_part=same_first_part):
        lanes = _term_lanes(mu.parts)
        if lanes.top >> (_LANE_W - 2):
            raise ValueError(f"an exponent of shape {mu} does not fit {_LANE_W - 2} bits")
        coeffs = lanes.coeffs
        negated = tuple(-c for c in coeffs)
        for t, _, terms, i in _lane_system(mu, order, scale):
            lc = coeffs[i]
            if lc not in (1, -1):
                raise ValueError(f"leading coefficient of {t} must be +1 or -1, not {lc}")
            # -c * lc: the coefficients negated when lc is 1, as they are when it is -1
            tail = list(zip(terms, negated if lc == 1 else coeffs))
            del tail[i]
            rows.append((terms[i], tuple(tail)))
            marks.append(_unpack(terms[i], desc, _LANE_W))
            tableaux.append(t)
    table = _DivisionTable(
        _LANE_W, _guard_bits(n, _LANE_W), tuple(rows), tuple(sorted(rows, key=itemgetter(0)))
    )
    return _LaneBasis(order, tuple(tableaux), tuple(marks), table)


def _unpack(p: int, desc: tuple[int, ...], w: int) -> tuple[int, ...]:
    exps = [0] * len(desc)
    mask = (1 << w) - 1
    for i in reversed(desc):
        exps[i] = p & mask
        p >>= w
    return tuple(exps)


def _unpack_terms(terms: dict[int, int], desc: tuple[int, ...], w: int) -> Polynomial:
    return Polynomial._wrap(len(desc), {_unpack(p, desc, w): c for p, c in terms.items()})


def _division_table(basis: MarkedBasis, w: int) -> _DivisionTable:
    """Pack each element once, as (mark, tail), at width w.

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
    by_mark = tuple(sorted(rows, key=itemgetter(0)))
    return _DivisionTable(w, _guard_bits(len(desc), w), tuple(rows), by_mark)


def _divide(work: dict[int, int], table: _DivisionTable) -> dict[int, int] | None:
    """Remainder of the packed term map `work` by the table's rows, as a packed
    term map, or None if an exponent outgrows w - 1 bits. Consumes `work`.

    Terms are consumed largest first via a heap with stale entries skipped.
    When several marks divide the current term the one with the lex-smallest
    mark wins, ties broken by basis position, so remainders are deterministic.
    """
    guard = table.guard
    rows = table.by_mark
    heap = [-p for p in work]
    heapq.heapify(heap)
    remainder: dict[int, int] = {}
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
            remainder[p] = coeff
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
    return remainder


def _remainder(basis: MarkedBasis, packed) -> tuple[dict[int, int], _DivisionTable]:
    """The remainder of packed(table) by the basis, and the table it was taken at.

    packed(table) builds the dividend as a packed term map at the table's
    width, or returns None if it does not fit; then, or when `_divide`
    overflows, both start again at twice the width.
    """
    table = basis.division_table
    while (work := packed(table)) is None or (r := _divide(work, table)) is None:
        table = _division_table(basis, 2 * table.w)
    return r, table


def reduce(f: Polynomial, basis: MarkedBasis) -> Polynomial:
    """Remainder of f on division by the basis, by `_divide`.

    Every lead coefficient of the basis is +-1, so the division runs in the
    integers and needs no fraction. f is packed at this boundary, and the
    remainder unpacked.
    """
    if f.n != basis.order.n:
        raise ValueError("polynomial must live in the basis ring")
    if f.is_zero():
        return f
    desc = basis.order.desc0
    top = max(map(max, f._terms))

    def packed(table):
        if top >> (table.w - 1):
            return None
        return {_pack(e, desc, table.w): c for e, c in f.items()}

    r, table = _remainder(basis, packed)
    return _unpack_terms(r, desc, table.w)


def _s_pair(rows, i: int, j: int, lcm: int) -> dict[int, int]:
    """The S-polynomial of elements i and j as a packed term map, from their
    division rows and their packed lcm L.

    With q = L - mark for each side, it is lc_i (L / mark_i) f_i - lc_j
    (L / mark_j) f_j: the marks cancel, and as lc * lc = 1 a tail term
    (e, t = -c * lc) contributes -t at e + q_i on side i and +t at e + q_j
    on side j.
    """
    mark_i, tail_i = rows[i]
    mark_j, tail_j = rows[j]
    qi = lcm - mark_i
    qj = lcm - mark_j
    out = {e + qi: -t for e, t in tail_i}
    for e, t in tail_j:
        e += qj
        new = out.get(e, 0) + t
        if new:
            out[e] = new
        else:
            del out[e]
    return out


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
    nonzero remainder.

    Everything runs on the packed division rows: the chain test checks
    divisibility of the packed lcm by packed marks with guard bits, and
    each reduced S-pair is built from the rows (`_s_pair`) and handed to
    `_divide`, restarting at twice the width on overflow as `reduce` does.
    A remainder is unpacked into a `Polynomial` only when it is nonzero.
    """
    marks = basis.marks
    desc = basis.order.desc0
    w, guard, rows, _ = basis.division_table
    packed = [mark for mark, _ in rows]
    # bit k of settled[i] is set once the pair {i, k} is settled
    settled = [0] * len(marks)
    total = coprime = chain = reduced = 0
    failures = []
    for i, j in combinations(range(len(marks)), 2):
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
            lcm = tuple(map(max, mi, mj))
            r, wide = _remainder(basis, lambda t: _s_pair(t.rows, i, j, _pack(lcm, desc, t.w)))
            if r:
                failures.append((i, j, _unpack_terms(r, desc, wide.w)))
                continue
        settled[i] |= 1 << j
        settled[j] |= 1 << i
    return GroebnerCertificate(total, coprime, chain, reduced, tuple(failures))


def _dividend(t: Tableau, order: VariableOrder):
    """t's Specht polynomial under order: its terms packed from the lanes at
    _LANE_W-bit fields, and the packed(table) `_remainder` takes, which
    packs the polynomial afresh once a restart widens the table."""
    lanes = _term_lanes(tuple(map(len, t.rows)))
    scale = _field_scale(order.desc0, _LANE_W)
    terms = _lane_list(_lane_pack(lanes.cols, t.row_word(), scale), len(lanes.coeffs))

    def packed(table):
        if table.w == _LANE_W:
            return dict(zip(terms, lanes.coeffs))
        return {_pack(e, order.desc0, table.w): c for e, c in specht_polynomial(t).items()}

    return terms, packed


def elimination_polynomial_check(lam: Partition, order: VariableOrder) -> str:
    """Two-sided division check that dropping the largest variable lands on hat(lam).

    Subset side: every generator of the smaller ideal, written in the
    surviving variables, reduces to zero against the certified basis of the
    big ideal. Superset side: every big-ideal generator whose leading
    monomial avoids the removed variable must avoid it entirely, and its
    projection reduces to zero against the certified basis of the small
    ideal. Refuses n beyond DEFAULT_ORACLE_LIMIT. Returns "" on a pass, else
    a line naming the first basis or side that failed and the order.

    Both bases come from `_specht_basis`, each side's generators from
    `_dividend`. The removed variable is the largest, in a packed term's top
    field, and the inner order keeps the others in order: a term packed
    under the inner order is its embedding packed under the order, and a
    term with an empty top field is, packed, its own projection.
    """
    n = lam.n
    if n > DEFAULT_ORACLE_LIMIT:
        raise ValueError(f"n={n} exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}")
    if lam.parts[0] < 2 or lam.m < 2:
        raise ValueError("check needs a first part >= 2 and a second row")
    lhat = hat(lam)
    if lhat.m < 2:
        raise ValueError("shrunken shape has fewer than two rows")
    inner, removed, _ = prefix_standardization(order)
    base = _specht_basis(lam, order, True)
    small = _specht_basis(lhat, inner, True)
    if not certify_groebner(base).passed:
        return f"basis of {lam} failed certification under {order}"
    if not certify_groebner(small).passed:
        return f"basis of hat={lhat} failed certification under {inner}, from {order}"
    for t in standard_tableaux(lhat, inner):
        if _remainder(base, _dividend(t, inner)[1])[0]:
            return f"subset: generator of {lhat} from {t} left a remainder under {order}"
    for t, mark in zip(base.tableaux, base.marks):
        if mark[removed - 1]:
            continue
        terms, packed = _dividend(t, order)
        if max(terms) >> (_LANE_W * (n - 1)):
            return f"superset: {t} has a free leading monomial but uses x{removed} under {order}"
        if _remainder(small, packed)[0]:
            return f"superset: projection of {t} left a remainder under {order}"
    return ""
