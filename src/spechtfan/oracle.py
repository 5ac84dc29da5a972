"""Buchberger-style certification used as an independent cross-check.

Everything here works from expanded polynomials and classical division,
never from the closed-form initial monomials, so agreement between the two
routes is meaningful evidence. Every Specht generator is a product of
linear forms x_a - x_b, so its leading coefficient is +-1 under every
order; the division layer relies on that, stays in the integers, and
refuses a basis whose leading coefficient is anything else. Division and
S-pairs work on monomials packed into ints (`polyring._pack`), one field
per variable, from the packed rows of a basis's division table.

A basis is one `MarkedBasis`: its order, its marks and its division
table, and no polynomial. `marked_basis` packs it from polynomials term
by term, the reference route. The Specht systems that verify and
`spechtfan oracle` certify are packed straight from the expansion
instead: `specht._term_lanes` holds each shape's T0 expansion once, term
i's exponent of x_j in 64-bit lane i of column j, and `_specht_basis`
packs all of a tableau's terms under the order at once, at 8-bit fields
(`specht._lane_system`). A division that outgrows its fields widens its
dividend and rows (`_remainder`); past 64-bit fields it raises
`CapacityError`. The elimination check divides the rows of the two tables
it has just certified, and packs no generator again.

Packing undoes the relabelling of the standard tableaux, so every order
should pack a shape's identity table, rows reordered. `_failed` keeps
each table that passed, less its row order, and certifies no equal one
again: a row set's Groebner verdict does not depend on the row order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .combinatorics import (
    Partition,
    VariableOrder,
    dominated_partitions,
    hat,
    prefix_standardization,
    standard_tableau_count,
)
from .errors import CapacityError
from .polyring import Polynomial, _field_scale, _guard_bits, _pack, _unpack, leading_monomial
from .specht import _check_shape, _lane_system, _term_lanes

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
_MAX_W = 64  # `_widen_table` widens no table with fields this wide


class _DivisionTable(NamedTuple):
    """A marked basis packed at field width w (`_pack`), with `guard` the top bit of each field."""

    w: int
    guard: int
    # (packed mark, tail) per element, in basis order
    rows: tuple
    # the same row tuples, sorted by mark with basis position breaking ties
    by_mark: tuple


def _table(w: int, n: int, rows: tuple) -> _DivisionTable:
    """The `_DivisionTable` of rows packed in n fields of width w."""
    # a stable sort on the mark alone keeps basis position as the tie break
    return _DivisionTable(w, _guard_bits(n, w), rows, tuple(sorted(rows, key=itemgetter(0))))


class MarkedBasis(NamedTuple):
    """A basis under one order, each element with leading coefficient +-1: its
    marks (leading monomials) and its packed division table, in basis order.
    No polynomial is kept; `_specht_basis` also keeps the tableaux."""

    order: VariableOrder
    marks: tuple
    division_table: _DivisionTable
    tableaux: tuple = ()


def marked_basis(polys, order: VariableOrder) -> MarkedBasis:
    """The polynomials' marked basis under order, packed term by term at a
    width whose fields hold twice every exponent, so an S-pair built from the
    rows always fits.

    Each row is (mark, tail), the tail listing every other term as (packed
    e, -c/lc), so one division step adds (current coefficient) * (tail
    coefficient) at each shifted exponent. The lead coefficient lc must be
    +-1, its own inverse, so -c/lc is the int -c*lc.
    """
    polys = tuple(polys)
    if not polys:
        raise ValueError("a marked basis needs at least one element")
    if any(f.n != order.n for f in polys):
        raise ValueError("basis entries must live in the order's ring")
    marks = tuple(leading_monomial(f, order) for f in polys)
    desc = order.desc0
    w = max(_LANE_W, max(max(e) for f in polys for e in f._terms).bit_length() + 2)
    rows = []
    for f, mark in zip(polys, marks):
        lc = f.coefficient(mark)
        if lc not in (1, -1):
            raise ValueError("leading coefficient must be +1 or -1")
        tail = tuple((_pack(e, desc, w), -c * lc) for e, c in f.items() if e != mark)
        rows.append((_pack(mark, desc, w), tail))
    return MarkedBasis(order, marks, _table(w, order.n, tuple(rows)))


def _specht_basis(lam: Partition, order: VariableOrder, same_first_part: bool) -> MarkedBasis:
    """The lex (same_first_part) or universal Specht system of lam under order,
    in `marked_basis` order, packed from lanes with no per-term Python.

    Each tableau's terms are packed at _LANE_W-bit fields (`_lane_system`);
    the largest is the mark, the others zip with their coefficients times
    -lc into the tail. Refuses, before any work, an n whose fields overflow
    a 64-bit lane, and then a shape with an exponent of 2**(_LANE_W - 2) or
    more: as in `marked_basis`, the fields must hold twice every exponent,
    so that each S-pair built from the rows fits. A division that outgrows
    them widens the table to 16 bits (`_remainder`). The tableaux are kept.
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
    return MarkedBasis(order, tuple(marks), _table(_LANE_W, n, tuple(rows)), tuple(tableaux))


def _unpack_terms(terms: dict[int, int], desc: tuple[int, ...], w: int) -> Polynomial:
    return Polynomial._wrap(len(desc), {_unpack(p, desc, w): c for p, c in terms.items()})


def _widen(p: int, n: int, w: int) -> int:
    """p's n packed fields of width w, each moved to a field of width 2w."""
    return _pack(_unpack(p, range(n), w), range(n), 2 * w)


def _widen_table(table: _DivisionTable, n: int) -> _DivisionTable:
    """The table of n fields with every packed int widened (`_widen`) to twice its
    width; refused for fields of _MAX_W bits or more, so no division hangs."""
    w = table.w
    if w >= _MAX_W:
        raise CapacityError(f"an exponent outgrew the {w}-bit fields of a {len(table.rows)}-row division table")
    rows = tuple(
        (_widen(mark, n, w), tuple((_widen(e, n, w), c) for e, c in tail)) for mark, tail in table.rows
    )
    return _table(2 * w, n, rows)


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


def _remainder(table: _DivisionTable, work: dict[int, int], n: int) -> tuple[dict[int, int], _DivisionTable]:
    """The remainder of the packed term map `work` (n fields, at the table's
    width) by the table, and the table it was taken at.

    When `_divide` overflows, `work` and every row of the table move to
    fields of twice the width (`_widen`), and the division starts again.
    """
    while (r := _divide(dict(work), table)) is None:
        work = {_widen(p, n, table.w): c for p, c in work.items()}
        table = _widen_table(table, n)
    return r, table


def reduce(f: Polynomial, basis: MarkedBasis) -> Polynomial:
    """Remainder of f on division by the basis, by `_divide`.

    Every lead coefficient of the basis is +-1, so the division runs in the
    integers and needs no fraction. f is packed at this boundary, at the
    first width that holds it, and the remainder unpacked.
    """
    if f.n != basis.order.n:
        raise ValueError("polynomial must live in the basis ring")
    if f.is_zero():
        return f
    n = f.n
    desc = basis.order.desc0
    top = max(map(max, f._terms))
    table = basis.division_table
    while top >> (table.w - 1):
        table = _widen_table(table, n)
    r, table = _remainder(table, {_pack(e, desc, table.w): c for e, c in f.items()}, n)
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
    `_remainder`; later pairs divide at the table it returns, while the
    chain test stays at the basis's width, which holds every lcm of two
    marks. A remainder is unpacked into a `Polynomial` only when nonzero.
    """
    marks = basis.marks
    desc = basis.order.desc0
    table = basis.division_table
    w, guard, rows, _ = table
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
            r, table = _remainder(table, _s_pair(table.rows, i, j, _pack(lcm, desc, table.w)), len(desc))
            if r:
                failures.append((i, j, _unpack_terms(r, desc, table.w)))
                continue
        settled[i] |= 1 << j
        settled[j] |= 1 << i
    return GroebnerCertificate(total, coprime, chain, reduced, tuple(failures))


# (w, guard, by_mark) of tables that passed; verify empties it after each shape
_PASSED: list = []


def _failed(basis: MarkedBasis) -> GroebnerCertificate | None:
    """`certify_groebner(basis)` if it fails, else None; not run again for a table
    equal to one of the 3 latest passes, row order aside."""
    table = basis.division_table
    key = (table.w, table.guard, table.by_mark)
    if key in _PASSED:
        return None
    cert = certify_groebner(basis)
    if cert.failures:
        return cert
    _PASSED.append(key)
    del _PASSED[:-3]
    return None


def elimination_polynomial_check(lam: Partition, order: VariableOrder) -> str:
    """Two-sided division check that dropping the largest variable lands on hat(lam).

    Subset side: every generator of the smaller ideal, written in the
    surviving variables, reduces to zero against the certified basis of the
    big ideal. Superset side: every big-ideal generator whose leading
    monomial avoids the removed variable must avoid it entirely, and its
    projection reduces to zero against the certified basis of the small
    ideal. Refuses n beyond DEFAULT_ORACLE_LIMIT. Returns "" on a pass, else
    a line naming the first basis or side that failed and the order.

    Both bases come from `_specht_basis`, and each side divides rows of a
    table it has just certified. A row (mark, tail), read as the mark at 1
    and each tail term (e, t) at -t, is its generator times the lead
    coefficient +-1, so it reduces to zero exactly when the generator does.
    The subset side reads the first rows of the small table, hat(lam)'s own
    tableaux, which `dominated_partitions` lists first; the superset side
    reads the big table's rows whose mark has an empty top field. The
    removed variable is the largest, in a packed term's top field, and the
    inner order keeps the others in order: a term packed under the inner
    order is its embedding packed under the order, and a term with an empty
    top field is, packed, its own projection. So the superset side divides,
    and on overflow widens, n - 1 fields.
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
    if _failed(base):
        return f"basis of {lam} failed certification under {order}"
    if _failed(small):
        return f"basis of hat={lhat} failed certification under {inner}, from {order}"
    for t, (mark, tail) in zip(small.tableaux[: standard_tableau_count(lhat)], small.division_table.rows):
        if _remainder(base.division_table, {mark: 1, **{e: -c for e, c in tail}}, n)[0]:
            return f"subset: generator of {lhat} from {t} left a remainder under {order}"
    top = _LANE_W * (n - 1)
    for t, (mark, tail) in zip(base.tableaux, base.division_table.rows):
        if mark >> top:
            continue
        work = {mark: 1, **{e: -c for e, c in tail}}
        if max(work) >> top:
            return f"superset: {t} has a free leading monomial but uses x{removed} under {order}"
        if _remainder(small.division_table, work, n - 1)[0]:
            return f"superset: projection of {t} left a remainder under {order}"
    return ""
