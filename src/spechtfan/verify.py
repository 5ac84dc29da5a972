"""The full property suite behind the verify command.

Every sampled check derives its own random stream from the run seed, the
check name, and the instance, so single rows can be reproduced in isolation
and whole runs are byte-stable.
"""

from __future__ import annotations

import random
from collections import Counter
from math import factorial
from operator import le

from .combinatorics import (
    Partition,
    VariableOrder,
    enumerate_partitions,
    min_gap_k,
    sample_orders,
    standard_tableaux,
)
from .errors import TheoremViolationError
from .fan import (
    _class_key,
    elimination_identity_check,
    enumerate_fan,
    monotonicity_check,
    order_class_predictor,
    theorem_count,
)
from .oracle import (
    _PASSED,
    DEFAULT_ORACLE_LIMIT,
    _failed,
    _specht_basis,
    elimination_polynomial_check,
)
from .polyring import leading_monomial
from .polytope import _affine_rank, braid_refinement_check, pnk_vertices, vertex_ideal_bijection
from .reporting import CheckRow
from .specht import (
    closed_form_initial_monomial,
    gap_condition_audit,
    initial_ideal,
    specht_polynomial,
)

__all__ = ["run_verification"]

CLOSED_FORM_N = 6
POLYTOPE_N = 6
CONE_N = 5


def _rng(seed: int, check: str, instance: str) -> random.Random:
    return random.Random(f"{seed}|{check}|{instance}")


def run_verification(n_max: int, seed: int = 2024) -> list[CheckRow]:
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > 7:
        raise ValueError("n_max beyond 7 is not supported by the enumeration limits")
    rows: list[CheckRow] = []
    for n in range(2, n_max + 1):
        for lam in enumerate_partitions(n):
            rows.extend(_partition_rows(lam, seed))
        rows.extend(_per_n_polytope_rows(n, seed))
    return rows


def _partition_rows(lam: Partition, seed: int) -> list[CheckRow]:
    rows: list[CheckRow] = []
    n = lam.n
    if n <= CLOSED_FORM_N:
        rows.append(_sampled_row("closed-form", lam, seed, 20, _closed_form_failure))
    rows.append(_sampled_row("monotonicity", lam, seed, 10, monotonicity_check))
    if lam.m < 2:
        return rows

    rows.append(_sampled_row("gap-audit", lam, seed, 10, gap_condition_audit))
    fan = enumerate_fan(lam)
    rows.append(_count_row(lam, fan))
    if lam.has_repeated_part():
        rows.append(_repeated_part_row(lam, fan))
    rows.append(_predictor_row(lam, fan))
    if lam.parts[0] >= 2:
        check = elimination_identity_check
        rows.append(_sampled_row("elimination-monomial", lam, seed, 10, check))

    if n <= DEFAULT_ORACLE_LIMIT:
        rows.append(_sampled_row("oracle-lex", lam, seed, 10, _oracle_lex_failure))
        rows.append(_sampled_row("oracle-universal", lam, seed, 10, _oracle_universal_failure))
        if lam.parts[0] >= 2:
            check = elimination_polynomial_check
            rows.append(_sampled_row("elimination-poly", lam, seed, 5, check))
        # no certified table outlives its shape
        _PASSED.clear()

    if n <= POLYTOPE_N:
        rows.append(_bijection_row(lam, fan))
    if n <= CONE_N:
        rows.append(_braid_row(lam))
        rows.append(_cone_class_row(lam, seed))
    return rows


def _sampled_row(check: str, lam: Partition, seed: int, count: int, failure) -> CheckRow:
    """One row for `check` over `count` sampled orders of lam.

    failure(lam, order) returns "" or a detail; the first detail fails the row.
    """
    orders = sample_orders(lam.n, count, _rng(seed, check, str(lam)))
    detail = next(filter(None, (failure(lam, o) for o in orders)), "")
    sigmas = ",".join("".join(str(v) for v in o.sigma) for o in orders)
    return CheckRow(check, f"lambda={lam} sigmas={sigmas}", not detail, detail)


def _closed_form_failure(lam: Partition, order: VariableOrder) -> str:
    for t in standard_tableaux(lam, order):
        if closed_form_initial_monomial(t, order) != leading_monomial(specht_polynomial(t), order):
            return f"tableau {t} under {order}"
    return ""


def _certify_failure(basis) -> str:
    cert = _failed(basis)
    if cert is None:
        return ""
    i, j, r = cert.failures[0]
    return (
        f"S-pair ({i},{j}) left a {len(r)}-term remainder; {len(cert.failures)} of "
        f"{cert.pairs_reduced} reduced pairs failed under {basis.order}"
    )


def _oracle_lex_failure(lam: Partition, order: VariableOrder) -> str:
    """Certify the lex basis, then match its marks with the closed-form ideal.

    The match uses plain divisibility, not `minimalize`, which builds the
    closed-form side: every generator is a mark, every mark lies in the
    ideal, and no generator divides another. So the generators are the
    minimal generating set of the marks' ideal.
    """
    basis = _specht_basis(lam, order, True)
    failure = _certify_failure(basis)
    if failure:
        return failure
    marks = basis.marks
    ideal = initial_ideal(lam, order)
    gens = ideal.min_gens
    if not (
        set(gens) <= set(marks)
        and all(map(ideal.contains, marks))
        and all(sum(all(map(le, f, g)) for f in gens) == 1 for g in gens)
    ):
        return f"marks disagree with closed form under {order}"
    return ""


def _oracle_universal_failure(lam: Partition, order: VariableOrder) -> str:
    return _certify_failure(_specht_basis(lam, order, False))


def _count_row(lam: Partition, fan) -> CheckRow:
    want = theorem_count(lam)
    size = factorial(min_gap_k(lam) + 1)
    ok = fan.distinct_count == want and all(
        len(orders) == size for orders in fan.classes.values()
    )
    detail = f"theorem={want} brute={fan.distinct_count} class_size={size}"
    return CheckRow("count", f"lambda={lam}", ok, detail)


def _repeated_part_row(lam: Partition, fan) -> CheckRow:
    ok = fan.distinct_count == factorial(lam.n) and all(
        len(orders) == 1 for orders in fan.classes.values()
    )
    return CheckRow("repeated-part", f"lambda={lam}", ok)


def _predictor_row(lam: Partition, fan) -> CheckRow:
    """Every ordered pair of orders shares a class key iff it shares an initial ideal.

    A pair disagrees when it shares one of key and ideal but not the other.
    With c counting the orders of each key, each ideal and each (key, ideal)
    cell, the mismatches are sum c_key^2 + sum c_ideal^2 - 2 sum c_cell^2.
    """
    head = lam.n - fan.k - 1
    classes = fan.classes.values()
    cells = Counter(
        (_class_key(head, sigma), i) for i, orders in enumerate(classes) for sigma in orders
    )
    by_key: Counter = Counter()
    for (key, _), c in cells.items():
        by_key[key] += c
    by_ideal = [len(orders) for orders in classes]
    mismatches = _squares(by_key.values()) + _squares(by_ideal) - 2 * _squares(cells.values())
    instance = f"lambda={lam} pairs={sum(by_ideal) ** 2} exhaustive"
    return CheckRow("class-predictor", instance, mismatches == 0, f"mismatches={mismatches}")


def _squares(counts) -> int:
    return sum(c * c for c in counts)


def _bijection_row(lam: Partition, fan) -> CheckRow:
    try:
        mapping = vertex_ideal_bijection(fan)
    except TheoremViolationError as exc:
        return CheckRow("state-polytope", f"lambda={lam}", False, str(exc))
    ok = len(mapping) == theorem_count(lam)
    return CheckRow("state-polytope", f"lambda={lam}", ok, f"vertices={len(mapping)}")


def _braid_row(lam: Partition) -> CheckRow:
    detail = braid_refinement_check(lam)
    return CheckRow(
        "braid-refinement", f"lambda={lam} orders={factorial(lam.n)}", not detail, detail
    )


def _cone_class_row(lam: Partition, seed: int) -> CheckRow:
    """Two drawn orders share an initial ideal exactly when the predictor says so.

    With the braid row, which puts each open chamber inside the Groebner
    cone of its own lex ideal, this shows two chambers share a Groebner
    cone exactly when their orders are in one predicted class.
    """
    n = lam.n
    rng = _rng(seed, "cone-classes", str(lam))
    pairs = [
        (VariableOrder(tuple(rng.sample(range(1, n + 1), n))),
         VariableOrder(tuple(rng.sample(range(1, n + 1), n))))
        for _ in range(10)
    ]
    detail = next(
        (
            f"initial ideals and predictor disagree for {s} vs {t}"
            for s, t in pairs
            if (initial_ideal(lam, s) == initial_ideal(lam, t))
            != order_class_predictor(lam, s.sigma, t.sigma)
        ),
        "",
    )
    instance = f"lambda={lam} pairs=10 seed={seed}|cone-classes|{lam}"
    return CheckRow("cone-classes", instance, not detail, detail)


def _per_n_polytope_rows(n: int, seed: int) -> list[CheckRow]:
    rows = []
    for k in range(0, n - 1):
        ps = pnk_vertices(n, k)
        want = factorial(n) // factorial(k + 1)
        want_sum = (n - k - 1) * (n - k) // 2 + (k + 1) * (n - k)
        distinct, sums, rank = len(set(ps)), sorted({sum(p) for p in ps}), _affine_rank(ps)
        ok = len(ps) == distinct == want and sums == [want_sum] and rank == n - 1
        detail = f"points={len(ps)} distinct={distinct} want={want} sums={sums} rank={rank}"
        rows.append(CheckRow("pnk", f"n={n} k={k}", ok, detail))
    # the loop ends on k = n-2, the simplex
    ok = len(ps) == n and rank == n - 1
    rows.append(CheckRow("simplex", f"n={n}", ok, f"points={len(ps)}"))
    if n <= CONE_N:
        rows.append(_coverage_row(n, seed))
    return rows


def _coverage_row(n: int, seed: int) -> CheckRow:
    """Each drawn integer point lies in the closed chamber of the order that sorts it."""
    rng = _rng(seed, "cone-coverage", str(n))
    misses = 0
    for _ in range(20):
        w = [rng.randrange(-64, 65) for _ in range(n)]
        sigma = sorted(range(n), key=w.__getitem__)
        if any(w[a] > w[b] for a, b in zip(sigma, sigma[1:])):
            misses += 1
    return CheckRow(
        "cone-coverage",
        f"n={n} k=0 points=20 seed={seed}|cone-coverage|{n}",
        misses == 0,
        f"misses={misses}",
    )
