"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line so a log scan shows the verdict per
claim even without the pytest summary. Sampled instances draw from string
seeds, so reruns exercise identical cases.
"""

import random
import subprocess
import sys
import time
from functools import lru_cache
from math import factorial

from spechtfan.combinatorics import (
    Partition,
    VariableOrder,
    enumerate_partitions,
    min_gap_k,
    sample_orders,
    standard_tableaux,
)
from spechtfan.fan import (
    degree_statistic,
    elimination_identity_check,
    enumerate_fan,
    monotonicity_check,
    order_class_predictor,
    theorem_count,
)
from spechtfan.oracle import (
    certify_groebner,
    elimination_polynomial_check,
    marked_basis,
)
from spechtfan.polyring import leading_monomial
from spechtfan.polytope import braid_refinement_check, pnk_vertices, vertex_ideal_bijection
from spechtfan.specht import (
    closed_form_initial_monomial,
    lex_groebner_generators,
    specht_polynomial,
)


def shapes(n, min_rows=2):
    return [lam for lam in enumerate_partitions(n) if lam.m >= min_rows]


@lru_cache(maxsize=None)
def fan_of(parts):
    return enumerate_fan(Partition(parts))


def rng_for(tag):
    return random.Random(f"acceptance|{tag}")


def verdict(num, text, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}", flush=True)
    return ok


def test_criterion_01_counting_theorem():
    start = time.perf_counter()
    bad = []
    for n in range(2, 8):
        for lam in shapes(n):
            if fan_of(lam.parts).distinct_count != theorem_count(lam):
                bad.append(lam)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    verdict(1, f"n!/(k+1)! ideal count for all shapes n<=7 ({elapsed:.1f}s)", ok)
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_02_repeated_part_gives_full_count():
    bad = []
    for n in range(2, 7):
        for lam in shapes(n):
            if not lam.has_repeated_part():
                continue
            summary = fan_of(lam.parts)
            if summary.distinct_count != factorial(n):
                bad.append(lam)
            elif any(len(v) != 1 for v in summary.classes.values()):
                bad.append(lam)
    anchor = fan_of((2, 2)).distinct_count == 24
    ok = not bad and anchor
    verdict(2, "repeated-part shapes have n! singleton classes, (2,2) -> 24", ok)
    assert anchor
    assert not bad, bad


def test_criterion_03_class_predictor():
    mismatches = 0
    for n in range(2, 6):
        for lam in shapes(n):
            lookup = fan_of(lam.parts).order_to_ideal()
            for a in lookup:
                for b in lookup:
                    if order_class_predictor(lam, a, b) != (lookup[a] is lookup[b]):
                        mismatches += 1
    rng = rng_for("predictor")
    for lam in shapes(6):
        lookup = fan_of(lam.parts).order_to_ideal()
        sigmas = sorted(lookup)
        for _ in range(100_000):
            sa = rng.choice(sigmas)
            sb = rng.choice(sigmas)
            predicted = order_class_predictor(lam, sa, sb)
            if predicted != (lookup[sa] is lookup[sb]):
                mismatches += 1
    ok = mismatches == 0
    verdict(3, "order-class predictor, exhaustive n<=5 plus 10^5 pairs per shape at n=6", ok)
    assert mismatches == 0


def test_criterion_04_lex_bases_certify():
    start = time.perf_counter()
    failures = []
    for n in range(2, 6):
        for lam in shapes(n):
            rng = rng_for(f"certify|{lam}")
            for order in sample_orders(n, 10, rng):
                basis = marked_basis(
                    [f for _, f in lex_groebner_generators(lam, order)], order
                )
                if not certify_groebner(basis).passed:
                    failures.append((lam, order))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    verdict(4, f"S-pair reduction certifies every lex basis n<=5 ({elapsed:.1f}s)", ok)
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_05_closed_form_leading_monomials():
    failures = []
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            rng = rng_for(f"closed-form|{lam}")
            for order in sample_orders(n, 20, rng):
                for t in standard_tableaux(lam, order):
                    got = closed_form_initial_monomial(t, order)
                    want = leading_monomial(specht_polynomial(t), order)
                    if got != want:
                        failures.append((t, order))
    ok = not failures
    verdict(5, "closed-form initial monomial matches expansion, all tableaux n<=6", ok)
    assert not failures, failures[:3]


def test_criterion_06_degree_monotonicity():
    failures = []
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            rng = rng_for(f"monotonic|{lam}")
            for order in sample_orders(n, 10, rng):
                if monotonicity_check(lam, order):
                    failures.append((lam, order))
    anchor_ok = True
    lam = Partition((2, 2))
    for order in [VariableOrder.identity(4)] + sample_orders(4, 3, rng_for("anchor6")):
        values = degree_statistic(lam, order)
        d2 = values[order.apply(2) - 1]
        d3 = values[order.apply(3) - 1]
        if not (d2 == d3 == 1):
            anchor_ok = False
    ok = not failures and anchor_ok
    verdict(6, "degree statistic weakly increases with exact strictness, n<=7", ok)
    assert anchor_ok
    assert not failures, failures[:3]


def test_criterion_07_elimination_two_level():
    failures = []
    for n in range(3, 8):
        for lam in shapes(n):
            if lam.parts[0] < 2:
                continue
            rng = rng_for(f"elim-monomial|{lam}")
            for order in sample_orders(n, 10, rng):
                if elimination_identity_check(lam, order):
                    failures.append(("monomial", lam, order))
    for n in range(3, 6):
        for lam in shapes(n):
            if lam.parts[0] < 2:
                continue
            rng = rng_for(f"elim-polynomial|{lam}")
            for order in sample_orders(n, 5, rng):
                if elimination_polynomial_check(lam, order):
                    failures.append(("polynomial", lam, order))
    ok = not failures
    verdict(7, "variable elimination lands on the companion shape, both levels", ok)
    assert not failures, failures[:3]


def test_criterion_08_state_polytope():
    failures = []
    for n in range(2, 7):
        for lam in shapes(n):
            k = min_gap_k(lam)
            fan = fan_of(lam.parts)
            mapping = vertex_ideal_bijection(fan)
            vertices = pnk_vertices(n, k)
            if len(mapping) != fan.distinct_count:
                failures.append(("size", lam))
            if len(vertices) != len(mapping):
                failures.append(("vertex-count", lam))
            if vertices.affine_dimension() != n - 1:
                failures.append(("dimension", lam))
    for n in range(2, 9):
        simplex = pnk_vertices(n, n - 2)
        if len(simplex) != n or simplex.affine_dimension() != n - 1:
            failures.append(("simplex", n))
    ok = not failures
    verdict(8, "vertex/ideal bijection n<=6 and simplex shape of hooks n<=8", ok)
    assert not failures, failures


def test_criterion_09_braid_refinement():
    failures = []
    for n in range(2, 6):
        for lam in shapes(n):
            detail = braid_refinement_check(lam)
            if detail:
                failures.append((lam, detail))
    ok = not failures
    verdict(9, "every braid cone sits inside one initial-ideal cone, n<=5", ok)
    assert not failures, failures


def test_criterion_10_reports_are_reproducible():
    cmd = [
        sys.executable,
        "-m",
        "spechtfan",
        "verify",
        "--n-max",
        "4",
        "--seed",
        "2024",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith(b"check,instance,pass")
    )
    verdict(10, "fixed-seed verification output is byte-identical", ok)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
