"""Independent reference implementations the tests compare against, and
the tamperings some tests apply.

Nothing here may call back into the closed-form or fast-path code under
test for the quantity it cross-checks.
"""

from fractions import Fraction
from itertools import accumulate, combinations, permutations
from operator import add, itemgetter, mul, sub

import sympy

from spechtfan.combinatorics import Partition, Tableau, VariableOrder
from spechtfan.oracle import GroebnerCertificate, _table, reduce
from spechtfan.polyring import Polynomial, _monomial_text, _pack, leading_monomial
from spechtfan.polytope import _chamber_weights
from spechtfan.specht import initial_ideal, lex_groebner_generators


def brute_standard_tableaux(shape: Partition, order: VariableOrder) -> list[Tableau]:
    """Filter every bijective filling for row and column growth under the order."""
    n = shape.n
    cells = [(r, c) for r, part in enumerate(shape.parts) for c in range(part)]
    out = []
    for perm in permutations(range(1, n + 1)):
        grid = [[0] * part for part in shape.parts]
        for (r, c), v in zip(cells, perm):
            grid[r][c] = v
        ok = True
        for r, row in enumerate(grid):
            for c in range(len(row)):
                if c + 1 < len(row) and order.rank_of(row[c]) > order.rank_of(row[c + 1]):
                    ok = False
                if r + 1 < len(grid) and c < len(grid[r + 1]):
                    if order.rank_of(row[c]) > order.rank_of(grid[r + 1][c]):
                        ok = False
        if ok:
            out.append(Tableau(tuple(tuple(row) for row in grid)))
    return out


def partition_count(n: int) -> int:
    """Classic coin-style DP, nothing shared with the recursive enumerator."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def sympy_vars(n: int):
    return sympy.symbols(f"x1:{n + 1}")


def specht_expr(t: Tableau):
    xs = sympy_vars(t.n)
    expr = sympy.Integer(1)
    for col in t.columns():
        for a, b in combinations(col, 2):
            expr *= xs[a - 1] - xs[b - 1]
    return sympy.expand(expr)


def difference_product(t: Tableau) -> Polynomial:
    """The column product of t multiplied out one factor x_a - x_b at a time, on term maps."""
    terms = {(0,) * t.n: 1}
    for col in t.columns():
        for a, b in combinations(col, 2):
            out: dict = {}
            for exps, c in terms.items():
                for i, sign in ((a - 1, 1), (b - 1, -1)):
                    e = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                    out[e] = out.get(e, 0) + sign * c
            terms = {e: c for e, c in out.items() if c}
    return Polynomial(t.n, terms)


def poly_to_sympy(f: Polynomial):
    xs = sympy_vars(f.n)
    expr = sympy.Integer(0)
    for exps, c in f.items():
        term = sympy.Integer(c)
        for x, e in zip(xs, exps):
            if e:
                term *= x**e
        expr += term
    return sympy.expand(expr)


def sympy_lm_exps(expr, order: VariableOrder) -> tuple[int, ...]:
    """Positional exponent tuple of the lex leading monomial, by sympy.

    sympy's lex compares the first generator's exponent first, so listing
    the variables largest first reproduces the library's convention.
    """
    n = order.n
    xs = sympy_vars(n)
    gens = [xs[order.sigma[i] - 1] for i in range(n - 1, -1, -1)]
    poly = sympy.Poly(expr, *gens)
    mono = poly.LT()[0]
    exps = [0] * n
    for g_exp, i in zip(mono.exponents, range(n - 1, -1, -1)):
        exps[order.sigma[i] - 1] = g_exp
    return tuple(exps)


def sympy_is_groebner(polys, basis) -> bool:
    """Whether the marked basis of polys is a Groebner basis, decided by sympy alone.

    sympy computes the reduced lex Groebner basis of the ideal, with the
    generators listed largest first as in `sympy_lm_exps`. The marks are
    leading monomials of ideal members, so they generate the initial ideal
    exactly when every leading monomial of the reduced basis is divisible
    by some mark.
    """
    order = basis.order
    n = order.n
    xs = sympy_vars(n)
    gens = [xs[order.sigma[i] - 1] for i in range(n - 1, -1, -1)]
    exprs = [poly_to_sympy(f) for f in polys]
    reduced = sympy.groebner(exprs, *gens, order="lex")
    for g in reduced.exprs:
        lead = sympy_lm_exps(g, order)
        if not any(all(a >= b for a, b in zip(lead, m)) for m in basis.marks):
            return False
    return True


def s_polynomial(f: Polynomial, g: Polynomial, order: VariableOrder) -> Polynomial:
    """lcm-cofactor difference with both leading coefficients normalized out,
    on exponent tuples.

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


def reference_certify(polys, basis) -> GroebnerCertificate:
    """`certify_groebner`'s pair walk over the marked basis of polys with tuple
    S-polynomials: each pair no criterion settles goes through
    `reduce(s_polynomial(...))`.

    The coprime and chain criteria are read on exponent tuples, so neither
    the S-pair nor the lcm test touches the packed rows.
    """
    marks = basis.marks
    settled = [set() for _ in marks]
    total = coprime = chain = reduced = 0
    failures = []
    for i, j in combinations(range(len(marks)), 2):
        total += 1
        lcm = tuple(map(max, marks[i], marks[j]))
        if all(a == 0 or b == 0 for a, b in zip(marks[i], marks[j])):
            coprime += 1
        elif any(all(map(int.__le__, marks[k], lcm)) for k in settled[i] & settled[j]):
            chain += 1
        else:
            reduced += 1
            r = reduce(s_polynomial(polys[i], polys[j], basis.order), basis)
            if not r.is_zero():
                failures.append((i, j, r))
                continue
        settled[i].add(j)
        settled[j].add(i)
    return GroebnerCertificate(total, coprime, chain, reduced, tuple(failures))


def packed_table(polys, order: VariableOrder, w: int):
    """The division table of polys under order at field width w, each row
    packed term by term from the polynomial's `leading_monomial`: (mark,
    tail of (packed e, -c*lc)), lc being +-1."""
    desc = order.desc0
    rows = []
    for f in polys:
        mark = leading_monomial(f, order)
        lc = f.coefficient(mark)
        tail = tuple((_pack(e, desc, w), -c * lc) for e, c in f.items() if e != mark)
        rows.append((_pack(mark, desc, w), tail))
    return _table(w, order.n, tuple(rows))


def negate_a_tail_coefficient(basis):
    """The lane basis (`oracle._specht_basis`) with the first tail coefficient
    of its first row negated."""
    table = basis.division_table
    (mark, ((e, c), *tail)), *rows = table.rows
    rows = ((mark, ((e, -c), *tail)), *rows)
    return basis._replace(division_table=_table(table.w, basis.order.n, rows))


def chamber_escape(f: Polynomial, lead, chamber):
    """The first term m of f, other than lead, that some w in the open
    chamber ranks at least as high as lead; None if there is none.

    The chamber lists 0-based variable indices from the largest weight
    down. With v = lead - m read in that order, v.w > 0 on the whole open
    chamber iff every partial sum is >= 0, given that the full sum is 0.
    Raises ValueError on a term whose degree differs from the lead's.
    """
    get = itemgetter(*chamber)
    top = get(lead)
    for m, _ in f.items():
        if m == lead:
            continue
        sums = tuple(accumulate(map(sub, top, get(m))))
        if sums[-1]:
            raise ValueError(f"{f} is not homogeneous")
        if min(sums) < 0:
            return m
    return None


def packed_chamber_escape(f: Polynomial, lead, weights, guard):
    """`chamber_escape` one term at a time on packed prefix sums.

    weights and guard come from `_chamber_weights` for the chamber, at a
    degree no less than the lead's. With v = lead - m read from the largest
    variable down, v.w > 0 on the whole open chamber iff every partial sum
    is >= 0, given that the full sum is 0. The packed prefix sums P test all
    of them in one subtraction: m escapes iff some field of
    (P(lead) | guard) - P(m) loses its top bit. A term whose degree differs
    from the lead's raises ValueError before its packed test, so every
    field stays in range and none borrows from the next.
    """
    degree = sum(lead)
    high = sum(map(mul, lead, weights)) | guard
    for m, _ in f.items():
        if m == lead:
            continue
        if sum(m) != degree:
            raise ValueError(f"{f} is not homogeneous")
        if (high - sum(map(mul, m, weights))) & guard != guard:
            return m
    return None


def reference_braid_check(lam: Partition, sigmas=None, chamber=lambda order: order.desc0) -> str:
    """`braid_refinement_check` on expanded polynomials, term by term: each lead
    from `leading_monomial`, each term through `packed_chamber_escape`.

    The orders are sigmas, by default all n! of them in `permutations`
    order; chamber(order) gives the chamber each is tested on, its 0-based
    variables from the largest weight down, by default the order's own.
    """
    for sigma in permutations(range(1, lam.n + 1)) if sigmas is None else sigmas:
        order = VariableOrder(sigma)
        system = [(t, f, leading_monomial(f, order)) for t, f in lex_groebner_generators(lam, order)]
        weights, guard = _chamber_weights(chamber(order), max(sum(lead) for _, _, lead in system))
        for t, f, lead in system:
            m = packed_chamber_escape(f, lead, weights, guard)
            if m is not None:
                return f"order={order} tableau={t} term={_monomial_text(m)}"
    return ""


def naive_minimalize(exps_list) -> frozenset:
    gens = set(exps_list)
    return frozenset(
        e
        for e in gens
        if not any(d != e and all(a >= b for a, b in zip(e, d)) for d in gens)
    )


def expansion_initial_ideal(lam: Partition, order: VariableOrder) -> frozenset:
    """Initial ideal min-gen exponents from scratch: sympy expansion and
    leading terms of the same-first-part generator set, naively minimalized."""
    exps = []
    for t, _ in lex_groebner_generators(lam, order):
        exps.append(sympy_lm_exps(specht_expr(t), order))
    return naive_minimalize(exps)


def brute_fan(lam: Partition) -> dict:
    """Group orders by initial_ideal computed one order at a time."""
    groups: dict = {}
    for sigma in permutations(range(1, lam.n + 1)):
        ideal = initial_ideal(lam, VariableOrder(sigma))
        groups.setdefault(ideal, []).append(sigma)
    return {ideal: tuple(sorted(sigmas)) for ideal, sigmas in groups.items()}


def _solve_affine(sub, target):
    """Unique barycentric coordinates of target in the affine hull of sub,
    or None when sub is affinely dependent or target is outside the hull's
    affine span."""
    m = len(sub)
    dim = len(target)
    mat = [[q[j] for q in sub] + [target[j]] for j in range(dim)]
    mat.append([Fraction(1)] * m + [Fraction(1)])
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            return None
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    for i in range(r, len(mat)):
        if mat[i][m]:
            return None
    return [mat[i][m] for i in range(m)]


def in_hull_exact(p, points) -> bool:
    """Exact convex-hull membership by Caratheodory enumeration.

    Complete: p lies in the hull iff some affinely independent subset of at
    most dim+1 points carries it with nonnegative unique coordinates.
    Intended for small point sets only.
    """
    pts = [tuple(Fraction(c) for c in q) for q in points]
    target = tuple(Fraction(c) for c in p)
    for size in range(1, len(target) + 2):
        for sub in combinations(pts, size):
            sol = _solve_affine(sub, target)
            if sol is not None and all(t >= 0 for t in sol):
                return True
    return False


def in_hull_simplex(p, points) -> bool:
    """Exact convex-hull membership by a phase-one simplex over Fractions.

    Looks for l >= 0 with sum_i l_i q_i = p and sum_i l_i = 1. Each equation
    gets an artificial variable, which together form the starting basis;
    p lies in the hull iff the artificials' sum can be driven to zero.
    Bland's rule (the lowest-index improving column enters, the lowest-index
    basic variable leaves among tied ratios) rules out cycling.
    """
    pts = [tuple(Fraction(c) for c in q) for q in points]
    rows = [[q[j] for q in pts] + [Fraction(c)] for j, c in enumerate(p)]
    rows.append([Fraction(1)] * (len(pts) + 1))
    m, k = len(pts), len(rows)
    # columns: the m weights, then the k artificials, then the right-hand side
    tab = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1
        tab.append([sign * x for x in row[:m]] + [Fraction(int(i == j)) for j in range(k)] + [sign * row[-1]])
    cost = [0] * m + [1] * k
    basis = list(range(m, m + k))
    while True:
        reduced = (cost[c] - sum(cost[b] * row[c] for b, row in zip(basis, tab)) for c in range(m + k))
        enter = next((c for c, d in enumerate(reduced) if d < 0), None)
        if enter is None:
            return all(row[-1] == 0 for b, row in zip(basis, tab) if b >= m)
        # the phase-one objective is bounded below by 0, so some row has a positive entry
        _, _, r = min((row[-1] / row[enter], basis[i], i) for i, row in enumerate(tab) if row[enter] > 0)
        pivot = tab[r][enter]
        tab[r] = [x / pivot for x in tab[r]]
        for i, row in enumerate(tab):
            if i != r and row[enter]:
                f = row[enter]
                tab[i] = [x - f * y for x, y in zip(row, tab[r])]
        basis[r] = enter
