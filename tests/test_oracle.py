import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtfan.oracle
from spechtfan.errors import CapacityError
from spechtfan.combinatorics import (
    Partition,
    VariableOrder,
    embed_exponents,
    enumerate_partitions,
    hat,
    prefix_standardization,
    sample_orders,
)
from spechtfan.oracle import (
    _PASSED,
    DEFAULT_ORACLE_LIMIT,
    MarkedBasis,
    _failed,
    certify_groebner,
    elimination_polynomial_check,
    _s_pair,
    _specht_basis,
    _unpack_terms,
    _widen,
    _widen_table,
    marked_basis,
    reduce,
)
from spechtfan.polyring import Polynomial, _pack, leading_monomial
from spechtfan.specht import (
    initial_ideal,
    lex_groebner_generators,
    specht_polynomial,
    universal_groebner_generators,
)

from helpers import (
    naive_minimalize,
    negate_a_tail_coefficient,
    packed_table,
    reference_certify,
    s_polynomial,
    sympy_is_groebner,
)


REAL_REMAINDER = spechtfan.oracle._remainder
REAL_SPECHT_BASIS = spechtfan.oracle._specht_basis


def record_widening(monkeypatch):
    """Wrap `oracle._widen_table` for the test; the returned list gets
    (width in, width out, fields) for each call."""
    calls = []

    def recorded(table, n):
        wide = _widen_table(table, n)
        calls.append((table.w, wide.w, n))
        return wide

    monkeypatch.setattr(spechtfan.oracle, "_widen_table", recorded)
    return calls


def lex_polys(parts):
    """The lex Specht system of the shape under the identity order."""
    lam = Partition.parse(parts)
    return [f for _, f in lex_groebner_generators(lam, VariableOrder.identity(lam.n))]


def lex_basis(parts):
    polys = lex_polys(parts)
    return marked_basis(polys, VariableOrder.identity(polys[0].n))


def times_term(f, exps, c):
    """The terms of c * x^exps * f, an ideal member whenever f is one."""
    return [(tuple(a + b for a, b in zip(e, exps)), c * cf) for e, cf in f.items()]


class TestMarkedBasis:
    def test_builder_marks_leading_monomials(self):
        basis = lex_basis("2,1")
        assert len(basis.marks) == 2
        assert basis.marks == ((0, 0, 1), (0, 1, 0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one element"):
            marked_basis([], VariableOrder.identity(2))

    def test_rejects_foreign_ring(self):
        f = Polynomial(2, {(1, 0): 1, (0, 1): -1})
        with pytest.raises(ValueError, match="the order's ring"):
            marked_basis([f], VariableOrder.identity(3))

    def test_rejects_the_zero_polynomial(self):
        f = Polynomial(2, {(1, 0): 1, (0, 1): -1})
        with pytest.raises(ValueError, match="zero polynomial"):
            marked_basis([f, Polynomial(2)], VariableOrder.identity(2))


class TestReduce:
    def test_basis_elements_vanish(self):
        basis = lex_basis("2,2")
        for f in lex_polys("2,2"):
            assert reduce(f, basis).is_zero()

    def test_known_member(self):
        # x1*(x2 - x3) = x1*(x1 - x3) - x1*(x1 - x2)
        basis = lex_basis("2,1")
        f = Polynomial(3, {(1, 1, 0): 1, (1, 0, 1): -1})
        assert reduce(f, basis).is_zero()

    def test_constants_pass_through(self):
        basis = lex_basis("2,1")
        one = Polynomial(3, {(0, 0, 0): 1})
        assert reduce(one, basis) == one
        assert reduce(Polynomial(3), basis).is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            reduce(Polynomial(2, {(0, 0): 1}), lex_basis("2,1"))

    def test_remainder_is_irreducible_and_stable(self):
        basis = lex_basis("2,2")
        f = Polynomial(4, {(3, 1, 2, 0): 5, (0, 0, 2, 2): -1, (1, 1, 1, 1): 7})
        r = reduce(f, basis)
        for exps, _ in r.items():
            assert not any(all(a <= b for a, b in zip(m, exps)) for m in basis.marks)
        assert reduce(f, basis) == r
        assert reduce(r, basis) == r

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 2)] * 4),
                st.integers(-3, 3),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_ideal_combinations_reduce_to_zero(self, picks):
        basis = lex_basis("2,2")
        polys = lex_polys("2,2")
        acc = Polynomial(4, [t for exps, c, which in picks for t in times_term(polys[which], exps, c)])
        assert reduce(acc, basis).is_zero()

    @settings(deadline=None, max_examples=40)
    @given(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * 4),
            st.integers(-3, 3).filter(bool),
            max_size=4,
        ),
        st.tuples(*[st.integers(0, 2)] * 4),
        st.integers(-3, 3).filter(bool),
    )
    def test_reduction_is_linear_over_the_ideal(self, fdict, gexps, gc):
        basis = lex_basis("2,2")
        f = Polynomial(4, fdict)
        member = times_term(lex_polys("2,2")[0], gexps, gc)
        assert reduce(Polynomial(4, [*f.items(), *member]), basis) == reduce(f, basis)


class TestSPolynomial:
    def test_anchor(self):
        ido = VariableOrder.identity(3)
        f = Polynomial(3, {(1, 0, 0): 1, (0, 0, 1): -1})  # x1 - x3
        g = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): -1})  # x1 - x2
        s = s_polynomial(f, g, ido)
        assert s == Polynomial(3, {(1, 0, 1): 1, (1, 1, 0): -1})

    def test_self_pair_vanishes(self):
        ido = VariableOrder.identity(3)
        f = Polynomial(3, {(1, 0, 0): 1, (0, 0, 1): -1})
        assert s_polynomial(f, f, ido).is_zero()

    def test_coprime_monomials_cancel(self):
        ido = VariableOrder.identity(3)
        s = s_polynomial(Polynomial(3, {(0, 1, 0): 1}), Polynomial(3, {(0, 0, 1): 1}), ido)
        assert s.is_zero()

    def test_zero_rejected(self):
        ido = VariableOrder.identity(2)
        with pytest.raises(ValueError):
            s_polynomial(Polynomial(2), Polynomial(2, {(0, 0): 1}), ido)

    def test_leading_terms_cancel(self):
        ido = VariableOrder.identity(4)
        polys = lex_polys("2,2")
        s = s_polynomial(polys[0], polys[1], ido)
        lcm = tuple(
            max(a, b)
            for a, b in zip(leading_monomial(polys[0], ido), leading_monomial(polys[1], ido))
        )
        if not s.is_zero():
            assert leading_monomial(s, ido) != lcm


class TestPackedSPair:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_the_tuple_s_polynomial(self, n):
        # every pair of the lex and universal bases, unpacked, against the helper
        rng = random.Random(f"s-pair|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 2, rng)
        pairs = 0
        for lam in enumerate_partitions(n):
            if lam.m < 2:
                continue
            for source in (lex_groebner_generators, universal_groebner_generators):
                for order in orders:
                    polys = [f for _, f in source(lam, order)]
                    basis = marked_basis(polys, order)
                    table = basis.division_table
                    desc = order.desc0
                    for i, j in combinations(range(len(polys)), 2):
                        lcm = _pack(tuple(map(max, basis.marks[i], basis.marks[j])), desc, table.w)
                        got = _unpack_terms(_s_pair(table.rows, i, j, lcm), desc, table.w)
                        assert got == s_polynomial(polys[i], polys[j], order), (lam, order, i, j)
                        pairs += 1
        assert pairs > 0


class TestCertify:
    def test_two_one_skips_its_single_coprime_pair(self):
        cert = certify_groebner(lex_basis("2,1"))
        assert cert.passed
        assert cert.pairs_total == 1
        assert cert.pairs_skipped_coprime == 1
        assert cert.pairs_reduced == 0

    def test_two_two_full_pass(self):
        cert = certify_groebner(lex_basis("2,2"))
        assert cert.to_json() == {
            "pairs_total": 10,
            "pairs_skipped_coprime": 0,
            "pairs_skipped_chain": 5,
            "pairs_reduced": 5,
            "failures": [],
            "pass": True,
        }

    def test_truncated_basis_fails_with_known_remainder(self):
        # dropping the last generator leaves a certifiably incomplete basis
        ido = VariableOrder.identity(4)
        polys = [f for _, f in lex_groebner_generators(Partition.parse("2,2"), ido)]
        cert = certify_groebner(marked_basis(polys[:4], ido))
        assert not cert.passed
        # (2,3) is skipped by the chain criterion through (0,2) and (0,3);
        # (1,2) is reduced, as (0,1) failed and so never settled
        assert (cert.pairs_skipped_chain, cert.pairs_reduced) == (1, 5)
        assert [(i, j) for i, j, _ in cert.failures] == [(0, 1), (1, 3)]
        first = cert.failures[0][2]
        assert first == Polynomial(
            4,
            {
                (0, 1, 2, 0): 1,
                (1, 0, 2, 0): -1,
                (0, 2, 1, 0): -1,
                (2, 0, 1, 0): 1,
                (1, 2, 0, 0): 1,
                (2, 1, 0, 0): -1,
            },
        )
        assert cert.failures[1][2] == Polynomial(4, {e: -c for e, c in first.items()})
        assert cert.to_json()["failures"] == [
            {"i": 0, "j": 1, "remainder_terms": 6},
            {"i": 1, "j": 3, "remainder_terms": 6},
        ]

    def test_universal_three_three_needs_99_reductions(self):
        order = VariableOrder.identity(6)
        polys = [f for _, f in universal_groebner_generators(Partition.parse("3,3"), order)]
        cert = certify_groebner(marked_basis(polys, order))
        assert cert.passed
        counts = (cert.pairs_total, cert.pairs_skipped_coprime, cert.pairs_skipped_chain, cert.pairs_reduced)
        assert counts == (1275, 0, 1176, 99)

    @pytest.mark.parametrize("n", [3, 4])
    def test_lex_bases_certify_and_marks_match_closed_form(self, n):
        rng = random.Random(f"certify|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 3, rng)
        for lam in enumerate_partitions(n):
            if lam.m < 2:
                continue
            for order in orders:
                basis = marked_basis(
                    [f for _, f in lex_groebner_generators(lam, order)], order
                )
                assert certify_groebner(basis).passed, (lam, order)
                marks = naive_minimalize(basis.marks)
                assert marks == frozenset(initial_ideal(lam, order).min_gens)

    @pytest.mark.parametrize("n", [3, 4])
    def test_universal_bases_certify(self, n):
        rng = random.Random(f"universal|{n}")
        orders = [VariableOrder.identity(n)] + sample_orders(n, 2, rng)
        for lam in enumerate_partitions(n):
            if lam.m < 2:
                continue
            for order in orders:
                basis = marked_basis(
                    [f for _, f in universal_groebner_generators(lam, order)], order
                )
                assert certify_groebner(basis).passed, (lam, order)


SMALL_SHAPES = [lam for n in (2, 3, 4) for lam in enumerate_partitions(n) if lam.m >= 2]


@st.composite
def specht_bases(draw):
    """A lex or universal Specht basis for n <= 4 under a drawn order, left
    whole, cut to a subset, or with one non-leading coefficient raised by 1."""
    lam = draw(st.sampled_from(SMALL_SHAPES))
    order = VariableOrder(tuple(draw(st.permutations(range(1, lam.n + 1)))))
    source = draw(st.sampled_from([lex_groebner_generators, universal_groebner_generators]))
    polys = [f for _, f in source(lam, order)]
    edit = draw(st.sampled_from(["whole", "subset", "tamper"]))
    if edit == "subset" and len(polys) > 1:
        keep = draw(st.sets(st.integers(0, len(polys) - 1), min_size=1, max_size=len(polys) - 1))
        polys = [polys[i] for i in sorted(keep)]
    elif edit == "tamper":
        i = draw(st.integers(0, len(polys) - 1))
        f = polys[i]
        lead = leading_monomial(f, order)
        exps = draw(st.sampled_from(sorted(e for e, _ in f.items() if e != lead)))
        polys[i] = Polynomial(f.n, {**dict(f.items()), exps: f.coefficient(exps) + 1})
    return polys, marked_basis(polys, order)


class TestVerdictAgainstSympy:
    @settings(deadline=None, max_examples=300)
    @given(specht_bases())
    def test_certificate_verdict_matches_sympy(self, drawn):
        polys, basis = drawn
        assert certify_groebner(basis).passed == sympy_is_groebner(polys, basis)

    @settings(deadline=None, max_examples=300)
    @given(specht_bases())
    def test_certificate_matches_the_tuple_route(self, drawn):
        # counts and every (i, j, remainder) failure, against reduce(s_polynomial(...))
        polys, basis = drawn
        assert certify_groebner(basis) == reference_certify(polys, basis)

    def test_both_verdicts_occur(self):
        ido = VariableOrder.identity(4)
        polys = [f for _, f in lex_groebner_generators(Partition.parse("2,2"), ido)]
        assert sympy_is_groebner(polys, marked_basis(polys, ido))
        assert not sympy_is_groebner(polys[:4], marked_basis(polys[:4], ido))


def int_coefficients(f):
    return all(type(c) is int for _, c in f.items())


class TestIntegerAndFractionPaths:
    """Division stays in the integers; a basis that would need a fraction is refused."""

    @pytest.mark.parametrize("parts", ["2,2", "3,2"])
    def test_every_one_coefficient_tamper_fails(self, parts):
        lam = Partition.parse(parts)
        ido = VariableOrder.identity(lam.n)
        polys = [f for _, f in lex_groebner_generators(lam, ido)]
        assert certify_groebner(marked_basis(polys, ido)).passed
        tampered = 0
        for i, f in enumerate(polys):
            lead = leading_monomial(f, ido)
            for exps, c in f.items():
                if exps == lead:
                    continue
                g = Polynomial(f.n, {**dict(f.items()), exps: c + 1})
                basis = marked_basis(polys[:i] + [g] + polys[i + 1 :], ido)
                assert not certify_groebner(basis).passed, (i, exps)
                tampered += 1
        assert tampered == {"2,2": 21, "3,2": 45}[parts]

    @pytest.mark.parametrize(
        "parts,sigma", [("2,2", "1,2,3,4"), ("3,2", "2,5,1,4,3"), ("2,2,1", "5,4,3,2,1")]
    )
    def test_doubled_basis_is_refused(self, parts, sigma):
        # a lead coefficient of 2 would need a fraction to divide by
        lam = Partition.parse(parts)
        order = VariableOrder.parse(sigma)
        polys = [f for _, f in universal_groebner_generators(lam, order)]
        unit = marked_basis(polys, order)
        assert certify_groebner(unit).passed
        table = unit.division_table
        assert all(type(c) is int for rows in (table.rows, table.by_mark) for _, tail in rows for _, c in tail)
        doubled = [Polynomial(f.n, {e: 2 * c for e, c in f.items()}) for f in polys]
        with pytest.raises(ValueError, match="leading coefficient"):
            marked_basis(doubled, order)
        with pytest.raises(ValueError, match="leading coefficients"):
            s_polynomial(doubled[0], polys[1], order)
        with pytest.raises(ValueError, match="leading coefficients"):
            s_polynomial(polys[0], doubled[1], order)

    def test_unit_basis_keeps_int_coefficients(self):
        ido = VariableOrder.identity(5)
        lam = Partition.parse("3,2")
        polys = [f for _, f in universal_groebner_generators(lam, ido)]
        basis = marked_basis([f for _, f in lex_groebner_generators(lam, ido)][:-1], ido)
        nonzero = 0
        for f in polys:
            for g in polys:
                s = s_polynomial(f, g, ido)
                assert int_coefficients(s)
                r = reduce(s, basis)
                assert int_coefficients(r)
                nonzero += not r.is_zero()
        assert nonzero > 0
        f = Polynomial(5, {(3, 1, 2, 0, 1): 5, (0, 0, 2, 2, 3): -1, (1, 1, 1, 1, 1): 7})
        assert int_coefficients(reduce(f, basis))

    def test_division_table_is_built_once(self):
        basis = lex_basis("2,2")
        table = basis.division_table
        assert table is basis.division_table
        marks = [mark for mark, _ in table.by_mark]
        assert marks == sorted(marks)
        # one packing per element, in basis order; the sorted view holds the same row objects
        desc = basis.order.desc0
        assert [mark for mark, _ in table.rows] == [_pack(m, desc, table.w) for m in basis.marks]
        assert sorted(map(id, table.by_mark)) == sorted(map(id, table.rows))

    def test_exponents_beyond_the_packed_field_restart_wider(self):
        # x2 -> x1^(2^14) turns 3*x2^8 into 3*x1^(2^17), past a 17-bit field
        ido = VariableOrder.identity(2)
        basis = marked_basis([Polynomial(2, {(0, 1): 1, (2**14, 0): -1})], ido)
        assert basis.division_table.w == 17
        f = Polynomial(2, {(0, 8): 3, (0, 3): 1, (1, 0): 1})
        want = Polynomial(2, {(2**17, 0): 3, (3 * 2**14, 0): 1, (1, 0): 1})
        assert reduce(f, basis) == want
        huge = Polynomial(2, {(2**40, 0): 1, (0, 1): 1})
        assert reduce(huge, basis) == Polynomial(2, {(2**40, 0): 1, (2**14, 0): 1})

    def test_certificate_division_restarts_wider(self, monkeypatch):
        # the S-pair of x2 - x1^(2^14) and x2^8 + x1 is -x2^7*x1^(2^14) - x1, which
        # divides down to -x1^(2^17) - x1, past a 17-bit field
        ido = VariableOrder.identity(2)
        polys = [Polynomial(2, {(0, 1): 1, (2**14, 0): -1}), Polynomial(2, {(0, 8): 1, (1, 0): 1})]
        basis = marked_basis(polys, ido)
        assert basis.division_table.w == 17
        widenings = record_widening(monkeypatch)
        cert = certify_groebner(basis)
        assert widenings == [(17, 34, 2)]
        assert cert == reference_certify(polys, basis)
        assert not cert.passed
        assert (cert.pairs_total, cert.pairs_reduced) == (1, 1)
        assert cert.failures == ((0, 1, Polynomial(2, {(2**17, 0): -1, (1, 0): -1})),)

    def test_one_variable(self):
        order = VariableOrder.identity(1)
        basis = marked_basis([Polynomial(1, {(2,): 1, (0,): -1})], order)
        f = Polynomial(1, {(5,): 1, (1,): 2})
        # x^5 = x * (x^2)^2 = x on x^2 = 1, so the remainder is 3x
        assert reduce(f, basis) == Polynomial(1, {(1,): 3})


class TestWiden:
    @given(st.integers(2, 20), st.data())
    @settings(max_examples=200, deadline=None)
    def test_widening_a_packed_monomial_repacks_it_at_twice_the_width(self, w, data):
        # every exponent below 2**(w - 1), as in a dividend or a row
        exps = data.draw(st.lists(st.integers(0, 2 ** (w - 1) - 1), min_size=1, max_size=8))
        desc = data.draw(st.permutations(range(len(exps))))
        assert _widen(_pack(exps, desc, w), len(desc), w) == _pack(exps, desc, 2 * w)

    @pytest.mark.parametrize(
        "polys",
        [lex_polys("2,2"), [Polynomial(2, {(0, 1): 1, (2**14, 0): -1})]],
        ids=["2,2", "x2-x1^(2^14)"],
    )
    def test_a_widened_table_is_the_table_at_twice_the_width(self, polys):
        order = VariableOrder.identity(polys[0].n)
        table = marked_basis(polys, order).division_table
        assert _widen_table(table, order.n) == packed_table(polys, order, 2 * table.w)

    def test_a_widening_that_gains_no_headroom_ends_in_capacity_error(self, monkeypatch):
        # the mutant shifts every widened field up by half its width: each exponent sits in the
        # top half of its new field, with no more headroom than before, so the division of
        # x2^8 by x2 - x1^(2^14) overflows again at 34 and at 68 bits, and the cap must end it
        def no_headroom(p, n, w):
            return _widen(p, n, w) << w

        real = spechtfan.oracle._divide
        widths = []

        def counted(work, table):
            widths.append(table.w)
            assert len(widths) <= 8, f"_divide called at widths {widths}: the widening has no cap"
            return real(work, table)

        monkeypatch.setattr(spechtfan.oracle, "_widen", no_headroom)
        monkeypatch.setattr(spechtfan.oracle, "_divide", counted)
        basis = marked_basis([Polynomial(2, {(0, 1): 1, (2**14, 0): -1})], VariableOrder.identity(2))
        with pytest.raises(CapacityError, match="outgrew the 68-bit fields of a 1-row division table"):
            reduce(Polynomial(2, {(0, 8): 1}), basis)
        assert widths == [17, 34, 68]

    def test_a_dividend_past_the_widest_fields_is_refused_before_division(self, monkeypatch):
        # 2**70 needs 72-bit fields; reduce widens its 17-bit table to 34 and 68, then stops
        monkeypatch.setattr(spechtfan.oracle, "_divide", lambda work, table: pytest.fail("divided"))
        basis = marked_basis([Polynomial(2, {(0, 1): 1, (2**14, 0): -1})], VariableOrder.identity(2))
        with pytest.raises(CapacityError, match="outgrew the 68-bit fields"):
            reduce(Polynomial(2, {(2**70, 0): 1}), basis)

    @pytest.mark.parametrize("same_first_part", [True, False], ids=["lex", "universal"])
    def test_no_lane_certificate_widens(self, monkeypatch, same_first_part):
        widenings = record_widening(monkeypatch)
        for lam, order in lane_cases():
            assert certify_groebner(_specht_basis(lam, order, same_first_part)).passed, (lam, order)
        assert widenings == []

    def test_no_elimination_check_widens(self, monkeypatch):
        widenings = record_widening(monkeypatch)
        checked = 0
        for lam, order in lane_cases():
            if lam.parts[0] >= 2 and hat(lam).m >= 2:
                assert elimination_polynomial_check(lam, order) == "", (lam, order)
                checked += 1
        assert checked > 0 and widenings == []

    @pytest.mark.parametrize("parts", ["2,2", "3,2", "2,2,1", "3,1,1"])
    def test_a_forced_restart_of_the_elimination_check_still_passes(self, monkeypatch, parts):
        # every division at 8 bits overflows, so both sides divide at 16; the superset
        # side widens n - 1 fields, which holds its projections since their top field is empty
        lam = Partition.parse(parts)
        real = spechtfan.oracle._divide
        monkeypatch.setattr(spechtfan.oracle, "_divide", lambda work, table: None if table.w == 8 else real(work, table))
        widenings = record_widening(monkeypatch)
        for order in sample_orders(lam.n, 3, random.Random(f"forced|{parts}")):
            widenings.clear()
            assert elimination_polynomial_check(lam, order) == "", order
            assert set(widenings) == {(8, 16, lam.n), (8, 16, lam.n - 1)}, order

    def test_a_projection_widens_as_it_repacks(self):
        # a lex row whose mark is free of the removed variable, read as the generator the
        # superset side divides and widened in n - 1 fields, is lc times its projection
        # packed at 16 bits under the inner order
        for parts in ["2,2", "3,2", "2,2,1", "3,1,1"]:
            lam = Partition.parse(parts)
            projected = 0
            for order in sample_orders(lam.n, 3, random.Random(f"projection|{parts}")):
                inner, removed, kept = prefix_standardization(order)
                basis = _specht_basis(lam, order, True)
                for t, mark, row in zip(basis.tableaux, basis.marks, basis.division_table.rows):
                    if mark[removed - 1]:
                        continue
                    f = specht_polynomial(t)
                    lc = f.coefficient(mark)
                    want = {_pack(tuple(e[v - 1] for v in kept), inner.desc0, 16): c * lc for e, c in f.items()}
                    got = {_widen(p, lam.n - 1, 8): c for p, c in row_generator(row).items()}
                    assert got == want, (lam, order, t)
                    projected += 1
            assert projected > 0, lam


def row_generator(row):
    """A division row (mark, tail) as the packed term map the elimination check
    divides: the mark at 1 and each tail term (e, t) at -t, which is the row's
    generator times its lead coefficient +-1."""
    mark, tail = row
    return {mark: 1, **{e: -t for e, t in tail}}


def count_sides(monkeypatch, lam, order):
    """Certify the check's two tables, so the memo skips their certificates, then
    count `_remainder` calls by side: the subset side divides by the big table in
    n fields, the superset side by the hat table in n - 1."""
    inner = prefix_standardization(order)[0]
    assert _failed(REAL_SPECHT_BASIS(lam, order, True)) is None
    assert _failed(REAL_SPECHT_BASIS(hat(lam), inner, True)) is None
    calls = {"subset": 0, "superset": 0}

    def counted(table, work, n):
        calls["subset" if n == lam.n else "superset"] += 1
        return REAL_REMAINDER(table, work, n)

    monkeypatch.setattr(spechtfan.oracle, "_remainder", counted)
    return calls


def passes(basis):
    """`_failed` for a table that passed its certificate."""
    return None


def nonzero_on(fields):
    """`_remainder`, with a remainder of 1, the packed constant monomial 0 that no
    mark divides, for every division of that many fields."""
    return lambda table, work, n: ({0: 1}, table) if n == fields else REAL_REMAINDER(table, work, n)


def with_x4_in_the_free_rows(lam, order, same_first_part):
    """`_specht_basis`, but at n = 4 x4, the top of four 8-bit fields, joins the
    tail of each row whose mark is free of it; the rows sorted by mark, which the
    divisions read, are left as they were."""
    basis = REAL_SPECHT_BASIS(lam, order, same_first_part)
    if lam.n != 4:
        return basis
    table = basis.division_table
    rows = tuple((m, tail if m >> 24 else (*tail, (1 << 24, -1))) for m, tail in table.rows)
    return basis._replace(division_table=table._replace(rows=rows))


def with_a_tampered_hat_table(lam, order, same_first_part):
    """`_specht_basis`, but with a tail coefficient of the first row negated at
    n = 3, where the hat table of (2,2) lives (`negate_a_tail_coefficient`)."""
    basis = REAL_SPECHT_BASIS(lam, order, same_first_part)
    return negate_a_tail_coefficient(basis) if lam.n == 3 else basis


class TestEliminationPolynomial:
    def test_two_two_identity(self, monkeypatch):
        lam, order = Partition.parse("2,2"), VariableOrder.identity(4)
        calls = count_sides(monkeypatch, lam, order)
        assert elimination_polynomial_check(lam, order) == ""
        assert calls == {"subset": 1, "superset": 1}

    @pytest.mark.parametrize(
        "parts,subset,superset",
        [("3,1", 2, 2), ("2,1", 1, 1)],
    )
    def test_small_anchors(self, monkeypatch, parts, subset, superset):
        lam = Partition.parse(parts)
        order = VariableOrder.identity(lam.n)
        calls = count_sides(monkeypatch, lam, order)
        assert elimination_polynomial_check(lam, order) == ""
        assert calls == {"subset": subset, "superset": superset}

    @pytest.mark.parametrize(
        "fakes,line",
        [
            # a remainder of 1, the packed constant monomial 0, for every division
            ({"_divide": lambda work, table: {0: 1}}, "basis of 2,2 failed certification"),
            (
                {"_failed": passes, "_remainder": nonzero_on(4)},
                "subset: generator of 1,1,1 from 1/2/3 left a remainder",
            ),
            (
                {"_failed": passes, "_remainder": nonzero_on(3)},
                "superset: projection of 1,4/2/3 left a remainder",
            ),
            (
                {"_failed": passes, "_specht_basis": with_x4_in_the_free_rows},
                "superset: 1,4/2/3 has a free leading monomial but uses x4",
            ),
        ],
        ids=["certification", "subset", "superset", "superset-uses-the-removed-variable"],
    )
    def test_a_tampered_step_names_the_failing_side(self, monkeypatch, fakes, line):
        for name, fake in fakes.items():
            monkeypatch.setattr(spechtfan.oracle, name, fake)
        got = elimination_polynomial_check(Partition.parse("2,2"), VariableOrder.identity(4))
        assert got == f"{line} under 1,2,3,4"

    def test_a_hat_table_tampered_after_certification_fails_the_subset_side(self, monkeypatch):
        # the subset side divides the hat table's own rows, so a tampered row shows there
        monkeypatch.setattr(spechtfan.oracle, "_failed", passes)
        monkeypatch.setattr(spechtfan.oracle, "_specht_basis", with_a_tampered_hat_table)
        got = elimination_polynomial_check(Partition.parse("2,2"), VariableOrder.identity(4))
        assert got == "subset: generator of 1,1,1 from 1/2/3 left a remainder under 1,2,3,4"

    def test_a_dividend_is_packed_at_the_table_width(self):
        # each side's rows, read as generators, at the lane tables' 8-bit fields: the subset
        # side's hat rows hold lc times the embedded generator packed under the order, the
        # superset side's rows lc times the generator; widened with the table, at 16 and 32
        lam, order = Partition.parse("2,2,1"), VariableOrder.parse("2,5,1,4,3")
        inner, _, asc = prefix_standardization(order)
        small = _specht_basis(hat(lam), inner, True)
        base = _specht_basis(lam, order, True)
        sides = [(small, lambda e: embed_exponents(e, 5, asc)), (base, lambda e: e)]
        checked = 0
        for basis, embed in sides:
            for t, mark, row in zip(basis.tableaux, basis.marks, basis.division_table.rows):
                f = specht_polynomial(t)
                lc = f.coefficient(mark)
                work = row_generator(row)
                for w in (8, 16, 32):
                    assert work == {_pack(embed(e), order.desc0, w): c * lc for e, c in f.items()}, (t, w)
                    work = {_widen(p, 5, w): c for p, c in work.items()}
                checked += 1
        assert checked == len(small.tableaux) + len(base.tableaux) > 2

    def test_sampled_orders_pass(self):
        rng = random.Random("elim-poly")
        for parts in ["2,2", "3,2", "2,2,1", "3,1,1"]:
            lam = Partition.parse(parts)
            for order in sample_orders(lam.n, 3, rng):
                assert elimination_polynomial_check(lam, order) == "", (lam, order)

    def test_preconditions(self, monkeypatch):
        with pytest.raises(ValueError):
            elimination_polynomial_check(
                Partition.parse("1,1"), VariableOrder.identity(2)
            )
        with pytest.raises(ValueError):
            elimination_polynomial_check(
                Partition.parse("4"), VariableOrder.identity(4)
            )

        def refuse(*args):
            raise AssertionError("a basis was built before the size check")

        monkeypatch.setattr(spechtfan.oracle, "_specht_basis", refuse)
        with pytest.raises(ValueError, match="oracle limit 6"):
            elimination_polynomial_check(
                Partition.parse("6,1"), VariableOrder.identity(7)
            )

    def test_limit_default(self):
        assert DEFAULT_ORACLE_LIMIT == 6


def lane_cases():
    """(lam, order) for every shape with 2 <= n <= 6 and two or more rows: every
    order for n <= 4, ten seeded orders for n = 5 and 6."""
    for n in range(2, 7):
        rng = random.Random(f"lanes-{n}")
        sigmas = list(permutations(range(1, n + 1)))
        if n >= 5:
            sigmas = rng.sample(sigmas, 10)
        for lam in enumerate_partitions(n):
            if lam.m >= 2:
                for sigma in sigmas:
                    yield lam, VariableOrder(sigma)


def polynomial_route(lam, order, same_first_part):
    """The lex or universal system's polynomials, and their `marked_basis`."""
    source = lex_groebner_generators if same_first_part else universal_groebner_generators
    polys = [f for _, f in source(lam, order)]
    return polys, marked_basis(polys, order)


def assert_same_table(got, want, case):
    """(w, guard), the marks in basis order and by mark, and the tails as sets."""
    assert (got.w, got.guard) == (want.w, want.guard), case
    assert [m for m, _ in got.rows] == [m for m, _ in want.rows], case
    assert [set(t) for _, t in got.rows] == [set(t) for _, t in want.rows], case
    assert [m for m, _ in got.by_mark] == [m for m, _ in want.by_mark], case


class TestLaneBasis:
    @pytest.mark.parametrize("same_first_part", [True, False], ids=["lex", "universal"])
    def test_the_lane_table_is_the_polynomial_routes(self, same_first_part):
        # at 8 bits, and widened to 16
        for lam, order in lane_cases():
            lanes = _specht_basis(lam, order, same_first_part)
            polys, route = polynomial_route(lam, order, same_first_part)
            table = lanes.division_table
            wide = _widen_table(table, lam.n)
            for got, want in ((table, packed_table(polys, order, 8)), (wide, packed_table(polys, order, 16))):
                assert_same_table(got, want, (lam, order))
            assert lanes.marks == route.marks

    @pytest.mark.parametrize("same_first_part", [True, False], ids=["lex", "universal"])
    def test_both_builders_give_a_marked_basis_with_one_table(self, same_first_part):
        # the polynomial route's own table, at 8 bits since n <= 6 keeps every exponent below 2**6
        for lam, order in lane_cases():
            lanes = _specht_basis(lam, order, same_first_part)
            polys, route = polynomial_route(lam, order, same_first_part)
            assert type(lanes) is type(route) is MarkedBasis
            assert route.division_table == packed_table(polys, order, 8)
            assert_same_table(lanes.division_table, route.division_table, (lam, order))
            assert (route.order, route.marks, route.tableaux) == (order, lanes.marks, ())

    def test_the_decoded_elements_are_the_polynomial_routes(self):
        # the lane basis carries tableaux, not polynomials; expanded, they are the polynomial route's
        lam, order = Partition.parse("3,2,1"), VariableOrder.parse("4,1,6,2,5,3")
        lanes = _specht_basis(lam, order, False)
        polys, route = polynomial_route(lam, order, False)
        assert certify_groebner(lanes) == certify_groebner(route)
        assert list(map(specht_polynomial, lanes.tableaux)) == polys and lanes.marks == route.marks

    def test_a_lead_coefficient_of_two_is_refused(self, tamper_lanes):
        # -x1 + 2*x3 for T0 = 1,2/3: x3 leads under the identity, with coefficient 2
        tamper_lanes({(2, 1): {(1, 0, 0): -1, (0, 0, 1): 2}})
        with pytest.raises(ValueError, match="leading coefficient of 1,2/3 must be .* not 2"):
            _specht_basis(Partition.parse("2,1"), VariableOrder.identity(3), True)

    def test_an_exponent_past_six_bits_is_refused(self, tamper_lanes):
        # 64 = 2**6 would let an S-pair reach a field's guard bit
        tamper_lanes({(2, 1): {(64, 0, 0): 1, (0, 0, 1): -1}})
        with pytest.raises(ValueError, match="shape 2,1 does not fit 6 bits"):
            _specht_basis(Partition.parse("2,1"), VariableOrder.identity(3), True)
        tamper_lanes({(2, 1): {(63, 0, 0): 1, (0, 0, 1): -1}})
        # x3 leads x1^63 - x3, and x2 leads its relabelling by 1,3/2
        assert _specht_basis(Partition.parse("2,1"), VariableOrder.identity(3), True).marks == ((0, 0, 1), (0, 1, 0))

    def test_an_n_past_one_lane_is_refused_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the lane check")

        monkeypatch.setattr(spechtfan.oracle, "dominated_partitions", refuse)
        monkeypatch.setattr(spechtfan.oracle, "_term_lanes", refuse)
        # 9 fields of 8 bits do not fit 64
        with pytest.raises(ValueError, match="n=9 does not fit 8-bit fields"):
            _specht_basis(Partition.parse("5,4"), VariableOrder.identity(9), True)

    @pytest.mark.parametrize("same_first_part", [True, False], ids=["lex", "universal"])
    def test_a_division_past_eight_bits_restarts_at_sixteen(self, tamper_lanes, monkeypatch, same_first_part):
        # T0 gives x2 - x1^60 + x3^8 and 1,3/2 gives x3 - x1^60 + x2^8; their S-pair
        # divides x3^7*x1^60 down to x1^480, past an 8-bit field
        tamper_lanes({(2, 1): {(0, 1, 0): 1, (60, 0, 0): -1, (0, 0, 8): 1}})
        lam, ido = Partition.parse("2,1"), VariableOrder.identity(3)
        lanes = _specht_basis(lam, ido, same_first_part)
        assert lanes.division_table.w == 8
        widenings = record_widening(monkeypatch)
        cert = certify_groebner(lanes)
        # the first pair that overflows widens the table once, and later pairs keep it
        assert widenings == [(8, 16, 3)]
        polys = [specht_polynomial(t) for t in lanes.tableaux]
        assert polys[0] == Polynomial(3, {(0, 1, 0): 1, (60, 0, 0): -1, (0, 0, 8): 1})
        marked = marked_basis(polys, ido)
        assert cert == certify_groebner(marked) == reference_certify(polys, marked)
        assert not cert.passed and max(max(e) for _, _, r in cert.failures for e, _ in r.items()) >= 480
        f = Polynomial(3, {(0, 0, 9): 1, (2, 1, 1): -3})
        assert reduce(f, lanes) == reduce(f, marked)


def table_key(basis):
    """What `_failed` compares: the division table less its row order."""
    table = basis.division_table
    return (table.w, table.guard, table.by_mark)


class TestCertifiedOnce:
    """`_failed` runs no certificate for a table equal to one that passed."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_order_packs_the_identitys_table(self, n):
        # S_n-equivariance as data: the systems under sigma, packed under sigma, are the identity's rows reordered
        ido = VariableOrder.identity(n)
        for lam in enumerate_partitions(n):
            if lam.m < 2:
                continue
            for same_first_part in (True, False):
                want = table_key(_specht_basis(lam, ido, same_first_part))
                for sigma in permutations(range(1, n + 1)):
                    got = table_key(_specht_basis(lam, VariableOrder(sigma), same_first_part))
                    assert got == want, (lam, sigma, same_first_part)

    def test_a_sampled_order_reuses_the_identitys_pass(self, count_calls):
        lam = Partition.parse("3,2")
        calls = count_calls(spechtfan.oracle, "certify_groebner")
        bases = [_specht_basis(lam, o, True) for o in sample_orders(5, 4, random.Random("certified-once"))]
        assert len({b.division_table.rows for b in bases}) == 4
        assert not any(map(_failed, bases))
        assert calls == {"certify_groebner": 1}
        assert _PASSED == [table_key(bases[0])]

    def test_a_tampered_order_fails_after_an_untampered_one_passed(self, count_calls):
        lam = Partition.parse("3,2")
        good, other = (_specht_basis(lam, o, True) for o in (VariableOrder.identity(5), VariableOrder.parse("2,5,1,4,3")))
        bad = negate_a_tail_coefficient(other)
        want = certify_groebner(bad)
        assert not want.passed
        assert _failed(good) is None
        calls = count_calls(spechtfan.oracle, "certify_groebner")
        # a failing table is certified in full every time, returned, and never remembered
        for k in (1, 2):
            assert _failed(bad) == want
            assert calls == {"certify_groebner": k}
            assert _PASSED == [table_key(good)]
        assert _failed(other) is None
        assert calls == {"certify_groebner": 2}
        assert certify_groebner(bad) == want

    def test_a_widened_table_is_not_matched_to_its_eight_bit_key(self, count_calls):
        basis = _specht_basis(Partition.parse("2,2"), VariableOrder.identity(4), True)
        wide = basis._replace(division_table=_widen_table(basis.division_table, 4))
        calls = count_calls(spechtfan.oracle, "certify_groebner")
        assert _failed(basis) is None and _failed(wide) is None
        assert calls == {"certify_groebner": 2}
        assert [w for w, _, _ in _PASSED] == [8, 16]

    def test_the_memo_keeps_the_three_latest_passes(self):
        ido = VariableOrder.identity(5)
        bases = [_specht_basis(Partition.parse(p), ido, s) for p in ("3,2", "2,2,1") for s in (True, False)]
        assert len(set(map(table_key, bases))) == 4
        assert not any(map(_failed, bases))
        assert _PASSED == [table_key(b) for b in bases[1:]]


class TestLanePassPath:
    """The oracle, universal, elimination-poly and braid rows build their
    systems from lanes: neither the Specht expansion nor `leading_monomial`
    runs on their pass path."""

    @pytest.mark.parametrize("parts", ["2,2", "3,2", "2,2,1", "3,1,1"])
    def test_no_expansion_and_no_leading_monomial(self, parts, monkeypatch, count_calls):
        import spechtfan.polyring
        import spechtfan.polytope
        import spechtfan.specht
        import spechtfan.verify

        names = ("specht_polynomial", "leading_monomial")
        calls = {}
        for module in (spechtfan.specht, spechtfan.polyring, spechtfan.oracle, spechtfan.polytope, spechtfan.verify):
            here = [name for name in names if hasattr(module, name)]
            calls[module.__name__] = count_calls(module, *here)
        lam = Partition.parse(parts)
        for order in sample_orders(lam.n, 3, random.Random(parts)):
            assert spechtfan.verify._oracle_lex_failure(lam, order) == ""
            assert spechtfan.verify._oracle_universal_failure(lam, order) == ""
            assert elimination_polynomial_check(lam, order) == ""
        assert spechtfan.verify._braid_row(lam).passed
        assert all(count == 0 for counts in calls.values() for count in counts.values()), calls
        # every module that could call either is watched: oracle's marked_basis, the closed-form row in verify
        assert sum(len(counts) for counts in calls.values()) == 5
