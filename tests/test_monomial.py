import itertools

import pytest
from hypothesis import given, strategies as st

from borel_rees.monomial import (
    DimensionMismatch,
    Monomial,
    MonomialParseError,
    NotDivisible,
    all_one_step_reductions,
    format_monomial,
    one_step_reduction,
    parse_monomial,
    rlex_compare,
    rlex_sort_key,
    strongly_stable_precedes,
)


def m(text, n):
    return parse_monomial(text, n)


class TestArithmetic:
    def test_multiply_componentwise(self):
        assert m("x1", 1) * m("x1", 1) == m("x1^2", 1)
        assert m("x2*x5", 5) * m("x3^2", 5) == m("x2*x3^2*x5", 5)

    def test_multiply_identity(self):
        u = m("x2*x4^3", 5)
        assert Monomial.one(5) * u == u

    def test_multiply_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            m("x1", 2) * m("x1", 3)

    def test_divides(self):
        assert m("x1*x3", 3).divides(m("x1*x2*x3", 3))
        assert not m("x4", 4).divides(m("x1*x2*x3", 4))

    def test_quotient(self):
        assert m("x1^2*x3", 3).quotient(m("x1", 3)) == m("x1*x3", 3)

    def test_quotient_non_divisor(self):
        with pytest.raises(NotDivisible):
            m("x1", 2).quotient(m("x2", 2))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))


class TestParsing:
    def test_power_syntax(self):
        assert m("x4^2", 4) == Monomial((0, 0, 0, 2))

    def test_unit(self):
        assert m("1", 3) == Monomial.one(3)

    def test_roundtrip(self):
        for text in ["x1^2*x3", "x2*x4^3*x5", "1"]:
            assert format_monomial(m(text, 5)) == text

    def test_parse_error_carries_position(self):
        with pytest.raises(MonomialParseError) as exc:
            parse_monomial("x2*y3", 5)
        assert exc.value.pos == 3

    def test_out_of_range_variable(self):
        with pytest.raises(MonomialParseError):
            parse_monomial("x7", 5)


class TestRlex:
    def test_paper_chain_examples(self):
        # x1*x2 > x2^2 and x2^2 > x1*x3 in the stated variable chain
        assert rlex_compare(m("x1*x2", 3), m("x2^2", 3)) == 1
        assert rlex_compare(m("x2^2", 3), m("x1*x3", 3)) == 1
        assert rlex_compare(m("x2*x3", 5), m("x2*x3", 5)) == 0

    def test_full_quadric_chain(self):
        chain = ["x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2",
                 "x1*x4", "x2*x4", "x1*x5", "x2*x5"]
        mons = [m(t, 5) for t in chain]
        for a, b in zip(mons, mons[1:]):
            assert rlex_compare(a, b) == 1
        assert sorted(mons[::-1], key=rlex_sort_key) == mons

    def test_graded_first(self):
        assert rlex_compare(m("x3^2", 3), m("x1", 3)) == 1

    @given(
        st.lists(
            st.tuples(*(st.integers(0, 3) for _ in range(4))),
            min_size=3, max_size=3,
        )
    )
    def test_total_order_on_fixed_degree(self, triples):
        # pad all to a common degree so the graded tiebreak is exercised
        mons = []
        for exps in triples:
            e = list(exps)
            e[0] += 12 - sum(e)
            mons.append(Monomial(e))
        a, b, c = mons
        # antisymmetry
        assert rlex_compare(a, b) == -rlex_compare(b, a)
        # totality: zero only on equality
        if rlex_compare(a, b) == 0:
            assert a == b
        # transitivity
        if rlex_compare(a, b) >= 0 and rlex_compare(b, c) >= 0:
            assert rlex_compare(a, c) >= 0


class TestOneStepReduction:
    def test_definitional(self):
        assert one_step_reduction(m("x2*x3", 3), 3, 1) == m("x1*x2", 3)
        assert one_step_reduction(m("x2*x5", 5), 5, 4) == m("x2*x4", 5)

    def test_error_when_variable_absent(self):
        with pytest.raises(NotDivisible):
            one_step_reduction(m("x1^2", 2), 2, 1)

    def test_error_when_not_earlier(self):
        with pytest.raises(ValueError):
            one_step_reduction(m("x1*x2", 2), 1, 2)

    def test_degree_preserved(self):
        u = m("x2^2*x4*x6", 6)
        for red, _, _ in all_one_step_reductions(u):
            assert red.degree == u.degree


def _reachable(start: Monomial) -> set:
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for red, _, _ in all_one_step_reductions(u):
            if red not in seen:
                seen.add(red)
                todo.append(red)
    return seen


class TestStronglyStablePrecedes:
    def test_examples(self):
        assert strongly_stable_precedes(m("x1*x2", 3), m("x2*x3", 3))
        assert not strongly_stable_precedes(m("x3^2", 5), m("x2*x5", 5))
        u = m("x2*x4", 4)
        assert strongly_stable_precedes(u, u)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            strongly_stable_precedes(m("x1", 2), m("x1^2", 2))

    def test_dominance_agrees_with_reachability_oracle(self):
        # exhaustive cross-check in n <= 5, degree <= 3
        for n in (2, 3, 5):
            for d in (1, 2, 3):
                mons = [
                    Monomial(
                        [combo.count(i) for i in range(n)]
                    )
                    for combo in itertools.combinations_with_replacement(
                        range(n), d
                    )
                ]
                for m2 in mons:
                    reachable = _reachable(m2)
                    for m1 in mons:
                        assert strongly_stable_precedes(m1, m2) == (
                            m1 in reachable
                        ), (m1, m2)
