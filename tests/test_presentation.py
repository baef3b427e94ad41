import itertools
import pickle
import random

import pytest

from hypothesis import given, settings, strategies as st

from borel_rees.borel import borel_closure
from borel_rees.monomial import Monomial, parse_monomial, rlex_sort_key
from borel_rees.presentation import (
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    PresVar,
    content,
    enumerate_fiber,
    enumerate_mixed_fiber,
    fibers_by_multidegree,
    phi,
)

FIG1_FIBER = {
    "T23^2*T14*T15",
    "T13*T23*T24*T15",
    "T22*T33*T14*T15",
    "T13*T23*T14*T25",
    "T12*T33*T24*T15",
    "T12*T33*T14*T25",
    "T13^2*T24*T25",
    "T11*T33*T24*T25",
}

FIG4_FIBER = {
    "T25*T44*Z36",
    "T26*T44*Z35",
    "T35*T44*Z26",
    "T24*T45*Z36",
    "T26*T35*Z44",
    "T34*T45*Z26",
    "T26*T45*Z34",
}


def m(text, n):
    return parse_monomial(text, n)


def pres(n, *specs):
    return PresMonomial([PresVar(i, m(t, n)) for i, t in specs])


def _sorted_labels(fiber, r):
    return {"*".join(sorted(v.label(r).split("*"))) for v in fiber}


def _normalize(labels):
    return {"*".join(sorted(lab.split("*"))) for lab in labels}


class TestPhi:
    def test_cross_product(self, running_pair):
        v = pres(6, (1, "x4*x5"), (2, "x4^2"))
        assert phi(v, running_pair) == MultiDegree(
            m("x4^3*x5", 6).exps, (1, 1)
        )

    def test_top_vertex_multidegree(self, quadric_pair_ideal):
        v = pres(5, (1, "x2*x3"), (1, "x2*x3"), (1, "x1*x4"), (1, "x1*x5"))
        assert phi(v, [quadric_pair_ideal]) == MultiDegree(
            m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,)
        )

    def test_empty_product(self, quadric_pair_ideal):
        assert phi(PresMonomial.one(), [quadric_pair_ideal]) == MultiDegree(
            (0,) * 5, (0,)
        )

    def test_mixed_monomial(self, quadric_pair_ideal):
        v = MixedMonomial(m("x1*x4", 5), pres(5, (1, "x3^2")))
        assert phi(v, [quadric_pair_ideal]) == MultiDegree(
            m("x1*x3^2*x4", 5).exps, (1,)
        )


class TestContent:
    def test_single_factor(self):
        assert content(pres(3, (1, "x2*x3")), 3) == m("x2*x3", 3)

    def test_sink_vertex(self):
        v = pres(5, (1, "x1^2"), (1, "x3^2"), (1, "x2*x4"), (1, "x2*x5"))
        assert content(v, 5) == m("x1^2*x2^2*x3^2*x4*x5", 5)

    def test_empty(self):
        assert content(PresMonomial.one(), 4) == Monomial.one(4)


class TestEnumerateFiber:
    def test_eight_vertex_fiber(self, quadric_pair_ideal):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        assert _sorted_labels(fiber, 1) == _normalize(FIG1_FIBER)

    def test_odd_degree_is_empty(self, quadric_pair_ideal):
        mu = MultiDegree(m("x1*x2*x3", 5).exps, (2,))
        assert enumerate_fiber(mu, [quadric_pair_ideal]) == []

    def test_seven_vertex_pair_fiber(self, running_pair):
        mu = MultiDegree(m("x2*x3*x4^2*x5*x6", 6).exps, (2, 1))
        fiber = enumerate_fiber(mu, list(running_pair))
        assert _sorted_labels(fiber, 2) == _normalize(FIG4_FIBER)

    def test_no_duplicates_in_canonical_form(self, quadric_pair_ideal):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        assert len(set(fiber)) == len(fiber)

    def test_random_products_round_trip(self, running_pair):
        rng = random.Random(11)
        ideals = list(running_pair)
        for _ in range(40):
            k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
            if k1 + k2 == 0 or k1 + k2 > 4:
                continue
            factors = [
                PresVar(1, rng.choice(ideals[0].minimal_generators))
                for _ in range(k1)
            ] + [
                PresVar(2, rng.choice(ideals[1].minimal_generators))
                for _ in range(k2)
            ]
            v = PresMonomial(factors)
            fiber = enumerate_fiber(phi(v, ideals), ideals)
            assert v in fiber

    @settings(max_examples=50, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(1, 2), st.integers(0, 15)),
                          min_size=1, max_size=4))
    def test_hypothesis_round_trip(self, running_pair, picks):
        ideals = list(running_pair)
        v = PresMonomial(
            [
                PresVar(i, ideals[i - 1].minimal_generators[k])
                for i, k in picks
            ]
        )
        fiber = enumerate_fiber(phi(v, ideals), ideals)
        assert v in fiber
        assert len(set(fiber)) == len(fiber)

    def test_mixed_fiber(self, quadric_pair_ideal):
        # divisors of x1*x3^2*x4 among the generators: x3^2, x1*x3, x1*x4
        mu = MultiDegree(m("x1*x3^2*x4", 5).exps, (1,))
        fiber = enumerate_mixed_fiber(mu, [quadric_pair_ideal])
        labels = {v.label(1) for v in fiber}
        assert labels == {"x1*x4*T33", "x3*x4*T13", "x3^2*T14"}
        for v in fiber:
            assert phi(v, [quadric_pair_ideal]) == mu


def multidegrees(ideals, budget):
    return [mu for mu, _ in fibers_by_multidegree(ideals, budget)]


class TestEnumerateMultidegrees:
    """The multidegrees fibers_by_multidegree yields."""

    def test_zero_budget(self, quadric_pair_ideal):
        mus = multidegrees([quadric_pair_ideal], (0,))
        assert mus == [MultiDegree((0,) * 5, (0,))]

    def test_budget_one_principal(self):
        ideal = borel_closure([m("x3^2", 5)], 5)
        mus = multidegrees([ideal], (1,))
        nontrivial = [mu for mu in mus if mu.total_t == 1]
        assert len(mus) == 7 and len(nontrivial) == 6
        assert {Monomial(mu.x_exps) for mu in nontrivial} == set(
            ideal.minimal_generators
        )

    def test_budget_two_equals_pairwise_products(self, quadric_pair_ideal):
        gens = quadric_pair_ideal.minimal_generators
        expected = {
            (a * b).exps
            for a, b in itertools.combinations_with_replacement(gens, 2)
        }
        got = {
            mu.x_exps
            for mu in multidegrees([quadric_pair_ideal], (2,))
            if mu.total_t == 2
        }
        assert got == expected
        assert len(expected) <= 55

    def test_stream_has_no_duplicates(self, running_pair):
        mus = multidegrees(list(running_pair), (1, 1))
        assert len(mus) == len(set(mus))

    def test_grouping_agrees_with_point_queries(self, quadric_pair_ideal):
        # each fiber against a brute-force point query: every product of
        # t generators, kept when phi maps it onto the multidegree
        ideals = [quadric_pair_ideal]
        gens = quadric_pair_ideal.minimal_generators
        for mu, fiber in fibers_by_multidegree(ideals, (2,)):
            products = (
                PresMonomial([PresVar(1, g) for g in combo])
                for combo in itertools.combinations_with_replacement(
                    gens, mu.t_exps[0])
            )
            query = [u for u in products if phi(u, ideals) == mu]
            assert fiber == sorted(
                query, key=lambda u: [f.sort_key() for f in u.factors])


class TestValueSemantics:
    """PresVar and PresMonomial store their sort key and hash; they must
    behave as the plain values they were (a frozen dataclass and a tuple of
    factors): equal when their data is, hashed the same, ordered the same."""

    def variables(self, running_pair):
        return [PresVar(i, g) for i, ideal in enumerate(running_pair, 1)
                for g in ideal.minimal_generators]

    def test_separately_built_variables_are_equal(self, running_pair):
        for p in self.variables(running_pair):
            q = PresVar(p.ideal_index, Monomial(p.generator.exps))
            assert p is not q and p == q and hash(p) == hash(q)
            # the frozen dataclass's hash, so set and dict layouts stay put
            assert hash(p) == hash((p.ideal_index, p.generator))
            other = PresVar(p.ideal_index + 1, p.generator)
            assert p != other and other != p
        assert PresVar(1, m("x4*x5", 6)) != (1, m("x4*x5", 6))

    def test_separately_built_monomials_are_equal(self, running_pair):
        rng = random.Random(5)
        variables = self.variables(running_pair)
        for _ in range(50):
            factors = rng.choices(variables, k=rng.randint(0, 4))
            u = PresMonomial(factors)
            w = PresMonomial(
                [PresVar(f.ideal_index, Monomial(f.generator.exps))
                 for f in reversed(factors)]
            )
            assert u == w and hash(u) == hash(w) and hash(u) == hash(u.factors)

    def test_sort_order_unchanged(self, running_pair):
        def old_key(p):
            return (p.ideal_index, rlex_sort_key(p.generator))

        rng = random.Random(6)
        variables = self.variables(running_pair)
        for _ in range(20):
            rng.shuffle(variables)
            assert sorted(variables, key=PresVar.sort_key) == sorted(
                variables, key=old_key)
            factors = rng.choices(variables, k=4)
            assert PresMonomial(factors).factors == tuple(
                sorted(factors, key=old_key))

    def test_pickle_round_trips(self, running_pair):
        i1, i2 = running_pair
        p = PresVar(2, i2.minimal_generators[3])
        u = PresMonomial([PresVar(1, i1.minimal_generators[0]), p, p])
        hash(u)  # the cached hash is not part of the pickled state
        w = MixedMonomial(m("x1*x6", 6), u)
        for value in (p, u, w):
            back = pickle.loads(pickle.dumps(value))
            assert back == value and hash(back) == hash(value)
            assert repr(back) == repr(value)

    def test_immutable(self):
        p = PresVar(1, m("x4*x5", 6))
        u = PresMonomial([p])
        for value, attr in ((p, "ideal_index"), (p, "generator"), (p, "key"),
                            (u, "factors")):
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
        with pytest.raises(AttributeError):
            del p.generator
        assert p.ideal_index == 1 and u.factors == (p,)

    def test_repr_unchanged(self):
        p = PresVar(2, m("x3*x6", 6))
        assert repr(p) == (
            "PresVar(ideal_index=2, generator=Monomial((0, 0, 1, 0, 0, 1)))")
        assert repr(PresMonomial([p])) == f"PresMonomial(({p!r},))"
