import itertools
import pickle
import random
import tracemalloc
from collections import Counter
from functools import reduce
from operator import or_
from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

from borel_rees import presentation
from borel_rees.borel import borel_closure, order_view
from borel_rees.monomial import (
    Monomial,
    format_monomial,
    parse_monomial,
    rlex_sort_key,
)
from borel_rees.orders import build_head_and_tail_basis
from borel_rees.presentation import (
    Alphabet,
    Digits,
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    PresVar,
    content,
    content_degree,
    enumerate_fiber,
    enumerate_mixed_fiber,
    fibers_by_multidegree,
    monomial_count,
    phi,
    presentation_variables,
    rank_fibers,
    t_vectors,
    _budget_expansion,
    _fiber_groups,
    _level_slices,
    _RestLists,
)
from borel_rees.verifier import mixed_fibers
from reference import banned_fibers

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

    def test_an_empty_level_ends_the_mixed_fiber(self):
        # in B(x4*x5, x2*x6) one factor x1*x3 uses the whole x-part, so
        # the second level is empty and no third factor is grown, however
        # long the t-part
        ideals = [borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6)]
        x = m("x1*x3", 6).exps
        assert len(enumerate_mixed_fiber(MultiDegree(x, (1,)), ideals)) == 1
        grow = presentation._Expansion.grow
        with mock.patch.object(presentation._Expansion, "grow",
                               autospec=True, side_effect=grow) as grown:
            assert enumerate_mixed_fiber(MultiDegree(x, (10**11,)),
                                         ideals) == []
        assert grown.call_count == 2


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
        nontrivial = [mu for mu in mus if sum(mu.t_exps) == 1]
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
            if sum(mu.t_exps) == 2
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


# ---------------------------------------------------------------------------
# the level enumerator against a brute-force reference


def reference_slice(ideals, tv, forbidden_pairs=()):
    """{content exponents: rank tuples} of one t-slice, brute force: one
    combinations_with_replacement choice of ranks per ideal, the product
    across ideals, monomials holding a forbidden pair dropped, grouped by
    content in first-member order."""
    exps = [v.generator.exps for v in presentation_variables(ideals)]
    pairs = {(min(i, j), max(i, j)) for i, j in forbidden_pairs}
    blocks, start = [], 0
    for ideal in ideals:
        blocks.append(range(start, start + len(ideal.minimal_generators)))
        start += len(ideal.minimal_generators)
    groups = {}
    for combo in itertools.product(*(
            itertools.combinations_with_replacement(block, k)
            for block, k in zip(blocks, tv))):
        ranks = sum(combo, ())
        if any((i, j) in pairs and (i != j or ranks.count(i) > 1)
               for i, j in itertools.combinations_with_replacement(
                   sorted(set(ranks)), 2)):
            continue
        x = tuple(sum(ranks.count(k) * exps[k][i] for k in set(ranks))
                  for i in range(ideals[0].n))
        groups.setdefault(x, []).append(ranks)
    return groups


def _ht_lead_pairs(first, second):
    ideals = [first, second]
    rank = {v: k for k, v in enumerate(presentation_variables(ideals))}
    rules = build_head_and_tail_basis(order_view(first), order_view(second))
    return ideals, [tuple(rank[f] for f in g.lead.factors) for g in rules]


def _level_cases():
    one = borel_closure([m("x3^2", 5), m("x2*x5", 5)], 5)
    first = borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6)
    second = borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)
    triple = [
        borel_closure([m("x3^2", 5), m("x1*x5", 5)], 5),
        borel_closure([m("x3^2", 5), m("x2*x4", 5)], 5),
        borel_closure([m("x2*x4", 5), m("x1*x5", 5)], 5),
    ]
    cubic = borel_closure([m("x2*x3^2", 4), m("x1*x4^2", 4)], 4)
    ht, ht_pairs = _ht_lead_pairs(first, second)
    th, th_pairs = _ht_lead_pairs(second, first)
    return [
        pytest.param([one], (3,), (), id="r1"),
        pytest.param([first, second], (2, 1), (), id="r2"),
        pytest.param(triple, (1, 1, 1), (), id="r3"),
        pytest.param([cubic], (2,), (), id="cubic"),
        pytest.param([first, second], (0, 2), (), id="r2-zero-entry"),
        pytest.param(triple, (2, 0, 1), (), id="r3-zero-entry"),
        # (i, i) bans a square; (j, i) with j > i is the pair (i, j)
        pytest.param([one], (3,), [(3, 3), (7, 2), (0, 9), (5, 5)],
                     id="r1-forbidden"),
        pytest.param([first, second], (2, 2), [(20, 4), (11, 11), (30, 1)],
                     id="r2-forbidden"),
        pytest.param(ht, (2, 2), ht_pairs, id="ht-lead-pairs"),
        pytest.param(th, (2, 2), th_pairs, id="ht-lead-pairs-reversed"),
    ]


class TestLevelEnumeratorAgainstReference:
    """The pure groups of _fiber_groups and the fibers of banned_fibers
    (rank_fibers when nothing is banned) against reference_slice: the same
    slices in the same order, the same contents (ascending for the fibers,
    and for the keys of _fiber_groups once sorted), and each content's
    members in the same order."""

    @pytest.mark.parametrize("ideals, budget, pairs", _level_cases())
    def test_rank_slices(self, ideals, budget, pairs):
        # one group per t-slice of rank tuples, every slice, keys unsorted
        digits, _, slices = _fiber_groups(ideals, budget, pairs)
        got = [(tv, {digits.unpack(x): members
                     for x, members in groups.items()})
               for tv, groups in slices()]
        expected = [(tv, reference_slice(ideals, tv, pairs))
                    for tv in t_vectors(budget)]
        assert got == expected

    @pytest.mark.parametrize("ideals, budget, pairs", _level_cases())
    def test_rank_fibers(self, ideals, budget, pairs):
        expected = [
            (MultiDegree(x, tv), members)
            for tv in t_vectors(budget)
            for x, members in sorted(reference_slice(ideals, tv,
                                                     pairs).items())
        ]
        assert list(banned_fibers(ideals, budget, pairs)) == expected
        if not pairs:
            assert list(rank_fibers(ideals, budget)) == expected

    @pytest.mark.parametrize("ideals, budget, pairs", _level_cases())
    def test_keyed_fibers(self, ideals, budget, pairs):
        # each group's packed x-parts, sorted ascending, give rank_fibers'
        # fibers: the order the kernel oracle and the obstruction scan
        # sort what they report into
        digits, _, groups = _fiber_groups(ideals, budget, pairs)
        assert [(tv, key, group[key]) for tv, group in groups()
                for key in sorted(group)] == [
            (tv, digits.pack(x), members)
            for tv in t_vectors(budget)
            for x, members in sorted(reference_slice(ideals, tv,
                                                     pairs).items())
        ]

    @pytest.mark.parametrize("x_pairs", [(), ((0, 14), (3, 12), (2, 5))])
    def test_keyed_mixed_fibers_pack_their_image(self, x_pairs):
        # B(x3^2, x2*x5): ranks 0..9, x_i is atom 9 + i; a pair of a rank
        # and an x-atom bans the x-variable beside that factor, and a pair
        # of ranks bans the two factors together
        ideals = [borel_closure([m("x3^2", 5), m("x2*x5", 5)], 5)]
        decode = Alphabet.of(ideals).decode
        digits, _, groups = _fiber_groups(ideals, (2,), x_pairs, 6)
        keyed = {(tv, key): members for tv, group in groups()
                 for key, members in group.items()}
        assert keyed == {
            (mu.t_exps, digits.pack(mu.x_exps)): members
            for mu, members in banned_fibers(ideals, (2,), x_pairs, 6)
        }
        assert len(keyed) > 100
        for (tv, key), members in keyed.items():
            for atoms in members:
                assert not any(a in atoms and b in atoms for a, b in x_pairs)
                assert phi(decode(atoms), ideals) == MultiDegree(
                    digits.unpack(key), tv)

    def test_keyed_fibers_check_the_budget_at_once(self):
        ideals = [borel_closure([m("x3^2", 5), m("x2*x5", 5)], 5)]
        with pytest.raises(ValueError, match="t budget needs 1 entries"):
            _fiber_groups(ideals, (1, 1))
        # rank_fibers is a generator: it checks on its first fiber
        with pytest.raises(ValueError, match="t budget needs 1 entries"):
            next(rank_fibers(ideals, (1, 1)))


def _shape_cases():
    """One two-generator quadric ideal B(x_c*x_d, x_a*x_b) per shape
    c < a <= b < d <= 6, at n = d."""
    cases = []
    for d in range(2, 7):
        for c, a, b in itertools.product(range(1, d), repeat=3):
            if c < a <= b < d:
                gens = [f"x{c}*x{d}", f"x{a}*x{b}" if a < b else f"x{a}^2"]
                cases.append(pytest.param(
                    [borel_closure([m(g, d) for g in gens], d)], (3,), (),
                    id=f"shape-{c}{a}{b}{d}"))
    return cases


def _state_levels(ideals, budget, pairs=()):
    expansion = _budget_expansion(ideals, budget, pairs, 0)
    return expansion, _level_slices(expansion.states, expansion.grow_states,
                                    ideals, budget, None)


# B(x3^2, x2*x5): ranks 0..9, x_i is atom 9 + i
_ONE = [borel_closure([m("x3^2", 5), m("x2*x5", 5)], 5)]
_X_BANS = ((0, 14), (3, 12), (2, 5), (7, 10), (3, 10))


class TestStateLevels:
    """_Expansion.grow_states against the members of _fiber_groups: every
    slice holds the same contents with multiplicity, and each member's
    state carries the x-atom bans of its ranks."""

    @pytest.mark.parametrize("ideals, budget, pairs",
                             _level_cases() + _shape_cases())
    def test_contents_with_multiplicity(self, ideals, budget, pairs):
        _, levels = _state_levels(ideals, budget, pairs)
        _, _, slices = _fiber_groups(ideals, budget, pairs)
        got = [(tv, Counter(itertools.chain.from_iterable(level.values())))
               for tv, level, _ in levels]
        assert got == [(tv, Counter({x: len(us) for x, us in groups.items()}))
                       for tv, groups in slices()]

    def test_states_carry_the_x_atom_bans(self):
        expansion, levels = _state_levels(_ONE, (3,), _X_BANS)
        assert expansion.bans == {0: 1 << 14, 3: 1 << 12 | 1 << 10,
                                  7: 1 << 10}
        high = ((1 << 5) - 1) << expansion.size
        _, _, slices = _fiber_groups(_ONE, (3,), [(2, 5)])
        for (tv, level, _), (_, groups) in zip(levels, slices()):
            got = Counter((x, state & high) for state, xs in level.items()
                          for x in xs)
            assert got == Counter(
                (x, reduce(or_, [expansion.bans.get(k, 0) for k in u], 0))
                for x, us in groups.items() for u in us)
            if sum(tv) >= 2:
                assert len({ban for _, ban in got}) > 2


def _reference_counts(ideals, budget, pairs, x_degree):
    """(t-vector, x-degree, fibers, members) of each group of banned_fibers,
    every group of the budget listed, empty ones too."""
    groups = {}
    for tv in t_vectors(budget):
        low = content_degree(ideals, tv)
        for d in ([low] if x_degree is None
                  else range(low, x_degree + 1)):
            groups[tv, d] = [0, 0]
    for mu, members in banned_fibers(ideals, budget, pairs, x_degree):
        d = sum(mu.x_exps)
        groups[mu.t_exps, d][0] += 1
        groups[mu.t_exps, d][1] += len(members)
    return [(tv, d, keys, count) for (tv, d), (keys, count) in groups.items()]


def _pair_syzygy_bans():
    # a syzygy-like ban of x_i beside each rank i mod 6 of the running pair
    pair = [borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
            borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)]
    size = len(presentation_variables(pair))
    return pair, [(k, size + k % 6) for k in range(size)]


class TestStandardCounts:
    """The counts of _fiber_groups against the fibers of banned_fibers,
    group by group: the fibers of a group and their members, pure or mixed, with
    rank bans and x-atom bans."""

    @pytest.mark.parametrize("ideals, budget, pairs", _level_cases())
    def test_pure_groups(self, ideals, budget, pairs):
        got = list(_fiber_groups(ideals, budget, pairs)[1])
        assert got == _reference_counts(ideals, budget, pairs, None)
        if not pairs:
            assert any(keys != count for _, _, keys, count in got)

    @pytest.mark.parametrize("pairs", [(), _X_BANS, ((1, 1), (4, 6))])
    def test_mixed_groups(self, pairs):
        got = list(_fiber_groups(_ONE, (3,), pairs, 8)[1])
        assert got == _reference_counts(_ONE, (3,), pairs, 8)
        assert any(keys != count for _, _, keys, count in got)

    def test_mixed_groups_of_the_pair_under_its_syzygy_bans(self):
        pair, pairs = _pair_syzygy_bans()
        got = list(_fiber_groups(pair, (1, 1), pairs, 5)[1])
        assert got == _reference_counts(pair, (1, 1), pairs, 5)

    def test_budget_checked_at_once(self):
        # a walk over a negative budget entry or x-degree would check
        # nothing, so it is refused before either generator starts
        for budget, x_degree, message in [
            ((1, 1), None, "t budget needs 1 entries, got 2"),
            ((-1,), None, "t budget entries must be >= 0, got -1"),
            ((-2,), 8, "t budget entries must be >= 0, got -2"),
            ((2,), -3, "x-degree must be >= 0, got -3"),
        ]:
            with pytest.raises(ValueError, match=message):
                _fiber_groups(_ONE, budget, x_degree=x_degree)

    @pytest.mark.parametrize("n", [5, 6])
    def test_rest_lists_skip_the_banned_atoms(self, n):
        # the rests over the unbanned x-atoms are every rest with the
        # banned ones filtered out, in the same order, for every ban mask
        size = 7
        digits = Digits(n, 4)
        rest_lists = _RestLists(digits, size)
        atoms = range(size, size + n)
        for ban in range(1 << n):
            ban <<= size
            for e in range(5):
                assert rest_lists[e, ban] == [
                    (digits.pack([w.count(a) for a in atoms]), w)
                    for w in itertools.combinations_with_replacement(atoms, e)
                    if not any(ban >> a & 1 for a in w)]


def _group_cases():
    pair, syzygy_bans = _pair_syzygy_bans()
    cases = [pytest.param(*case.values, None, id=case.id)
             for case in _level_cases()]
    for pairs, pairs_id in [((), "none"), (_X_BANS, "x-atom"),
                            (((1, 1), (4, 6)), "rank")]:
        for x_degree in (8, 5):  # 5: below the content degree 6 of t = 3
            cases.append(pytest.param(_ONE, (3,), pairs, x_degree,
                                      id=f"mixed-{pairs_id}-{x_degree}"))
    # banning every pair of ranks empties the slices of two factors or more
    every_pair = list(itertools.combinations_with_replacement(range(10), 2))
    cases += [
        pytest.param(pair, (0, 2), syzygy_bans, 6, id="mixed-zero-entry"),
        pytest.param(pair, (2, 1), syzygy_bans, 5, id="mixed-pair-below"),
        pytest.param(_ONE, (3,), every_pair, 5, id="mixed-empty-groups"),
    ]
    return cases


class TestGroupsAreCounted:
    """_fiber_groups lists the groups it counts: the same sequence of
    (t-vector, x-degree) groups, each with as many keys and members as
    counted. verify_gb counts the leading groups and lists the rest from
    the first group not counted, so this is what its hand-over rests on."""

    @pytest.mark.parametrize("ideals, budget, pairs, x_degree",
                             _group_cases())
    def test_same_groups_counted_and_listed(self, ideals, budget, pairs,
                                            x_degree):
        # the counts and the groups of one call, as verify_gb reads them
        digits, counts, groups = _fiber_groups(ideals, budget, pairs,
                                               x_degree)
        counts, groups = list(counts), list(groups())
        assert [(tv, len(group), sum(map(len, group.values())))
                for tv, group in groups] == [
            (tv, keys, members) for tv, _, keys, members in counts]
        for (tv, group), (_, d, _, _) in zip(groups, counts):
            # every key of a group has the x-degree of its count
            assert {sum(digits.unpack(key)) for key in group} <= {d}
        # one group per slice and x-degree from the slice's content degree
        # up, the content degree alone in a pure walk: a slice past
        # x_degree has none
        assert [(tv, d) for tv, d, _, _ in counts] == [
            (tv, d) for tv in t_vectors(budget)
            for d in ([content_degree(ideals, tv)] if x_degree is None else
                      range(content_degree(ideals, tv), x_degree + 1))]
        if not pairs:
            assert any(keys != members for _, _, keys, members in counts)

    @pytest.mark.parametrize("ideals, budget, pairs, x_degree",
                             _group_cases())
    def test_a_listing_from_a_later_group_is_the_tail(self, ideals, budget,
                                                      pairs, x_degree):
        # groups(start) is the listing less its first start groups, and
        # reads the members of a slice only when one of its groups is
        # listed: the levels are grown, no member dict is built before start
        _, _, groups = _fiber_groups(ideals, budget, pairs, x_degree)
        listed = list(groups())
        for start in range(len(listed) + 2):
            walked = []
            with mock.patch.object(presentation, "_level_slices",
                                   _recording_slices(walked)):
                assert list(groups(start)) == listed[start:]
            assert walked == list(dict.fromkeys(tv for tv, _ in
                                                listed[start:]))


class TestListingAtAHugeXDegree:
    """A slice's groups are one range of rest degrees, so groups(start)
    passes over a slice by its range's length and starts inside one by
    slicing it: at x-degree 10**6, the first group of either slice of
    B(x1^2) at n=3 is listed with no list of the slice's degrees built."""

    IDEALS = [borel_closure([m("x1^2", 3)], 3)]
    X_DEGREE = 10**6

    def first_group(self, start):
        """(t-vector, group with unpacked keys) of groups(start), and the
        tracemalloc peak of the call that lists it."""
        digits, _, groups = _fiber_groups(self.IDEALS, (1,),
                                          x_degree=self.X_DEGREE)
        listing = groups(start)
        tracemalloc.start()
        try:
            tv, group = next(listing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return tv, {digits.unpack(k): v for k, v in group.items()}, peak

    def test_the_first_group_of_the_walk(self):
        tv, group, peak = self.first_group(0)
        assert (tv, group) == ((0,), {(0, 0, 0): [()]})
        assert peak < 5 * 2**20

    def test_a_start_past_the_first_slice(self):
        # the empty slice has a group for every x-degree 0..10**6
        tv, group, peak = self.first_group(self.X_DEGREE + 1)
        assert (tv, group) == ((1,), {(2, 0, 0): [(0,)]})
        assert peak < 5 * 2**20


class TestRestListsAtAHugeXDegree:
    """A slice whose rest degrees rise without bound keeps one degree's
    rest lists at a time: the first 60 groups of B(x1^999999999999) at
    n=3, budget (1,) and x-degree 2*10**12 (the default bound of that
    spec) are x-degrees 0..59 of the empty slice, each with every
    x-monomial of its degree, counted or listed under an 8 MB peak."""

    IDEALS = [borel_closure([m("x1^999999999999", 3)], 3)]

    @pytest.mark.parametrize("walk", ["counts", "groups"])
    def test_sixty_groups(self, walk):
        tracemalloc.start()
        try:
            _, counts, groups = _fiber_groups(self.IDEALS, (1,),
                                              x_degree=2 * 10**12)
            if walk == "counts":
                sizes = [(tv, keys) for tv, _, keys, _ in
                         itertools.islice(counts, 60)]
            else:
                sizes = [(tv, len(group)) for tv, group in
                         itertools.islice(groups(), 60)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [((0,), (e + 1) * (e + 2) // 2) for e in range(60)]
        assert peak < 8 * 2**20


class TestUnreachedSlicesAreNotGrown:
    """A mixed walk grows no level for a slice whose content degree is
    above its x-degree bound: on the running pair at (3, 3) and x-degree 8
    the slices of t-degree 5 and 6 (content degree 10 and 12) have no
    group, so neither the counts nor the listing grows them."""

    PAIR = [borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
            borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)]

    def test_levels_stop_at_the_x_degree(self):
        grown = []  # the content degree of every level grown
        node_grow = presentation._Expansion.grow
        state_grow = presentation._Expansion.grow_states

        def grow(expansion, level, i):
            out = node_grow(expansion, level, i)
            grown.append(sum(expansion.digits.unpack(out[0][0])))
            return out

        def grow_states(expansion, level, i):
            out = state_grow(expansion, level, i)
            (x, *_), *_ = out.values()
            grown.append(sum(expansion.digits.unpack(x)))
            return out

        with mock.patch.object(presentation._Expansion, "grow", grow), \
                mock.patch.object(presentation._Expansion, "grow_states",
                                  grow_states):
            _, counts, groups = _fiber_groups(self.PAIR, (3, 3), x_degree=8)
            counted = sum(keys for _, _, keys, _ in counts)
            listed = sum(len(group) for _, group in groups())
        # the 12 nonzero t-vectors of t-degree 4 or less, once per walk
        assert sorted(grown) == sorted(
            [2 * sum(tv) for tv in t_vectors((3, 3)) if 0 < sum(tv) <= 4] * 2)
        assert counted == listed > 0


def _recording_slices(walked):
    """_level_slices with each yielded level recording its t-vector in
    walked whenever it is read; the levels it grows from stay plain."""
    real = presentation._level_slices

    class Level(list):
        def __iter__(self):
            walked.append(self.tv)
            return super().__iter__()

    def slices(root, grow, *args):
        for tv, level, rests in real(root, grow, *args):
            recorded = Level(level)
            recorded.tv = tv
            yield tv, recorded, rests

    return slices


def _sampled_pairs(count, seed):
    """The running pair and count sampled pairs of two-quadric shapes, each
    pair at n = the larger of its two shapes' n."""
    rng = random.Random(seed)
    shapes = [[c.values[0][0]] for c in _shape_cases()]
    pairs = [[borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
              borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)]]
    for _ in range(count):
        (first,), (second,) = rng.choice(shapes), rng.choice(shapes)
        n = max(first.n, second.n)
        pairs.append([borel_closure([m(format_monomial(g), n)
                                     for g in i.borel_generators], n)
                      for i in (first, second)])
    return pairs


def _rank_bans(ideals):
    """Four random pairs of ranks to ban beside each other, a square when
    both ranks agree."""
    rng = random.Random(29)
    size = len(presentation_variables(ideals))
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(4)]


def _rest_degree_0_cases():
    cases = [pytest.param(*c.values[:2], id=c.id) for c in _shape_cases()]
    for k, pair in enumerate(_sampled_pairs(5, 23)):
        cases.append(pytest.param(pair, (2, 1), id=f"pair-{k}"))
    cases += [
        pytest.param([borel_closure([m("x2*x3*x4", 5), m("x1*x4^2", 5),
                                     m("x2^2*x5", 5)], 5)], (2,), id="cubic"),
        pytest.param([borel_closure([m("x3^2", 5), m("x1*x5", 5)], 5),
                      borel_closure([m("x3^2", 5), m("x2*x4", 5)], 5),
                      borel_closure([m("x2*x4", 5), m("x1*x5", 5)], 5)],
                     (1, 1, 1), id="ex4.1-triple"),
    ]
    return cases


class TestPureIsRestDegreeZero:
    """A pure fiber is a fiber of the full presentation map of rest degree
    0: the pure walk's groups are a mixed walk's groups at each slice's
    content degree, and the pure point query is the mixed one's t-parts."""

    @pytest.mark.parametrize("banned", [False, True], ids=["free", "banned"])
    @pytest.mark.parametrize("ideals, budget", _rest_degree_0_cases())
    def test_pure_groups_are_the_rest_degree_0_groups(self, ideals, budget,
                                                      banned):
        pairs = _rank_bans(ideals) if banned else ()
        top = content_degree(ideals, budget)
        _, counts, groups = _fiber_groups(ideals, budget, pairs, top)
        counts = list(counts)
        rest_0 = [(tv, list(group.items()))
                  for (tv, d, _, _), (_, group) in zip(counts, groups())
                  if d == content_degree(ideals, tv)]
        _, _, pure = _fiber_groups(ideals, budget, pairs)
        # the same keys in the same order, each with the same members in
        # the same order
        assert [(tv, list(group.items())) for tv, group in pure()] == rest_0
        assert len(rest_0) == len(list(t_vectors(budget)))
        # the mixed walk has groups past rest degree 0 as well
        assert len(counts) > len(rest_0)

    def test_point_queries(self, running_pair):
        pair = list(running_pair)
        fibers = list(rank_fibers(pair, (2, 1)))
        assert len(fibers) > 100
        for mu, _ in fibers:
            mixed = enumerate_mixed_fiber(mu, pair)
            assert all(v.x_part == Monomial.one(6) for v in mixed)
            assert enumerate_fiber(mu, pair) == [v.t_part for v in mixed]
        # an x-part of another degree than the content degree: the mixed
        # fiber is not empty, the pure one is
        mu = MultiDegree(m("x2*x3*x4^2*x5*x6^2", 6).exps, (2, 1))
        assert enumerate_mixed_fiber(mu, pair)
        assert enumerate_fiber(mu, pair) == []
        short = MultiDegree(m("x4*x5", 6).exps, (1,))
        for query in (enumerate_fiber, enumerate_mixed_fiber):
            with pytest.raises(ValueError, match="t-vector length 1 != r=2"):
                query(short, pair)

    def test_point_queries_check_the_x_part_length(self, quadric_pair_ideal):
        # a short x-part once raised a negative exponent or listed no
        # member, and a long one misaligned its digits
        one = [quadric_pair_ideal]
        for x in ((2, 0, 0), (1, 1, 0), (0, 0, 0, 0, 0, 0, 2),
                  (1, 0, 0, 0, 0, 0, 1)):
            mu = MultiDegree(x, (1,))
            for query in (enumerate_fiber, enumerate_mixed_fiber):
                with pytest.raises(
                        ValueError, match=f"^x-part length {len(x)} != n=5$"):
                    query(mu, one)
        assert enumerate_fiber(MultiDegree((1, 0, 1, 0, 0), (1,)), one)


def _label_as_computed_per_call(var, r):
    """PresVar.label as it was computed on every call."""
    if (var.generator.degree == 2 and var.ideal_index <= 2
            and (r is None or r <= 2)):
        idx = var.generator.variables_with_multiplicity()
        if max(idx) <= 9:
            letter = "T" if var.ideal_index == 1 else "Z"
            return f"{letter}{idx[0]}{idx[1]}"
    return f"T[{var.ideal_index}]{{{format_monomial(var.generator)}}}"


class TestPresVarLabels:
    """Each variable's labels are built once; label(r) picks the compact
    alias or the full label exactly as the per-call formula did."""

    @pytest.mark.parametrize("ideals", [
        *[c.values[0] for c in _shape_cases()],
        [borel_closure([m("x2*x3*x4", 5), m("x1*x4^2", 5),
                        m("x2^2*x5", 5)], 5)],
        [borel_closure([m("x3^2", 5), m("x1*x5", 5)], 5),
         borel_closure([m("x3^2", 5), m("x2*x4", 5)], 5),
         borel_closure([m("x2*x4", 5), m("x1*x5", 5)], 5)],
        # a variable index past 9 has no compact alias
        [borel_closure([m("x2*x10", 10)], 10)],
    ], ids=[c.id for c in _shape_cases()] + ["cubic", "ex4.1-triple",
                                            "n10"])
    def test_same_labels_as_per_call(self, ideals):
        # every generator as a variable of ideal 1, 2 and 3
        variables = [PresVar(i, g) for ideal in ideals
                     for g in ideal.minimal_generators for i in (1, 2, 3)]
        for var in variables:
            for r in (None, 1, 2, 3):
                assert var.label(r) == _label_as_computed_per_call(var, r)
            assert str(var) == var.label()
        assert len({var.label(3) for var in variables}) == len(
            set(variables))


class TestDigitWidth:
    """Contents past 255 in one exponent take two-byte digits."""

    # B(x1^15*x2) = (x1^16, x1^15*x2) at n = 2: content degree 256 at t = 16
    WIDE = [borel_closure([m("x1^15*x2", 2)], 2)]

    @pytest.mark.parametrize("degree", [2, 255, 256, 70000])
    def test_pack_is_the_digit_sum(self, degree):
        # one-byte digits and wider ones pack to the same place values
        digits = Digits(4, degree)
        rng = random.Random(degree)
        for _ in range(50):
            exps = tuple(rng.randint(0, degree) for _ in range(4))
            packed = digits.pack(exps)
            assert packed == sum(e << digits.bits * (3 - i)
                                 for i, e in enumerate(exps))
            assert digits.unpack(packed) == exps

    def test_rank_fibers_past_one_byte(self):
        digits, _, _ = _fiber_groups(self.WIDE, (16,))
        assert digits.width == 2
        expected = [
            (MultiDegree(x, tv), members)
            for tv in t_vectors((16,))
            for x, members in sorted(reference_slice(self.WIDE, tv).items())
        ]
        assert list(rank_fibers(self.WIDE, (16,))) == expected

    def test_exponents_past_255_come_back(self):
        top = [mu.x_exps for mu, _ in rank_fibers(self.WIDE, (16,))
               if mu.t_exps == (16,)]
        assert top == [(256 - k, k) for k in range(16, -1, -1)]
        assert enumerate_fiber(MultiDegree((256, 0), (16,)), self.WIDE) == [
            PresMonomial([PresVar(1, m("x1^16", 2))] * 16)]
        ((rest, power),) = [
            (v.x_part, v.t_part) for v in enumerate_mixed_fiber(
                MultiDegree((300, 0), (16,)), self.WIDE)]
        assert rest == m("x1^44", 2) and power.degree == 16

    def test_point_queries_between_128_and_255(self):
        # the target's guard bit needs one more bit than its largest digit
        high, low = (PresVar(1, m(t, 2)) for t in ("x1^16", "x1^15*x2"))
        for x, fiber in [((160, 0), [PresMonomial([high] * 10)]),
                         ((150, 10), [PresMonomial([low] * 10)]),
                         ((155, 5), [PresMonomial([high] * 5 + [low] * 5)]),
                         ((149, 11), [])]:
            assert enumerate_fiber(MultiDegree(x, (10,)), self.WIDE) == fiber
        mixed = enumerate_mixed_fiber(MultiDegree((200, 1), (10,)), self.WIDE)
        assert [(v.x_part.exps, v.t_part.factors.count(low))
                for v in mixed] == [((40, 1), 0), ((41, 0), 1)]

    def test_mixed_keys_past_one_byte(self):
        # x-parts up to degree 256 over the content x1^2 of B(x1^2)
        ideals = [borel_closure([m("x1^2", 2)], 2)]
        fibers = [(mu, f) for mu, f in rank_fibers(ideals, (1,),
                                                   x_degree=256)
                  if mu.t_exps == (1,)]
        assert len(fibers) == sum(d - 1 for d in range(2, 257))
        for (mu, (atoms,)), (nu, _) in zip(fibers, fibers[1:]):
            # a member is T{x1^2} * x1^(a - 2) * x2^b
            a, b = mu.x_exps
            assert atoms == (0,) + (1,) * (a - 2) + (2,) * b
            # by x-degree, then x-atoms ascending: x1's exponent descending
            assert (sum(mu.x_exps), -a) < (sum(nu.x_exps), -nu.x_exps[0])
        assert [mu.x_exps for mu, _ in fibers[-2:]] == [(3, 253), (2, 254)]


class TestMonomialCount:
    """monomial_count, the closed form of a budget's monomials, against the
    members of every fiber listed: fibers_by_multidegree's pure ones and
    mixed_fibers' up to an x-degree."""

    CASES = {
        "pair": ([["x4*x5", "x2*x6"], ["x4^2", "x3*x6"]], 6, (2, 2)),
        "ex4.1-triple": ([["x3^2", "x1*x5"], ["x3^2", "x2*x4"],
                          ["x2*x4", "x1*x5"]], 5, (1, 1, 1)),
        "cubic": ([["x2*x3*x4", "x1*x4^2", "x2^2*x5"]], 5, (2,)),
        "mixed-degrees": ([["x2*x3"], ["x1*x2*x4"]], 4, (2, 2)),
    }

    @staticmethod
    def listed(ideals, budget, x_degree=None):
        if x_degree is None:
            fibers = fibers_by_multidegree(ideals, budget)
        else:
            fibers = mixed_fibers(ideals, budget, x_degree)
        return sum(len(fiber) for _, fiber in fibers)

    @pytest.mark.parametrize("name", CASES)
    def test_equals_the_listed_members(self, name):
        gens, n, top = self.CASES[name]
        ideals = [borel_closure([m(g, n) for g in gs], n) for gs in gens]
        below = 0  # mixed counts with some slice past the x-degree
        for budget in t_vectors(top):
            assert monomial_count(ideals, budget) == self.listed(ideals,
                                                                budget)
            # the fibers up to x-degree 7, of which those up to a lower
            # x-degree are the fibers of that bound
            sizes = [(sum(mu.x_exps), len(fiber))
                     for mu, fiber in mixed_fibers(ideals, budget, 7)]
            for x_degree in range(8):
                assert monomial_count(ideals, budget, x_degree) == sum(
                    k for d, k in sizes if d <= x_degree), (budget, x_degree)
                below += content_degree(ideals, budget) > x_degree
        assert below > 0

    @pytest.mark.parametrize("name", CASES)
    def test_pure_count_is_the_rest_degree_0_terms(self, name):
        # the e = 0 term of each slice counts the mixed fibers' members whose
        # x-degree is the slice's content degree
        gens, n, top = self.CASES[name]
        ideals = [borel_closure([m(g, n) for g in gs], n) for gs in gens]
        for budget in t_vectors(top):
            fibers = rank_fibers(ideals, budget,
                                 x_degree=content_degree(ideals, budget))
            assert monomial_count(ideals, budget) == sum(
                len(fiber) for mu, fiber in fibers
                if sum(mu.x_exps) == content_degree(ideals, mu.t_exps))

    def test_zero_entries_and_an_x_degree_below_every_slice(self):
        pair = [borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
                borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)]
        g1, g2 = (len(i.minimal_generators) for i in pair)
        assert monomial_count(pair, (0, 0)) == 1
        assert monomial_count(pair, (2, 0)) == 1 + g1 + g1 * (g1 + 1) // 2
        assert monomial_count(pair, (0, 1)) == 1 + g2
        # the empty slice alone is within x-degree 1: 1 and x_1..x_6
        assert monomial_count(pair, (2, 2), 1) == 7
        assert self.listed(pair, (2, 2), 1) == 7

    def test_principal_of_1200_factors(self):
        principal = [borel_closure([m("x1^2", 2)], 2)]
        assert monomial_count(principal, (1200,)) == 1201
        assert self.listed(principal, (1200,)) == 1201
        # slices 0, 1 and 2 within x-degree 5: C(7,5) + C(5,3) + C(3,1)
        assert monomial_count(principal, (1200,), 5) == 21 + 10 + 3
        assert self.listed(principal, (1200,), 5) == 34


class TestTVectors:
    def test_a_huge_entry_is_never_expanded(self):
        # itertools.product would copy range(10**20 + 1) into a tuple first
        assert list(itertools.islice(t_vectors((10**20, 1)), 4)) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("budget", [(), (0,), (3,), (2, 0, 1), (1, 2, 2)])
    def test_lexicographic_as_product(self, budget):
        assert list(t_vectors(budget)) == list(
            itertools.product(*(range(b + 1) for b in budget)))


class TestAlphabet:
    """Alphabet.of(ideals) decodes every member rank_fibers lists into the
    object fibers_by_multidegree or mixed_fibers lists for it, and encodes
    that object back to the same atoms."""

    @pytest.mark.parametrize("x_degree", [None, 8])
    def test_decodes_the_listed_objects(self, running_pair, x_degree):
        ideals = list(running_pair)
        alphabet = Alphabet.of(ideals)
        if x_degree is None:
            kind = PresMonomial
            objects = fibers_by_multidegree(ideals, (2, 1))
        else:
            kind = MixedMonomial
            objects = mixed_fibers(ideals, (2, 1), x_degree)
        members = 0
        for (mu, atoms), (nu, fiber) in itertools.zip_longest(
                rank_fibers(ideals, (2, 1), x_degree=x_degree), objects):
            assert mu == nu
            decoded = [alphabet.decode(a, kind) for a in atoms]
            assert decoded == fiber
            assert phi(decoded[0], ideals) == mu
            assert [alphabet.encode(v) for v in decoded] == atoms
            members += len(atoms)
        assert members == monomial_count(ideals, (2, 1), x_degree)
