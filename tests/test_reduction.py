import itertools
import pickle
import random
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from borel_rees import verifier
from borel_rees.borel import order_view
from borel_rees.monomial import Monomial, parse_monomial
from borel_rees.orders import build_fiber_type_basis, build_G2
from borel_rees.presentation import (
    Alphabet,
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    PresVar,
    enumerate_fiber,
    fibers_by_multidegree,
    phi,
    rank_fibers,
)
from borel_rees.reduction import (
    GraphShapeError,
    MarkedBinomial,
    RewriteCycle,
    build_graph,
    ell_max,
    fiber_edges,
    rank_normal_forms,
    rank_rewrites,
    rank_rules,
    rule_indices,
    to_dot,
)
from borel_rees.verifier import (
    check_membership,
    mixed_fibers,
    toric_kernel_span,
)
from reference import (
    analyze_fiber,
    applicable_reductions,
    normal_form,
    o_invariant,
)


def m(text, n):
    return parse_monomial(text, n)


def rules_of(n, *pairs):
    return [MarkedBinomial(m(a, n), m(b, n)) for a, b in pairs]


TWO_SINK_RULES = [("x1*x3", "x2^2"), ("x1*x2", "x3^2")]
UNIQUE_SINK_RULES = [("x1*x4", "x2*x5"), ("x2*x3", "x4^2")]
CYCLING_RULES = [("x1*x5", "x2*x4"), ("x2*x6", "x3*x5"), ("x3*x4", "x1*x6")]


class TestMarkedBinomial:
    def test_lead_equals_trail_rejected(self):
        with pytest.raises(ValueError):
            MarkedBinomial(m("x1*x2", 3), m("x1*x2", 3))

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            MarkedBinomial(m("x1", 2), PresMonomial.one())

    def test_degree_change_rejected(self):
        # equal degrees keep every rewrite path among finitely many monomials
        with pytest.raises(ValueError, match="differ in degree"):
            MarkedBinomial(m("x1*x2", 3), m("x3", 3))

    def test_constructor_errors_name_the_check(self, running_pair_basis):
        g = running_pair_basis[0]
        with pytest.raises(TypeError, match="same monomial kind"):
            MarkedBinomial(g.lead, MixedMonomial(m("1", 6), g.trail))
        with pytest.raises(ValueError, match="lead equals trail"):
            MarkedBinomial(g.lead, PresMonomial(g.lead.factors), "G1")
        with pytest.raises(ValueError, match="differ in degree"):
            MarkedBinomial(g.lead, g.trail * g.trail)

    @staticmethod
    def kinds(running_pair_basis):
        """One rule of each monomial kind: ambient, presentation, mixed."""
        g = running_pair_basis[-1]
        return [
            MarkedBinomial(m("x1*x4", 5), m("x2*x3", 5), "ADHOC"),
            g,
            MarkedBinomial(MixedMonomial(m("1", 6), g.lead),
                           MixedMonomial(m("1", 6), g.trail), g.source),
        ]

    def test_equality_and_hash_follow_the_fields(self, running_pair_basis):
        for g in self.kinds(running_pair_basis):
            twin = MarkedBinomial(g.lead, g.trail, g.source)
            assert twin == g and hash(twin) == hash(g)
            assert hash(g) == hash((g.lead, g.trail, g.source))
            assert MarkedBinomial(g.lead, g.trail, "other") != g
            assert MarkedBinomial(g.trail, g.lead, g.source) != g
            assert g != (g.lead, g.trail, g.source)
        # equal factors built apart make equal rules
        g = running_pair_basis[0]
        apart = MarkedBinomial(
            PresMonomial([PresVar(v.ideal_index, Monomial(v.generator.exps))
                          for v in g.lead.factors]),
            PresMonomial(list(g.trail.factors)), g.source)
        assert apart == g and hash(apart) == hash(g)

    def test_repr_is_the_dataclass_text(self, running_pair_basis):
        for g in self.kinds(running_pair_basis):
            assert repr(g) == (f"MarkedBinomial(lead={g.lead!r}, "
                               f"trail={g.trail!r}, source={g.source!r})")

    def test_immutable(self, running_pair_basis):
        g = running_pair_basis[0]
        for name in ("lead", "trail", "source", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, g.trail)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert not hasattr(g, "__dict__")

    def test_pickle_round_trip(self, running_pair_basis):
        rules = self.kinds(running_pair_basis)
        again = pickle.loads(pickle.dumps(rules))
        assert again == rules
        assert [repr(g) for g in again] == [repr(g) for g in rules]
        assert [hash(g) for g in again] == [hash(g) for g in rules]


class TestApplicableReductions:
    def test_branching_vertex(self):
        succ = {
            str(s)
            for s, _ in applicable_reductions(
                m("x1*x2*x3", 3), rules_of(3, *TWO_SINK_RULES)
            )
        }
        assert succ == {"x2^3", "x3^3"}

    def test_sink_has_none(self):
        assert not applicable_reductions(
            m("x2*x4^2*x5", 5), rules_of(5, *UNIQUE_SINK_RULES)
        )

    def test_presentation_rule_application(self, running_pair_basis):
        rule = next(
            g
            for g in running_pair_basis
            if g.label(r=2) == "T44*Z35 -> T35*Z44"
        )
        v = PresMonomial(
            [
                PresVar(1, m("x2*x6", 6)),
                PresVar(1, m("x4^2", 6)),
                PresVar(2, m("x3*x5", 6)),
            ]
        )
        (succ_rule,) = [
            s for s, g in applicable_reductions(v, [rule])
        ]
        assert succ_rule.label(2) == "T35*T26*Z44"


class TestBuildGraphSmallExamples:
    def test_unique_sink_square(self):
        start = m("x1*x2*x3*x4", 5)
        graph = build_graph(rules_of(5, *UNIQUE_SINK_RULES), start=start)
        assert len(graph.vertices) == 4
        assert graph.num_edges() == 4
        assert [str(s) for s in graph.sinks] == ["x2*x4^2*x5"]
        assert not graph.has_cycle
        assert ell_max(graph, start) == 2

    def test_cycling_example(self):
        graph = build_graph(
            rules_of(6, *CYCLING_RULES), start=m("x1*x3*x5*x6", 6)
        )
        assert {str(v) for v in graph.vertices} == {
            "x1*x3*x5*x6", "x2*x3*x4*x6", "x3^2*x4*x5", "x1*x2*x6^2"
        }
        assert graph.has_cycle and not graph.sinks

    def test_two_sink_example(self):
        graph = build_graph(
            rules_of(3, *TWO_SINK_RULES), start=m("x1*x2*x3", 3)
        )
        assert {str(s) for s in graph.sinks} == {"x2^3", "x3^3"}
        assert not graph.has_cycle

    def test_exactly_one_of_start_and_fiber(self):
        with pytest.raises(ValueError):
            build_graph([], start=m("x1", 1), fiber=[m("x1", 1)])

    def test_parallel_rules_collapse_to_one_edge(self):
        # two distinct rules on two atom pairs send x1*x3*x4 to the same
        # successor
        rules = rules_of(4, ("x1*x3", "x2*x3"), ("x1*x4", "x2*x4"))
        graph = build_graph(rules, start=m("x1*x3*x4", 4))
        (outs,) = [o for o in graph.edges if o]
        ((_, edge_rules),) = outs
        assert len(edge_rules) == 2
        assert graph.num_edges() == 1


class TestFiberGraph:
    def test_eight_vertex_graph(self, quadric_pair_ideal, quadric_pair_G1):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        graph = build_graph(quadric_pair_G1, fiber=fiber)
        assert len(graph.vertices) == 8
        assert [s.label(1) for s in graph.sinks] == ["T11*T33*T24*T25"]
        assert not graph.has_cycle
        assert graph.num_edges() == 14

    def test_closure_and_fiber_constructions_agree(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        top = next(v for v in fiber if v.label(1) == "T23^2*T14*T15")
        by_fiber = build_graph(quadric_pair_G1, fiber=fiber)
        by_closure = build_graph(quadric_pair_G1, start=top)
        assert set(by_closure.vertices) == set(by_fiber.vertices)
        assert by_closure.num_edges() == by_fiber.num_edges()

    def test_edges_preserve_image(self, quadric_pair_ideal, quadric_pair_G1):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        graph = build_graph(quadric_pair_G1, fiber=fiber)
        for i, outs in enumerate(graph.edges):
            for j, _ in outs:
                assert phi(graph.vertices[j], [quadric_pair_ideal]) == mu


def _all_path_lengths(graph, i):
    if not graph.edges[i]:
        yield 0
        return
    for j, _ in graph.edges[i]:
        for tail in _all_path_lengths(graph, j):
            yield 1 + tail


class TestEllMax:
    def test_sink_is_zero(self, quadric_pair_ideal, quadric_pair_G1):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        graph = build_graph(quadric_pair_G1, fiber=fiber)
        assert ell_max(graph, graph.sinks[0]) == 0

    def test_top_vertex_matches_path_enumeration_oracle(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        graph = build_graph(quadric_pair_G1, fiber=fiber)
        for i, v in enumerate(graph.vertices):
            assert ell_max(graph, v) == max(_all_path_lengths(graph, i))
        top = next(v for v in fiber if v.label(1) == "T23^2*T14*T15")
        assert ell_max(graph, top) == 4

    def test_strictly_decreasing_along_edges(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        graph = build_graph(quadric_pair_G1, fiber=fiber)
        for i, outs in enumerate(graph.edges):
            for j, _ in outs:
                assert ell_max(graph, graph.vertices[i]) > ell_max(
                    graph, graph.vertices[j]
                )

    def test_deep_chain_within_design_bound(self):
        # x1*x2 -> x1*x3 -> ... -> x1*x1201: a chain of 1,199 steps on
        # two-atom monomials exceeds the interpreter recursion limit, so
        # the longest-path walk must be iterative
        n = 1201
        rules = [MarkedBinomial(m(f"x1*x{i}", n), m(f"x1*x{i + 1}", n))
                 for i in range(2, n)]
        start = m("x1*x2", n)
        graph = build_graph(rules, start=start)
        assert len(graph.vertices) == n - 1
        assert ell_max(graph, start) == n - 2 > sys.getrecursionlimit()
        # every lead starts at x1's atom: the lead table keeps one row of
        # n atoms, not n rows
        leads = rank_rules(rules, Alphabet((), n)).leads
        assert len(leads) == n
        assert [a for a, row in enumerate(leads) if row is not None] == [0]

    def test_rejects_bad_shapes(self):
        cyclic = build_graph(
            rules_of(6, *CYCLING_RULES), start=m("x1*x3*x5*x6", 6)
        )
        with pytest.raises(GraphShapeError):
            ell_max(cyclic, cyclic.vertices[0])
        two_sinks = build_graph(
            rules_of(3, *TWO_SINK_RULES), start=m("x1*x2*x3", 3)
        )
        with pytest.raises(GraphShapeError):
            ell_max(two_sinks, two_sinks.vertices[0])


class TestOInvariant:
    def test_trivial_x_part(self):
        v = MixedMonomial(
            Monomial.one(3), PresMonomial([PresVar(1, m("x2*x3", 3))])
        )
        assert o_invariant(v) == 0

    def test_reference_values(self):
        before = MixedMonomial(
            m("x1", 3), PresMonomial([PresVar(1, m("x2*x3", 3))])
        )
        after = MixedMonomial(
            m("x2", 3), PresMonomial([PresVar(1, m("x1*x3", 3))])
        )
        assert o_invariant(before) == 2
        assert o_invariant(after) == 1

    def test_multiplicity_counts(self):
        v = MixedMonomial(
            m("x1^2", 3), PresMonomial([PresVar(1, m("x2*x3", 3))] * 2)
        )
        assert o_invariant(v) == 2 * 4

    def test_matches_naive_double_loop(self, running_pair):
        import random

        def naive(v):
            total = 0
            for i in v.x_part.variables_with_multiplicity():
                for f in v.t_part.factors:
                    total += sum(
                        1
                        for t in f.generator.variables_with_multiplicity()
                        if t > i
                    )
            return total

        ideals = list(running_pair)
        rng = random.Random(8)
        for _ in range(200):
            x = Monomial([rng.randint(0, 2) for _ in range(6)])
            factors = [
                PresVar(i, rng.choice(ideals[i - 1].minimal_generators))
                for i in (1, 2)
                for _ in range(rng.randint(0, 2))
            ]
            v = MixedMonomial(x, PresMonomial(factors))
            assert o_invariant(v) == naive(v)


class TestKindMismatch:
    """A rule met with a monomial of another kind is a TypeError naming
    both kinds: raised by the lead's divides before it reads a field in
    the references, and by check_membership before any rewriting."""

    def test_the_references_name_both_kinds(self, quadric_pair_ideal,
                                            quadric_pair_G1):
        one = [quadric_pair_ideal]
        lead = quadric_pair_G1[0].lead
        fiber_type = build_fiber_type_basis(one, quadric_pair_G1)
        cases = [
            (lambda: check_membership(toric_kernel_span(one, (2,), 4),
                                      quadric_pair_G1),
             "PresMonomial and MixedMonomial"),
            (lambda: verifier.analyze_fiber(
                next(f for _, f in mixed_fibers(one, (2,), 4) if len(f) > 1),
                *rule_indices(quadric_pair_G1)),
             "PresMonomial and MixedMonomial"),
            (lambda: normal_form(lead, fiber_type),
             "MixedMonomial and PresMonomial"),
            (lambda: applicable_reductions(
                lead, rules_of(5, ("x1*x3", "x2^2"))),
             "Monomial and PresMonomial"),
        ]
        for call, kinds in cases:
            with pytest.raises(TypeError,
                               match=f"^monomial kinds differ: {kinds}$"):
                call()
        # every kind against every other, and each against itself
        values = [m("x1*x3", 5), lead, MixedMonomial(m("x1", 5), lead)]
        for a, b in itertools.product(values, repeat=2):
            if a is b:
                assert a.divides(b)
            else:
                with pytest.raises(TypeError, match="monomial kinds differ"):
                    a.divides(b)


class TestNormalForm:
    def test_reduces_to_sink(self, quadric_pair_ideal, quadric_pair_G1):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        top = next(v for v in fiber if v.label(1) == "T23^2*T14*T15")
        nf = normal_form(top, quadric_pair_G1)
        assert nf.label(1) == "T11*T33*T24*T25"

    def test_irreducible_fixed_point(self):
        u = m("x2*x4^2*x5", 5)
        assert normal_form(u, rules_of(5, *UNIQUE_SINK_RULES)) is u

    def test_cycle_names_the_recurring_monomial(self):
        # x1*x3*x5*x6 -> x2*x3*x4*x6 -> x3^2*x4*x5 -> x1*x3*x5*x6
        with pytest.raises(RewriteCycle) as raised:
            normal_form(m("x1*x3*x5*x6", 6), rules_of(6, *CYCLING_RULES))
        assert str(raised.value) == (
            "rewriting cycles: x1*x3*x5*x6 recurs after 3 steps"
        )

    def test_cycle_entered_from_a_tail(self):
        # x1*x4^2 -> x2*x3*x4 -> x2^3 -> x2*x3*x4: the count is the cycle's
        # length, not the path's
        rules = rules_of(4, ("x1*x4", "x2*x3"), ("x3*x4", "x2^2"),
                         ("x2^2", "x3*x4"))
        with pytest.raises(RewriteCycle) as raised:
            normal_form(m("x1*x4^2", 4), rules)
        assert str(raised.value) == (
            "rewriting cycles: x2*x3*x4 recurs after 2 steps"
        )

    def test_scan_order_does_not_change_certified_normal_forms(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        # with a certified basis the sink is the normal form no matter how
        # the rule list is permuted
        import random

        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        rng = random.Random(4)
        for v in fiber:
            reference = normal_form(v, quadric_pair_G1)
            for _ in range(5):
                shuffled = list(quadric_pair_G1)
                rng.shuffle(shuffled)
                assert normal_form(v, shuffled) == reference


def rank_forms(fiber, compiled):
    """rank_normal_forms of a fiber of atom tuples, each cycle as its
    RewriteCycle message."""
    forms = rank_normal_forms(fiber, compiled)
    assert all(type(nf) is tuple or type(nf) is RewriteCycle for nf in forms)
    return [nf if type(nf) is tuple else str(nf) for nf in forms]


def scan_form(v, rules, alphabet, memo=None):
    """normal_form of v as atoms, or its RewriteCycle message."""
    try:
        return alphabet.encode(normal_form(v, rules, memo))
    except RewriteCycle as exc:
        return str(exc)


def assert_atoms_match_scan(monomials, rules, ideals=None, n=None):
    """On every monomial, rank_rewrites lists applicable_reductions (the
    in-order scan) as the same multiset and in the same order, and
    rank_normal_forms, of the monomial alone and of all of them as one
    fiber, gives the scan normal_form's result or RewriteCycle message. The
    atoms are those of the ideals, or of n ambient variables alone. Returns
    each monomial's normal form as atoms, or the message."""
    alphabet = Alphabet((), n) if ideals is None else Alphabet.of(ideals)
    compiled = rank_rules(rules, alphabet)
    forms = {}
    for v in dict.fromkeys(monomials):
        atoms = alphabet.encode(v)
        expected = [(alphabet.encode(s), g)
                    for s, g in applicable_reductions(v, rules)]
        got = [(s, rules[pos]) for s, pos in rank_rewrites(atoms, compiled)]
        assert Counter(s for s, _ in got) == Counter(s for s, _ in expected)
        assert got == expected, v
        (forms[v],) = rank_forms([atoms], compiled)
        assert forms[v] == scan_form(v, rules, alphabet), v
    assert rank_forms([alphabet.encode(v) for v in forms], compiled) == list(
        forms.values())
    return forms


def lead_pairs(compiled):
    """The atom pairs (a, b) the lead table lists rules at."""
    return {(a, b) for a, row in enumerate(compiled.leads) if row
            for b, listed in enumerate(row) if listed}


def counted_probes(compiled):
    """A list that each later probe leads[a][b] of the compiled lead table
    appends (a, b) to."""
    probes = []

    class Row(list):
        def __getitem__(self, b):
            probes.append((self.a, b))
            return list.__getitem__(self, b)

    def counted(a, row):
        row = Row(row)
        row.a = a
        return row

    compiled._leads = [row if row is None else counted(a, row)
                       for a, row in enumerate(compiled.leads)]
    return probes


def unjoined(pairs, forms):
    """The pairs whose sides do not reach one normal form."""
    return [(a, b) for a, b in pairs
            if forms[a] != forms[b] or isinstance(forms[a], str)]


def _pairs_sample(pairs, rng, k=300):
    return pairs if len(pairs) <= k else rng.sample(pairs, k)


def quadric_fibers(ideals):
    """The fibers of t-degree 2 holding two monomials or more."""
    budget = (2,) * len(ideals)
    return [f for mu, f in fibers_by_multidegree(ideals, budget)
            if sum(mu.t_exps) == 2 and len(f) >= 2]


def random_quadric_marking(ideals, rng):
    """One random orientation of two members of every quadric fiber, in
    random order: two-atom leads that keep images, often not a Groebner
    basis."""
    fibers = quadric_fibers(ideals)
    return [MarkedBinomial(*rng.sample(f, 2))
            for f in rng.sample(fibers, len(fibers))]


class TestIndexedRewritingMatchesScan:
    """The atom core (rank_rewrites, rank_normal_forms) against the in-order
    scan on objects (applicable_reductions, normal_form): every one-step
    reduction in list order and the same rewrite path, for any rule order,
    Groebner or not."""

    def test_shuffled_head_and_tail_basis(self, running_pair, running_pair_basis):
        rng = random.Random(11)
        pairs = _pairs_sample(toric_kernel_span(running_pair, (2, 1)), rng)
        for _ in range(2):
            rules = list(running_pair_basis)
            rng.shuffle(rules)
            forms = assert_atoms_match_scan(
                [v for p in pairs for v in p], rules, running_pair)
            assert not unjoined(pairs, forms)

    def test_rules_dropped_refute_identically(
        self, running_pair, running_pair_basis
    ):
        rng = random.Random(12)
        pairs = _pairs_sample(toric_kernel_span(running_pair, (2, 1)), rng)
        for k in (5, 40):
            rules = list(running_pair_basis)
            rng.shuffle(rules)
            del rules[:k]
            forms = assert_atoms_match_scan(
                [v for p in pairs for v in p], rules, running_pair)
            assert unjoined(pairs, forms)

    def test_single_ideal_g1_and_g2(self, quadric_pair_ideal, quadric_pair_G1):
        rng = random.Random(13)
        ideals = [quadric_pair_ideal]
        monomials = [v for _, f in fibers_by_multidegree(ideals, (3,))
                     for v in f]
        g2 = build_G2(order_view(quadric_pair_ideal))
        for rules in (quadric_pair_G1, g2, rng.sample(g2, len(g2) - 3)):
            assert_atoms_match_scan(monomials, rules, ideals)

    def test_fiber_type_basis_takes_the_generic_path(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        # rule_indices leaves every mixed lead to its generic list, while
        # the atom core keys every one (syzygy and lifted) by its atom pair
        ideals = [quadric_pair_ideal]
        rules = build_fiber_type_basis(ideals, quadric_pair_G1)
        assert not rule_indices(rules)[0]
        monomials = [v for _, f in mixed_fibers(ideals, (2,), 4) for v in f]
        rng = random.Random(14)
        forms = assert_atoms_match_scan(monomials, rules, ideals)
        assert len(set(forms.values())) < len(forms)
        rules = list(rules)
        rng.shuffle(rules)
        assert_atoms_match_scan(monomials, rules[:-10], ideals)

    def test_interleaved_pair_leads(self, quadric_pair_ideal):
        # one random orientation per degree-2 fiber, listed in random
        # order: a cubic holds leads on several of its atom pairs, and the
        # earliest listed of them decides the path; some markings cycle
        rng = random.Random(15)
        ideals = [quadric_pair_ideal]
        monomials = [v for _, f in fibers_by_multidegree(ideals, (3,))
                     for v in f]
        outcomes = Counter()
        for _ in range(4):
            rules = random_quadric_marking(ideals, rng)
            forms = assert_atoms_match_scan(monomials, rules, ideals)
            outcomes.update(type(nf).__name__ for nf in forms.values())
        assert set(outcomes) == {"tuple", "str"}

    def test_rewrites_equal_the_scan(
        self, running_pair, running_pair_basis, quadric_pair_ideal
    ):
        # every applicable rule, in list order and as a multiset, on
        # monomials with repeated factors, with rules on many atom pairs and
        # up to five rules sharing a lead
        rng = random.Random(16)
        pair = list(running_pair)
        ht = list(running_pair_basis)
        rng.shuffle(ht)
        shared = [MarkedBinomial(f[0], u) for f in quadric_fibers(pair)
                  for u in f[1:]]
        assert max(Counter(g.lead for g in shared).values()) == 5
        random_pair = random_quadric_marking(pair, rng)
        for ideals, budget, rules in (
            (pair, (2, 1), ht),
            ([quadric_pair_ideal], (3,),
             random_quadric_marking([quadric_pair_ideal], rng)),
            (pair, (2, 1), shared + random_pair),
            (pair, (2, 1), random_pair + shared),
        ):
            monomials = [v for _, f in fibers_by_multidegree(ideals, budget)
                         for v in f]
            assert_atoms_match_scan(
                rng.sample(monomials, min(300, len(monomials))), rules, ideals)

    def test_ambient_rules_of_the_examples(self):
        # the ex2.2-2.4 markings on ambient monomials: x-atoms only; two
        # sinks, a unique sink and a three-rule cycle
        for n, pairs in ((3, TWO_SINK_RULES), (5, UNIQUE_SINK_RULES),
                         (6, CYCLING_RULES)):
            rules = rules_of(n, *pairs)
            monomials = [
                Monomial([combo.count(k) for k in range(n)])
                for d in (3, 4)
                for combo in itertools.combinations_with_replacement(
                    range(n), d)
            ]
            forms = assert_atoms_match_scan(monomials, rules, n=n)
            assert any(isinstance(nf, str) for nf in forms.values()) == (
                pairs is CYCLING_RULES)

    def test_list_position_decides_between_rules_on_one_and_two_pairs(
        self, running_pair
    ):
        # v = p*q*x: two rules on the pair p*q and one on the pair p*x, each
        # sending v to its own successor, which no rule rewrites; in every
        # listing the earliest rule takes the step
        ideals = list(running_pair)
        quadrics = quadric_fibers(ideals)
        fiber_of = {u: f for f in quadrics for u in f}
        factors = sorted({a for f in quadrics for u in f for a in u.factors},
                         key=PresVar.sort_key)

        def candidates():
            for lead, *trails in (f for f in quadrics if len(f) >= 3):
                for x in factors:
                    other = PresMonomial([lead.factors[0], x])
                    if x in lead.factors or other not in fiber_of:
                        continue
                    w = next(u for u in fiber_of[other] if u != other)
                    rules = [MarkedBinomial(lead, trails[0]),
                             MarkedBinomial(lead, trails[1]),
                             MarkedBinomial(other, w)]
                    v = lead * PresMonomial([x])
                    steps = [s for s, _ in applicable_reductions(v, rules)]
                    if len(set(steps)) == 3 and not any(
                            applicable_reductions(s, rules) for s in steps):
                        yield v, dict(zip(rules, steps))

        v, step = next(candidates())
        alphabet = Alphabet.of(ideals)
        atoms = alphabet.encode(v)
        for rules in itertools.permutations(step):
            expected = step[rules[0]]
            assert normal_form(v, rules) == expected
            compiled = rank_rules(rules, alphabet)
            assert rank_normal_forms([atoms], compiled) == [
                alphabet.encode(expected)]
            assert [pos for _, pos in rank_rewrites(atoms, compiled)] == [
                0, 1, 2]

    def test_two_rule_loop_is_a_cycle(self, quadric_pair_ideal,
                                      quadric_pair_G1):
        g = quadric_pair_G1[0]
        loop = [g, MarkedBinomial(g.trail, g.lead)]
        message = f"rewriting cycles: {g.lead} recurs after 2 steps"
        with pytest.raises(RewriteCycle) as raised:
            normal_form(g.lead, loop)
        assert str(raised.value) == message
        forms = assert_atoms_match_scan([g.lead, g.trail], loop,
                                        [quadric_pair_ideal])
        assert forms[g.lead] == message
        assert check_membership([(g.lead, g.trail)], loop)[1] == [
            {"pair": [str(g.lead), str(g.trail)], "error": message}
        ]


def memo_free_membership(pairs, rules):
    """check_membership without the memo: normal_form once per pair side."""
    failures = []
    for a, b in pairs:
        try:
            na = normal_form(a, rules)
            nb = normal_form(b, rules)
        except RewriteCycle as exc:
            failures.append({"pair": [str(a), str(b)], "error": str(exc)})
            continue
        if na != nb:
            failures.append(
                {"pair": [str(a), str(b)], "normal_forms": [str(na), str(nb)]}
            )
    return len(pairs), failures


def assert_memo_equivalent(pairs, rules):
    """check_membership equals the memo-free reference, and every entry of
    the reference normal_form's memo equals a memo-free normal_form of its
    monomial."""
    result = check_membership(pairs, rules)
    assert result == memo_free_membership(pairs, rules)
    memo = {}
    for v in dict.fromkeys(w for pair in pairs for w in pair):
        try:
            normal_form(v, rules, memo)
        except RewriteCycle:
            assert v not in memo
    for u, nf in memo.items():
        assert normal_form(u, rules) == nf
    return result


class TestMemoizedNormalForms:
    """check_membership shares one memo across all its sides, on the core;
    the results equal reducing every pair side afresh by the reference
    normal_form, including paths that end in a memo entry and paths that
    enter a cycle."""

    def test_shuffled_head_and_tail_basis(self, running_pair, running_pair_basis):
        rng = random.Random(21)
        pairs = _pairs_sample(toric_kernel_span(running_pair, (2, 1)), rng, 2000)
        rules = list(running_pair_basis)
        rng.shuffle(rules)
        _, failures = assert_memo_equivalent(pairs, rules)
        assert not failures

    def test_rules_dropped(self, running_pair, running_pair_basis):
        rng = random.Random(22)
        pairs = _pairs_sample(toric_kernel_span(running_pair, (2, 1)), rng, 2000)
        rules = list(running_pair_basis)
        rng.shuffle(rules)
        _, failures = assert_memo_equivalent(pairs, rules[20:])
        assert any("normal_forms" in f for f in failures)

    def test_two_rule_loop(self, quadric_pair_ideal, quadric_pair_G1):
        g = quadric_pair_G1[0]
        loop = [g, MarkedBinomial(g.trail, g.lead)] + quadric_pair_G1[1:]
        pairs = toric_kernel_span([quadric_pair_ideal], (3,))
        _, failures = assert_memo_equivalent(pairs, loop)
        assert any("error" in f for f in failures)

    def test_three_rule_cycle(self):
        # degree-4 monomials in six variables, each paired with its one-step
        # successors; some paths enter the three-rule cycle, some end
        rules = rules_of(6, *CYCLING_RULES, *UNIQUE_SINK_RULES)
        monomials = [
            Monomial([combo.count(k) for k in range(6)])
            for combo in itertools.combinations_with_replacement(range(6), 4)
        ]
        pairs = [(v, succ) for v in monomials
                 for succ, _ in applicable_reductions(v, rules)]
        _, failures = assert_memo_equivalent(pairs, rules)
        assert any("error" in f for f in failures)
        assert len(failures) < len(pairs)

    def test_other_errors_propagate(self, running_pair, running_pair_basis):
        # only a rewrite cycle is a pair failure; a fault in the
        # rewriting is not turned into a "refuted" verdict
        pairs = toric_kernel_span(running_pair, (1, 1))

        def broken(*_args):
            raise TypeError("broken rewriting")

        with mock.patch.object(verifier, "rank_normal_forms", broken):
            with pytest.raises(TypeError):
                check_membership(pairs, running_pair_basis)


def assert_rank_equivalent(monomials, rules, ideals):
    """rank_normal_forms on the monomials' atom tuples as one fiber equals
    normal_form on objects with one memo for every monomial, cycle messages
    included."""
    alphabet = Alphabet.of(ideals)
    memo = {}
    expected = [scan_form(v, rules, alphabet, memo) for v in monomials]
    got = rank_forms([alphabet.encode(v) for v in monomials],
                     rank_rules(rules, alphabet))
    assert got == expected
    return Counter(type(nf).__name__ for nf in got)


class TestRankRewriting:
    """The rank loop picks normal_form's rule at every step, on pure and on
    mixed monomials."""

    def test_fiber_type_basis_on_mixed_monomials(self, quadric_pair_ideal,
                                                 quadric_pair_G1):
        ideals = [quadric_pair_ideal]
        rules = list(build_fiber_type_basis(ideals, quadric_pair_G1))
        random.Random(32).shuffle(rules)
        monomials = [v for _, f in mixed_fibers(ideals, (2,), 5) for v in f]
        assert_rank_equivalent(monomials, rules, ideals)
        assert_rank_equivalent(monomials, rules[:-15], ideals)

    def test_atoms_round_trip_to_labels(self, running_pair, quadric_pair_ideal):
        ideals = list(running_pair)
        alphabet = Alphabet.of(ideals)
        pure = [v for _, f in fibers_by_multidegree(ideals, (2, 1)) for v in f]
        ranks = [r for _, f in rank_fibers(ideals, (2, 1)) for r in f]
        assert [alphabet.encode(v) for v in pure] == ranks
        assert all(alphabet.label(alphabet.encode(v)) == str(v) for v in pure)
        ideals = [quadric_pair_ideal]
        alphabet = Alphabet.of(ideals)
        for _, fiber in mixed_fibers(ideals, (1,), 4):
            for v in fiber:
                atoms = alphabet.encode(v)
                assert list(atoms) == sorted(atoms)
                assert alphabet.label(atoms) == str(v)

    def test_uncollapsed_edges_are_the_collapsed_targets(
            self, quadric_pair_ideal, quadric_pair_G1):
        # the verifier and build_graph both read the collapsed (target,
        # rule positions) edges: one per target, every rewrite's position
        ideals = [quadric_pair_ideal]
        rules = list(quadric_pair_G1)
        random.Random(33).shuffle(rules)
        compiled = rank_rules(rules, Alphabet.of(ideals))
        edges = 0
        for _, fiber in rank_fibers(ideals, (3,)):
            collapsed = fiber_edges(fiber, compiled)
            for v, outs in zip(fiber, collapsed):
                assert [j for j, _ in outs] == sorted({j for j, _ in outs})
                assert sorted(p for _, ps in outs for p in ps) == sorted(
                    p for _, p in rank_rewrites(v, compiled))
                edges += len(outs)
        assert edges > 0

    def test_a_successor_outside_the_fiber_raises(
            self, quadric_pair_ideal, quadric_pair_G1):
        compiled = rank_rules(quadric_pair_G1,
                              Alphabet.of([quadric_pair_ideal]))
        fiber = max((f for _, f in rank_fibers([quadric_pair_ideal], (2,))),
                    key=len)
        top = next(v for v in fiber if rank_rewrites(v, compiled))
        succ = rank_rewrites(top, compiled)[0][0]
        with pytest.raises(ValueError) as info:
            fiber_edges([top], compiled)
        assert str(info.value) == (f"reduction left the fiber: "
                                   f"{compiled.alphabet.label(top)} -> "
                                   f"{compiled.alphabet.label(succ)}")
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_foreign_variables_are_rejected(self, running_pair,
                                            quadric_pair_G1):
        with pytest.raises(ValueError, match="not a variable of this"):
            rank_rules(quadric_pair_G1, Alphabet.of(list(running_pair)))


class TestLeadTable:
    """The lead table of rank_rules against the in-order scan
    (applicable_reductions, normal_form); each case fails on a plausible
    slip in the table core."""

    def test_earliest_listed_rule_beats_the_first_probed_pair(self):
        # x1*x2 is probed before x3*x4, but the rule on x3*x4 is listed
        # first; x1*x2 leads two rules, kept in list order
        listed = rules_of(4, ("x3*x4", "x1^2"), ("x1*x2", "x3^2"),
                          ("x1*x2", "x4^2"))
        compiled = rank_rules(listed, Alphabet((), 4))
        assert [pos for pos, _, _ in compiled.leads[0][1]] == [1, 2]
        v = m("x1*x2*x3*x4", 4)
        monomials = [
            Monomial([combo.count(k) for k in range(4)])
            for combo in itertools.combinations_with_replacement(range(4), 4)
        ]
        for rules, step in ((listed, "x1^3*x2"), (listed[1:], "x3^3*x4"),
                            (listed[:0:-1], "x3*x4^3")):
            compiled = rank_rules(rules, Alphabet((), 4))
            atoms = compiled.alphabet.encode(v)
            assert rank_rewrites(atoms, compiled)[0][0] == (
                compiled.alphabet.encode(m(step, 4)))
            assert [rules[pos] for _, pos in rank_rewrites(atoms, compiled)] \
                == [g for _, g in applicable_reductions(v, rules)]
            assert_atoms_match_scan(monomials, rules, n=4)

    def test_square_lead_on_a_cube(self):
        # the lead x1^2 sits at three position pairs of x1^3*x2: one
        # reduction, with two of the three x1 removed; x1*x2^3 has one x1
        rules = rules_of(2, ("x1^2", "x2^2"))
        compiled = rank_rules(rules, Alphabet((), 2))
        cube = compiled.alphabet.encode(m("x1^3*x2", 2))
        assert cube == (0, 0, 0, 1)
        assert rank_rewrites(cube, compiled) == [((0, 1, 1, 1), 0)]
        assert rank_rewrites((0, 1, 1, 1), compiled) == []
        assert rank_normal_forms([cube, (0, 1, 1, 1)], compiled) == [
            (0, 1, 1, 1)] * 2
        monomials = [Monomial([a, d - a]) for d in range(2, 7)
                     for a in range(d + 1)]
        forms = assert_atoms_match_scan(monomials, rules, n=2)
        assert forms[m("x1^5", 2)] == (0, 1, 1, 1, 1)

    def test_syzygy_leads_put_the_t_atom_first(self, quadric_pair_ideal,
                                               quadric_pair_G1):
        # x_i*T_u is the atom pair (rank of u, size + i - 1), t-atom first,
        # and no lead pair starts with an x-atom
        ideals = [quadric_pair_ideal]
        rules = build_fiber_type_basis(ideals, quadric_pair_G1)
        alphabet = Alphabet.of(ideals)
        variables = alphabet.variables
        size = len(variables)
        compiled = rank_rules(rules, alphabet)
        syzygies = [(pos, g) for pos, g in enumerate(rules)
                    if g.source == "SYZ"]
        assert syzygies
        for pos, g in syzygies:
            (factor,), (i,) = (g.lead.t_part.factors,
                               g.lead.x_part.variables_with_multiplicity())
            lead = (variables.index(factor), size + i - 1)
            assert alphabet.encode(g.lead) == lead
            assert (pos, lead, alphabet.encode(g.trail)) in (
                compiled.leads[lead[0]][lead[1]])
        assert all(row is None for row in compiled.leads[size:])
        monomials = [v for _, f in mixed_fibers(ideals, (2,), 5) for v in f]
        forms = assert_atoms_match_scan(monomials, rules, ideals)
        assert len(set(forms.values())) < len(forms)

    def test_ambient_example_rules_keep_x_atoms(self):
        # no presentation variables: x_i stays atom i - 1, and the lead
        # table is keyed by exactly the leads' atom pairs
        for n, pairs in ((3, TWO_SINK_RULES), (5, UNIQUE_SINK_RULES),
                         (6, CYCLING_RULES)):
            rules = rules_of(n, *pairs)
            alphabet = Alphabet((), n)
            compiled = rank_rules(rules, alphabet)
            for g in rules:
                assert alphabet.encode(g.lead) == tuple(
                    i - 1 for i in g.lead.variables_with_multiplicity())
            assert lead_pairs(compiled) == {
                alphabet.encode(g.lead) for g in rules}
            monomials = [
                Monomial([combo.count(k) for k in range(n)])
                for combo in itertools.combinations_with_replacement(
                    range(n), 3)
            ]
            for v in monomials:
                assert alphabet.decode(alphabet.encode(v), Monomial) == v
            assert_atoms_match_scan(monomials, rules, n=n)


class TestLeanCore:
    """rank_normal_forms and the earliest step (the first of rank_rewrites)
    on the lead table's earliest rules, each against normal_form on objects
    with the same rule list: the cycle message of a path with a tail, a
    memo hit inside a fiber, and two rules on one lead."""

    @staticmethod
    def both(v, rules, n):
        """(normal_form's result, rank_normal_forms') of v alone on ambient
        rules, as atom tuples or as the RewriteCycle message."""
        alphabet = Alphabet((), n)
        (got,) = rank_forms([alphabet.encode(v)], rank_rules(rules, alphabet))
        return scan_form(v, rules, alphabet), got

    def test_a_cycle_after_a_tail_names_the_cycle_length(self):
        # x1*x4^2 -> x2*x3*x4 -> x2^3 -> x2*x3*x4: a path of three
        # monomials whose cycle has two
        rules = rules_of(4, ("x1*x4", "x2*x3"), ("x3*x4", "x2^2"),
                         ("x2^2", "x3*x4"))
        expected, got = self.both(m("x1*x4^2", 4), rules, 4)
        assert got == expected == (
            "rewriting cycles: x2*x3*x4 recurs after 2 steps")
        # a cycling path records nothing: a later member on it cycles too,
        # named from its own path
        compiled = rank_rules(rules, Alphabet((), 4))
        assert rank_forms([(0, 3, 3), (1, 1, 1)], compiled) == [
            got, "rewriting cycles: x2^3 recurs after 2 steps"]

    def test_a_memo_hit_inside_a_fiber_ends_the_path(self):
        # x1^2 -> x1*x2 -> x2^2 -> x2*x3: with x1*x2 reduced first, the
        # walk from x1^2 takes one step and stops at the memo; the memo
        # lives in one call only. Each monomial a path reads off the lead
        # table is one probe (its one atom pair): a step, or the end at
        # x2*x3, and a memo hit probes nothing
        rules = rules_of(3, ("x1^2", "x1*x2"), ("x1*x2", "x2^2"),
                         ("x2^2", "x2*x3"))
        compiled = rank_rules(rules, Alphabet((), 3))
        probes = counted_probes(compiled)
        walk = [(0, 0), (0, 1), (1, 1), (1, 2)]
        for fiber, read in ((((0, 1), (0, 0)), walk[1:] + walk[:1]),
                            (((0, 0), (0, 1)), walk), (((0, 1),), walk[1:]),
                            (((0, 0),), walk)):
            probes.clear()
            assert rank_normal_forms(fiber, compiled) == [(1, 2)] * len(
                fiber)
            assert probes == read
        assert self.both(m("x1^2", 3), rules, 3) == ((1, 2),) * 2

    def test_the_earliest_of_two_rules_on_one_lead_wins(self):
        first, second = ("x1*x2", "x3^2"), ("x1*x2", "x4^2")
        for listed, successor in (((first, second), (2, 2)),
                                  ((second, first), (3, 3))):
            rules = rules_of(4, ("x3*x4", "x1*x2"), *listed)
            compiled = rank_rules(rules, Alphabet((), 4))
            # the earliest rule of a lead is the first of its list
            assert [pos for pos, _, _ in compiled.leads[0][1]] == [1, 2]
            assert compiled.leads[0][1][0] == (1, (0, 1), successor)
            assert rank_rewrites((0, 1), compiled)[0][0] == successor
            assert self.both(m("x1*x2", 4), rules, 4) == (successor,) * 2


def _ambient_monomials(n, degree):
    return [Monomial([combo.count(k) for k in range(n)])
            for combo in itertools.combinations_with_replacement(
                range(n), degree)]


@st.composite
def ambient_rule_lists(draw, n=4):
    """A list of one to seven ambient rules on n variables, each a quadric
    lead (squares included) and another quadric as its trail."""
    rules = []
    for _ in range(draw(st.integers(1, 7))):
        lead, trail = draw(st.lists(
            st.sampled_from(_ambient_monomials(n, 2)), min_size=2,
            max_size=2, unique=True))
        rules.append(MarkedBinomial(lead, trail))
    return rules


class TestRandomRuleLists:
    """rank_rewrites and rank_normal_forms against applicable_reductions and
    normal_form on random ambient rule lists, over every monomial of degree
    2 to 4: the one-step reductions as the same list, and the same normal
    form or RewriteCycle message."""

    MONOMIALS = [v for d in (2, 3, 4) for v in _ambient_monomials(4, d)]

    @given(ambient_rule_lists())
    @settings(max_examples=200, deadline=None)
    def test_atom_core_matches_the_scan(self, rules):
        assert_atoms_match_scan(self.MONOMIALS, rules, n=4)

    @given(ambient_rule_lists(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_whole_fibers_match_the_scan_per_member(self, rules, data):
        # a random "fiber" of distinct monomials in random order: the rules
        # keep no image, so paths leave it, meet inside it and cycle, and
        # every member's form is normal_form's, each reduced afresh
        fiber = data.draw(st.lists(st.sampled_from(self.MONOMIALS),
                                   min_size=1, max_size=30, unique=True))
        alphabet = Alphabet((), 4)
        got = rank_forms([alphabet.encode(v) for v in fiber],
                         rank_rules(rules, alphabet))
        assert got == [scan_form(v, rules, alphabet) for v in fiber]


class TestTwoAtomLeads:
    """The rewriting core takes two-atom leads alone: rank_rules refuses
    any other, and so do the functions built on it, analyze_fiber and
    check_membership included, while the object-level references still
    reduce by a lead of any size."""

    @staticmethod
    def other_sizes(ideal):
        """(rule, lead atom count, fiber holding the lead) of a one-atom
        ambient lead and of a three-atom lead from a degree-3 fiber."""
        fiber = next(f for mu, f in fibers_by_multidegree([ideal], (3,))
                     if mu.t_exps == (3,) and len(f) >= 2)
        return [(MarkedBinomial(m("x1", 5), m("x2", 5)), 1,
                 [m("x1^2", 5), m("x1*x2", 5), m("x2^2", 5)]),
                (MarkedBinomial(fiber[0], fiber[1]), 3, fiber)]

    def test_other_lead_sizes_are_refused(self, quadric_pair_ideal,
                                          quadric_pair_G1):
        ideals = [quadric_pair_ideal]
        for rule, count, fiber in self.other_sizes(quadric_pair_ideal):
            rules = list(quadric_pair_G1) + [rule]
            message = (f"rule {rule.label()}: lead atom count {count}; "
                       f"the rewriting core takes two-atom leads only")
            for run in (
                lambda: rank_rules(rules, Alphabet.of(ideals)),
                lambda: build_graph([rule], start=fiber[0]),
                lambda: build_graph(rules, fiber=fiber),
                lambda: verifier.verify_gb(rules, ideals, (3,)),
                lambda: verifier.kernel_membership(rules, ideals, (3,)),
                lambda: verifier.analyze_fiber(fiber, *rule_indices([rule])),
                lambda: verifier.check_membership([tuple(fiber[:2])],
                                                  [rule]),
            ):
                with pytest.raises(ValueError) as info:
                    run()
                assert str(info.value) == message

    def test_object_references_take_any_lead(self, quadric_pair_ideal):
        (one, _, squares), (cubic, _, fiber) = self.other_sizes(
            quadric_pair_ideal)
        assert normal_form(m("x1^3*x2", 5), [one]) == m("x2^4", 5)
        assert analyze_fiber(squares, *rule_indices([one])) == ([2], False)
        x = PresMonomial([cubic.lead.factors[0]])
        assert normal_form(cubic.lead * x, [cubic]) == cubic.trail * x
        assert applicable_reductions(cubic.lead, [cubic]) == [
            (cubic.trail, cubic)]
        assert analyze_fiber(fiber, *rule_indices([cubic])) == (
            list(range(1, len(fiber))), False)


class TestMixedReduction:
    def test_lift_and_reduce(self, quadric_pair_ideal, quadric_pair_G1):
        lifted = [g for g in build_fiber_type_basis([quadric_pair_ideal],
                                                    quadric_pair_G1)
                  if g.source == "G1"]
        assert len(lifted) == len(quadric_pair_G1)
        assert all(isinstance(g.lead, MixedMonomial) for g in lifted)
        v = MixedMonomial(
            m("x4", 5), PresMonomial([PresVar(1, m("x2*x3", 5))] * 2)
        )
        succ = {s.label(1) for s, _ in applicable_reductions(v, lifted)}
        assert succ == {"x4*T22*T33"}


class TestDot:
    def test_dot_contains_labels_and_sink_highlight(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        graph = build_graph(quadric_pair_G1, fiber=fiber)
        dot = to_dot(graph, name="demo", r=1)
        assert dot.startswith('digraph "demo"')
        assert "T11*T33*T24*T25" in dot
        assert "fillcolor" in dot
        assert dot.count(" -> ") >= 14

    def test_deterministic(self, quadric_pair_ideal, quadric_pair_G1):
        mu = MultiDegree(m("x1^2*x2^2*x3^2*x4*x5", 5).exps, (4,))
        fiber = enumerate_fiber(mu, [quadric_pair_ideal])
        a = to_dot(build_graph(quadric_pair_G1, fiber=fiber), r=1)
        b = to_dot(build_graph(quadric_pair_G1, fiber=fiber), r=1)
        assert a == b
