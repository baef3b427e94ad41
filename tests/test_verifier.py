import contextlib
import functools
import itertools
import json
import operator
import random
import re
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from borel_rees import cli, presentation, verifier
from borel_rees.borel import borel_closure
from borel_rees.monomial import Monomial, parse_monomial
from borel_rees.borel import order_view
from borel_rees.cli import _BASES
from borel_rees.orders import (
    build_G1,
    build_G2,
    build_G3,
    build_fiber_type_basis,
    build_head_and_tail_basis,
    build_syzygy_set,
    unoriented_rule,
)
from borel_rees.presentation import (
    Alphabet,
    MixedMonomial,
    MultiDegree,
    PresMonomial,
    PresVar,
    content,
    enumerate_fiber,
    enumerate_mixed_fiber,
    fibers_by_multidegree,
    phi,
    presentation_variables,
    rank_fibers,
    t_vectors,
)
from borel_rees.reduction import (
    MarkedBinomial,
    RankRules,
    rank_rules,
)
from borel_rees.verifier import (
    KoszulReport,
    VerificationReport,
    detect_obstructions,
    kernel_membership,
    koszul_report,
    mixed_fibers,
    mixed_x_degree,
    parameter_gate,
    quadratic_basis_for,
    rule_indices,
    toric_kernel_span,
    unreached_slice_notes,
    verify_gb,
)
from reference import (
    analyze_fiber,
    banned_fibers,
    banned_pure_fibers,
    check_membership,
    graph_run,
    marked_like,
)


def m(text, n):
    return parse_monomial(text, n)


class TestVerifyGB:
    def test_small_budget_certifies(self, quadric_pair_ideal, quadric_pair_G1):
        report = verify_gb(quadric_pair_G1, [quadric_pair_ideal], (2,))
        assert report.verdict == "certified-up-to-bound"
        assert not report.failures
        assert report.multidegrees_checked > 50

    def test_broken_basis_refuted_with_multi_sink_witness(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        # drop the rule that empties out one of the near-sink vertices
        broken = marked_like(quadric_pair_G1, [
            g for g in quadric_pair_G1 if g.label(r=1) != "T12*T15 -> T11*T25"
        ])
        assert len(broken) == len(quadric_pair_G1) - 1
        report = verify_gb(broken, [quadric_pair_ideal], (4,))
        assert report.verdict == "refuted"
        assert any(
            len(f.sinks) > 1 and not f.has_cycle for f in report.failures
        )


def _two_quadric(c, a, b, d, n):
    M = Monomial([int(i + 1 == a) + int(i + 1 == b) for i in range(n)])
    N = Monomial([int(i + 1 == c) + int(i + 1 == d) for i in range(n)])
    return borel_closure([M, N], n)


ALL_SHAPES = [
    (c, a, b, d)
    for d in range(2, 7)
    for c, a, b in itertools.product(range(1, d), repeat=3)
    if c < a <= b < d
]


def _canonical(u):
    return [f.sort_key() for f in u.factors]


def brute_force_monomials(ideals, tv):
    """Every presentation monomial with t-vector tv, canonically sorted: the
    products of one itertools.combinations_with_replacement choice of
    generators per ideal."""
    choices = (
        itertools.combinations_with_replacement(ideal.minimal_generators, k)
        for ideal, k in zip(ideals, tv)
    )
    return sorted(
        (PresMonomial([PresVar(i, g) for i, gens in enumerate(combo, 1)
                       for g in gens])
         for combo in itertools.product(*choices)),
        key=_canonical,
    )


def brute_force_fibers(ideals, budget):
    """{multidegree: fiber} for every monomial with t <= budget, grouped by
    phi, multidegrees ordered by t-vector and then x-exponents."""
    by_mu = {}
    for tv in itertools.product(*(range(b + 1) for b in budget)):
        for u in brute_force_monomials(ideals, tv):
            by_mu.setdefault(phi(u, ideals), []).append(u)
    return {mu: by_mu[mu]
            for mu in sorted(by_mu, key=lambda mu: (mu.t_exps, mu.x_exps))}


def reference_run(rules, ideals, budget, x_degree=None):
    """verify_gb's findings rebuilt from per-multidegree fiber graphs on
    objects (analyze_fiber) over brute-force fibers, mixed ones up to
    x_degree when it is given: (multidegrees, failures as (mu, sink labels,
    cycle), verdict).

    A rule whose lead divides a monomial has a lead image dividing the
    monomial's, so each fiber's graph is built from the rules whose lead
    image is at most its multidegree, componentwise; phi runs once per
    rule."""
    r = len(ideals)
    if x_degree is None:
        fibers = brute_force_fibers(ideals, budget)
    else:
        fibers = dict(reference_mixed_fibers(ideals, budget, x_degree))
    images = [(phi(g.lead, ideals), (pos, g)) for pos, g in enumerate(rules)]
    failures, nontrivial = [], False
    for mu, fiber in fibers.items():
        below = [rule for image, rule in images
                 if all(map(operator.le, image.x_exps, mu.x_exps))
                 and all(map(operator.le, image.t_exps, mu.t_exps))]
        sinks, cyc = analyze_fiber(fiber, {}, below)
        nontrivial |= len(fiber) >= 2
        if cyc or len(sinks) != 1:
            failures.append((mu, [fiber[i].label(r) for i in sinks], cyc))
    verdict = ("refuted" if failures else
               "certified-up-to-bound" if nontrivial else "inconclusive")
    return len(fibers), failures, verdict


def assert_matches_reference(rules, ideals, budget, method, x_degree=None):
    """verify_gb against reference_run; its first note names the method, and
    a mixed run's other notes are the x-degree and unreached-slice ones."""
    report = verify_gb(rules, ideals, budget, x_degree=x_degree)
    assert report.notes[0].startswith(method)
    x_degree = mixed_x_degree(rules, ideals, budget, x_degree)
    assert report.notes[1:] == ([] if x_degree is None else [
        f"mixed fibers up to x-degree {x_degree}",
        *unreached_slice_notes(ideals, budget, x_degree),
    ])
    return assert_same_findings(report, rules, ideals, budget, x_degree)


def assert_graphs_match_reference(rules, ideals, budget, x_degree=None):
    """The graph oracle (graph_run) against reference_run."""
    report = graph_run(rules, ideals, budget, x_degree=x_degree)
    return assert_same_findings(report, rules, ideals, budget,
                                mixed_x_degree(rules, ideals, budget,
                                               x_degree))


def assert_same_findings(report, rules, ideals, budget, x_degree):
    """A report's count, failures and verdict equal reference_run's."""
    checked, failures, verdict = reference_run(rules, ideals, budget,
                                               x_degree)
    assert report.multidegrees_checked == checked
    assert [
        (f.multidegree, f.sinks, f.has_cycle) for f in report.failures
    ] == failures
    assert report.verdict == verdict
    return report


def assert_oracle_agrees(rules, ideals, budget):
    """verify_gb's verdict equals the kernel oracle's on the same budget."""
    report = verify_gb(rules, ideals, budget)
    oracle = VerificationReport(ideals={}, t_budget=tuple(budget))
    oracle.oracle_binomials_checked, oracle.oracle_failures = check_membership(
        toric_kernel_span(ideals, budget), rules
    )
    assert report.verdict == oracle.verdict, (budget, report.failures[:1],
                                              oracle.oracle_failures[:1])
    return report.verdict


def assert_inconclusive(rules, ideals, budget, note, x_degree=None):
    """verify_gb walks no fiber and reports "inconclusive" (exit 3) with
    this one note, whatever the budget holds."""
    report = verify_gb(rules, ideals, budget, x_degree=x_degree)
    assert report.notes == [note]
    assert report.verdict == "inconclusive" and report.exit_code == 3
    assert report.multidegrees_checked == 0 and not report.failures
    return report


def unoriented_note(order, rule, ideals):
    """verify_gb's note on a rule its carried order does not orient."""
    return (f"the {order.kind} order given with the rules does not orient "
            f"{rule.label(len(ideals))}: no fiber checked")


def _drop_rules(table, rng, k):
    """A builder's table with k rules dropped, keeping its order."""
    dropped = set(rng.sample(range(len(table)), k))
    return marked_like(table,
                       [g for i, g in enumerate(table) if i not in dropped])


class TestCertificationSweeps:
    """Library bases certify, and the standard-monomial path agrees with
    per-multidegree fiber graphs on every fiber."""

    def test_both_orders_certify_every_two_quadric_shape(self):
        for shape in ALL_SHAPES:
            ideal = _two_quadric(*shape, shape[3])
            for rules in (build_G1(ideal), build_G2(order_view(ideal))):
                rep = assert_matches_reference(rules, [ideal], (3,), "standard")
                assert rep.verdict == "certified-up-to-bound", (
                    shape, rules[0].source, rep.failures[:1],
                )

    def test_head_and_tail_certifies_sampled_pairs(self):
        rng = random.Random(99)
        for _ in range(8):
            s1, s2 = rng.choice(ALL_SHAPES), rng.choice(ALL_SHAPES)
            n = max(s1[3], s2[3])
            i1, i2 = _two_quadric(*s1, n), _two_quadric(*s2, n)
            basis = build_head_and_tail_basis(order_view(i1), order_view(i2))
            rep = assert_matches_reference(basis, [i1, i2], (2, 1), "standard")
            assert rep.verdict == "certified-up-to-bound", (s1, s2)


class TestBuilderLeads:
    def test_every_basis_builder_compiles_onto_the_core(self):
        # the rewriting core takes two-atom leads alone, and every --basis
        # builder makes only those: on every shape at n=6, on 50 sampled
        # ordered pairs and on a cubic ideal
        rng = random.Random(29)
        cubic = [borel_closure([m("x2*x3*x4", 5), m("x1*x4^2", 5),
                                m("x2^2*x5", 5)], 5)]
        cases = (
            ([[_two_quadric(*s, 6)] for s in ALL_SHAPES],
             ("g1", "g2", "fiber-type")),
            ([[_two_quadric(*rng.choice(ALL_SHAPES), 6),
               _two_quadric(*rng.choice(ALL_SHAPES), 6)] for _ in range(50)],
             ("ht", "g3", "fiber-type")),
            ([cubic], ("g1", "fiber-type")),
        )
        assert len(ALL_SHAPES) == 35
        assert {name for _, names in cases for name in names} == set(_BASES)
        for collections, names in cases:
            for ideals in collections:
                for name in names:
                    # compiled from the plain list, so a builder's table
                    # is not handed back as it is
                    rules = list(_BASES[name][1](ideals))
                    leads = rank_rules(rules, Alphabet.of(ideals)).leads
                    assert sum(len(listed) for row in leads if row
                               for listed in row if listed) == len(rules) > 0

    def test_every_builder_carries_an_order_orienting_its_rows(
            self, running_pair):
        # on every shape at n=6 and on the running pair: the order comes
        # with the table, and it orients every row
        kinds = {"g1": "rlex", "g2": "mrlex", "g3": "ht", "ht": "ht"}
        cases = [([_two_quadric(*s, 6)], ("g1", "g2", "fiber-type"))
                 for s in ALL_SHAPES]
        cases.append((list(running_pair), ("g3", "ht", "fiber-type")))
        for ideals, names in cases:
            for name in names:
                table = _BASES[name][1](ideals)
                kind = kinds.get(name, "rlex" if len(ideals) == 1 else "ht")
                assert table.order.kind == kind
                compiled = rank_rules(table, Alphabet.of(ideals))
                assert compiled is table and unoriented_rule(table) is None


class TestStandardMonomialDifferential:
    """Refutations, and markings their order does not orient, against fiber
    graphs built per multidegree."""

    def test_refutations_with_rules_dropped(
        self, running_pair, running_pair_basis, quadric_pair_ideal,
        quadric_pair_G1,
    ):
        rng = random.Random(7)
        refuted = 0
        for k in (1, 2, 4, 6):
            rules = _drop_rules(running_pair_basis, rng, k)
            report = assert_matches_reference(
                rules, list(running_pair), (2, 1), "standard"
            )
            refuted += report.verdict == "refuted"
        for k in (1, 3):
            rules = _drop_rules(quadric_pair_G1, rng, k)
            report = assert_matches_reference(
                rules, [quadric_pair_ideal], (4,), "standard"
            )
            refuted += report.verdict == "refuted"
        assert refuted >= 4

    def test_kernel_oracle_agrees_with_verify_gb(self):
        rng = random.Random(21)
        verdicts = []
        for shape in ALL_SHAPES:
            ideal = _two_quadric(*shape, shape[3])
            for rules in (build_G1(ideal), build_G2(order_view(ideal))):
                for marking in (rules, _drop_rules(rules, rng, 1)):
                    verdicts.append(assert_oracle_agrees(marking, [ideal], (2,)))
        for _ in range(8):
            s1, s2 = rng.choice(ALL_SHAPES), rng.choice(ALL_SHAPES)
            n = max(s1[3], s2[3])
            i1, i2 = _two_quadric(*s1, n), _two_quadric(*s2, n)
            basis = build_head_and_tail_basis(order_view(i1), order_view(i2))
            for marking in (basis, _drop_rules(basis, rng, 2)):
                verdicts.append(assert_oracle_agrees(marking, [i1, i2], (2, 1)))
        assert {"certified-up-to-bound", "refuted"} <= set(verdicts)

    def test_dropping_every_rule_leaves_every_monomial_standard(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        report = assert_matches_reference(
            marked_like(quadric_pair_G1, []), [quadric_pair_ideal], (2,),
            "standard")
        assert report.verdict == "refuted"

    @pytest.mark.parametrize("name, budget, verdict", [
        ("reversed", (2, 1), "refuted"),
        # a cross rule whose trail maps elsewhere never applies at t <= (2,0)
        ("other-image", (2, 0), "certified-up-to-bound"),
    ])
    def test_unoriented_markings_on_the_graph_oracle(
        self, running_pair, running_pair_basis, name, budget, verdict
    ):
        ideals = list(running_pair)
        rules, _ = _unoriented_mutant(name, ideals, running_pair_basis)
        report = assert_graphs_match_reference(rules, ideals, budget)
        assert report.verdict == verdict


def _unoriented_mutant(name, pair, basis):
    """(table, position of the rule its order does not orient): the pair's
    ht table with its middle row reversed, or a G3 trail swapped for a
    monomial of another image, or the pair's fiber-type table with a
    syzygy x_i*T_u -> x_j*T_u' (i < j) listed as x_j*T_u' -> x_i*T_u."""
    if name == "syzygy-reversed":
        basis = build_fiber_type_basis(pair, basis)
    rules = list(basis)
    if name == "other-image":
        k = next(i for i, g in enumerate(rules) if g.source == "G3")
        other = next(g.lead for g in rules[k + 1:] if g.source == "G3"
                     and phi(g.lead, pair) != phi(rules[k].lead, pair))
        rules[k] = MarkedBinomial(rules[k].lead, other, "G3")
    else:
        k = (len(rules) // 2 if name == "reversed"
             else next(i for i, g in enumerate(rules) if g.source == "SYZ"))
        g = rules[k]
        rules[k] = MarkedBinomial(g.trail, g.lead, g.source)
    return marked_like(basis, rules), k


class TestUnusableOrders:
    """A rule its carried order does not orient, or a list that carries no
    order, leaves verify_gb no method: the run is "inconclusive" (exit 3)
    with one note naming the case, and no multidegree is checked, however
    many monomials the budget holds: unoriented_rule names the rule, or
    the compiled list has no order."""

    @pytest.mark.parametrize("name",
                             ["reversed", "other-image", "syzygy-reversed"])
    def test_an_unoriented_rule_is_named(self, running_pair,
                                         running_pair_basis, name):
        pair = list(running_pair)
        rules, k = _unoriented_mutant(name, pair, running_pair_basis)
        assert rules.order is running_pair_basis.order
        assert unoriented_rule(rank_rules(rules, Alphabet.of(pair))) == k
        note = unoriented_note(rules.order, rules[k], pair)
        if name == "syzygy-reversed":
            assert (rules[k].lead.x_part.support()
                    > rules[k].trail.x_part.support())
            assert "block order" not in note
        # returned before the evidence count, though the budget holds
        # 23,409 pure monomials
        with mock.patch.object(verifier, "monomial_count",
                               side_effect=AssertionError):
            assert_inconclusive(rules, pair, (2, 2), note)

    def test_a_plain_list_carries_no_order(self, running_pair,
                                           running_pair_basis):
        pair = list(running_pair)
        rules = list(running_pair_basis)
        assert rank_rules(rules, Alphabet.of(pair)).order is None
        with mock.patch.object(verifier, "monomial_count",
                               side_effect=AssertionError):
            assert_inconclusive(rules, pair, (2, 2),
                                "no term order given with the 387 rules: "
                                "no fiber checked")
        # the same rules certify as the builder's table
        assert graph_run(rules, pair, (2, 1)).verdict == \
            verify_gb(running_pair_basis, pair, (2, 1)).verdict == \
            "certified-up-to-bound"


class TestStandardMonomialsOnRanks:
    """The standard-monomial path counts rank tuples; monomials are built
    only for failure labels."""

    @staticmethod
    def count_built(run):
        built = []
        init, from_sorted = PresMonomial.__init__, PresMonomial.from_sorted

        def counting_init(self, factors):
            built.append(self)
            init(self, factors)

        def counting_from_sorted(factors):
            built.append(factors)
            return from_sorted(factors)

        with mock.patch.object(PresMonomial, "__init__", counting_init), \
                mock.patch.object(PresMonomial, "from_sorted",
                                  staticmethod(counting_from_sorted)):
            report = run()
        return report, len(built)

    def test_certified_run_builds_no_monomial(
        self, running_pair, running_pair_basis, standard_monomials
    ):
        # the session table may be fresh: decode its rules first, as a run
        # on it does (see the fresh-table case below)
        list(running_pair_basis)
        report, built = self.count_built(lambda: verify_gb(
            running_pair_basis, list(running_pair), (2, 2)))
        assert report.verdict == "certified-up-to-bound"
        assert report.notes[0].startswith("standard monomials under the ht")
        assert report.multidegrees_checked > 0 and built == 0
        # one listed standard monomial per multidegree counted
        listed, built = self.count_built(lambda: standard_monomials(
            running_pair_basis, list(running_pair), (2, 2)))
        assert built == len(listed) == report.multidegrees_checked

    def test_a_fresh_table_is_decoded_once(self, running_pair):
        # verify_gb reads a fresh builder's table through rule_indices,
        # which decodes its rows: one monomial per distinct atom tuple, and
        # no other build; a second run on the table builds nothing
        i1, i2 = running_pair
        basis = build_head_and_tail_basis(order_view(i1), order_view(i2))
        tuples = {atoms for lead, trail, _ in basis.rows
                  for atoms in (lead, trail)}
        for expected in (len(tuples), 0):
            report, built = self.count_built(lambda: verify_gb(
                basis, list(running_pair), (2, 2)))
            assert report.verdict == "certified-up-to-bound"
            assert built == expected
        assert len(tuples) == 406

    def test_refuted_runs_build_only_failing_multidegrees(
        self, running_pair, running_pair_basis
    ):
        rng = random.Random(11)
        for k in (1, 3, 8):
            rules = _drop_rules(running_pair_basis, rng, k)
            logged = assert_matches_reference(
                rules, list(running_pair), (2, 1), "standard")
            assert logged.verdict == "refuted"
            report, built = self.count_built(lambda: verify_gb(
                rules, list(running_pair), (2, 1)))
            assert report.to_json_dict() == logged.to_json_dict()
            assert built == sum(len(f.sinks) for f in report.failures)


class TestStandardCountsPerSlice:
    """The standard path counts each t-slice whole and builds only the
    contents without exactly one standard monomial. Refuted head-and-tail
    runs against per-multidegree references: failures in the same order
    and the same progress calls."""

    @pytest.mark.parametrize("k", [8, 20])
    def test_refuted_runs_equal_reference_run(
        self, running_pair, running_pair_basis, k
    ):
        rules = _drop_rules(running_pair_basis, random.Random(k), k)
        report = assert_matches_reference(rules, list(running_pair), (2, 1),
                                          "standard")
        assert report.verdict == "refuted"

    @pytest.mark.parametrize("k", [1, 8, 20])
    def test_refuted_runs_equal_fiber_graphs(
        self, running_pair, running_pair_basis, k
    ):
        # at 2,2 the graph oracle on atom tuples is the reference: the
        # object-level one takes seconds per run there
        ideals = list(running_pair)
        rules = _drop_rules(running_pair_basis, random.Random(k), k)
        calls, graph_calls = [], []
        report = verify_gb(rules, ideals, (2, 2), progress=calls.append)
        graphs = graph_run(rules, ideals, (2, 2), progress=graph_calls.append)
        assert report.notes[0].startswith("standard")
        assert report.failures == graphs.failures
        assert report.multidegrees_checked == graphs.multidegrees_checked
        assert report.verdict == graphs.verdict == "refuted"
        assert calls == graph_calls

    @pytest.mark.parametrize("k", [0, 8, 20])
    def test_progress_at_every_multiple_of_2000(
        self, running_pair, running_pair_basis, k
    ):
        rules = _drop_rules(running_pair_basis, random.Random(k), k)
        calls = []
        report = verify_gb(rules, list(running_pair), (3, 3),
                           progress=calls.append)
        assert report.notes[0].startswith("standard")
        assert report.multidegrees_checked == 13900
        assert calls == [2000, 4000, 6000, 8000, 10000, 12000]


class TestKernelSpan:
    def test_unique_collision(self):
        ideal = borel_closure([m("x2^2", 3)], 3)
        pairs = toric_kernel_span([ideal], (2,))
        assert len(pairs) == 1
        labels = {v.label(1) for v in pairs[0]}
        assert labels == {"T11*T22", "T12^2"}

    def test_singleton_fibers_give_no_pairs(self):
        ideal = borel_closure([m("x1^3", 2)], 2)
        assert toric_kernel_span([ideal], (3,)) == []

    def test_pair_count_is_sum_of_fiber_choose_two(self, quadric_pair_ideal):
        pairs = toric_kernel_span([quadric_pair_ideal], (2,))
        expected = sum(
            len(f) * (len(f) - 1) // 2
            for _, f in fibers_by_multidegree([quadric_pair_ideal], (2,))
        )
        assert len(pairs) == expected > 0


class TestCheckMembership:
    """The package's check_membership, on the rewriting core, and the
    reference's, on objects, each against the same expectations."""

    @pytest.fixture(params=["package", "reference"])
    def check(self, request):
        return {"package": verifier.check_membership,
                "reference": check_membership}[request.param]

    def test_all_pairs_reduce_to_zero(self, check, quadric_pair_ideal,
                                      quadric_pair_G1):
        pairs = toric_kernel_span([quadric_pair_ideal], (3,))
        checked, failures = check(pairs, quadric_pair_G1)
        assert checked == len(pairs) and not failures

    def test_identical_pair_passes(self, check, quadric_pair_ideal,
                                   quadric_pair_G1):
        v = PresMonomial([PresVar(1, m("x3^2", 5))])
        checked, failures = check([(v, v)], quadric_pair_G1)
        assert checked == 1 and not failures

    def test_incomplete_basis_fails_membership(self, check,
                                               quadric_pair_ideal):
        # a single binomial cannot rewrite everything to a common form
        partial = build_G1(quadric_pair_ideal)[:1]
        pairs = toric_kernel_span([quadric_pair_ideal], (2,))
        _, failures = check(pairs, partial)
        assert failures

    def test_cycle_is_reported_not_raised(self, check):
        loop = [
            MarkedBinomial(m("x1*x5", 6), m("x2*x4", 6)),
            MarkedBinomial(m("x2*x6", 6), m("x3*x5", 6)),
            MarkedBinomial(m("x3*x4", 6), m("x1*x6", 6)),
        ]
        pair = (m("x1*x3*x5*x6", 6), m("x2*x3*x4*x6", 6))
        checked, failures = check([pair], loop)
        assert checked == 1 and failures == [{
            "pair": ["x1*x3*x5*x6", "x2*x3*x4*x6"],
            "error": "rewriting cycles: x1*x3*x5*x6 recurs after 3 steps",
        }]

    def test_cycling_marking_names_the_recurring_monomial(
        self, check, quadric_pair_ideal, quadric_pair_G1
    ):
        # G1 with its first rule also listed reversed right after it, so
        # T12^2 and T11*T22 rewrite to each other
        g = quadric_pair_G1[0]
        marking = [g, MarkedBinomial(g.trail, g.lead)] + quadric_pair_G1[1:]
        pairs = toric_kernel_span([quadric_pair_ideal], (3,))
        checked, failures = check(pairs, marking)
        assert checked == 160 and len(failures) == 32
        monomials = {str(v): v for pair in pairs for v in pair}
        for failure in failures:
            match = re.fullmatch(r"rewriting cycles: (\S+) recurs after 2 steps",
                                 failure["error"])
            recurring = monomials[match[1]]
            assert g.lead.divides(recurring) or g.trail.divides(recurring)


def _kernel_case(name):
    """(rules, ideals, t_budget, x_degree, failures) of one differential
    case for kernel_membership."""
    pair = [borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
            borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)]
    one = [borel_closure([m("x3^2", 5), m("x2*x5", 5)], 5)]
    b45 = [pair[0]]
    views = [order_view(i) for i in pair]
    g1 = build_G1(one[0])
    fiber_type = build_fiber_type_basis(b45, quadratic_basis_for(b45))
    ht = build_head_and_tail_basis(*views)
    return {
        "ht-21": (ht, pair, (2, 1), None, 0),
        # ht with its rule 5 also listed reversed right after it
        "ht-21-rule5-reversed": (
            ht[:6] + [MarkedBinomial(ht[5].trail, ht[5].lead, ht[5].source)]
            + ht[6:], pair, (2, 1), None, 600),
        # ht with its first rule replaced by its reverse: the marking of
        # another term order, so every pair still joins
        "ht-21-first-rule-reversed": (
            [MarkedBinomial(ht[0].trail, ht[0].lead, ht[0].source)] + ht[1:],
            pair, (2, 1), None, 0),
        "ht-22": (ht, pair, (2, 2), None, 0),
        "g3-21": (build_G3(*views), pair, (2, 1), None, 3370),
        "g1-3": (g1, one, (3,), None, 0),
        # G1 with its first rule also listed reversed right after it
        "cycling-3": ([g1[0], MarkedBinomial(g1[0].trail, g1[0].lead)]
                      + g1[1:], one, (3,), None, 32),
        "fiber-type-xdeg4": (fiber_type, b45, (2,), 4, 0),
        "fiber-type-xdeg6": (fiber_type, b45, (2,), 6, 0),
        "fiber-type-no-first-syzygy": (fiber_type[1:], b45, (2,), 6, 392),
    }[name]


class TestKernelMembership:
    """kernel_membership reduces each fiber member once on atom tuples; its
    (checked, failures) equals check_membership over toric_kernel_span's
    pairs, the object-level reference, exactly."""

    # pairs checked by the cases the kernel-oracle command is run on
    PAIRS = {"ht-21": 9941, "ht-21-rule5-reversed": 9941, "g3-21": 9941,
             "ht-21-first-rule-reversed": 9941, "ht-22": 369597,
             "fiber-type-xdeg6": 22190}

    @pytest.mark.parametrize("name", [
        "ht-21", "ht-21-rule5-reversed", "ht-21-first-rule-reversed",
        "ht-22", "g3-21", "g1-3",
        "cycling-3", "fiber-type-xdeg4", "fiber-type-xdeg6",
        "fiber-type-no-first-syzygy",
    ])
    def test_equals_the_pair_reference(self, name):
        rules, ideals, budget, x_degree, failures = _kernel_case(name)
        expected = check_membership(
            toric_kernel_span(ideals, budget, x_degree), rules
        )
        got = kernel_membership(rules, ideals, budget, x_degree)
        assert got == expected
        assert got[0] == self.PAIRS.get(name, got[0]) > 0
        assert len(got[1]) == failures
        if name in ("cycling-3", "ht-21-rule5-reversed"):
            assert all(set(f) == {"pair", "error"} for f in got[1])
        if name == "g3-21":
            assert all(set(f) == {"pair", "normal_forms"} for f in got[1])

    @settings(max_examples=10, deadline=None)
    @given(budget=st.sampled_from([(1, 1), (2, 1)]), rng=st.randoms(),
           reverse=st.floats(0.0, 0.3))
    def test_random_markings_of_the_running_pair(self, running_pair,
                                                 running_pair_basis, budget,
                                                 rng, reverse):
        # subsets and shuffles of ht with some rules reversed: many
        # markings refute, and many cycle
        rules = [
            MarkedBinomial(g.trail, g.lead, g.source)
            if rng.random() < reverse else g
            for g in rng.sample(running_pair_basis,
                                rng.randint(1, len(running_pair_basis)))
        ]
        ideals = list(running_pair)
        assert kernel_membership(rules, ideals, budget) == check_membership(
            toric_kernel_span(ideals, budget), rules)

    def test_budget_length_is_checked(self, running_pair, running_pair_basis):
        with pytest.raises(ValueError, match="t budget needs 2 entries"):
            kernel_membership(running_pair_basis, list(running_pair), (2,))

    def test_mixed_rules_default_to_the_x_degree_verify_gb_checks(
            self, quadric_pair_ideal, quadric_pair_G1):
        # with no x_degree, the fiber-type basis is checked on the 183
        # mixed pairs up to the default x-degree 4, not the 13 pure ones
        ideals = [quadric_pair_ideal]
        rules = build_fiber_type_basis(ideals, quadric_pair_G1)
        assert mixed_x_degree(rules, ideals, (2,)) == 4
        assert len(toric_kernel_span(ideals, (2,))) == 13
        got = kernel_membership(rules, ideals, (2,))
        assert got == check_membership(toric_kernel_span(ideals, (2,), 4),
                                       rules) == (183, [])
        assert verify_gb(rules, ideals, (2,)).notes[1] == (
            "mixed fibers up to x-degree 4")

    def test_pure_rules_refuse_an_x_degree(self, quadric_pair_ideal,
                                           quadric_pair_G1):
        # G1, lifted to the mixed ring, rewrites no x-part, so on the mixed
        # pairs it reports false failures; like verify_gb, the oracle
        # refuses the bound for the pure rules
        ideals = [quadric_pair_ideal]
        one = Monomial.one(5)
        lifted = [MarkedBinomial(MixedMonomial(one, g.lead),
                                 MixedMonomial(one, g.trail), g.source)
                  for g in quadric_pair_G1]
        checked, failures = check_membership(
            toric_kernel_span(ideals, (2,), 4), lifted)
        assert (checked, len(failures)) == (183, 170)
        for run in (verify_gb, kernel_membership):
            with pytest.raises(ValueError, match="an x-degree bound applies "
                               "only to a basis with mixed"):
                run(quadric_pair_G1, ideals, (2,), x_degree=4)

    def test_rules_that_leave_a_fiber(self, quadric_pair_ideal,
                                      quadric_pair_G1):
        # a lead and trail of different images rewrite out of the lead's
        # fiber, so the per-fiber memo is only a cache: members of other
        # fibers are reduced again in each fiber whose paths reach them
        ideals = [quadric_pair_ideal]
        quadrics = [f for mu, f in fibers_by_multidegree(ideals, (2,))
                    if mu.t_exps == (2,)]
        stray = MarkedBinomial(max(quadrics, key=len)[0], quadrics[0][0])
        budget = (3,)
        for rules in ([stray, *quadric_pair_G1],
                      list(quadric_pair_G1) + [stray, MarkedBinomial(
                          stray.trail, stray.lead)]):
            got = kernel_membership(rules, ideals, budget)
            assert got == check_membership(
                toric_kernel_span(ideals, budget), rules)
            assert got[1]

    def test_progress_at_every_multiple_of_2000(self, running_pair,
                                                running_pair_basis):
        # the pair at 5,0 walks 3,430 fibers; at 2,1 it walks 572, so no call
        ideals = list(running_pair)
        for budget, expected in (((5, 0), [2000]), ((2, 1), [])):
            calls = []
            got = kernel_membership(running_pair_basis, ideals, budget,
                                    progress=calls.append)
            assert calls == expected
            assert got == kernel_membership(running_pair_basis, ideals,
                                            budget)


class TestKernelMembershipOnTables:
    """kernel_membership on a builder's RankRules, read straight off its
    rows, against kernel_membership on the decoded rules as a plain list
    (compiled by rank_rules) and against check_membership over
    toric_kernel_span's pairs: the same (checked, failures), failure text
    and order included."""

    @staticmethod
    def three_ways(table, ideals, budget, span):
        """The three results, asserted equal; returns the failures."""
        rules = list(table)
        got = kernel_membership(table, ideals, budget)
        assert got == kernel_membership(rules, ideals, budget)
        assert got == check_membership(span, rules)
        assert got[0] == len(span)
        return got[1]

    @pytest.mark.parametrize("name, failures", [("ht", 0), ("g3", 3370)])
    def test_the_cli_tables_of_the_running_pair(self, running_pair, name,
                                                failures):
        ideals = list(running_pair)
        table = _BASES[name][1](ideals)
        assert isinstance(table, RankRules)
        span = toric_kernel_span(ideals, (2, 1))
        assert len(span) == 9941
        found = self.three_ways(table, ideals, (2, 1), span)
        assert len(found) == failures
        assert all(set(f) == {"pair", "normal_forms"} for f in found)

    def test_a_compiled_fiber_type_table_keeps_its_mixed_kind(
            self, quadric_pair_ideal, quadric_pair_G1):
        # rank_rules keeps the object list and its lead kinds, so the
        # table reaches the mixed fibers at the default x-degree as the
        # list does
        ideals = [quadric_pair_ideal]
        rules = build_fiber_type_basis(ideals, quadric_pair_G1)
        table = rank_rules(rules, Alphabet.of(ideals))
        assert table == rules
        assert table.kinds == {MixedMonomial}
        assert mixed_x_degree(table, ideals, (2,)) == 4
        assert kernel_membership(table, ideals, (2,)) == kernel_membership(
            rules, ideals, (2,)) == (183, [])

    @staticmethod
    def reversed_rows(table, picked, keep):
        """The table with the picked rows reversed: in place, or (keep)
        listed again reversed after every row, so a path through one of
        them can return."""
        rows = table.rows
        flipped = {i: (trail, lead, source)
                   for i, (lead, trail, source) in enumerate(rows)
                   if i in picked}
        if keep:
            rows = rows + list(flipped.values())
        else:
            rows = [flipped.get(i, row) for i, row in enumerate(rows)]
        return RankRules(table.alphabet, rows, table.kinds, order=table.order)

    def test_reversals_refute_and_cycle_alike(self, running_pair):
        ideals = list(running_pair)
        table = build_head_and_tail_basis(*map(order_view, ideals))
        span = toric_kernel_span(ideals, (2, 1))
        refuted = self.three_ways(self.reversed_rows(table, {140}, False),
                                  ideals, (2, 1), span)
        cycled = self.three_ways(self.reversed_rows(table, {5}, True),
                                 ideals, (2, 1), span)
        assert any("normal_forms" in f for f in refuted)
        assert cycled and all("error" in f for f in cycled)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_reversals_of_the_ht_rows(self, running_pair, data):
        ideals = list(running_pair)
        table = build_head_and_tail_basis(*map(order_view, ideals))
        picked = set(data.draw(st.lists(
            st.integers(0, len(table.rows) - 1), min_size=1, max_size=6)))
        keep = data.draw(st.booleans())
        budget = data.draw(st.sampled_from([(1, 1), (2, 1)]))
        self.three_ways(self.reversed_rows(table, picked, keep), ideals,
                        budget, _pair_span(budget))


class TestEntryPointsOnTheCore:
    """The package's analyze_fiber and check_membership, on the rewriting
    core, against the object-level references of tests/reference.py on
    the running pair at (2, 1): every fiber's sinks and cycle flag and
    every kernel pair's failure, under ht, under g3, which refutes, and
    under ht with its rule 5 also listed reversed right after it, which
    cycles."""

    @staticmethod
    def marking(name, ideals):
        if name == "ht-rule5-reversed":
            ht = _BASES["ht"][1](ideals)
            return ht[:6] + [MarkedBinomial(ht[5].trail, ht[5].lead,
                                            ht[5].source)] + ht[6:]
        return _BASES[name][1](ideals)

    @pytest.mark.parametrize("name, shapes", [
        ("ht", {(1, False)}),
        ("g3", {(1, False), (2, False), (3, False)}),
        ("ht-rule5-reversed", {(1, False), (0, True), (1, True)}),
    ])
    def test_fiber_graphs(self, running_pair, name, shapes):
        ideals = list(running_pair)
        indices = rule_indices(self.marking(name, ideals))
        found = set()
        for _, fiber in fibers_by_multidegree(ideals, (2, 1)):
            sinks, cyc = verifier.analyze_fiber(fiber, *indices)
            assert (sinks, cyc) == analyze_fiber(fiber, *indices)
            found.add((len(sinks), cyc))
        assert found == shapes

    @pytest.mark.parametrize("name, failures", [
        ("ht", 0), ("g3", 3370), ("ht-rule5-reversed", 600)])
    def test_kernel_pairs(self, running_pair, name, failures):
        rules = self.marking(name, list(running_pair))
        span = _pair_span((2, 1))
        got = verifier.check_membership(span, rules)
        assert got == check_membership(span, rules)
        assert got[0] == 9941 and len(got[1]) == failures


@functools.cache
def _pair_span(budget):
    """toric_kernel_span of the running pair at a budget, built once."""
    pair = [borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
            borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)]
    return toric_kernel_span(pair, budget)


class TestMixedOracle:
    def test_fibers_have_constant_image(self, quadric_pair_ideal):
        for mu, fiber in itertools.islice(
            mixed_fibers([quadric_pair_ideal], (2,), 5), 100
        ):
            for v in fiber:
                assert phi(v, [quadric_pair_ideal]) == mu

    def test_multi_rees_kernel_reduces_under_lifted_basis(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        rules = build_fiber_type_basis([quadric_pair_ideal], quadric_pair_G1)
        pairs = toric_kernel_span([quadric_pair_ideal], (2,), x_degree=5)
        checked, failures = check_membership(pairs, rules)
        assert checked == len(pairs) > 0 and not failures

    def test_syzygies_alone_do_not_suffice(self, quadric_pair_ideal):
        from borel_rees.orders import build_syzygy_set

        rules = build_syzygy_set([quadric_pair_ideal])
        pairs = toric_kernel_span([quadric_pair_ideal], (2,), x_degree=4)
        _, failures = check_membership(pairs, rules)
        assert failures


def reference_mixed_fibers(ideals, t_budget, x_degree):
    """Mixed fibers rebuilt by grouping brute_force_monomials by content:
    contents in first-appearance order, x-monomials by degree, then in
    combinations_with_replacement order."""
    n = ideals[0].n
    for tv in t_vectors(t_budget):
        by_content = {}
        for u in brute_force_monomials(ideals, tv):
            by_content.setdefault(content(u, n), []).append(u)
        for d in range(x_degree + 1):
            for combo in itertools.combinations_with_replacement(range(n), d):
                mu_x = Monomial([combo.count(k) for k in range(n)])
                fiber = [
                    MixedMonomial(mu_x.quotient(c), u)
                    for c, us in by_content.items() if c.divides(mu_x)
                    for u in us
                ]
                if fiber:
                    yield MultiDegree(mu_x.exps, tv), fiber


OBSTRUCTED_TRIPLE = [
    borel_closure([m("x3^2", 5), m("x1*x5", 5)], 5),
    borel_closure([m("x3^2", 5), m("x2*x4", 5)], 5),
    borel_closure([m("x2*x4", 5), m("x1*x5", 5)], 5),
]


# the pair of Example 4.2: B(x1^2x3^2, x1x2^2x3), B(x1^2x3^2, x2^4) in n=3
EX4_2_PAIR = [
    borel_closure([m("x1^2*x3^2", 3), m("x1*x2^2*x3", 3)], 3),
    borel_closure([m("x1^2*x3^2", 3), m("x2^4", 3)], 3),
]


ENUMERATOR_CASES = pytest.mark.parametrize(
    "ideals, budget",
    [
        ([borel_closure([m("x3^2", 5), m("x2*x5", 5)], 5)], (3,)),
        ([borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
          borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)], (2, 1)),
        (OBSTRUCTED_TRIPLE, (1, 1, 1)),
        ([borel_closure([m("x2*x3^2", 4), m("x1*x4^2", 4)], 4)], (2,)),
    ],
    ids=["r1", "r2", "r3", "cubic"],
)


def _x_vectors(n, degree):
    for combo in itertools.combinations_with_replacement(range(n), degree):
        yield tuple(combo.count(k) for k in range(n))


class TestEnumeratorsAgainstBruteForce:
    """The one backtracking enumerator, through all three of its wrappers,
    against monomials grouped by phi: the same members in the same order."""

    @ENUMERATOR_CASES
    def test_fibers_by_multidegree(self, ideals, budget):
        expected = list(brute_force_fibers(ideals, budget).items())
        assert list(fibers_by_multidegree(ideals, budget)) == expected

    @ENUMERATOR_CASES
    def test_forbidden_lead_pairs_leave_the_standard_monomials(
        self, ideals, budget
    ):
        rules = quadratic_basis_for(ideals) or []
        rank = {v: k for k, v in enumerate(presentation_variables(ideals))}
        pairs = [tuple(rank[f] for f in g.lead.factors) for g in rules]
        leads = {g.lead.factors for g in rules}
        expected = []
        for mu, fiber in brute_force_fibers(ideals, budget).items():
            # factor tuples are sorted, so every factor pair of u is too
            standard = [u for u in fiber if leads.isdisjoint(
                itertools.combinations(u.factors, 2))]
            if standard:
                expected.append((mu, standard))
        got = list(banned_pure_fibers(ideals, budget, pairs))
        assert got == expected
        if rules:
            assert sum(len(f) for _, f in got) < sum(
                len(f) for f in brute_force_fibers(ideals, budget).values())

    @ENUMERATOR_CASES
    def test_point_queries_images_and_non_images(self, ideals, budget):
        n = ideals[0].n
        fibers = brute_force_fibers(ideals, budget)
        queried = nonempty = 0
        for tv in t_vectors(budget):
            monomials = brute_force_monomials(ideals, tv)
            contents = [phi(u, ideals).x_exps for u in monomials]
            degree = sum(a * i.degree for a, i in zip(tv, ideals))
            for d in (degree - 1, degree, degree + 1):
                for x in _x_vectors(n, max(d, 0)):
                    mu = MultiDegree(x, tv)
                    assert enumerate_fiber(mu, ideals) == fibers.get(mu, [])
                    dividing = {c for c in set(contents)
                                if all(a >= b for a, b in zip(x, c))}
                    mixed = [
                        MixedMonomial(Monomial(a - b for a, b in zip(x, c)), u)
                        for c, u in zip(contents, monomials) if c in dividing
                    ]
                    assert enumerate_mixed_fiber(mu, ideals) == mixed
                    queried += 1
                    nonempty += bool(mixed)
        assert 0 < nonempty < queried

    def test_large_multidegree_returns_at_once(self, quadric_pair_ideal):
        # only x1^2 divides a power of x1, so the target prunes every other
        # branch of the 40 factor positions
        ideals = [quadric_pair_ideal]
        power = PresMonomial([PresVar(1, m("x1^2", 5))] * 40)
        assert enumerate_fiber(MultiDegree(m("x1^99", 5).exps, (40,)),
                               ideals) == []
        assert enumerate_fiber(MultiDegree(m("x1^80", 5).exps, (40,)),
                               ideals) == [power]
        assert enumerate_mixed_fiber(
            MultiDegree(m("x1^99", 5).exps, (40,)), ideals
        ) == [MixedMonomial(m("x1^19", 5), power)]

    @pytest.mark.parametrize("enumerate_", [enumerate_fiber,
                                            enumerate_mixed_fiber])
    def test_wrong_length_t_vector_rejected(self, running_pair, enumerate_):
        mu = MultiDegree(m("x4^2*x5^2", 6).exps, (2,))
        with pytest.raises(ValueError, match="t-vector length 1 != r=2"):
            enumerate_(mu, list(running_pair))


class TestMixedFibersDifferential:
    @pytest.mark.parametrize(
        "ideals, budget, x_degree",
        [
            ([borel_closure([m("x3^2", 5), m("x2*x5", 5)], 5)], (2,), 5),
            ([borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
              borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)], (1, 1), 4),
            (OBSTRUCTED_TRIPLE, (1, 1, 1), 6),
            ([borel_closure([m("x2*x3^2", 4), m("x1*x4^2", 4)], 4)], (2,), 6),
        ],
        ids=["r1", "r2", "r3", "cubic"],
    )
    def test_regrouping_equals_reference_in_order(
        self, ideals, budget, x_degree
    ):
        got = list(mixed_fibers(ideals, budget, x_degree))
        assert got == list(reference_mixed_fibers(ideals, budget, x_degree))
        assert any(len(fiber) >= 2 for _, fiber in got)

    @pytest.mark.parametrize("dropped", [0, 1, 4])
    def test_lead_atom_pairs_leave_the_mixed_standard_monomials(
        self, quadric_pair_ideal, quadric_pair_G1, dropped
    ):
        # each lead as a pair of atoms, syzygy leads x_i*T_u included: the
        # members no lead divides, in fiber order, and no fiber left empty
        ideals = [quadric_pair_ideal]
        rules = _drop_rules(build_fiber_type_basis(ideals, quadric_pair_G1),
                            random.Random(dropped), dropped)
        alphabet = Alphabet.of(ideals)
        pairs = [alphabet.encode(g.lead) for g in rules]
        assert any(max(p) >= len(alphabet.variables) for p in pairs)
        expected = []
        for mu, fiber in reference_mixed_fibers(ideals, (2,), 5):
            standard = [alphabet.encode(v) for v in fiber
                        if not any(g.lead.divides(v) for g in rules)]
            if standard:
                expected.append((mu, standard))
        got = list(banned_fibers(ideals, (2,), pairs, 5))
        assert got == expected
        assert any(len(fiber) >= 2 for _, fiber in got) == bool(dropped)


class TestLeadImageEvidence:
    """An unrefuted term-order run is "inconclusive" exactly when no lead's
    image lies within the bounds: a lead within them shares its fiber with
    its trail, and a fiber of two members holds a lead. The scan of phi
    over the leads against verify_gb's counted evidence, pure and mixed."""

    def test_equals_the_phi_scan(
        self, running_pair, running_pair_basis
    ):
        pair = list(running_pair)
        fiber_type = build_fiber_type_basis(pair, quadratic_basis_for(pair))
        verdicts = set()
        for rules, x_degrees in ((running_pair_basis, [None]),
                                 (fiber_type, [2, 3, 4, 5])):
            images = [phi(g.lead, pair) for g in rules]
            for budget in t_vectors((2, 2)):
                for x_degree in x_degrees:
                    within = any(
                        all(map(operator.le, mu.t_exps, budget))
                        and (x_degree is None or sum(mu.x_exps) <= x_degree)
                        for mu in images)
                    verdict = verify_gb(rules, pair, budget,
                                        x_degree=x_degree).verdict
                    assert (verdict == "inconclusive") == (not within), (
                        budget, x_degree, verdict)
                    verdicts.add(verdict)
        assert verdicts == {"inconclusive", "certified-up-to-bound"}


class TestVerifyGBMixed:
    def test_lifted_basis_certifies_mixed_fibers(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        rules = build_fiber_type_basis([quadric_pair_ideal], quadric_pair_G1)
        report = verify_gb(rules, [quadric_pair_ideal], (2,), x_degree=5)
        assert report.notes == [
            f"standard monomials under the block order (x-parts first, then "
            f"rlex); {len(rules)} rules oriented, images equal",
            "mixed fibers up to x-degree 5",
        ]
        assert report.verdict == "certified-up-to-bound"
        assert report.multidegrees_checked > 100

    def test_syzygies_alone_carry_no_order(self, quadric_pair_ideal):
        # the syzygy set is marked by the block order whatever quadrics
        # join it, so it carries no order of its own: the graph oracle
        # refutes it, and verify_gb checks nothing
        ideals = [quadric_pair_ideal]
        rules = build_syzygy_set(ideals)
        assert rules.order is None
        assert graph_run(rules, ideals, (2,), x_degree=4).verdict == "refuted"
        assert_inconclusive(
            rules, ideals, (2,), f"no term order given with the {len(rules)} "
            f"rules: no fiber checked", x_degree=4)

    def test_default_x_degree_reaches_every_budgeted_slice(
        self, running_pair, running_pair_basis
    ):
        # t = (2,1) has content degree 6; the old default, 4, left it out
        pair = list(running_pair)
        rules = build_fiber_type_basis(pair, running_pair_basis)
        assert mixed_x_degree(rules, pair, (2, 1)) == 6
        assert mixed_x_degree(rules, pair, (2, 2)) == 8
        # never below twice the largest generator degree
        assert mixed_x_degree(rules, pair, (1, 0)) == 4
        assert mixed_x_degree(rules, pair, (2, 1), 3) == 3
        assert mixed_x_degree(running_pair_basis, pair, (2, 1)) is None

    def test_an_x_degree_is_refused_only_for_pure_leads(self, running_pair):
        # a list with no rule has no lead to call pure, so it takes a given
        # bound; a builder's table is pure even when it has no row
        pair = list(running_pair)
        assert mixed_x_degree([], pair, (2, 1), 3) == 3
        assert mixed_x_degree([], pair, (2, 1)) is None
        empty = build_G1(borel_closure([m("x1^2", 2)], 2))
        assert len(empty) == 0
        with pytest.raises(ValueError, match="applies only to a basis"):
            mixed_x_degree(empty, pair, (2, 1), 3)

    def test_unreached_slices_are_named(self, running_pair):
        pair = list(running_pair)
        assert unreached_slice_notes(pair, (2, 1), 6) == []
        assert unreached_slice_notes(pair, (2, 1), 5) == [
            "unchecked t-vectors, content degree above x-degree 5: 2,1"
        ]
        assert unreached_slice_notes(pair, (2, 2), 4) == [
            "unchecked t-vectors, content degree above x-degree 4: "
            "1,2 2,1 2,2"
        ]

    def test_unreached_slices_past_the_reached_box_are_summed_up(
            self, running_pair, quadric_pair_ideal):
        # the note names the unreached t-vectors up to one step past the
        # box the x-degree reaches, and the rest as lying above them
        pair, one = list(running_pair), [quadric_pair_ideal]
        above = " and every t-vector above them"
        assert unreached_slice_notes(one, (3,), 0) == [
            f"unchecked t-vectors, content degree above x-degree 0: 1{above}"]
        assert unreached_slice_notes(one, (3,), 2) == [
            f"unchecked t-vectors, content degree above x-degree 2: 2{above}"]
        assert unreached_slice_notes(one, (3,), 4) == [
            "unchecked t-vectors, content degree above x-degree 4: 3"]
        assert unreached_slice_notes(pair, (5, 3), 4) == [
            "unchecked t-vectors, content degree above x-degree 4: "
            f"0,3 1,2 1,3 2,1 2,2 2,3 3,0 3,1 3,2 3,3{above}"]
        start = time.perf_counter()
        assert unreached_slice_notes(pair, (3000000000, 0), 5) == [
            f"unchecked t-vectors, content degree above x-degree 5: 3,0{above}"]
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("name", ["pair", "one"])
    def test_each_slice_is_one_range_of_rest_degrees(
            self, running_pair, quadric_pair_ideal, name):
        # at x-degrees below, at and above each slice's content degree,
        # and in the pure walk: the counts hold one group per rest degree,
        # the note names exactly the slices with none, and the closed form
        # is the members counted
        ideals, budget = {"pair": (list(running_pair), (2, 1)),
                          "one": ([quadric_pair_ideal], (3,))}[name]
        lows = {presentation.content_degree(ideals, tv)
                for tv in t_vectors(budget)}
        bounds = sorted({d + k for d in lows for k in (-1, 0, 1)} - {-1})
        for x_degree in [None, *bounds]:
            rests = {tv: presentation._rest_degrees(ideals, tv, x_degree)
                     for tv in t_vectors(budget)}
            counts = list(presentation._fiber_groups(
                ideals, budget, x_degree=x_degree)[1])
            assert Counter(tv for tv, *_ in counts) == {
                tv: len(r) for tv, r in rests.items() if r}
            assert [d for _, d, _, _ in counts] == [
                presentation.content_degree(ideals, tv) + e
                for tv, r in rests.items() for e in r]
            assert presentation.monomial_count(ideals, budget, x_degree) \
                == sum(members for *_, members in counts)
            if x_degree is None:
                continue
            empty = {tv for tv, r in rests.items() if not r}
            notes = unreached_slice_notes(ideals, budget, x_degree)
            if not empty:
                assert notes == []
                continue
            # the named t-vectors, with every t-vector above them when the
            # note says so, are exactly the slices with no rest degree
            (note,) = notes
            head = (f"unchecked t-vectors, content degree above x-degree "
                    f"{x_degree}: ")
            tail = " and every t-vector above them"
            assert note.startswith(head)
            named = note[len(head):].removesuffix(tail)
            named = [tuple(map(int, tv.split(","))) for tv in named.split()]
            assert named == sorted(named)
            above = {tv for tv in rests if any(
                all(map(operator.ge, tv, low)) for low in named)}
            assert (above if note.endswith(tail) else set(named)) == empty

    def test_a_huge_budget_at_the_default_x_degree_is_decided_at_once(
            self, running_pair, running_pair_basis):
        # the default x-degree reaches every slice, which the budget's own
        # content degree decides with no walk over its 3,000,000,001
        # t-vectors
        pair = list(running_pair)
        rules = build_fiber_type_basis(pair, running_pair_basis)
        budget = (3000000000, 0)
        x_degree = mixed_x_degree(rules, pair, budget)
        assert x_degree == 6000000000
        start = time.perf_counter()
        assert unreached_slice_notes(pair, budget, x_degree) == []
        assert time.perf_counter() - start < 1

    def test_a_huge_budget_walks_only_the_slices_a_small_x_degree_reaches(
            self, running_pair, running_pair_basis):
        # at x-degree 5 only t <= (2, 0) has a group, so the check, the
        # oracle, the closed form and the note walk a few t-vectors of the
        # 3,000,000,001; t_vectors refuses to yield past 10,000 in all, so
        # a walk over the whole budget fails here instead of hanging
        pair = list(running_pair)
        rules = build_fiber_type_basis(pair, running_pair_basis)
        budget = (3000000000, 0)
        yielded, real = itertools.count(), presentation.t_vectors

        def bounded(t_budget):
            for tv in real(t_budget):
                if next(yielded) > 10000:
                    raise AssertionError("walked past 10,000 t-vectors")
                yield tv

        with mock.patch.object(presentation, "t_vectors", bounded), \
                mock.patch.object(verifier, "t_vectors", bounded):
            report = verify_gb(rules, pair, budget, x_degree=5)
            checked, failures = kernel_membership(rules, pair, budget, 5)
        assert (report.verdict, report.multidegrees_checked) == (
            "certified-up-to-bound", 1194)
        assert report.notes[-1] == (
            "unchecked t-vectors, content degree above x-degree 5: 3,0 "
            "and every t-vector above them")
        assert (checked, failures) == (3888, [])

    def test_a_huge_budget_and_x_degree_report_progress_before_the_note(
            self, running_pair, running_pair_basis, tmp_path):
        # at x-degree 10**10 the walk reaches the whole budget of
        # 3,000,000,000 per ideal, and the slices above content degree
        # 10**10 are unreached: the note's box is the budget itself, so it
        # is made after the walk, which reports its progress first. The
        # note's t_vectors refuses to yield past 10,000, so a note made
        # before the walk fails here instead of hanging
        pair = list(running_pair)
        rules = build_fiber_type_basis(pair, running_pair_basis)
        huge = 3000000000
        yielded, real = itertools.count(), verifier.t_vectors

        def bounded(t_budget):
            for tv in real(t_budget):
                if next(yielded) > 10000:
                    raise AssertionError("walked past 10,000 t-vectors")
                yield tv

        class Progress(Exception):
            pass

        def stop(count):
            raise Progress(count)

        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({"n": 6, "ideals": [
            {"borel_generators": ["x4*x5", "x2*x6"]},
            {"borel_generators": ["x4^2", "x3*x6"]}]}))
        argv = ["kernel-oracle", "--spec", str(spec), "--basis", "fiber-type",
                "--budget", f"{huge},{huge}", "--xdeg", str(10**10)]
        with mock.patch.object(verifier, "t_vectors", bounded):
            with pytest.raises(Progress, match="^2000$"):
                verify_gb(rules, pair, (huge, huge), progress=stop,
                          x_degree=10**10)
            with mock.patch.object(cli, "progress_to_stderr", stop), \
                    pytest.raises(Progress, match="^2000$"):
                cli.main(argv)
        assert next(yielded) == 0


def _fiber_type_case(name):
    """A fiber-type basis with its budget and x-degree bound: the one of
    B(x4x5, x2x6) at (2,) up to x-degree 5, intact, without its first
    syzygy or its first lifted rule, its syzygies alone, or its first syzygy
    listed reversed; and the running pair's at (2, 1), with the default
    bound, without its first syzygy."""
    if name == "pair-no-first-syzygy":
        pair = [borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
                borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6)]
        rules = build_fiber_type_basis(pair, quadratic_basis_for(pair))
        return pair, marked_like(rules, rules[1:]), (2, 1), None
    b45 = [borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6)]
    rules = build_fiber_type_basis(b45, quadratic_basis_for(b45))
    first = rules[0]
    assert first.source == "SYZ"
    lifted = next(k for k, g in enumerate(rules) if g.source != "SYZ")
    return b45, marked_like(rules, {
        "intact": rules,
        "no-first-syzygy": rules[1:],
        "no-first-lifted-rule": rules[:lifted] + rules[lifted + 1:],
        "syzygies-alone": rules[:lifted],
        "first-syzygy-reversed":
            [MarkedBinomial(first.trail, first.lead, first.source)] + rules[1:],
    }[name]), (2,), 5


class TestFiberGraphsOnAtoms:
    """verify_gb on fiber-type bases against reference_run, which rebuilds
    every fiber graph on objects with analyze_fiber over brute-force mixed
    fibers. The block order orients the intact basis and every deletion, so
    their standard monomials are counted; a reversed syzygy is not
    oriented, so verify_gb checks nothing, and the graph oracle builds the
    fiber graphs on atom tuples."""

    @pytest.mark.parametrize("name, failures, cycles", [
        ("intact", 0, 0),
        ("no-first-syzygy", 29, 0),
        ("no-first-lifted-rule", 6, 0),
        ("syzygies-alone", 141, 0),
        ("first-syzygy-reversed", 10, 10),
        ("pair-no-first-syzygy", 91, 0),
    ])
    def test_fiber_type_basis(self, name, failures, cycles):
        ideals, rules, budget, x_degree = _fiber_type_case(name)
        if name == "first-syzygy-reversed":
            # x_j*T_u' -> x_i*T_u with i < j: a syzygy the block order
            # does not orient
            report = assert_graphs_match_reference(rules, ideals, budget,
                                                   x_degree)
            assert_inconclusive(rules, ideals, budget, unoriented_note(
                rules.order, rules[0], ideals), x_degree)
        else:
            report = assert_matches_reference(
                rules, ideals, budget,
                "standard monomials under the block order", x_degree)
        assert len(report.failures) == failures
        assert sum(f.has_cycle for f in report.failures) == cycles
        assert report.verdict == ("refuted" if failures
                                  else "certified-up-to-bound")

    def test_head_and_tail_with_its_first_rule_reversed(
        self, running_pair, running_pair_basis
    ):
        # the ht order does not orient the marking, so verify_gb checks
        # nothing; the graph oracle certifies it, since the reversed rule
        # is the marking of another term order
        ideals = list(running_pair)
        g = running_pair_basis[0]
        rules = marked_like(running_pair_basis,
                            [MarkedBinomial(g.trail, g.lead, g.source)]
                            + running_pair_basis[1:])
        report = assert_graphs_match_reference(rules, ideals, (2, 1))
        assert report.verdict == "certified-up-to-bound"
        assert_inconclusive(rules, ideals, (2, 1), unoriented_note(
            running_pair_basis.order, rules[0], ideals))


class TestStandardCountsByState:
    """A term-order run counts its standard monomials by enumerator state
    and hands over to the members at the first group without one per
    multidegree: the same failures, verdict, count and progress calls as a
    run that lists every member."""

    @staticmethod
    def assert_same_run(rules, ideals, budget, x_degree=None, graphs=True):
        """The counted run against the graph oracle (graph_run), or with
        graphs False, where that takes seconds a run (the pair at 3,3),
        against the same term-order run handed over to the members at its
        first group."""
        runs = []
        for run in ("counted", "graphs" if graphs else "handed over"):
            calls = []
            if run == "graphs":
                report = graph_run(rules, ideals, budget,
                                   progress=calls.append, x_degree=x_degree)
            else:
                with (mock.patch.object(verifier, "_fiber_groups",
                                        _handed_over_at_once)
                      if run == "handed over" else contextlib.nullcontext()):
                    report = verify_gb(rules, ideals, budget,
                                       progress=calls.append,
                                       x_degree=x_degree)
                assert report.notes[0].startswith("standard monomials")
            runs.append((report, calls))
        (counted, counted_calls), (listed, listed_calls) = runs
        assert counted.failures == listed.failures
        assert counted.verdict == listed.verdict
        assert counted.multidegrees_checked == listed.multidegrees_checked
        assert counted_calls == listed_calls
        return counted, counted_calls

    @pytest.mark.parametrize("budget", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("k", [1, 8, 20])
    def test_head_and_tail_with_rules_dropped(
        self, running_pair, running_pair_basis, budget, k
    ):
        rules = _drop_rules(running_pair_basis, random.Random(k), k)
        report, _ = self.assert_same_run(rules, list(running_pair), budget,
                                         graphs=budget == (2, 2))
        assert report.verdict == "refuted"

    def test_progress_of_the_pure_pair_at_3_3(
        self, running_pair, running_pair_basis
    ):
        report, calls = self.assert_same_run(running_pair_basis,
                                             list(running_pair), (3, 3),
                                             graphs=False)
        assert report.verdict == "certified-up-to-bound"
        assert report.multidegrees_checked == 13900
        assert calls == [2000 * i for i in range(1, 7)]

    def test_progress_of_the_fiber_type_pair_at_2_2(self, running_pair):
        pair = list(running_pair)
        rules = build_fiber_type_basis(pair, quadratic_basis_for(pair))
        report, calls = self.assert_same_run(rules, pair, (2, 2))
        assert report.verdict == "certified-up-to-bound"
        assert report.multidegrees_checked == 22206
        assert calls == [2000 * i for i in range(1, 12)]

    @pytest.mark.parametrize("name, failures", [
        ("intact", 0),
        ("no-first-syzygy", 29),
        ("no-first-lifted-rule", 6),
        ("syzygies-alone", 141),
        ("pair-no-first-syzygy", 91),
    ])
    def test_fiber_type_deletions(self, name, failures):
        ideals, rules, budget, x_degree = _fiber_type_case(name)
        report, _ = self.assert_same_run(rules, ideals, budget, x_degree)
        assert len(report.failures) == failures

    def test_principal_run_of_1200_factors(self):
        principal = [borel_closure([m("x1^2", 2)], 2)]
        report, _ = self.assert_same_run(build_G1(principal[0]), principal,
                                         (1200,))
        assert report.multidegrees_checked == 1201
        assert report.verdict == "inconclusive"

    def test_certified_run_lists_no_member(
        self, running_pair, running_pair_basis
    ):
        # the members are listed only from a failing group on, so a
        # certified run grows no node level
        report, walked = _walked(lambda: verify_gb(
            running_pair_basis, list(running_pair), (3, 3)))
        assert report.verdict == "certified-up-to-bound"
        assert walked["grow"] == 0 and walked["grow_states"] > 0

    @pytest.mark.parametrize("name", ["ht-less-8", "no-first-syzygy"])
    def test_refuted_run_walks_one_expansion(
        self, running_pair, running_pair_basis, name
    ):
        # the count and the listing are two generators of one
        # _fiber_groups call: one _Expansion and one rest cache
        if name == "ht-less-8":
            ideals, budget, x_degree = list(running_pair), (2, 2), None
            rules = _drop_rules(running_pair_basis, random.Random(8), 8)
        else:
            ideals, rules, budget, x_degree = _fiber_type_case(name)
        report, walked = _walked(lambda: verify_gb(rules, ideals, budget,
                                                   x_degree=x_degree))
        assert report.verdict == "refuted"
        assert walked["grow"] > 0 and walked["grow_states"] > 0
        assert walked["expansions"] == walked["rests"] == 1

    def test_oracle_and_scan_grow_no_state_level(
        self, running_pair, running_pair_basis
    ):
        # they read the listed groups alone and never start the counts
        pair = list(running_pair)
        for run in (lambda: kernel_membership(running_pair_basis, pair,
                                              (2, 1)),
                    lambda: detect_obstructions(pair, (2, 1))):
            _, walked = _walked(run)
            assert walked["grow"] > 0 and walked["grow_states"] == 0
            assert walked["expansions"] == 1


def _handed_over_at_once(*args):
    """presentation._fiber_groups with counts that hand over at the first
    group, so verify_gb lists every member."""
    digits, _, groups = presentation._fiber_groups(*args)
    return digits, iter([(None, None, 0, 1)]), groups


def _walked(run):
    """run() with the _Expansion objects built, the rest caches made and
    the node (grow) and state (grow_states) levels grown, counted."""
    expansion = presentation._Expansion
    with mock.patch.object(expansion, "grow", autospec=True,
                           side_effect=expansion.grow) as grow, \
            mock.patch.object(expansion, "grow_states", autospec=True,
                              side_effect=expansion.grow_states) as states, \
            mock.patch.object(presentation, "_Expansion",
                              wraps=expansion) as built, \
            mock.patch.object(presentation, "_RestLists",
                              wraps=presentation._RestLists) as rests:
        result = run()
    return result, {"expansions": built.call_count, "rests": rests.call_count,
                    "grow": grow.call_count, "grow_states": states.call_count}


class TestNegativeBounds:
    """A negative budget entry or x-degree is refused, as the command line
    refuses it, rather than walking nothing and reporting on that."""

    def test_negative_budget_entry(self, running_pair, running_pair_basis):
        pair = list(running_pair)
        for run in (lambda: verify_gb(running_pair_basis, pair, (-1, 2)),
                    lambda: kernel_membership(running_pair_basis, pair,
                                              (-1, 2)),
                    lambda: detect_obstructions(pair, (-1, 4)),
                    lambda: list(rank_fibers(pair, (2, -1)))):
            with pytest.raises(ValueError,
                               match="t budget entries must be >= 0, got -1"):
                run()

    def test_negative_x_degree(self):
        ideals, rules, budget, _ = _fiber_type_case("intact")
        for run in (lambda: verify_gb(rules, ideals, budget, x_degree=-3),
                    lambda: kernel_membership(rules, ideals, budget,
                                              x_degree=-3)):
            with pytest.raises(ValueError,
                               match="x-degree must be >= 0, got -3"):
                run()


def _one_quadric_swap(u, v):
    """Whether v is u with two factors swapped for two others of the same
    ideals and the same generator product."""
    cu, cv = Counter(u.factors), Counter(v.factors)
    out, into = list((cu - cv).elements()), list((cv - cu).elements())
    if len(out) != 2 or len(into) != 2:
        return False
    return (
        sorted(f.ideal_index for f in out) == sorted(f.ideal_index for f in into)
        and out[0].generator * out[1].generator
        == into[0].generator * into[1].generator
    )


def reference_obstructions(ideals, budget):
    """(multidegree, components) of every fiber of total t-degree >= 3 that
    pairwise quadric swaps leave disconnected, from fibers grouped by phi."""
    out = []
    for mu, fiber in brute_force_fibers(ideals, budget).items():
        if sum(mu.t_exps) < 3 or len(fiber) < 2:
            continue
        comp = list(range(len(fiber)))

        def root(i):
            while comp[i] != i:
                i = comp[i]
            return i

        for a, b in itertools.combinations(range(len(fiber)), 2):
            if _one_quadric_swap(fiber[a], fiber[b]):
                comp[root(b)] = root(a)
        groups = {}
        for i in range(len(fiber)):
            groups.setdefault(root(i), []).append(fiber[i])
        if len(groups) > 1:
            out.append((mu, tuple(sorted(
                (tuple(g) for g in groups.values()),
                key=lambda g: fiber.index(g[0]),
            ))))
    return out


class TestDetectObstructions:
    def test_budget_must_reach_total_three(self, quadric_pair_ideal):
        with pytest.raises(ValueError):
            detect_obstructions([quadric_pair_ideal], (2,))

    def test_single_two_quadric_ideals_are_clean(self):
        # exhaustive over shapes c < a <= b < d with d <= 6, t budget 3
        for d in range(2, 7):
            for c, a, b in itertools.product(range(1, d), repeat=3):
                if not (c < a <= b < d):
                    continue
                gens = [
                    Monomial(
                        [int(k + 1 == a) + int(k + 1 == b) for k in range(d)]
                    ),
                    Monomial(
                        [int(k + 1 == c) + int(k + 1 == d) for k in range(d)]
                    ),
                ]
                ideal = borel_closure(gens, d)
                assert detect_obstructions([ideal], (3,)) == [], gens

    def test_two_principal_quadrics_are_clean(self):
        i1 = borel_closure([m("x2*x3", 4)], 4)
        i2 = borel_closure([m("x3*x4", 4)], 4)
        assert detect_obstructions([i1, i2], (2, 1)) == []

    @pytest.mark.parametrize(
        "ideals, budget, witnesses",
        [
            (OBSTRUCTED_TRIPLE, (1, 1, 1), 1),
            (OBSTRUCTED_TRIPLE, (2, 1, 1), 3),
            (EX4_2_PAIR, (2, 1), 1),
            (EX4_2_PAIR, (3, 1), 3),
            (EX4_2_PAIR, (3, 2), 9),
            ([borel_closure([m("x2*x3", 4)], 4),
              borel_closure([m("x3*x4", 4)], 4)], (2, 1), 0),
        ],
        ids=["triple-111", "triple-211", "ex4.2-21", "ex4.2-31", "ex4.2-32",
             "clean-21"],
    )
    def test_witnesses_equal_brute_force_swaps(self, ideals, budget, witnesses):
        got = [(w.multidegree, w.components)
               for w in detect_obstructions(ideals, budget)]
        assert got == reference_obstructions(ideals, budget)
        assert len(got) == witnesses

    def test_witness_component_partition(self):
        i1 = borel_closure([m("x3^2", 5), m("x1*x5", 5)], 5)
        i2 = borel_closure([m("x3^2", 5), m("x2*x4", 5)], 5)
        i3 = borel_closure([m("x2*x4", 5), m("x1*x5", 5)], 5)
        (witness,) = detect_obstructions([i1, i2, i3], (1, 1, 1))
        assert len(witness.components) >= 2

    def test_progress_at_every_multiple_of_2000(self, running_pair):
        # the pair at 5,0 walks 3,430 fibers, lower slices included; at 2,1
        # it walks 572, so no call
        for budget, expected in (((5, 0), [2000]), ((2, 1), [])):
            calls = []
            witnesses = detect_obstructions(list(running_pair), budget,
                                            progress=calls.append)
            assert calls == expected
            assert witnesses == detect_obstructions(list(running_pair),
                                                    budget)


class TestParameterGate:
    def test_reference_classifications(self):
        assert parameter_gate(2, (2, 2), (2, 2)).case == "a"
        assert parameter_gate(3, (2, 2, 2), (2, 2, 2)).verdict == (
            "known-obstructed"
        )
        assert parameter_gate(4, (1, 1, 1, 2), (4, 1, 5, 2)).case == "c"

    def test_case_b(self):
        assert parameter_gate(3, (1, 2, 2), (1, 2, 3)).case == "b"
        assert parameter_gate(3, (1, 2, 2), (1, 2, 4)).verdict == (
            "known-obstructed"
        )

    def test_high_degree_pairs_rejected(self):
        assert parameter_gate(2, (2, 2), (2, 4)).verdict == "known-obstructed"
        assert parameter_gate(2, (2, 2), (4, 4)).verdict == "known-obstructed"

    def test_single_ideal_extension(self):
        assert parameter_gate(1, (2,), (3,)).case == "c"
        assert parameter_gate(1, (3,), (2,)).verdict == "known-obstructed"

    def test_input_order_irrelevant(self):
        rng = random.Random(3)
        for r in (1, 2, 3, 4):
            for _ in range(30):
                g = [rng.randint(1, 3) for _ in range(r)]
                d = [rng.randint(1, 5) for _ in range(r)]
                base = parameter_gate(r, g, d)
                perm = list(range(r))
                rng.shuffle(perm)
                shuffled = parameter_gate(
                    r, [g[i] for i in perm], [d[i] for i in perm]
                )
                assert base == shuffled

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            parameter_gate(2, (1,), (2, 2))

    def test_nonpositive_entries(self):
        with pytest.raises(ValueError):
            parameter_gate(1, (0,), (2,))


class TestKoszulReport:
    def test_certified_pair(self, running_pair):
        report = koszul_report(list(running_pair), (2, 1))
        assert report.verdict == "g-quadratic-certified"
        assert report.exit_code == 0
        assert report.gate.case == "a"

    def test_obstructed_triple(self):
        i1 = borel_closure([m("x3^2", 5), m("x1*x5", 5)], 5)
        i2 = borel_closure([m("x3^2", 5), m("x2*x4", 5)], 5)
        i3 = borel_closure([m("x2*x4", 5), m("x1*x5", 5)], 5)
        report = koszul_report([i1, i2, i3], (1, 1, 1))
        assert report.verdict == "obstructed"
        assert report.exit_code == 2
        assert report.gate.verdict == "known-obstructed"

    def test_single_principal_certified(self):
        report = koszul_report([borel_closure([m("x2*x3", 3)], 3)], (3,))
        assert report.verdict == "g-quadratic-certified"
        assert report.gate.case == "c"

    def test_inconclusive_without_basis(self):
        ideals = [
            borel_closure([m("x2*x3", 4)], 4),
            borel_closure([m("x2^2", 4)], 4),
            borel_closure([m("x1*x4", 4)], 4),
        ]
        report = koszul_report(ideals, (1, 1, 1))
        assert report.verdict == "inconclusive"
        assert report.exit_code == 3

    def test_budget_checked_with_no_basis_and_no_scan(self):
        # two generator degrees have no constructive basis, and a budget
        # below total 3 skips the scan: such a budget used to be reported
        # "inconclusive" unchecked
        ideals = [borel_closure([m("x1*x2", 3)], 3),
                  borel_closure([m("x1^3", 3)], 3)]
        assert quadratic_basis_for(ideals) is None
        with pytest.raises(ValueError,
                           match="t budget entries must be >= 0, got -1"):
            koszul_report(ideals, (-1, 2))
        with pytest.raises(ValueError, match="t budget needs 2 entries, got 1"):
            koszul_report(ideals, (1,))

    def test_gate_never_contradicts_obstructions(self):
        # collections refuted by witnesses must not be gate-approved, over
        # the bundled obstruction families
        i1 = borel_closure([m("x3^2", 5), m("x1*x5", 5)], 5)
        i2 = borel_closure([m("x3^2", 5), m("x2*x4", 5)], 5)
        i3 = borel_closure([m("x2*x4", 5), m("x1*x5", 5)], 5)
        report = koszul_report([i1, i2, i3], (1, 1, 1))
        assert report.gate.verdict == "known-obstructed"
        deg4_1 = borel_closure([m("x1^2*x3^2", 3), m("x1*x2^2*x3", 3)], 3)
        deg4_2 = borel_closure([m("x1^2*x3^2", 3), m("x2^4", 3)], 3)
        report = koszul_report([deg4_1, deg4_2], (2, 1))
        assert report.verdict == "obstructed"
        assert report.gate.verdict == "known-obstructed"


def _scan_first(report, ideals, t_budget):
    """The JSON of a koszul_report on these ideals and budget when the
    obstruction scan runs first and the basis is checked only when the
    scan finds nothing; the ideals and the gate are the report's."""
    witnesses = detect_obstructions(ideals, t_budget)
    rules = quadratic_basis_for(ideals)
    gb_report, notes = None, []
    verdict = "obstructed" if witnesses else "inconclusive"
    if not witnesses and rules is None:
        notes.append("no constructive quadratic basis for this collection")
    elif not witnesses:
        gb_report = verify_gb(rules, ideals, t_budget)
        if gb_report.verdict == "certified-up-to-bound":
            verdict = "g-quadratic-certified"
        elif gb_report.verdict == "refuted":
            notes.append("constructed basis failed certification")
    return KoszulReport(report.ideals, report.t_budget, report.gate,
                        witnesses, gb_report, verdict, notes).to_json_dict()


EX4_1_TRIPLE = [["x3^2", "x1*x5"], ["x3^2", "x2*x4"], ["x2*x4", "x1*x5"]]


class TestKoszulReportCertifiesFirst:
    """koszul_report checks the basis before the obstruction scan, which
    runs only when the basis does not certify: a certified fiber is
    connected under quadric moves, so the scan could find no witness."""

    def test_equals_the_scan_first_report(self, running_pair):
        pair = list(running_pair)
        cases = [(pair, (2, 1)), (pair, (3, 1)),
                 ([borel_closure([m(u, 5) for u in gens], 5)
                   for gens in EX4_1_TRIPLE], (1, 1, 1))]
        shapes = [s for s in ALL_SHAPES if s[3] <= 5]
        cases += [([_two_quadric(*s1, 5), _two_quadric(*s2, 5)], (2, 1))
                  for s1 in shapes for s2 in shapes]
        assert len(cases) == 3 + 15 * 15
        verdicts = Counter()
        for ideals, budget in cases:
            report = koszul_report(ideals, budget)
            assert report.to_json_dict() == _scan_first(report, ideals,
                                                        budget)
            verdicts[report.verdict] += 1
        assert verdicts == {"g-quadratic-certified": 227, "obstructed": 1}

    def test_no_scan_when_the_basis_certifies(self, running_pair):
        triple = [borel_closure([m(u, 5) for u in gens], 5)
                  for gens in EX4_1_TRIPLE]
        with mock.patch.object(verifier, "detect_obstructions",
                               wraps=detect_obstructions) as scan:
            certified = koszul_report(list(running_pair), (3, 1))
            assert scan.call_count == 0
            obstructed = koszul_report(triple, (1, 1, 1))
            assert scan.call_count == 1
        assert certified.verdict == "g-quadratic-certified"
        assert obstructed.verdict == "obstructed"
        assert obstructed.gb_report is None

    def test_the_scan_reports_progress(self):
        # the triple has no constructive basis, so the scan is the whole
        # run: its progress is the detect-cubics scan's, count for count
        counted = []
        report = koszul_report(OBSTRUCTED_TRIPLE, (2, 2, 2),
                               progress=counted.append)
        assert report.verdict == "obstructed" and report.gb_report is None
        scanned = []
        detect_obstructions(OBSTRUCTED_TRIPLE, (2, 2, 2),
                            progress=scanned.append)
        assert counted == scanned == [2000, 4000]


class TestSoundnessCoupling:
    def test_certified_implies_confluent_normal_forms(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        budget = (3,)
        report = verify_gb(quadric_pair_G1, [quadric_pair_ideal], budget)
        assert report.verdict == "certified-up-to-bound"
        pairs = toric_kernel_span([quadric_pair_ideal], budget)
        checked, failures = check_membership(pairs, quadric_pair_G1)
        assert checked == len(pairs) and not failures

    def test_quadratic_basis_resolution(self, running_pair, quadric_pair_ideal):
        assert quadratic_basis_for(list(running_pair))
        assert quadratic_basis_for([quadric_pair_ideal])
        three = [
            borel_closure([m("x2*x3", 4)], 4),
            borel_closure([m("x2^2", 4)], 4),
            borel_closure([m("x1*x4", 4)], 4),
        ]
        assert quadratic_basis_for(three) is None
