import inspect
import itertools
import pickle
import random
from collections.abc import Sequence
from unittest import mock

import pytest

import borel_rees
from borel_rees import orders, presentation, reduction

from borel_rees.borel import TwoQuadricView, borel_closure, order_view
from borel_rees.monomial import (
    Monomial,
    all_one_step_reductions,
    parse_monomial,
    rlex_sort_key,
)
from borel_rees.orders import (
    PresOrder,
    build_G1,
    build_G2,
    build_G3,
    build_head_and_tail_basis,
    build_fiber_type_basis,
    build_syzygy_set,
    dump_basis,
    marking_order,
)
from borel_rees.presentation import (
    Alphabet,
    MixedMonomial,
    PresMonomial,
    PresVar,
    content,
    phi,
)
from borel_rees.reduction import MarkedBinomial, RankRules, rank_rules
from reference import (
    _pair_violations,
    compare_presmonomials,
    sink_violations_ht,
    sink_violations_mrlex,
    sink_violations_rlex,
)


def m(text, n):
    return parse_monomial(text, n)


def pres(n, *specs):
    return PresMonomial([PresVar(i, m(t, n)) for i, t in specs])


RLEX_CHAIN = ["x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2",
              "x1*x4", "x2*x4", "x1*x5", "x2*x5"]
MRLEX_CHAIN = ["x1*x4", "x2*x4", "x1*x5", "x2*x5",
               "x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2"]


class TestVariableOrders:
    def test_rlex_chain(self, quadric_pair_ideal):
        order = PresOrder.rlex(quadric_pair_ideal)
        assert [str(p.generator) for p in order.ranked] == RLEX_CHAIN

    def test_mrlex_chain(self, quadric_pair_ideal):
        order = PresOrder.mrlex(order_view(quadric_pair_ideal))
        assert [str(p.generator) for p in order.ranked] == MRLEX_CHAIN

    def test_head_and_tail_blocks(self, running_pair):
        i1, i2 = running_pair
        order = PresOrder.head_and_tail(order_view(i1), order_view(i2))
        # a lower rank is a larger variable: the first block lies above
        # the second, rlex within the first and mrlex within the second
        for larger, smaller in [
            (PresVar(1, m("x2*x6", 6)), PresVar(2, m("x1*x4", 6))),
            (PresVar(1, m("x1^2", 6)), PresVar(1, m("x4*x5", 6))),
            (PresVar(2, m("x3*x6", 6)), PresVar(2, m("x1^2", 6))),
        ]:
            assert order.rank[larger] < order.rank[smaller]


class TestMonomialComparison:
    def test_trail_with_smaller_last_factor_loses(self, quadric_pair_ideal):
        order = PresOrder.rlex(quadric_pair_ideal)
        A = pres(5, (1, "x2*x3"), (1, "x1*x4"))
        B = pres(5, (1, "x1*x3"), (1, "x2*x4"))
        assert compare_presmonomials(order, A, B) == 1
        assert compare_presmonomials(order, B, A) == -1

    def test_equal(self, quadric_pair_ideal):
        order = PresOrder.rlex(quadric_pair_ideal)
        A = pres(5, (1, "x2*x3"), (1, "x1*x4"))
        assert compare_presmonomials(order, A, A) == 0

    def test_head_and_tail_cross_comparison(self, running_pair):
        i1, i2 = running_pair
        order = PresOrder.head_and_tail(order_view(i1), order_view(i2))
        lead = pres(6, (1, "x4^2"), (2, "x3*x5"))
        trail = pres(6, (1, "x3*x5"), (2, "x4^2"))
        assert compare_presmonomials(order, lead, trail) == 1

    def test_graded_before_revlex(self, quadric_pair_ideal):
        order = PresOrder.rlex(quadric_pair_ideal)
        assert compare_presmonomials(
            order, pres(5, (1, "x3^2"), (1, "x3^2")), pres(5, (1, "x1^2"))
        ) == 1


def _global_min_avoided(rule, key):
    """Independent marking oracle: the lead is the factorization avoiding the
    overall smallest factor."""
    factors = list(rule.lead.factors) + list(rule.trail.factors)
    smallest = max(factors, key=key)  # largest sort key = smallest in order
    return smallest in rule.trail.factors and smallest not in rule.lead.factors


class TestG1:
    def test_single_variable_principal_is_empty(self):
        assert build_G1(borel_closure([m("x1^2", 1)], 1)) == []

    def test_three_generator_square(self):
        rules = build_G1(borel_closure([m("x2^2", 3)], 3))
        assert [r.label(r=1) for r in rules] == ["T12^2 -> T11*T22"]

    def test_contains_reference_binomial(self, quadric_pair_G1):
        labels = {r.label(r=1) for r in quadric_pair_G1}
        assert "T23*T14 -> T13*T24" in labels

    def test_marking_matches_smallest_factor_oracle(self, quadric_pair_G1):
        for rule in quadric_pair_G1:
            assert _global_min_avoided(
                rule, lambda f: rlex_sort_key(f.generator)
            ), rule.label(r=1)

    def test_all_products_coincide(self, quadric_pair_ideal, quadric_pair_G1):
        for rule in quadric_pair_G1:
            assert content(rule.lead, 5) == content(rule.trail, 5)
            assert rule.lead != rule.trail

    def test_lead_exceeds_trail_in_induced_order(
        self, quadric_pair_ideal, quadric_pair_G1
    ):
        order = PresOrder.rlex(quadric_pair_ideal)
        for rule in quadric_pair_G1:
            assert compare_presmonomials(order, rule.lead, rule.trail) == 1

    def test_exhaustive_over_products(self, quadric_pair_ideal):
        # every unordered pair of distinct two-factor factorizations appears
        gens = quadric_pair_ideal.minimal_generators
        by_product = {}
        for a, b in itertools.combinations_with_replacement(gens, 2):
            by_product.setdefault((a * b).exps, []).append((a, b))
        expected = sum(
            len(v) * (len(v) - 1) // 2 for v in by_product.values()
        )
        assert len(build_G1(quadric_pair_ideal)) == expected == 13


class TestG2:
    def test_single_generator_degenerate_case(self):
        assert build_G2(order_view(borel_closure([m("x1^2", 1)], 1))) == []

    def test_principal_ideal_G2_equals_G1(self):
        ideal = borel_closure([m("x2*x3", 4)], 4)
        g1 = build_G1(ideal)
        g2 = build_G2(order_view(ideal))
        assert {(r.lead, r.trail) for r in g1} == {
            (r.lead, r.trail) for r in g2
        }

    def test_mrlex_marking(self, running_pair):
        _, i2 = running_pair
        view = order_view(i2)
        rules = build_G2(view, 2)
        order = PresOrder.mrlex(view, 2)
        for rule in rules:
            assert compare_presmonomials(order, rule.lead, rule.trail) == 1

    def test_coincident_products_respect_generator_set(self, running_pair):
        # x3*x4^2*x5 factors twice over the first ideal's generators but only
        # once over the second's (x4*x5 is not a generator there), so the
        # binomial lives in G1 of the first ideal and nowhere in G2 of the
        # second
        i1, i2 = running_pair
        target = m("x3*x4^2*x5", 6)
        g1_hits = [
            r for r in build_G1(i1) if content(r.lead, 6) == target
        ]
        assert [r.label(r=1) for r in g1_hits] == ["T44*T35 -> T34*T45"]
        g2_hits = [
            r
            for r in build_G2(order_view(i2), 2)
            if content(r.lead, 6) == target
        ]
        assert g2_hits == []

    def test_region_crossing_pairs_marked_by_block(self, quadric_pair_ideal):
        view = order_view(quadric_pair_ideal)
        rules = build_G2(view)
        # product x1*x2*x3*x4 factors as {x2x3, x1x4} and {x1x3, x2x4}; under
        # the mixed order the B_N factors dominate, so the pair whose smallest
        # factor lies in B_M leads
        match = [
            r for r in rules
            if content(r.lead, 5) == m("x1*x2*x3*x4", 5)
        ]
        assert len(match) == 1
        assert match[0].label(r=1) == "T13*T24 -> T23*T14"


class TestG3:
    def test_reference_rules(self, running_pair):
        i1, i2 = running_pair
        rules = build_G3(order_view(i1), order_view(i2))
        labels = {r.label(r=2) for r in rules}
        assert "T44*Z35 -> T35*Z44" in labels
        assert "T26*Z35 -> T25*Z36" in labels

    def test_no_coincident_cross_products_gives_empty_set(self):
        # with a single first-ideal generator every cross product has one
        # factorization, so no binomials arise
        i1 = borel_closure([m("x1^2", 4)], 4)
        i2 = borel_closure([m("x2^2", 4)], 4)
        assert build_G3(order_view(i1), order_view(i2)) == []

    def test_swap_rules_when_generators_shared(self, running_pair):
        i1, i2 = running_pair
        rules = build_G3(order_view(i1), order_view(i2))
        labels = {r.label(r=2) for r in rules}
        assert "T34*Z26 -> T26*Z34" in labels

    def test_marking_is_second_ideal_mrlex(self, running_pair):
        i1, i2 = running_pair
        view2 = order_view(i2)
        order2 = PresOrder.mrlex(view2, 2)
        for rule in build_G3(order_view(i1), view2):
            v_lead = [f for f in rule.lead.factors if f.ideal_index == 2][0]
            v_trail = [f for f in rule.trail.factors if f.ideal_index == 2][0]
            assert order2.rank[v_lead] < order2.rank[v_trail]


class TestSyzygies:
    def test_reference_syzygy(self):
        ideal = borel_closure([m("x3^2", 3)], 3)
        labels = {r.label() for r in build_syzygy_set([ideal])}
        assert "x1*T23 -> x2*T13" in labels

    def test_single_variable_principal_empty(self):
        assert build_syzygy_set([borel_closure([m("x1^3", 1)], 1)]) == []

    def test_count_matches_reduction_arrows(self, quadric_pair_ideal):
        syz = build_syzygy_set([quadric_pair_ideal])
        assert len(syz) == 25

    def test_lead_image_equals_trail_image(self, quadric_pair_ideal):
        for rule in build_syzygy_set([quadric_pair_ideal]):
            assert phi(rule.lead, [quadric_pair_ideal]) == phi(
                rule.trail, [quadric_pair_ideal]
            )

    def test_lead_variable_is_earlier(self, quadric_pair_ideal):
        for rule in build_syzygy_set([quadric_pair_ideal]):
            i = rule.lead.x_part.support()[0]
            j = rule.trail.x_part.support()[0]
            assert i < j


class TestFiberTypeBasis:
    def test_disjoint_union_size(self, quadric_pair_ideal, quadric_pair_G1):
        combined = build_fiber_type_basis(
            [quadric_pair_ideal], quadric_pair_G1
        )
        assert len(combined) == 25 + len(quadric_pair_G1)

    def test_empty_fiber_gb(self):
        # no syzygy and no fiber rule, yet the table's leads are mixed
        for n in (1, 2):
            ideal = borel_closure([m("x1^2", n)], n)
            basis = build_fiber_type_basis([ideal], [])
            assert basis == [] and isinstance(basis, RankRules)
            assert basis.kinds == {MixedMonomial}

    def test_running_pair_union(self, running_pair, running_pair_basis):
        combined = build_fiber_type_basis(
            list(running_pair), running_pair_basis
        )
        sources = {r.source for r in combined}
        assert sources == {"SYZ", "G1", "G2", "G3"}


class TestMarkingOrder:
    def test_library_bases_find_their_order(
        self, quadric_pair_ideal, running_pair, running_pair_basis
    ):
        view = order_view(quadric_pair_ideal)
        ideals = [quadric_pair_ideal]
        assert marking_order(build_G1(quadric_pair_ideal), ideals).kind == "rlex"
        assert marking_order(build_G2(view), ideals).kind == "mrlex"
        assert marking_order(running_pair_basis, running_pair).kind == "ht"
        # fiber-type bases: the block order, x-parts first, then the order
        # of the fiber basis
        for fiber_gb, kind in ((build_G1(quadric_pair_ideal), "rlex"),
                               (build_G2(view), "mrlex")):
            rules = build_fiber_type_basis(ideals, fiber_gb)
            assert marking_order(rules, ideals).kind == kind
        pair = list(running_pair)
        rules = build_fiber_type_basis(pair, running_pair_basis)
        assert marking_order(rules, pair).kind == "ht"
        assert marking_order(build_syzygy_set(pair), pair).kind == "ht"

    def test_reversed_rule_has_no_order(self, quadric_pair_ideal):
        rules = list(build_G1(quadric_pair_ideal))
        g = rules[0]
        rules[0] = MarkedBinomial(g.trail, g.lead, g.source)
        assert marking_order(rules, [quadric_pair_ideal]) is None

    def test_unequal_images_have_no_order(self, quadric_pair_ideal):
        rules = list(build_G1(quadric_pair_ideal))
        g = rules[0]
        order = PresOrder.rlex(quadric_pair_ideal)
        lower = next(h.trail for h in rules
                     if phi(h.trail, [quadric_pair_ideal])
                     != phi(g.lead, [quadric_pair_ideal])
                     and compare_presmonomials(order, g.lead, h.trail) > 0)
        rules[0] = MarkedBinomial(g.lead, lower, g.source)
        assert marking_order(rules, [quadric_pair_ideal]) is None

    def test_mixed_leads_have_no_order(self, quadric_pair_ideal):
        # a syzygy reversed, a syzygy with unequal images, and an x-part of
        # degree 2: no block order takes them, though the last one's x-parts
        # would orient it
        ideals = [quadric_pair_ideal]
        rules = build_fiber_type_basis(ideals, build_G1(quadric_pair_ideal))
        assert marking_order(rules, ideals).kind == "rlex"
        g = rules[0]
        assert g.source == "SYZ"
        other = next(h.trail.t_part for h in rules[1:] if h.source == "SYZ"
                     and h.trail.t_part != g.trail.t_part)
        x3 = Monomial.variable(3, 5)
        mutations = [
            MarkedBinomial(g.trail, g.lead, "SYZ"),
            MarkedBinomial(g.lead, MixedMonomial(g.trail.x_part, other),
                           "SYZ"),
            MarkedBinomial(MixedMonomial(g.lead.x_part * x3, g.lead.t_part),
                           MixedMonomial(g.trail.x_part * x3, g.trail.t_part),
                           "SYZ"),
        ]
        assert phi(mutations[1].lead, ideals) != phi(mutations[1].trail,
                                                     ideals)
        assert phi(mutations[2].lead, ideals) == phi(mutations[2].trail,
                                                     ideals)
        for rule in mutations:
            for mutated in ([rule] + rules[1:], list(rules) + [rule]):
                assert marking_order(mutated, ideals) is None, rule

    def test_variables_outside_the_collection_have_no_order(
        self, quadric_pair_ideal, running_pair_basis
    ):
        assert marking_order(running_pair_basis, [quadric_pair_ideal]) is None


def reference_compare(order, A, B):
    """Graded revlex on exponent vectors over the order's ranking: degrees
    first, then the last (smallest) variable whose exponents differ, the side
    with fewer of it being larger."""
    if A.degree != B.degree:
        return 1 if A.degree > B.degree else -1

    def exponents(M):
        exps = [0] * len(order.ranked)
        for f in M.factors:
            exps[order.rank[f]] += 1
        return exps

    for x, y in zip(reversed(exponents(A)), reversed(exponents(B))):
        if x != y:
            return 1 if x < y else -1
    return 0


def reference_orients(order, g, ideals):
    """A quadratic presentation lead above its trail, with equal phi images.
    A mixed rule is a syzygy x_i*T_u -> x_j*T_u' with equal images and
    x_i > x_j, or has x-part 1 on both sides and is checked on its t-parts:
    the block order that compares x-parts first, then by order."""
    lead, trail = g.lead, g.trail
    if isinstance(lead, MixedMonomial):
        if phi(lead, ideals) != phi(trail, ideals):
            return False
        if (lead.x_part.degree == trail.x_part.degree == 1
                and lead.t_part.degree == trail.t_part.degree == 1):
            if not all(f in order.ranked for f in lead.t_part.factors
                       + trail.t_part.factors):
                return False
            return lead.x_part.support() < trail.x_part.support()
        if lead.x_part.degree or trail.x_part.degree:
            return False
        lead, trail = lead.t_part, trail.t_part
    if not (isinstance(lead, PresMonomial) and lead.degree == 2):
        return False
    try:
        if reference_compare(order, lead, trail) <= 0:
            return False
    except KeyError:  # a factor outside the order's variables
        return False
    return phi(lead, ideals) == phi(trail, ideals)


def _library_orders(ideals):
    if len(ideals) == 1:
        return [PresOrder.rlex(ideals[0]), PresOrder.mrlex(order_view(ideals[0]))]
    return [PresOrder.head_and_tail(order_view(ideals[0]), order_view(ideals[1]))]


class TestRankComparison:
    """compare_presmonomials on sorted rank lists against exponent vectors."""

    @pytest.mark.parametrize("kind", ["rlex", "mrlex", "ht"])
    def test_matches_exponent_vector_revlex(
        self, kind, quadric_pair_ideal, running_pair
    ):
        ideals = [quadric_pair_ideal] if kind != "ht" else list(running_pair)
        order = next(o for o in _library_orders(ideals) if o.kind == kind)
        rng = random.Random(kind)
        monomials = [
            PresMonomial(rng.choices(order.ranked, k=rng.randint(1, 4)))
            for _ in range(120)
        ]
        monomials += monomials[:10]  # equal monomials, built apart
        for A in monomials:
            for B in monomials:
                assert compare_presmonomials(order, A, B) == reference_compare(
                    order, A, B
                ), (A, B)

    @pytest.mark.parametrize("kind", ["rlex", "mrlex", "ht"])
    def test_foreign_variable_raises(self, kind, quadric_pair_ideal, running_pair):
        ideals = [quadric_pair_ideal] if kind != "ht" else list(running_pair)
        order = next(o for o in _library_orders(ideals) if o.kind == kind)
        inside = order.ranked[0]
        foreign = PresVar(3, inside.generator)
        A = PresMonomial([inside, foreign])
        B = PresMonomial([inside, inside])
        for left, right in ((A, B), (B, A), (A, A)):
            with pytest.raises(KeyError):
                compare_presmonomials(order, left, right)


class TestMarkingOrderDifferential:
    """marking_order against the object-level orients on mutated bases."""

    @staticmethod
    def reference_marking_order(rules, ideals):
        for order in _library_orders(ideals):
            if all(reference_orients(order, g, ideals) for g in rules):
                return order.kind
        return None

    @staticmethod
    def found(rules, ideals):
        order = marking_order(rules, ideals)
        return order.kind if order is not None else None

    def test_each_rule_reversed_in_turn(self, running_pair, running_pair_basis):
        ideals = list(running_pair)
        (order,) = _library_orders(ideals)
        assert self.found(running_pair_basis, ideals) == "ht"
        assert all(reference_orients(order, g, ideals) for g in running_pair_basis)
        for k, g in enumerate(running_pair_basis):
            flipped = MarkedBinomial(g.trail, g.lead, g.source)
            assert not reference_orients(order, flipped, ideals)
            rules = list(running_pair_basis)
            rules[k] = flipped
            assert self.found(rules, ideals) is None, g.label(2)

    def test_mutated_rules(self, running_pair, running_pair_basis):
        ideals = list(running_pair)
        (order,) = _library_orders(ideals)
        i1, i2 = running_pair
        basis = running_pair_basis
        g1 = next(g for g in basis if g.source == "G1")
        g3 = next(g for g in basis if g.source == "G3")
        mutations = {}
        # a lower trail of the same t-vector with another content
        k = basis.index(g3)
        mutations["content"] = (k, MarkedBinomial(g3.lead, next(
            h.trail for h in basis if h.source == "G3"
            and phi(h.trail, ideals) != phi(g3.lead, ideals)
            and reference_compare(order, g3.lead, h.trail) > 0), "G3"))
        # the same generators in the second ideal: equal content, other t
        shared = next(
            g for g in basis if g.source == "G1" and all(
                f.generator in i2.minimal_generators for f in g.lead.factors))
        twin = PresMonomial([PresVar(2, f.generator) for f in shared.lead.factors])
        mutations["t-vector"] = (basis.index(shared),
                                 MarkedBinomial(shared.lead, twin, "G1"))
        # a cubic lead, and one lead lifted to x-part 1, which the block
        # order orients as the quadric it lifts
        extra = g1.lead.factors[0]
        mutations["cubic"] = (0, MarkedBinomial(
            PresMonomial(g1.lead.factors + (extra,)),
            PresMonomial(g1.trail.factors + (extra,)), "G1"))
        one = Monomial.one(6)
        mutations["mixed"] = (0, MarkedBinomial(
            MixedMonomial(one, g1.lead), MixedMonomial(one, g1.trail), "G1"))
        # a factor from a third ideal, in the trail and in the lead
        stray = PresVar(3, extra.generator)
        mutations["foreign trail"] = (len(basis) - 1, MarkedBinomial(
            g1.lead, PresMonomial([g1.trail.factors[0], stray]), "G1"))
        mutations["foreign lead"] = (len(basis) - 1, MarkedBinomial(
            PresMonomial([g1.lead.factors[0], stray]), g1.trail, "G1"))
        # a linear rule T_u -> T_v, and a rule listed twice (inserting a
        # rule in its own place), which the order still orients
        mutations["linear"] = (1, MarkedBinomial(
            PresMonomial(g1.lead.factors[:1]),
            PresMonomial(g1.trail.factors[:1]), "G1"))
        mutations["twice"] = (basis.index(g3), g3)
        assert reference_compare(order, shared.lead, twin) > 0
        for name, (k, rule) in mutations.items():
            for rules in (basis[:k] + [rule] + basis[k + 1:],
                          basis[:k] + [rule] + basis[k:]):
                expected = self.reference_marking_order(rules, ideals)
                assert expected == (
                    "ht" if name in ("mixed", "twice") else None), name
                assert self.found(rules, ideals) == expected, name
        # no rule at all: the first candidate orients it vacuously
        assert self.reference_marking_order([], ideals) == "ht"
        assert self.found([], ideals) == "ht"
        assert self.found([], [i1]) == "rlex"

    def test_syzygies_outside_the_context(self, running_pair):
        # syzygies orient under the block order alone, but their factors
        # must lie among the ideals' variables
        i1, i2 = running_pair
        syzygies = build_syzygy_set([i1])
        assert self.found(syzygies, [i1]) == self.reference_marking_order(
            syzygies, [i1]) == "rlex"
        assert not all(g.lead.t_part.factors[0].generator in i2
                       for g in syzygies)
        assert self.reference_marking_order(syzygies, [i2]) is None
        assert self.found(syzygies, [i2]) is None

    def test_mutated_syzygies(self, running_pair, running_pair_basis):
        # the atom check of a syzygy row: a trail variable that is the same
        # generator in the other ideal (equal x-parts, another t-vector),
        # and a lead x_i*T_u with a quadric trail (x-part 1)
        ideals = list(running_pair)
        i1, i2 = running_pair
        basis = list(build_fiber_type_basis(ideals, running_pair_basis))
        assert self.found(basis, ideals) == self.reference_marking_order(
            basis, ideals) == "ht"
        syzygy = next(
            g for g in basis if g.source == "SYZ"
            and g.lead.t_part.factors[0].ideal_index == 1
            and g.trail.t_part.factors[0].generator in i2.minimal_generators)
        twin = PresMonomial([PresVar(2, syzygy.trail.t_part.factors[0].generator)])
        quadric = next(g for g in basis if g.source == "G1").trail
        assert quadric.x_part.degree == 0
        mutations = {
            "other ideal": MarkedBinomial(
                syzygy.lead, MixedMonomial(syzygy.trail.x_part, twin), "SYZ"),
            "quadric trail": MarkedBinomial(syzygy.lead, quadric, "SYZ"),
        }
        k = basis.index(syzygy)
        for name, rule in mutations.items():
            for rules in (basis[:k] + [rule] + basis[k + 1:],
                          basis[:k] + [rule] + basis[k:]):
                assert self.reference_marking_order(rules, ideals) is None, name
                assert self.found(rules, ideals) is None, name

    def test_fiber_type_rules_reversed_in_turn(self, quadric_pair_ideal):
        # the block order against its reference on every rule of the
        # fiber-type bases over G1 and G2, and on each one reversed
        ideals = [quadric_pair_ideal]
        view = order_view(quadric_pair_ideal)
        for fiber_gb in (build_G1(quadric_pair_ideal), build_G2(view)):
            rules = build_fiber_type_basis(ideals, fiber_gb)
            assert self.found(rules, ideals) == self.reference_marking_order(
                rules, ideals) is not None
            for k, g in enumerate(rules):
                flipped = rules[:k] + [MarkedBinomial(g.trail, g.lead)] + rules[k + 1:]
                assert self.found(flipped, ideals) == \
                    self.reference_marking_order(flipped, ideals), g.label()

    def test_single_ideal_candidates(self, quadric_pair_ideal):
        ideals = [quadric_pair_ideal]
        view = order_view(quadric_pair_ideal)
        rng = random.Random(3)
        for rules in (build_G1(quadric_pair_ideal), build_G2(view)):
            assert self.found(rules, ideals) == self.reference_marking_order(
                rules, ideals) is not None
            for k in rng.sample(range(len(rules)), 5):
                g = rules[k]
                flipped = rules[:k] + [MarkedBinomial(g.trail, g.lead)] + rules[k + 1:]
                assert self.found(flipped, ideals) == \
                    self.reference_marking_order(flipped, ideals)


def reference_coincident_product_binomials(left, right, order, source,
                                           cross_only):
    """The object-level construction: pairs deduplicated by their sorted
    PresVar keys, grouped by generator product, each pair of factorizations
    marked by compare_presmonomials, sorted stably by the lead's keys."""
    by_product = {}
    seen = set()
    for p in left:
        for q in right:
            if cross_only and p.ideal_index == q.ideal_index:
                continue
            key = tuple(sorted(f.key for f in (p, q)))
            if key in seen:
                continue
            seen.add(key)
            prod = tuple(a + b for a, b in
                         zip(p.generator.exps, q.generator.exps))
            by_product.setdefault(prod, []).append((p, q))
    out = []
    for prod in sorted(by_product):
        factorizations = [PresMonomial(pair) for pair in by_product[prod]]
        for A, B in itertools.combinations(factorizations, 2):
            cmp = compare_presmonomials(order, A, B)
            lead, trail = (A, B) if cmp > 0 else (B, A)
            out.append(MarkedBinomial(lead, trail, source))
    out.sort(key=lambda g: tuple(f.key for f in g.lead.factors))
    return out


def reference_G1(ideal, k=1):
    vars_ = [PresVar(k, g) for g in ideal.minimal_generators]
    return reference_coincident_product_binomials(
        vars_, vars_, PresOrder.rlex(ideal, k), "G1", False)


def reference_G2(view, k=1):
    vars_ = [PresVar(k, g) for g in view.ideal.minimal_generators]
    return reference_coincident_product_binomials(
        vars_, vars_, PresOrder.mrlex(view, k), "G2", False)


def reference_G3(view1, view2):
    return reference_coincident_product_binomials(
        [PresVar(1, g) for g in view1.ideal.minimal_generators],
        [PresVar(2, g) for g in view2.ideal.minimal_generators],
        PresOrder.head_and_tail(view1, view2), "G3", True)


class TestCoincidentProductsOnRanks:
    """The coincident-product binomials built on ints against the
    object-level reference: the same rules in the same order."""

    @staticmethod
    def assert_same(got, expected, r):
        assert got, "an empty collection proves nothing"
        assert [(g.lead, g.trail, g.source) for g in got] == [
            (g.lead, g.trail, g.source) for g in expected]
        assert dump_basis(got, r) == dump_basis(expected, r)

    @pytest.mark.parametrize("gens, n", [
        (["x3^2", "x2*x5"], 5), (["x4*x5", "x2*x6"], 6), (["x2*x4"], 4),
    ], ids=["B(x3^2,x2x5)", "B(x4x5,x2x6)", "B(x2x4)"])
    def test_G1_and_G2_of_quadric_ideals(self, gens, n):
        ideal = borel_closure([m(g, n) for g in gens], n)
        view = order_view(ideal)
        for k in (1, 2):
            self.assert_same(build_G1(ideal, k), reference_G1(ideal, k), 2)
            self.assert_same(build_G2(view, k), reference_G2(view, k), 2)

    def test_G1_of_a_cubic_ideal(self):
        ideal = borel_closure([m("x2*x3^2", 4), m("x1*x4^2", 4)], 4)
        self.assert_same(build_G1(ideal), reference_G1(ideal), 1)

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["pair", "reversed pair"])
    def test_G3_and_head_and_tail(self, running_pair, reverse):
        i1, i2 = running_pair[::-1] if reverse else running_pair
        view1, view2 = order_view(i1), order_view(i2)
        self.assert_same(build_G3(view1, view2), reference_G3(view1, view2), 2)
        self.assert_same(
            build_head_and_tail_basis(view1, view2),
            reference_G1(i1, 1) + reference_G2(view2, 2)
            + reference_G3(view1, view2),
            2,
        )


def _shape_ideal(c, a, b, d):
    """B(x_c*x_d, x_a*x_b) at n = d."""
    gens = [[int(i in (c, d)) + int(i == c == d) for i in range(1, d + 1)],
            [int(i == a) + int(i == b) for i in range(1, d + 1)]]
    return borel_closure([Monomial(g) for g in gens], d)


SHAPES = [(c, a, b, d) for d in range(2, 7)
          for c, a, b in itertools.product(range(1, d), repeat=3)
          if c < a <= b < d]


class TestBuilderRulesAsConstructed:
    """The builder writes each rule through MarkedBinomial's slot setters.
    Its rules equal, in order, the rules the checking constructor builds
    from the same lead, trail and source: equal, hashed and repr'd alike,
    and a pickle round trip rebuilds them."""

    @staticmethod
    def assert_as_constructed(rules):
        assert rules, "an empty collection proves nothing"
        rebuilt = [MarkedBinomial(g.lead, g.trail, g.source) for g in rules]
        assert rules == rebuilt
        assert [hash(g) for g in rules] == [hash(g) for g in rebuilt]
        assert [repr(g) for g in rules] == [repr(g) for g in rebuilt]
        assert [g.source for g in rules] == [g.source for g in rebuilt]
        back = pickle.loads(pickle.dumps(rules))
        assert back == rules and [hash(g) for g in back] == [
            hash(g) for g in rules]
        for g in rules:
            assert type(g) is MarkedBinomial and g.lead != g.trail
        with pytest.raises(AttributeError):
            rules[0].lead = rules[0].trail

    @pytest.mark.parametrize("shape", SHAPES,
                             ids=["".join(map(str, s)) for s in SHAPES])
    def test_G1_and_G2_of_every_shape(self, shape):
        ideal = _shape_ideal(*shape)
        view = order_view(ideal)
        for k in (1, 2):
            self.assert_as_constructed(build_G1(ideal, k))
            self.assert_as_constructed(build_G2(view, k))
            assert build_G1(ideal, k) == reference_G1(ideal, k)
            assert build_G2(view, k) == reference_G2(view, k)

    def test_G3_and_head_and_tail_of_sampled_pairs(self, running_pair):
        rng = random.Random(19)
        pairs = [tuple(running_pair)]
        for _ in range(8):
            s1, s2 = rng.choice(SHAPES), rng.choice(SHAPES)
            n = max(s1[3], s2[3])
            pairs.append(tuple(_shape_ideal(*s[:3], n) for s in (s1, s2)))
        for i1, i2 in pairs:
            view1, view2 = order_view(i1), order_view(i2)
            g3 = build_G3(view1, view2)
            self.assert_as_constructed(g3)
            assert g3 == reference_G3(view1, view2)
            ht = build_head_and_tail_basis(view1, view2)
            self.assert_as_constructed(ht)
            assert ht == (reference_G1(i1, 1) + reference_G2(view2, 2)
                          + reference_G3(view1, view2))


class TestBuilderTables:
    """Each builder returns a RankRules whose rows it writes straight from
    variable positions. The rows equal rank_rules' compilation of the
    object-level reference (reference_coincident_product_binomials), and
    the rules they decode to equal that reference rule by rule, dump_basis
    text included, with one PresMonomial per quadric."""

    @staticmethod
    def assert_table_is(table, reference, r):
        assert isinstance(table, RankRules) and reference
        assert table.kinds == {PresMonomial}
        assert table.rows == rank_rules(reference, table.alphabet).rows
        assert table == reference
        assert [g.source for g in table] == [g.source for g in reference]
        assert dump_basis(table, r) == dump_basis(reference, r)
        # one PresMonomial per quadric: equal monomials are one object
        quadrics = [v for g in table for v in (g.lead, g.trail)]
        assert len({id(v) for v in quadrics}) == len(set(quadrics))
        # decoded once: the same rules on every read
        assert all(a is b for a, b in zip(table, list(table)))
        assert table[-1] is table[len(table) - 1]

    @pytest.mark.parametrize("shape", SHAPES,
                             ids=["".join(map(str, s)) for s in SHAPES])
    def test_G1_and_G2_of_every_shape(self, shape):
        # at the shape's own n and at n = 6, as either ideal of a pair
        for n in sorted({shape[3], 6}):
            ideal = _shape_ideal(*shape[:3], n)
            view = order_view(ideal)
            for k in (1, 2):
                self.assert_table_is(build_G1(ideal, k),
                                     reference_G1(ideal, k), 2)
                self.assert_table_is(build_G2(view, k),
                                     reference_G2(view, k), 2)

    def test_G1_of_the_cubic_ideal(self):
        ideal = borel_closure([m("x2*x3*x4", 5), m("x1*x4^2", 5),
                               m("x2^2*x5", 5)], 5)
        self.assert_table_is(build_G1(ideal), reference_G1(ideal), 1)

    def test_G3_and_head_and_tail_of_the_running_pair_and_sampled_pairs(
            self, running_pair):
        # census pairs: ordered pairs of the 35 shapes, both at n = 6
        rng = random.Random(31)
        pairs = [tuple(running_pair), tuple(running_pair)[::-1]]
        for _ in range(12):
            s1, s2 = rng.choice(SHAPES), rng.choice(SHAPES)
            pairs.append(tuple(_shape_ideal(*s[:3], 6) for s in (s1, s2)))
        for i1, i2 in pairs:
            view1, view2 = order_view(i1), order_view(i2)
            g3 = reference_G3(view1, view2)
            if g3:
                self.assert_table_is(build_G3(view1, view2), g3, 2)
            self.assert_table_is(
                build_head_and_tail_basis(view1, view2),
                reference_G1(i1, 1) + reference_G2(view2, 2) + g3, 2)

    def test_a_table_on_the_collections_alphabet_is_used_as_is(
            self, running_pair):
        # the builder's positions are the atoms of Alphabet.of(ideals), so
        # rank_rules hands the table back; on another alphabet it compiles
        # the decoded rules
        ideals = list(running_pair)
        views = [order_view(i) for i in ideals]
        table = build_head_and_tail_basis(*views)
        assert rank_rules(table, Alphabet.of(ideals)) is table
        ideal = ideals[0]
        first = build_G1(ideal)
        assert rank_rules(first, Alphabet.of([ideal])) is first
        second = build_G1(ideal, 2)
        with pytest.raises(ValueError, match="not a variable of this"):
            rank_rules(second, Alphabet.of([ideal]))
        assert rank_rules(first, table.alphabet).rows == table.rows[
            :len(first.rows)]


def reference_syzygy_set(ideals):
    """The object-level construction of the syzygies: a MarkedBinomial
    x_i*T_u -> x_j*T_u' for each generator u and variable swap
    u' = u*x_i/x_j (i < j) with both sides minimal generators, sorted
    stably by the lead's variable key, then its x-part ascending."""
    out = []
    n = ideals[0].n
    for l, ideal in enumerate(ideals, start=1):
        var_of = {g: PresVar(l, g) for g in ideal.minimal_generators}
        for u in ideal.minimal_generators:
            for swapped, j, i in all_one_step_reductions(u):
                if swapped in var_of:
                    out.append(MarkedBinomial(
                        MixedMonomial(Monomial.variable(i, n),
                                      PresMonomial([var_of[u]])),
                        MixedMonomial(Monomial.variable(j, n),
                                      PresMonomial([var_of[swapped]])),
                        "SYZ"))
    out.sort(key=lambda g: (g.lead.t_part.factors[0].sort_key(),
                            g.lead.x_part.exps))
    return out


class TestFiberTypeTables:
    """The fiber-type builders write rows on Alphabet.of(ideals) too: the
    syzygy rows equal rank_rules' compilation of the object-level
    reference (reference_syzygy_set), in order, and decode to its rules,
    with one MixedMonomial per atom tuple; the fiber rows follow them
    as the fiber basis's own rows."""

    @staticmethod
    def assert_syzygies_are(ideals):
        table = build_syzygy_set(ideals)
        reference = reference_syzygy_set(ideals)
        assert isinstance(table, RankRules) and reference
        assert table.kinds == {MixedMonomial}
        assert table.alphabet.variables == Alphabet.of(ideals).variables
        assert table.rows == rank_rules(reference, table.alphabet).rows
        assert table == reference
        assert dump_basis(table, len(ideals)) == dump_basis(reference,
                                                            len(ideals))
        monomials = [v for g in table for v in (g.lead, g.trail)]
        assert len({id(v) for v in monomials}) == len(set(monomials))

    @pytest.mark.parametrize("shape", SHAPES,
                             ids=["".join(map(str, s)) for s in SHAPES])
    def test_syzygies_of_every_shape_at_n_6(self, shape):
        self.assert_syzygies_are([_shape_ideal(*shape[:3], 6)])

    def test_syzygies_of_the_cubic_ideal_and_the_running_pair(
            self, running_pair):
        cubic = borel_closure([m("x2*x3*x4", 5), m("x1*x4^2", 5),
                               m("x2^2*x5", 5)], 5)
        self.assert_syzygies_are([cubic])
        self.assert_syzygies_are(list(running_pair))

    def test_fiber_rows_follow_the_syzygy_rows(self, running_pair,
                                               running_pair_basis):
        ideals = list(running_pair)
        basis = build_fiber_type_basis(ideals, running_pair_basis)
        syzygies = build_syzygy_set(ideals)
        assert basis.kinds == {MixedMonomial} and basis._rules is None
        assert basis.rows == syzygies.rows + running_pair_basis.rows
        one = Monomial.one(6)
        assert basis == list(syzygies) + [
            MarkedBinomial(MixedMonomial(one, g.lead),
                           MixedMonomial(one, g.trail), g.source)
            for g in running_pair_basis]
        # a fiber basis given as a list is compiled onto the same atoms
        assert build_fiber_type_basis(
            ideals, list(running_pair_basis)).rows == basis.rows


class TestRuleListContract:
    """What every quadric builder returns is a read-only sequence of its
    rules: len and bool count rows without decoding them, iteration,
    indexing and slicing read the rules decoded once, and it equals any
    sequence of the same rules in order."""

    @pytest.fixture(params=["G1", "G2", "G3", "ht"])
    def builder(self, request, running_pair):
        """(builder call, reference list, ideals) of one quadric builder
        on the running pair, on the alphabet of its ideals."""
        i1, i2 = running_pair
        view1, view2 = order_view(i1), order_view(i2)
        g3 = reference_G3(view1, view2)
        case = {
            "G1": (lambda: build_G1(i1), reference_G1(i1), [i1]),
            "G2": (lambda: build_G2(view2), reference_G2(view2), [i2]),
            "G3": (lambda: build_G3(view1, view2), g3, [i1, i2]),
            "ht": (lambda: build_head_and_tail_basis(view1, view2),
                   reference_G1(i1) + reference_G2(view2, 2) + g3,
                   [i1, i2]),
        }[request.param]
        assert case[1], "an empty collection proves nothing"
        return case

    def test_it_is_a_sequence(self, builder):
        build, reference, _ = builder
        basis = build()
        assert isinstance(basis, Sequence) and isinstance(basis, RankRules)
        assert not isinstance(basis, list)
        with pytest.raises(TypeError):
            basis[0] = reference[0]
        with pytest.raises(TypeError):
            basis + reference

    def test_len_and_bool_leave_it_undecoded(self, builder):
        build, reference, _ = builder
        basis = build()

        def refused(*_args, **_kwargs):
            raise AssertionError("rule decoded")

        with mock.patch.object(reduction, "_unchecked_rule", refused):
            assert len(basis) == len(reference)
            assert basis
        # the first read decodes, and the rules are those of the reference
        assert basis[0] == reference[0]

    def test_iteration_indexing_and_slicing_read_the_rules(self, builder):
        build, reference, _ = builder
        basis = build()
        assert list(basis) == reference
        assert [basis[i] for i in range(len(basis))] == reference
        assert basis[-1] == reference[-1]
        assert basis[2:7] == reference[2:7]
        assert basis[::-1] == reference[::-1]
        assert reference[3] in basis
        assert basis.index(reference[3]) == reference.index(reference[3])
        with pytest.raises(IndexError):
            basis[len(reference)]
        # list gives a list that can be changed; the basis stays
        rules = list(basis)
        rules.reverse()
        assert rules != reference and list(basis) == reference

    def test_it_equals_the_reference_in_both_operand_orders(self, builder):
        build, reference, _ = builder
        basis = build()
        assert basis == reference and reference == basis
        assert basis == tuple(reference) and tuple(reference) == basis
        assert basis == build()
        assert basis != reference[:-1] and reference[:-1] != basis
        swapped = reference[1:] + reference[:1]
        assert basis != swapped and swapped != basis
        assert basis != set(reference) and basis != None  # noqa: E711

    def test_a_pickle_round_trip_gives_an_equal_value(self, builder):
        build, reference, _ = builder
        basis = build()
        for decoded in (False, True):
            if decoded:
                list(basis)
            back = pickle.loads(pickle.dumps(basis))
            assert type(back) is RankRules
            assert back == basis and back == reference
            assert back.rows == basis.rows and back.kinds == basis.kinds

    def test_rank_rules_hands_it_back_on_its_collections_alphabet(
            self, builder):
        build, _, ideals = builder
        basis = build()
        assert rank_rules(basis, Alphabet.of(ideals)) is basis


class TestSinkViolationCheckers:
    """The index-inequality checkers must actually flag bad factorizations,
    not just stay silent on real sinks."""

    def test_rlex_checker_flags_non_sink(self, quadric_pair_ideal):
        view = order_view(quadric_pair_ideal)
        # in sorted order x2^2 precedes x1*x3 with a decreasing head index,
        # which no true sink exhibits (the pair rewrites via x1*x2, x2*x3)
        bad = pres(5, (1, "x2^2"), (1, "x1*x3"))
        assert sink_violations_rlex(bad, view) == [
            "T22,T13: same-region monotone"
        ]
        good = pres(5, (1, "x1^2"), (1, "x3^2"), (1, "x2*x4"), (1, "x2*x5"))
        assert not sink_violations_rlex(good, view)

    def test_rlex_cross_region_head_rule(self, quadric_pair_ideal):
        view = order_view(quadric_pair_ideal)
        # B_M factor x3^2 followed by B_N factor x1*x4: head index 3 exceeds
        # 1 and also exceeds c = 2, so the pair is clean; x2*x3 against
        # x1*x4 has head 2 <= c with equal-head/tail clause violated
        assert not sink_violations_rlex(pres(5, (1, "x3^2"), (1, "x1*x4")),
                                        view)
        assert sink_violations_rlex(pres(5, (1, "x2*x3"), (1, "x1*x5")), view)

    def test_mrlex_checker_flags_cross_region_inversion(self, running_pair):
        _, i2 = running_pair
        view = order_view(i2)
        # B_N factor x3*x5 before B_M factor x1^2 needs head 3 <= 1: violated
        bad = pres(6, (2, "x3*x5"), (2, "x1^2"))
        assert sink_violations_mrlex(bad, view)
        good = pres(6, (2, "x1*x5"), (2, "x4^2"))
        assert not sink_violations_mrlex(good, view)

    def test_ht_checker_flags_broken_tail_chain(self, running_pair):
        i1, i2 = running_pair
        view1, view2 = order_view(i1), order_view(i2)
        # two tail-region factors with decreasing heads break the chain
        bad = pres(6, (1, "x4^2"), (2, "x3*x5"), (2, "x1*x6"))
        assert sink_violations_ht(bad, view1, view2)
        good = pres(6, (1, "x4^2"), (2, "x2*x5"), (2, "x3*x5"))
        assert not sink_violations_ht(good, view1, view2)

    # Each case below breaks one clause, and the lists are compared whole,
    # so a clause weakened or dropped changes one of them. The inequalities
    # are necessary only, so no case claims that a clean monomial is a sink.

    def test_each_pair_clause(self, quadric_pair_ideal, running_pair):
        view = order_view(quadric_pair_ideal)  # c = 2
        view2 = order_view(running_pair[1])
        for factors, found in [
            # same-region i <= i': x2^2 sorts before x1*x3
            ([(1, "x2^2"), (1, "x1*x3")], ["T22,T13: same-region monotone"]),
            # head index: B_M x2*x3 before B_N x1*x4, 2 > 1 and 2 <= c
            ([(1, "x2*x3"), (1, "x1*x4")], ["T23,T14: head index"]),
            # equal-head tail: B_M x1*x2 before B_N x1*x4, tail 2 <= c
            ([(1, "x1*x2"), (1, "x1*x4")], ["T12,T14: equal-head tail"]),
            # and with tail 3 > c the pair is clean
            ([(1, "x1*x3"), (1, "x1*x4")], []),
        ]:
            assert sink_violations_rlex(pres(5, *factors), view) == found
        # cross-region head: B_N x3*x5 before B_M x1^2, 3 > 1
        assert sink_violations_mrlex(pres(6, (2, "x3*x5"), (2, "x1^2")),
                                     view2) == ["Z35,Z11: cross-region head"]
        assert sink_violations_mrlex(pres(6, (2, "x1*x5"), (2, "x1^2")),
                                     view2) == []

    def test_same_region_tail_clause(self, quadric_pair_ideal):
        # rlex sorts quadrics by their larger index first, so a sorted
        # factorization never breaks j <= j' alone: the clause is pinned
        # on the pair check, which takes the factors in the order given
        view = order_view(quadric_pair_ideal)
        factors = [PresVar(1, m("x1*x3", 5)), PresVar(1, m("x2^2", 5))]
        for mixed_order in (False, True):
            assert _pair_violations(factors, view, mixed_order) == [
                "T13,T22: same-region monotone"]

    def test_each_link_of_the_tail_chain(self, running_pair):
        view1, view2 = map(order_view, running_pair)  # view2: b=4, c=3, d=6

        def moved(**fields):
            # a region split no ideal has: a real one keeps every B_N head
            # at most c and every tail in (b, d], so only a moved bound
            # breaks those links
            return TwoQuadricView(*[fields.get(name, getattr(view2, name))
                                    for name in view2._fields])

        # tails never descend: the mixed order sorts B_N quadrics by their
        # larger index, so that link has no case of its own
        head = (1, "x4^2")
        for z, split, found in [
            # heads descending: the mixed order's same-region check fires too
            ([(2, "x3*x5"), (2, "x1*x6")], view2,
             ["Z35,Z16: same-region monotone",
              "tail chain broken: heads=[3, 1] tails=[5, 6]"]),
            ([(2, "x2*x5"), (2, "x3*x5")], view2, []),
            # the last head at most c
            ([(2, "x2*x5"), (2, "x3*x5")], moved(c=2),
             ["tail chain broken: heads=[2, 3] tails=[5, 5]"]),
            # b below the first tail
            ([(2, "x2*x5"), (2, "x3*x5")], moved(b=5),
             ["tail chain broken: heads=[2, 3] tails=[5, 5]"]),
            # the last tail at most d
            ([(2, "x2*x5"), (2, "x3*x6")], view2, []),
            ([(2, "x2*x5"), (2, "x3*x6")], moved(d=5),
             ["tail chain broken: heads=[2, 3] tails=[5, 6]"]),
        ]:
            assert sink_violations_ht(pres(6, head, *z), view1, split) == found


class TestDump:
    def test_jsonl_shape(self, quadric_pair_G1):
        text = dump_basis(quadric_pair_G1, r=1)
        lines = [line for line in text.splitlines() if line]
        assert len(lines) == len(quadric_pair_G1)
        import json

        row = json.loads(lines[0])
        assert set(row) == {"lead", "trail", "source"}
        assert row["source"] == "G1"


def test_test_only_references_stay_out_of_the_package():
    # the sink inequalities, the o-invariant, the comparator and the
    # forbidden-pair listings live in tests/reference.py alone
    moved = ["sink_violations_rlex", "sink_violations_mrlex",
             "sink_violations_ht", "_pair_violations", "_rlex_sorted",
             "_mrlex_sorted", "o_invariant", "compare_presmonomials",
             "OrderDomainError"]
    for module in (borel_rees, orders, reduction):
        assert not [name for name in moved if hasattr(module, name)], module
    assert not [name for name in ("compare_presmonomials",
                                  "_descending_ranks", "_outside")
                if hasattr(PresOrder, name)]
    for listing in (presentation.rank_fibers,
                    presentation.fibers_by_multidegree):
        assert "forbidden_pairs" not in inspect.signature(listing).parameters
