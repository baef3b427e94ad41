import itertools

import pytest
from hypothesis import given, strategies as st

from borel_rees.borel import (
    InvalidIdeal,
    StronglyStableIdeal,
    borel_closure,
    collection_spec,
    load_collection,
    order_view,
    principal_view,
    region_partition,
    validate_collection,
)
from borel_rees.monomial import (
    Monomial,
    all_one_step_reductions,
    parse_monomial,
    rlex_sort_key,
    strongly_stable_precedes,
)
from borel_rees.orders import build_G1


def m(text, n):
    return parse_monomial(text, n)


def object_closure(gens, n):
    """The minimal generators of B(gens) by breadth-first search on Monomial
    objects under every one-step reduction, with borel_closure's checks:
    the reference for the closure on exponent tuples."""
    gens = tuple(gens)
    if not gens:
        raise InvalidIdeal("empty Borel generator list")
    if any(g.n != n for g in gens):
        raise InvalidIdeal(f"generator ambient dimension differs from n={n}")
    degree = gens[0].degree
    if degree == 0:
        raise InvalidIdeal("Borel generators must have positive degree")
    if any(g.degree != degree for g in gens):
        raise InvalidIdeal(
            f"mixed generator degrees {sorted({g.degree for g in gens})}"
        )
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        for red, _, _ in all_one_step_reductions(frontier.pop()):
            if red not in seen:
                seen.add(red)
                frontier.append(red)
    return tuple(sorted(seen, key=rlex_sort_key))


def outcome(build, gens, n):
    """What build returns for gens, or the type and text of what it raises."""
    try:
        return build(gens, n)
    except InvalidIdeal as exc:
        return type(exc), str(exc)


@st.composite
def generator_lists(draw):
    """(n, 0-3 generators of degree 1-4 in n <= 7 variables); the degrees
    agree unless mixed is drawn."""
    n = draw(st.integers(1, 7))
    mixed = draw(st.booleans())
    degree = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(1, 4)) if mixed else degree
        picks = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
        gens.append(Monomial([picks.count(i) for i in range(n)]))
    return n, gens


class TestBorelClosure:
    def test_single_quadric(self):
        ideal = borel_closure([m("x2*x3", 3)], 3)
        assert {str(g) for g in ideal.minimal_generators} == {
            "x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3"
        }

    def test_two_quadrics_ten_generators(self, quadric_pair_ideal):
        assert len(quadric_pair_ideal.minimal_generators) == 10

    def test_in_asks_the_generator_list_not_the_ideal(self):
        # x1^3 lies in B(x2^2) but is none of its minimal generators, so an
        # ideal answers no membership question: "in" goes to the list
        ideal = borel_closure([m("x2^2", 2)], 2)
        with pytest.raises(TypeError):
            m("x1^3", 2) in ideal
        assert m("x1^2", 2) in ideal.minimal_generators

    def test_pure_power_is_already_closed(self):
        for n, d in [(1, 2), (4, 3)]:
            ideal = borel_closure([Monomial([d] + [0] * (n - 1))], n)
            assert ideal.minimal_generators == ideal.borel_generators

    def test_mixed_degrees_rejected(self):
        with pytest.raises(InvalidIdeal):
            borel_closure([m("x1*x2", 3), m("x1*x2*x3", 3)], 3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidIdeal):
            borel_closure([], 3)

    def test_closure_idempotent(self, quadric_pair_ideal):
        again = borel_closure(
            quadric_pair_ideal.minimal_generators, quadric_pair_ideal.n
        )
        assert again.minimal_generators == quadric_pair_ideal.minimal_generators

    def test_closed_under_one_step_reductions(self, quadric_pair_ideal):
        gens = set(quadric_pair_ideal.minimal_generators)
        for g in gens:
            for red, _, _ in all_one_step_reductions(g):
                assert red in gens

    def test_matches_dominance_oracle(self):
        # closure = all same-degree monomials dominated by some generator
        n, d = 5, 2
        gens = [m("x3^2", n), m("x2*x5", n)]
        ideal = borel_closure(gens, n)
        everything = [
            Monomial([c.count(i) for i in range(n)])
            for c in itertools.combinations_with_replacement(range(n), d)
        ]
        expected = {
            u
            for u in everything
            if any(strongly_stable_precedes(u, g) for g in gens)
        }
        assert set(ideal.minimal_generators) == expected

    @given(generator_lists())
    def test_matches_the_object_closure(self, drawn):
        n, gens = drawn
        got = outcome(
            lambda g, k: borel_closure(g, k).minimal_generators, gens, n)
        assert got == outcome(object_closure, gens, n)

    @given(generator_lists())
    def test_borel_generators_are_the_minimal_ones(self, drawn):
        n, gens = drawn
        if not gens or len({g.degree for g in gens}) > 1:
            return
        ideal = borel_closure(gens, n)
        kept = ideal.borel_generators
        # no repeat, none inside another's closure, in the given order
        assert len(set(kept)) == len(kept)
        assert not any(g != h and strongly_stable_precedes(g, h)
                       for g in kept for h in kept)
        given_order = list(dict.fromkeys(gens))
        assert sorted(kept, key=given_order.index) == list(kept)
        # and they generate the same ideal
        assert borel_closure(kept, n).minimal_generators == (
            ideal.minimal_generators)

    def test_redundant_generators_are_dropped(self):
        assert borel_closure([m("x3*x4", 4), m("x4^2", 4)],
                             4).borel_generators == (m("x4^2", 4),)
        assert borel_closure([m("x2^2", 2), m("x1*x2", 2), m("x1^2", 2)],
                             2).borel_generators == (m("x2^2", 2),)
        pair = [m("x4*x5", 6), m("x2*x6", 6)]
        assert borel_closure(pair + [m("x4*x5", 6), m("x1*x6", 6)],
                             6).borel_generators == tuple(pair)

    def test_constructor_stores_generators_rlex_descending(self):
        # the rule builders trust this order, whatever order an ideal is
        # built with
        closed = borel_closure([m("x3*x5", 5), m("x2*x4", 5)], 5)
        reversed_order = StronglyStableIdeal(
            n=5, degree=2, borel_generators=closed.borel_generators,
            minimal_generators=closed.minimal_generators[::-1],
        )
        assert reversed_order == closed
        assert reversed_order.minimal_generators == tuple(
            sorted(closed.minimal_generators, key=rlex_sort_key))
        rules = build_G1(reversed_order)
        assert len(rules) == 27 and rules == build_G1(closed)

    def test_ambient_dimension_matters(self):
        small = borel_closure([m("x3^2", 3)], 3)
        big = borel_closure([m("x3^2", 5)], 5)
        assert small.n == 3 and big.n == 5
        assert len(small.minimal_generators) == len(big.minimal_generators) == 6

    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
            min_size=1,
            max_size=3,
        )
    )
    def test_random_closures_are_closed_and_idempotent(self, index_triples):
        n = 5
        gens = []
        for triple in index_triples:
            exps = [0] * n
            for i in sorted(triple):
                exps[i - 1] += 1
            gens.append(Monomial(exps))
        ideal = borel_closure(gens, n)
        genset = set(ideal.minimal_generators)
        for g in genset:
            for red, _, _ in all_one_step_reductions(g):
                assert red in genset
        again = borel_closure(ideal.minimal_generators, n)
        assert again.minimal_generators == ideal.minimal_generators


class TestRegionPartition:
    def test_reference_split(self, quadric_pair_ideal):
        view = region_partition(quadric_pair_ideal)
        assert (view.a, view.b, view.c, view.d) == (3, 3, 2, 5)
        assert {str(g) for g in view.B_M} == {
            "x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2"
        }
        assert {str(g) for g in view.B_N} == {
            "x1*x4", "x2*x4", "x1*x5", "x2*x5"
        }

    def test_running_pair_first_ideal(self, running_pair):
        i1, _ = running_pair
        view = region_partition(i1)
        assert {str(g) for g in view.B_N} == {"x1*x6", "x2*x6"}
        assert m("x3*x5", 6) in set(view.B_M)

    def test_running_pair_second_ideal(self, running_pair):
        _, i2 = running_pair
        view = region_partition(i2)
        bn = {str(g) for g in view.B_N}
        assert {"x3*x5", "x3*x6"} <= bn
        assert len(bn) == 6

    def test_generator_order_in_input_is_irrelevant(self):
        a = region_partition(borel_closure([m("x1*x3", 3), m("x2^2", 3)], 3))
        b = region_partition(borel_closure([m("x2^2", 3), m("x1*x3", 3)], 3))
        assert a.M == b.M == m("x2^2", 3)
        assert a.N == b.N == m("x1*x3", 3)

    def test_shape_constraint_enforced(self):
        # x1*x3 lies inside B(x2*x3): one minimal Borel generator, so the
        # generator count refuses the split before the shape is looked at
        with pytest.raises(InvalidIdeal,
                           match="needs exactly 2 Borel generators, got 1"):
            region_partition(borel_closure([m("x2*x3", 3), m("x1*x3", 3)], 3))

    def test_comparable_generators_are_not_in_the_shape(self):
        # borel_closure keeps only incomparable generators, which always
        # fit the shape; an ideal built directly can still hold two
        # comparable ones
        ideal = StronglyStableIdeal(
            n=3, degree=2,
            borel_generators=(m("x2*x3", 3), m("x1*x3", 3)),
            minimal_generators=borel_closure(
                [m("x2*x3", 3)], 3).minimal_generators,
        )
        with pytest.raises(InvalidIdeal,
                           match=r"not in the shape c < a <= b < d"):
            region_partition(ideal)

    def test_wrong_generator_count(self, running_pair):
        i1, _ = running_pair
        with pytest.raises(InvalidIdeal):
            region_partition(borel_closure([m("x2*x3", 3)], 3))
        assert region_partition(i1)  # two-generator shape passes

    def test_region_shape_and_size_formula(self):
        # |B_N| = c*(d-b), every member x_i*x_j has i <= c < b < j <= d
        for d in range(2, 8):
            for c, a, b in itertools.product(range(1, d), repeat=3):
                if not (c < a <= b < d):
                    continue
                n = d
                M = Monomial(
                    [int(i + 1 == a) + int(i + 1 == b) for i in range(n)]
                )
                N = Monomial(
                    [int(i + 1 == c) + int(i + 1 == d) for i in range(n)]
                )
                view = region_partition(borel_closure([M, N], n))
                assert len(view.B_N) == c * (d - b), (M, N)
                for g in view.B_N:
                    i, j = g.variables_with_multiplicity()
                    assert i <= c and b < j <= d

    def test_principal_view_degenerates(self):
        view = principal_view(borel_closure([m("x2*x3", 3)], 3))
        assert view.N is None and view.B_N == ()
        assert len(view.B_M) == 5

    def test_principal_view_of_a_huge_exponent(self):
        # a and b are read off the support, not off one entry per unit of
        # exponent, which ran out of memory here
        view = principal_view(borel_closure([m("x1^999999999999", 3)], 3))
        assert (view.a, view.b) == (1, 1)
        view = principal_view(borel_closure([m("x2^3*x3", 3)], 3))
        assert (view.a, view.b) == (2, 3)

    def test_order_view_dispatch(self, quadric_pair_ideal):
        assert order_view(quadric_pair_ideal).N is not None
        assert order_view(borel_closure([m("x1^2", 2)], 2)).N is None

    def test_order_view_is_built_once_per_ideal(self, running_pair):
        i1, _ = running_pair
        assert order_view(i1) is order_view(i1)
        again = borel_closure(i1.borel_generators, i1.n)
        # an equal ideal built apart gets its own, equal view
        assert order_view(again) is not order_view(i1)
        assert order_view(again) == order_view(i1)

    def test_failing_split_raises_on_every_call(self):
        three = borel_closure([m("x1*x6", 6), m("x2*x5", 6), m("x3*x4", 6)], 6)
        assert three.num_borel_generators == 3
        for _ in range(3):
            with pytest.raises(InvalidIdeal, match="exactly 2 Borel"):
                order_view(three)


class TestCollections:
    def test_single_quadric_pair_valid(self, quadric_pair_ideal):
        (only,) = validate_collection([quadric_pair_ideal])
        assert only is quadric_pair_ideal

    def test_running_pair_order_preserved(self, running_pair):
        ideals = validate_collection(running_pair)
        assert [i.borel_generators[0] for i in ideals] == [
            m("x4*x5", 6), m("x4^2", 6)
        ]

    def test_degree_sorting(self):
        quartic = borel_closure([m("x2^4", 3)], 3)
        quadric = borel_closure([m("x1*x3", 3), m("x2^2", 3)], 3)
        ideals = validate_collection([quartic, quadric])
        assert [i.degree for i in ideals] == [2, 4]

    def test_json_spec_roundtrip(self):
        spec = {
            "n": 6,
            "ideals": [
                {"borel_generators": ["x4*x5", "x2*x6"]},
                {"borel_generators": ["x4^2", "x3*x6"]},
            ],
        }
        ideals = load_collection(spec)
        assert collection_spec(ideals) == spec
        assert [len(i.minimal_generators) for i in ideals] == [16, 16]

    def test_text_and_exponent_list_generators_agree(self):
        as_text, as_list = (
            load_collection({"n": 5, "ideals": [{"borel_generators": [g]}]})
            for g in ("x2*x5", [0, 1, 0, 0, 1]))
        assert as_text[0].borel_generators == as_list[0].borel_generators \
            == (m("x2*x5", 5),)

    def test_exponent_vector_generators_accepted(self):
        ideals = load_collection(
            {"n": 3, "ideals": [{"borel_generators": [[0, 1, 1]]}]}
        )
        assert ideals[0].borel_generators == (m("x2*x3", 3),)

    def test_mixed_degree_ideal_rejected(self):
        with pytest.raises(InvalidIdeal, match="mixed generator degrees"):
            load_collection(
                {"n": 3, "ideals": [{"borel_generators": ["x1*x2", "x1*x2*x3"]}]}
            )
