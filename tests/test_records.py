"""The value classes keep dataclass semantics without dataclasses.

Each class below is checked against a test-side dataclass twin: the same
name, fields, field order and repr flags. The frozen ones must agree with
their twins on equality, hash and repr text, pickle round trip and refuse
assignment and deletion; the mutable records must agree on equality and
repr and stay unhashable. The monomials and presentation variables, which
keep their own equality, hash and repr, are Frozen too and must refuse
writes and copy through their constructors.
"""

import copy
import dataclasses
import inspect
import itertools
import pickle
from dataclasses import dataclass, field

import pytest

from borel_rees import borel, orders, presentation, reduction, verifier
from borel_rees.borel import borel_closure, order_view, principal_view
from borel_rees.monomial import Monomial, parse_monomial
from borel_rees.orders import build_G3, build_fiber_type_basis
from borel_rees.records import Frozen
from borel_rees.reduction import build_graph
from borel_rees.verifier import (
    detect_obstructions,
    koszul_report,
    parameter_gate,
    verify_gb,
)


def m(text, n):
    return parse_monomial(text, n)


# ---------------------------------------------------------------------------
# the twins


@dataclass(frozen=True)
class StronglyStableIdeal:
    n: object
    degree: object
    borel_generators: object
    minimal_generators: object


@dataclass(frozen=True)
class TwoQuadricView:
    ideal: object
    M: object
    N: object
    a: object
    b: object
    c: object
    d: object
    B_M: object
    B_N: object


@dataclass(frozen=True)
class PresOrder:
    kind: object
    ranked: object


@dataclass(frozen=True)
class MixedMonomial:
    x_part: object
    t_part: object


@dataclass(frozen=True)
class GateResult:
    verdict: object
    case: object
    sorted_g: object
    sorted_d: object


@dataclass
class ReductionGraph:
    vertices: object
    index: object = field(repr=False)
    edges: object
    sinks: object
    has_cycle: object


@dataclass
class FiberFailure:
    multidegree: object
    sinks: object
    has_cycle: object


@dataclass
class VerificationReport:
    ideals: object
    t_budget: object
    multidegrees_checked: object = 0
    failures: object = field(default_factory=list)
    oracle_binomials_checked: object = 0
    oracle_failures: object = field(default_factory=list)
    notes: object = field(default_factory=list)
    nontrivial_fiber: object = field(default=False, repr=False)


@dataclass
class ObstructionWitness:
    multidegree: object
    components: object


@dataclass
class KoszulReport:
    ideals: object
    t_budget: object
    gate: object
    obstructions: object
    gb_report: object
    verdict: object
    notes: object = field(default_factory=list)


TWINS = {
    borel.StronglyStableIdeal: StronglyStableIdeal,
    borel.TwoQuadricView: TwoQuadricView,
    orders.PresOrder: PresOrder,
    presentation.MixedMonomial: MixedMonomial,
    verifier.GateResult: GateResult,
    reduction.ReductionGraph: ReductionGraph,
    verifier.FiberFailure: FiberFailure,
    verifier.VerificationReport: VerificationReport,
    verifier.ObstructionWitness: ObstructionWitness,
    verifier.KoszulReport: KoszulReport,
}
FROZEN = [cls for cls, twin in TWINS.items()
          if twin.__dataclass_params__.frozen]
RECORDS = [cls for cls in TWINS if cls not in FROZEN]


def field_values(value):
    """The fields of a value or of a twin, by name, in order."""
    twin = TWINS.get(type(value), type(value))
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(twin)}


def twin_of(value):
    return TWINS[type(value)](**field_values(value))


# ---------------------------------------------------------------------------
# instances, several of each class, some equal but built apart


def pair_ideals():
    return (borel_closure([m("x4*x5", 6), m("x2*x6", 6)], 6),
            borel_closure([m("x4^2", 6), m("x3*x6", 6)], 6))


TRIPLE = [[m("x3^2", 5), m("x1*x5", 5)], [m("x3^2", 5), m("x2*x4", 5)],
          [m("x2*x4", 5), m("x1*x5", 5)]]


@pytest.fixture(scope="module")
def samples():
    i1, i2 = pair_ideals()
    j1, j2 = pair_ideals()
    principal = borel_closure([m("x2*x3", 4)], 4)
    v1, v2 = order_view(i1), order_view(i2)
    triple = [borel_closure(gens, 5) for gens in TRIPLE]
    ht = orders.build_head_and_tail_basis(v1, v2)
    fiber_type = build_fiber_type_basis((i1, i2), ht)
    mixed = [x for g in fiber_type for x in (g.lead, g.trail)
             if isinstance(x, presentation.MixedMonomial)]
    g3 = build_G3(v1, v2)

    def report(rules, budget):
        return verify_gb(rules, (i1, i2), budget)

    refuted = report(g3, (2, 1))
    witnesses = detect_obstructions(triple, (1, 1, 1))
    return {
        borel.StronglyStableIdeal: [i1, i2, j1, principal, *triple],
        borel.TwoQuadricView: [v1, v2, order_view(j1), order_view(j2),
                               principal_view(principal)],
        orders.PresOrder: [orders.PresOrder.rlex(i1),
                           orders.PresOrder.rlex(j1),
                           orders.PresOrder.mrlex(v1),
                           orders.PresOrder.head_and_tail(v1, v2)],
        presentation.MixedMonomial: mixed[:6] + mixed[-6:] + [
            presentation.MixedMonomial(w.x_part, w.t_part)
            for w in mixed[:2]],
        verifier.GateResult: [parameter_gate(2, [2, 2], [2, 3]),
                              parameter_gate(2, [2, 2], [3, 2]),
                              parameter_gate(3, [1, 2, 2], [2, 2, 3]),
                              parameter_gate(2, [3, 3], [2, 2])],
        reduction.ReductionGraph: [build_graph(ht, start=ht[0].lead),
                                   build_graph(ht, start=ht[0].lead),
                                   build_graph(g3, start=g3[5].lead)],
        verifier.FiberFailure: refuted.failures[:3] + report(
            g3, (2, 1)).failures[:2],
        verifier.VerificationReport: [refuted, report(g3, (2, 1)),
                                      report(ht, (1, 1)),
                                      report(ht, (1, 1))],
        verifier.ObstructionWitness: [
            *witnesses, *detect_obstructions(triple, (1, 1, 1)),
            verifier.ObstructionWitness(witnesses[0].multidegree,
                                        witnesses[0].components[::-1])],
        verifier.KoszulReport: [koszul_report(triple, (1, 1, 1)),
                                koszul_report(triple, (1, 1, 1)),
                                koszul_report((i1, i2), (1, 1))],
    }


ALL = list(TWINS)


def test_every_class_has_samples_with_equal_and_unequal_pairs(samples):
    for cls in ALL:
        values = samples[cls]
        assert all(type(v) is cls for v in values)
        pairs = list(itertools.combinations(values, 2))
        assert any(a is not b and a == b for a, b in pairs), cls
        assert any(a != b for a, b in pairs), cls


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_constructor_takes_the_fields_in_order(cls):
    twin = TWINS[cls]
    assert list(inspect.signature(cls).parameters) == [
        f.name for f in dataclasses.fields(twin)]


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_equality_and_repr_match_the_twin(cls, samples):
    values = samples[cls]
    for a, b in itertools.product(values, repeat=2):
        assert (a == b) == (twin_of(a) == twin_of(b))
        assert (a != b) == (twin_of(a) != twin_of(b))
    for a in values:
        assert repr(a) == repr(twin_of(a))
        # built again by keyword: equal; the twin is another class
        assert cls(**field_values(a)) == a
        assert a != twin_of(a) and twin_of(a) != a


def test_classes_with_equal_fields_differ():
    fields = (1, 2, (), ())
    gate, ideal = verifier.GateResult(*fields), borel.StronglyStableIdeal(
        *fields)
    assert gate != ideal and ideal != gate
    assert verifier.ObstructionWitness(1, 2) != orders.PresOrder(1, 2)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_hash_matches_the_twin(cls, samples):
    for a in samples[cls]:
        assert hash(a) == hash(twin_of(a))
        assert hash(a) == hash(tuple(field_values(a).values()))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_mutable_and_unhashable(cls, samples):
    a = samples[cls][0]
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        hash(twin_of(a))
    name = dataclasses.fields(TWINS[cls])[0].name
    copy = cls(**field_values(a))
    setattr(copy, name, "changed")
    assert copy != a and getattr(copy, name) == "changed"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_refuses_assignment_and_deletion(cls, samples):
    a = samples[cls][0]
    before = repr(a)
    for name in [f.name for f in dataclasses.fields(TWINS[cls])] + ["other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == before


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls, samples):
    values = samples[cls]
    again = pickle.loads(pickle.dumps(values))
    assert again == values
    assert [repr(v) for v in again] == [repr(v) for v in values]
    if cls in FROZEN:
        assert [hash(v) for v in again] == [hash(v) for v in values]


def test_default_lists_are_fresh():
    first = verifier.VerificationReport({}, ())
    second = verifier.VerificationReport({}, ())
    twin = VerificationReport({}, ())
    assert field_values(first) == field_values(twin)
    for name in ("failures", "oracle_failures", "notes"):
        assert getattr(first, name) is not getattr(second, name)
    gate = parameter_gate(1, [1], [2])
    report = verifier.KoszulReport({}, (), gate, [], None, "inconclusive")
    assert report.notes == [] and report.notes is not verifier.KoszulReport(
        {}, (), gate, [], None, "inconclusive").notes


def test_mixed_monomials_are_slotted():
    w = presentation.MixedMonomial(m("x1*x6", 6),
                                   presentation.PresMonomial.one())
    assert not hasattr(w, "__dict__")


HAND_HASHED = {
    Monomial: ("exps",),
    presentation.PresVar: ("ideal_index", "generator"),
    presentation.PresMonomial: ("factors",),
}


def hand_hashed_sample(cls):
    i1, i2 = pair_ideals()
    p = presentation.PresVar(2, i2.minimal_generators[3])
    return {
        Monomial: m("x1*x6^2", 6),
        presentation.PresVar: p,
        presentation.PresMonomial: presentation.PresMonomial(
            [presentation.PresVar(1, i1.minimal_generators[0]), p, p]),
    }[cls]


@pytest.mark.parametrize("cls", HAND_HASHED, ids=lambda c: c.__name__)
def test_hand_hashed_values_are_frozen(cls):
    value = hand_hashed_sample(cls)
    assert isinstance(value, Frozen) and cls._fields == HAND_HASHED[cls]
    before = repr(value), hash(value)
    for name in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (repr(value), hash(value)) == before
    assert not hasattr(value, "__dict__")
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert again is not value and again == value
        assert hash(again) == hash(value) and repr(again) == repr(value)


def test_a_pickled_ideal_rebuilds_its_views():
    i1, _ = pair_ideals()
    view = order_view(i1)
    again = pickle.loads(pickle.dumps(i1))
    assert again == i1 and hash(again) == hash(i1)
    # the cached view is not pickled: the copy builds an equal one
    assert "_order_view" not in vars(again)
    assert order_view(again) == view and order_view(again) is not view


def test_cached_properties_still_cache():
    # cached_property writes the instance __dict__ past the guard
    i1, _ = pair_ideals()
    assert order_view(i1) is order_view(i1)
    order = orders.PresOrder.rlex(i1)
    assert order.rank is order.rank
