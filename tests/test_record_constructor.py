"""Record's one constructor: fields bound by position or keyword, each at
most once, defaults made fresh per instance, and a TypeError naming the
class and the field for a missing, repeated or unknown one."""

import inspect

import pytest

from borel_rees import verifier
from borel_rees.borel import StronglyStableIdeal, TwoQuadricView
from borel_rees.orders import PresOrder
from borel_rees.presentation import MixedMonomial, PresMonomial, PresVar
from borel_rees.records import Record
from borel_rees.reduction import MarkedBinomial, ReductionGraph
from borel_rees.verifier import (
    FiberFailure,
    GateResult,
    KoszulReport,
    ObstructionWitness,
    VerificationReport,
)

FIELD_LIST_CLASSES = [TwoQuadricView, PresOrder, GateResult, ReductionGraph,
                      FiberFailure, VerificationReport, ObstructionWitness,
                      KoszulReport]
OWN_INIT = [StronglyStableIdeal, MixedMonomial, PresMonomial, PresVar,
            MarkedBinomial]


@pytest.mark.parametrize("cls", FIELD_LIST_CLASSES, ids=lambda c: c.__name__)
def test_field_list_classes_use_the_one_constructor(cls):
    assert cls.__init__ is Record.__init__
    assert list(inspect.signature(cls).parameters) == list(cls._fields)


@pytest.mark.parametrize("cls", OWN_INIT, ids=lambda c: c.__name__)
def test_a_class_with_its_own_init_keeps_its_signature(cls):
    assert cls.__init__ is not Record.__init__
    assert cls.__signature__ is None
    assert list(inspect.signature(cls).parameters) == list(
        inspect.signature(cls.__init__).parameters)[1:]


@pytest.mark.parametrize("args, kwargs, message", [
    (("mu", ["s"]), {}, "FiberFailure() missing field 'has_cycle'"),
    ((), {"sinks": []}, "FiberFailure() missing field 'multidegree'"),
    (("mu", ["s"], False), {"sinks": []},
     "FiberFailure() got field 'sinks' twice"),
    (("mu",), {"multidegree": "mu", "sinks": [], "has_cycle": False},
     "FiberFailure() got field 'multidegree' twice"),
    (("mu", ["s"], False), {"size": 2}, "FiberFailure() has no field 'size'"),
    (("mu", ["s"], False, 2), {},
     "FiberFailure() takes 3 fields, got 4 positional values"),
])
def test_missing_repeated_or_unknown_fields_raise(args, kwargs, message):
    with pytest.raises(TypeError) as raised:
        FiberFailure(*args, **kwargs)
    assert str(raised.value) == message


def test_two_reports_built_without_a_list_do_not_share_it():
    first = VerificationReport({}, ())
    second = VerificationReport(ideals={}, t_budget=())
    first.failures.append("f")
    first.oracle_failures.append("o")
    first.notes.append("n")
    assert second.failures == second.oracle_failures == second.notes == []
    assert (first.multidegrees_checked, first.oracle_binomials_checked,
            first.nontrivial_fiber) == (0, 0, False)
    gate = verifier.parameter_gate(1, [1], [2])
    reports = [KoszulReport({}, (), gate, [], None, "inconclusive")
               for _ in range(2)]
    reports[0].notes.append("n")
    assert reports[1].notes == []


def test_the_signature_shows_what_a_default_makes():
    parameters = inspect.signature(VerificationReport).parameters
    assert parameters["ideals"].default is inspect.Parameter.empty
    assert [parameters[name].default for name in VerificationReport._fields
            if name in VerificationReport._defaults] == [0, [], 0, [], [],
                                                         False]


def test_verification_exit_codes():
    report = VerificationReport({}, ())
    assert (report.verdict, report.exit_code) == ("inconclusive", 3)
    report.nontrivial_fiber = True
    assert (report.verdict, report.exit_code) == ("certified-up-to-bound", 0)
    report.oracle_failures.append({})
    assert (report.verdict, report.exit_code) == ("refuted", 2)
