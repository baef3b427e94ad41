import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import borel_rees
from borel_rees import (
    borel,
    cli,
    orders,
    paper_cases,
    presentation,
    reduction,
    verifier,
)
from borel_rees.cli import main
from borel_rees.paper_cases import CASES, load_expectation, run_case
from reference import graph_run, marked_like

PAIR_SPEC = {
    "n": 6,
    "ideals": [
        {"borel_generators": ["x4*x5", "x2*x6"]},
        {"borel_generators": ["x4^2", "x3*x6"]},
    ],
}

SINGLE_SPEC = {
    "n": 5,
    "ideals": [{"borel_generators": ["x3^2", "x2*x5"]}],
}

ONE_VARIABLE_SPEC = {"n": 2, "ideals": [{"borel_generators": ["x1^2"]}]}

TRIPLE_SPEC = {
    "n": 5,
    "ideals": [
        {"borel_generators": ["x3^2", "x1*x5"]},
        {"borel_generators": ["x3^2", "x2*x4"]},
        {"borel_generators": ["x2*x4", "x1*x5"]},
    ],
}


@pytest.fixture
def spec_file(tmp_path):
    def write(spec, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    return write


@contextlib.contextmanager
def no_rule_objects():
    """Every rule and monomial constructor refuses, with "rule object
    built"."""
    def refused(*_args, **_kwargs):
        raise AssertionError("rule object built")

    with mock.patch.object(reduction.MarkedBinomial, "__init__", refused), \
            mock.patch.object(presentation.PresMonomial, "__init__",
                              refused), \
            mock.patch.object(presentation.PresMonomial, "from_sorted",
                              refused), \
            mock.patch.object(presentation.MixedMonomial, "__init__",
                              refused), \
            mock.patch.object(reduction, "_unchecked_rule", refused):
        yield


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestClosure:
    def test_regions_reported(self, capsys, spec_file):
        code, payload = run_cli(
            capsys, "closure", "--spec", spec_file(SINGLE_SPEC)
        )
        assert code == 0
        (entry,) = payload["ideals"]
        assert len(entry["minimal_generators"]) == 10
        assert len(entry["regions"]["B_M"]) == 6
        assert len(entry["regions"]["B_N"]) == 4

    def test_bad_spec_path(self, capsys):
        assert main(["closure", "--spec", "/nonexistent.json"]) == 4

    def test_malformed_generator(self, capsys, spec_file):
        bad = {"n": 3, "ideals": [{"borel_generators": ["x2*oops"]}]}
        assert main(["closure", "--spec", spec_file(bad)]) == 4

    @pytest.mark.parametrize("command", ["closure", "verify"])
    def test_wrong_length_exponent_list(self, capsys, spec_file, command):
        bad = {"n": 4, "ideals": [{"borel_generators": [[0, 1, 1]]}]}
        assert main([command, "--spec", spec_file(bad)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exponent vector length 3 != n=4\n"


class TestFiberGraph:
    def test_pair_fiber_summary_and_dot(self, capsys, spec_file, tmp_path):
        out_dir = tmp_path / "out"
        code, payload = run_cli(
            capsys,
            "fiber-graph",
            "--spec", spec_file(PAIR_SPEC),
            "--mu", "x2*x3*x4^2*x5*x6",
            "--t", "2,1",
            "--basis", "ht",
            "--out", str(out_dir),
        )
        assert code == 0
        assert payload["vertex_count"] == 7
        assert payload["sinks"] == ["T35*T26*Z44"]
        assert not payload["has_cycle"]
        dot = (out_dir / "fiber.dot").read_text()
        assert dot == payload["dot"]
        assert "T44*Z35 -> T35*Z44" in dot

    def test_empty_fiber(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "fiber-graph",
            "--spec", spec_file(SINGLE_SPEC),
            "--mu", "x1*x2*x3",
            "--t", "2",
        )
        assert code == 0 and payload["summary"] == "empty"
        assert "dot" not in payload

    def test_parse_error_position(self, capsys, spec_file):
        code = main(
            [
                "fiber-graph",
                "--spec", spec_file(SINGLE_SPEC),
                "--mu", "x1*y2",
                "--t", "2",
            ]
        )
        assert code == 4

    def test_wrong_length_t_vector_exits_four(self, capsys, spec_file):
        code = main(["fiber-graph", "--spec", spec_file(PAIR_SPEC),
                     "--mu", "x1", "--t", "2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "error: t-vector length 1 != r=2\n"

    def test_fiber_type_builds_the_mixed_fiber(self, capsys, spec_file):
        # used to end in an AttributeError: syzygies applied to pure monomials
        code, payload = run_cli(
            capsys,
            "fiber-graph",
            "--spec", spec_file(SINGLE_SPEC),
            "--mu", "x1*x2*x3",
            "--t", "1",
            "--basis", "fiber-type",
        )
        assert code == 0
        assert payload["vertices"] == ["x1*T23", "x2*T13", "x3*T12"]
        assert payload["sinks"] == ["x3*T12"] and not payload["has_cycle"]
        assert payload["dot"].startswith('digraph "x1*x2*x3;t1"')
        assert "x1*T23 -> x2*T13" in payload["dot"]


class TestVerify:
    def test_certified_exit_zero(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "verify",
            "--spec", spec_file(SINGLE_SPEC),
            "--budget", "3",
            "--basis", "g1",
        )
        assert code == 0
        assert payload["verdict"] == "certified-up-to-bound"

    def test_jobs_do_not_change_bytes(self, capsys, spec_file):
        args = [
            "verify",
            "--spec", spec_file(PAIR_SPEC),
            "--budget", "1,1",
            "--basis", "ht",
        ]
        code1 = main(args + ["--jobs", "1"])
        out1 = capsys.readouterr().out
        code2 = main(args + ["--jobs", "4"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0 and out1 == out2

    def test_fiber_type_jobs_do_not_change_bytes(self, capsys, spec_file):
        # --jobs is accepted and every run is serial: the block order
        # orients the fiber-type basis, so its standard monomials are counted
        args = [
            "verify",
            "--spec", spec_file(PAIR_SPEC),
            "--budget", "2,1",
            "--basis", "fiber-type",
        ]
        code1 = main(args + ["--jobs", "1"])
        out1 = capsys.readouterr().out
        code2 = main(args + ["--jobs", "2"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0 and out1 == out2
        payload = json.loads(out1)
        assert payload["verdict"] == "certified-up-to-bound"
        assert payload["notes"][0].startswith("standard monomials under the "
                                              "block order")

    def test_default_budget_is_two_per_ideal(self, capsys, spec_file):
        # the default used to be a single 2, which a pair rejects with exit 4
        path = spec_file(PAIR_SPEC)
        code1 = main(["verify", "--spec", path])
        out1 = capsys.readouterr().out
        code2 = main(["verify", "--spec", path, "--budget", "2,2"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0 and out1 == out2

    def test_fiber_type_verification(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "verify",
            "--spec", spec_file(SINGLE_SPEC),
            "--budget", "2",
            "--basis", "fiber-type",
            "--xdeg", "5",
        )
        assert code == 0 and payload["verdict"] == "certified-up-to-bound"

    def test_basis_dump_written(self, capsys, spec_file, tmp_path):
        out_dir = tmp_path / "dump"
        main(
            [
                "verify",
                "--spec", spec_file(SINGLE_SPEC),
                "--budget", "2",
                "--basis", "g1",
                "--out", str(out_dir),
            ]
        )
        capsys.readouterr()
        lines = (out_dir / "basis.jsonl").read_text().splitlines()
        assert all(json.loads(line)["source"] == "G1" for line in lines)


class TestEvidence:
    """A run that checked no fiber with two monomials and no oracle pair is
    inconclusive (exit 3), never certified."""

    def test_fiber_type_with_xdeg_below_generator_degree_is_inconclusive(
        self, capsys, spec_file
    ):
        # only t = 0 fibers, each the single x-monomial, are reachable
        code, payload = run_cli(
            capsys,
            "verify",
            "--spec", spec_file(SINGLE_SPEC),
            "--budget", "2",
            "--basis", "fiber-type",
            "--xdeg", "1",
        )
        assert code == 3
        assert payload["verdict"] == "inconclusive"
        assert payload["multidegrees_checked"] == 6
        assert payload["failures"] == []

    def test_fiber_type_default_reaches_every_budgeted_slice(
        self, capsys, spec_file
    ):
        # t = 3 has content degree 6; the default used to be 4 whatever the
        # budget, which checked 267 multidegrees, the same as --budget 2
        code, payload = run_cli(
            capsys,
            "verify",
            "--spec", spec_file(SINGLE_SPEC),
            "--budget", "3",
            "--basis", "fiber-type",
        )
        assert code == 0 and payload["verdict"] == "certified-up-to-bound"
        assert payload["notes"][0].startswith(
            "standard monomials under the block order (x-parts first, then ")
        assert payload["notes"][1:] == ["mixed fibers up to x-degree 6"]
        assert payload["multidegrees_checked"] == 1291

    @pytest.mark.parametrize("command", ["verify", "kernel-oracle"])
    def test_explicit_xdeg_below_a_slice_names_it(
        self, capsys, spec_file, command
    ):
        code, payload = run_cli(
            capsys,
            command,
            "--spec", spec_file(SINGLE_SPEC),
            "--budget", "3",
            "--basis", "fiber-type",
            "--xdeg", "4",
        )
        assert code == 0
        assert payload["notes"][-2:] == [
            f"mixed {'fibers' if command == 'verify' else 'kernel pairs'} "
            f"up to x-degree 4",
            "unchecked t-vectors, content degree above x-degree 4: 3",
        ]

    @pytest.mark.parametrize("budget", ["0,0", "1,0", "0,1"])
    def test_budget_below_every_lead_is_inconclusive(
        self, capsys, spec_file, budget
    ):
        code, payload = run_cli(
            capsys,
            "verify",
            "--spec", spec_file(PAIR_SPEC),
            "--budget", budget,
            "--basis", "ht",
        )
        assert code == 3
        assert payload["verdict"] == "inconclusive"
        assert payload["failures"] == []

    def test_smallest_budget_reaching_a_lead_certifies(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "verify",
            "--spec", spec_file(PAIR_SPEC),
            "--budget", "1,1",
            "--basis", "ht",
        )
        assert code == 0 and payload["verdict"] == "certified-up-to-bound"

    def test_kernel_oracle_without_pairs_is_inconclusive(
        self, capsys, spec_file
    ):
        code, payload = run_cli(
            capsys,
            "kernel-oracle",
            "--spec", spec_file(PAIR_SPEC),
            "--budget", "1,0",
            "--basis", "ht",
        )
        assert code == 3
        assert payload["oracle_binomials_checked"] == 0
        assert payload["verdict"] == "inconclusive"

    def test_koszul_report_passes_inconclusive_through(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "koszul-report",
            "--spec", spec_file(PAIR_SPEC),
            "--budget", "1,0",
        )
        assert code == 3 and payload["verdict"] == "inconclusive"
        assert payload["gb_verification"]["verdict"] == "inconclusive"
        assert "constructed basis failed certification" not in payload["notes"]


class TestKernelOracle:
    def test_pure_oracle(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "kernel-oracle",
            "--spec", spec_file(SINGLE_SPEC),
            "--budget", "2",
            "--basis", "g1",
        )
        assert code == 0
        assert payload["oracle_binomials_checked"] > 0
        assert payload["oracle_failures"] == []

    def test_mixed_oracle(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "kernel-oracle",
            "--spec", spec_file(SINGLE_SPEC),
            "--budget", "2",
            "--basis", "fiber-type",
            "--xdeg", "5",
        )
        assert code == 0 and not payload["oracle_failures"]


    @pytest.mark.parametrize("basis", ["ht", "fiber-type"])
    def test_reference_pairs_are_not_built(self, capsys, spec_file, basis):
        # the command reduces fiber members on atom tuples; the pair list
        # and the pair check on monomials are library entry points it
        # does not take
        def unused(*_args, **_kwargs):
            raise AssertionError("reference called")

        with mock.patch.multiple(verifier, toric_kernel_span=unused,
                                 check_membership=unused):
            code, payload = run_cli(
                capsys, "kernel-oracle", "--spec", spec_file(PAIR_SPEC),
                "--budget", "1,1", "--basis", basis,
            )
        assert code == 0 and payload["oracle_binomials_checked"] > 0

    def test_a_builder_basis_builds_no_rule_object(self, capsys, spec_file):
        # the oracle reads the builder's RankRules rows: with every rule
        # and monomial constructor refusing, the ht run at 2,1 still checks
        # its 9,941 pairs and prints the same report
        path = spec_file(PAIR_SPEC)
        argv = ["kernel-oracle", "--spec", path, "--basis", "ht",
                "--budget", "2,1"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        with no_rule_objects():
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == expected
        assert json.loads(out)["oracle_binomials_checked"] == 9941
        # the patches stop a run that does build rules: verify decodes them
        def refused(*_args, **_kwargs):
            raise AssertionError("rule object built")

        with mock.patch.object(reduction, "_unchecked_rule", refused):
            with pytest.raises(AssertionError, match="rule object built"):
                main(["verify", "--spec", path, "--basis", "ht",
                      "--budget", "1,1"])

    def test_the_library_oracle_on_a_builder_basis_builds_no_rule_object(
            self, running_pair):
        # the builder's result goes to kernel_membership as it is, with no
        # rule or monomial object built by either
        ideals = list(running_pair)
        views = [borel.order_view(i) for i in ideals]
        with no_rule_objects():
            basis = borel_rees.build_head_and_tail_basis(*views)
            checked, failures = borel_rees.kernel_membership(
                basis, ideals, (2, 1))
            assert len(basis) == 387
        assert (checked, failures) == (9941, [])
        assert isinstance(basis, reduction.RankRules)

    @pytest.mark.parametrize("spec, budget", [(PAIR_SPEC, "1,1"),
                                              (SINGLE_SPEC, "2")],
                             ids=["pair", "one ideal"])
    def test_a_fiber_type_basis_builds_no_rule_object(self, capsys,
                                                      spec_file, spec,
                                                      budget):
        # the fiber-type builders write rows too: with every rule and
        # monomial constructor refusing, the oracle prints the same report
        argv = ["kernel-oracle", "--spec", spec_file(spec), "--basis",
                "fiber-type", "--budget", budget]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        with no_rule_objects():
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == expected
        assert json.loads(out)["oracle_binomials_checked"] > 0

    def test_the_library_oracle_on_a_fiber_type_basis_builds_no_rule_object(
            self, running_pair):
        ideals = list(running_pair)
        with no_rule_objects():
            basis = borel_rees.build_fiber_type_basis(
                ideals, verifier.quadratic_basis_for(ideals))
            checked, failures = borel_rees.kernel_membership(
                basis, ideals, (1, 1))
            assert len(basis) == 501
        assert (checked, failures) == (1213, [])
        assert isinstance(basis, reduction.RankRules) and basis._rules is None

    @pytest.mark.parametrize("command, count", [
        ("kernel-oracle", "oracle_binomials_checked"),
        ("verify", "multidegrees_checked"),
    ])
    def test_fiber_type_runs_use_no_object_reference(self, capsys, spec_file,
                                                     command, count):
        # both commands work on atom tuples from the one enumerator; the
        # fibers, fiber graphs and pair checks on monomials are library
        # entry points they do not take
        def unused(*_args, **_kwargs):
            raise AssertionError("reference called")

        references = dict(mixed_fibers=unused, analyze_fiber=unused,
                          toric_kernel_span=unused, check_membership=unused)
        with mock.patch.multiple(verifier, **references):
            code, payload = run_cli(
                capsys, command, "--spec", spec_file(SINGLE_SPEC),
                "--budget", "2", "--basis", "fiber-type", "--xdeg", "5",
            )
        assert code == 0 and payload[count] > 0


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--budget", "2", "--basis", "fiber-type", "--xdeg", "-1"],
            ["kernel-oracle", "--budget", "2", "--basis", "fiber-type",
             "--xdeg", "-1"],
            ["verify", "--budget", "2", "--basis", "fiber-type", "--xdeg", "x"],
            ["verify", "--budget", "-1"],
            ["verify", "--budget", "2,x"],
            ["verify", "--budget", "2", "--jobs", "0"],
            ["verify", "--budget", "2", "--jobs", "-3"],
            ["verify", "--budget", "2", "--jobs", "x"],
            ["kernel-oracle", "--budget", "2", "--jobs", "0"],
            ["koszul-report", "--budget", "2", "--jobs", "-1"],
            ["verify", "--budget", "2", "--basis", "g1", "--xdeg", "3"],
            ["kernel-oracle", "--budget", "2", "--basis", "g1", "--xdeg", "3"],
        ],
    )
    def test_bad_argument_exits_four(self, capsys, spec_file, argv):
        # a negative --xdeg used to report "inconclusive" (exit 3), a --jobs
        # below 1 ran serially without a word, argparse's own exit code 2
        # read as "refuted", and --xdeg on a pure basis (g1) was ignored
        code = main(argv[:1] + ["--spec", spec_file(SINGLE_SPEC)] + argv[1:])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        if "g1" in argv:
            assert "error: an x-degree bound applies only" in captured.err
        else:
            assert "error: argument" in captured.err

    @pytest.mark.parametrize("command, note", [
        ("verify", "mixed fibers up to x-degree 3"),
        ("kernel-oracle", "mixed kernel pairs up to x-degree 3"),
    ])
    def test_xdeg_on_an_empty_fiber_type_basis(self, capsys, spec_file,
                                               command, note):
        # B(x1^2) at n=2 has one presentation variable, so its fiber-type
        # basis has no syzygy and no fiber rule: with no lead to call pure
        # the bound is taken, and every fiber is a singleton
        code, payload = run_cli(
            capsys, command, "--spec", spec_file(ONE_VARIABLE_SPEC),
            "--budget", "2", "--basis", "fiber-type", "--xdeg", "3")
        assert code == 3 and payload["verdict"] == "inconclusive"
        assert note in payload["notes"]

    def test_an_empty_fiber_type_basis_walks_the_mixed_fibers(
            self, capsys, spec_file):
        # with no --xdeg the empty table's mixed lead kind picks the mixed
        # fibers at the default bound, as for a basis with rules
        argv = ["--spec", spec_file(ONE_VARIABLE_SPEC), "--budget", "2",
                "--basis", "fiber-type"]
        code, payload = run_cli(capsys, "verify", *argv)
        assert code == 3 and payload["verdict"] == "inconclusive"
        assert payload["notes"] == [
            "standard monomials under the block order (x-parts first, then "
            "rlex); 0 rules oriented, images equal",
            "mixed fibers up to x-degree 4",
            "no checked fiber holds two monomials: nothing to certify",
        ]
        assert payload["multidegrees_checked"] == 22
        code, payload = run_cli(capsys, "kernel-oracle", *argv)
        assert code == 3 and payload["verdict"] == "inconclusive"
        assert payload["notes"] == [
            "mixed kernel pairs up to x-degree 4",
            "no fiber within the budget holds two monomials: no pair checked",
        ]

    @pytest.mark.parametrize("command", ["verify", "kernel-oracle"])
    def test_xdeg_on_an_empty_g1_basis_exits_four(self, capsys, spec_file,
                                                  command):
        # the G1 builder's table has quadric leads even with no row
        code = main([command, "--spec", spec_file(ONE_VARIABLE_SPEC),
                     "--budget", "2", "--basis", "g1", "--xdeg", "3"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "error: an x-degree bound applies only" in captured.err

    @pytest.mark.parametrize("entries", [
        ["x1"], [5], [None], [["x1^2"]],
        [{"borel_generators": ["x1^2"]}, "x1"],
    ], ids=["text", "number", "null", "list", "second entry"])
    def test_ideal_entry_that_is_no_object(self, capsys, spec_file, entries):
        # a non-object entry used to be reported as missing its
        # borel_generators field
        spec = spec_file({"n": 6, "ideals": entries})
        code = main(["verify", "--spec", spec, "--budget", "2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        k = len(entries) - 1
        assert captured.err == f"error: field 'ideals[{k}]' must be an object\n"

    @pytest.mark.parametrize("command", ["verify", "closure"])
    def test_deeply_nested_spec_exits_four(self, capsys, tmp_path, command):
        # json.load raised RecursionError here, a traceback with exit 1
        spec = tmp_path / "nested.json"
        spec.write_text("[" * 100000 + "]" * 100000)
        code = main([command, "--spec", str(spec)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "error: spec nests too deeply to parse\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure", "--jobs", "5"],
            ["fiber-graph", "--mu", "x3^2", "--jobs", "3"],
        ],
    )
    def test_jobs_only_where_it_acts(self, capsys, spec_file, argv):
        # these commands used to accept --jobs and run serially without a word
        code = main(argv[:1] + ["--spec", spec_file(SINGLE_SPEC)] + argv[1:])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert "unrecognized arguments: --jobs" in captured.err

    @pytest.mark.parametrize(
        "command", ["verify", "kernel-oracle", "detect-cubics", "koszul-report"]
    )
    def test_jobs_help_says_the_run_is_serial(self, capsys, command):
        # verify and koszul-report used to offer --jobs as pool workers
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--jobs JOBS accepted for scripts; this command runs " \
            "serially" in text
        assert "worker" not in text and "parallel" not in text

    @pytest.mark.parametrize(
        "command", ["verify", "kernel-oracle", "detect-cubics", "koszul-report"]
    )
    def test_budget_length_is_checked_first(self, capsys, spec_file, command):
        # one entry for two ideals: detect-cubics used to report "t budget
        # must allow total t-degree >= 3", and verify "budget needs 2 entries"
        code = main([command, "--spec", spec_file(PAIR_SPEC), "--budget", "1"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "error: t budget needs 2 entries, got 1\n"

    def test_koszul_report_without_a_basis_checks_its_budget(self, capsys,
                                                             spec_file):
        # no constructive basis and no scan below total 3: the command used
        # to exit 3 and echo the one-entry budget
        spec = {"n": 3, "ideals": [{"borel_generators": ["x1*x2"]},
                                   {"borel_generators": ["x1^3"]}]}
        code = main(["koszul-report", "--spec", spec_file(spec), "--budget",
                     "1"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "error: t budget needs 2 entries, got 1\n"

    def test_order_alias_is_gone(self, capsys, spec_file):
        # --order mrlex selected G2 while the report said "basis": "g1"
        code = main(["verify", "--spec", spec_file(SINGLE_SPEC), "--budget",
                     "2", "--order", "mrlex"])
        assert code == 4 and capsys.readouterr().out == ""


class TestBadOut:
    """An --out that cannot be a directory exits 4 before any work: no
    report on stdout, and the command's work function is never called."""

    @pytest.mark.parametrize(
        "argv, module, work",
        [
            (["verify", "--budget", "1,1"], cli, "verify_gb"),
            (["kernel-oracle", "--budget", "1,1"], cli, "kernel_membership"),
            (["paper-examples", "fig4"], paper_cases, "run_case"),
        ],
    )
    def test_existing_file_exits_four_with_empty_stdout(
        self, capsys, spec_file, argv, module, work
    ):
        spec = spec_file(PAIR_SPEC)
        if argv[0] != "paper-examples":
            argv = argv + ["--spec", spec]

        def unused(*_args, **_kwargs):
            raise AssertionError("work started")

        with mock.patch.object(module, work, unused):
            code = main(argv + ["--out", spec])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert json.loads(Path(spec).read_text()) == PAIR_SPEC

    @pytest.mark.parametrize("argv", [
        ["verify", "--spec", "missing.json"],
        ["fiber-graph", "--mu", "x9"],
    ])
    def test_refused_run_removes_the_directories_it_made(
        self, capsys, spec_file, tmp_path, argv
    ):
        if argv[0] == "fiber-graph":
            argv = argv + ["--spec", spec_file(PAIR_SPEC)]
        else:
            argv = [a.replace("missing.json", str(tmp_path / "missing.json"))
                    for a in argv]
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "new" / "dir", tmp_path / "kept" / "a" / "b"):
            code = main(argv + ["--out", str(out)])
            assert code == 4 and capsys.readouterr().out == ""
        # the made directories go, deepest first; the existing parent stays
        assert not (tmp_path / "new").exists()
        assert (tmp_path / "kept").is_dir()
        assert not any((tmp_path / "kept").iterdir())

    def test_out_of_memory_exits_four_and_removes_its_directory(
            self, capsys, spec_file, tmp_path):
        # a spec too large to hold, such as "n": 100000000000, runs out of
        # memory while it is loaded
        def exhausted(*_args, **_kwargs):
            raise MemoryError

        out = tmp_path / "new" / "dir"
        with mock.patch.object(cli, "load_collection", exhausted):
            code = main(["verify", "--spec", spec_file(PAIR_SPEC),
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "error: out of memory for this input\n"
        assert not (tmp_path / "new").exists()

    def test_refused_run_leaves_an_existing_out_alone(self, capsys, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "old.json").write_text("{}")
        code = main(["verify", "--spec", str(tmp_path / "missing.json"),
                     "--out", str(out)])
        assert code == 4 and capsys.readouterr().out == ""
        assert [p.name for p in out.iterdir()] == ["old.json"]
        assert (out / "old.json").read_text() == "{}"

    def test_missing_parents_are_created(self, capsys, spec_file, tmp_path):
        out_dir = tmp_path / "a" / "b"
        code = main(["verify", "--spec", spec_file(PAIR_SPEC), "--budget",
                     "1,1", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert (out_dir / "verify.json").read_text() == out
        assert (out_dir / "basis.jsonl").is_file()


class TestSpecSchema:
    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"n": 6, "ideals": [{}]}, "ideals[0].borel_generators"),
            ({"n": 6, "ideals": [{"borel_generators": [5]}]},
             "ideals[0].borel_generators"),
            ({"ideals": []}, "'n'"),
            ({"n": "six", "ideals": []}, "'n'"),
            ({"n": 6, "ideals": {"borel_generators": []}}, "'ideals'"),
            ({"n": 6, "ideals": [{"borel_generators": ["1"]}]}, "degree"),
        ],
    )
    def test_malformed_spec_exits_four_naming_the_field(
        self, capsys, spec_file, spec, field
    ):
        code = main(["verify", "--spec", spec_file(spec), "--budget", "2"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error:") and field in err


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3)
)
_GENERATOR = st.one_of(
    st.sampled_from(["x1", "x2", "x1^2", "x2*x3", "x3^2", "x1*x4", "x2*x4",
                     "1", "", "x9", "y1", "x1*", "x2^0"]),
    st.lists(st.integers(-1, 1), max_size=5),
    _JUNK,
)
_IDEAL = st.one_of(
    st.fixed_dictionaries(
        {"borel_generators": st.lists(_GENERATOR, max_size=3)}
    ),
    st.dictionaries(st.sampled_from(["borel_generators", "gens"]), _JUNK,
                    max_size=2),
    _JUNK,
)
_SPEC = st.one_of(
    st.fixed_dictionaries({
        "n": st.one_of(st.integers(-1, 4), _JUNK),
        "ideals": st.one_of(st.lists(_IDEAL, max_size=3), _JUNK),
    }),
    st.dictionaries(st.sampled_from(["n", "ideals"]), _JUNK, max_size=2),
    st.lists(_JUNK, max_size=2),
    _JUNK,
)


@settings(max_examples=150, deadline=None)
@given(
    spec=_SPEC,
    basis=st.sampled_from([None, "g1", "g2", "g3", "ht", "fiber-type"]),
    budget=st.integers(0, 2),
)
def test_fuzzed_specs_get_a_documented_exit_code(spec, basis, budget):
    # one t bound per ideal (1 for pairs, so a valid pair stays small)
    r = len(spec["ideals"]) if isinstance(spec, dict) and isinstance(
        spec.get("ideals"), list) else 1
    bound = budget if r == 1 else min(budget, 1)
    argv = ["--budget", ",".join([str(bound)] * max(r, 1))]
    if basis:
        argv += ["--basis", basis]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "spec.json")
        path.write_text(json.dumps(spec))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["verify", "--spec", str(path)] + argv)
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()


PRINCIPAL_SPEC = {"n": 2, "ideals": [{"borel_generators": ["x1^2"]}]}


class TestDeepBudgets:
    """A slice of 1,200 factors: one monomial per t-slice, built level by
    level with no recursion, and a documented exit code."""

    @pytest.mark.parametrize("command, code", [
        ("verify", 3), ("kernel-oracle", 3), ("detect-cubics", 0)])
    def test_budget_1200(self, spec_file, command, code):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main([command, "--spec", spec_file(PRINCIPAL_SPEC),
                        "--budget", "1200"])
        assert got == code
        assert "Traceback" not in err.getvalue()
        payload = json.loads(out.getvalue())
        if command == "verify":
            assert payload["multidegrees_checked"] == 1201
            assert payload["verdict"] == "inconclusive"

    def test_fiber_graph_t_1200(self, spec_file):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main(["fiber-graph", "--spec", spec_file(PRINCIPAL_SPEC),
                        "--mu", "x1^2400", "--t", "1200"])
        assert got == 0
        assert "Traceback" not in err.getvalue()
        assert json.loads(out.getvalue())["sinks"] == ["T11^1200"]


class TestHugeExponent:
    """A principal generator of exponent 999,999,999,999: the order view
    reads its support, so the run ends with a documented exit code where a
    MemoryError traceback used to end it."""

    @pytest.mark.parametrize("command, budget", [("verify", "1"),
                                                 ("koszul-report", "3")])
    def test_principal_power(self, spec_file, command, budget):
        spec = {"n": 3, "ideals": [{"borel_generators": ["x1^999999999999"]}]}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main([command, "--spec", spec_file(spec), "--budget",
                        budget])
        assert got == 3
        assert "Traceback" not in err.getvalue()
        assert json.loads(out.getvalue())["verdict"] == "inconclusive"


class TestDetectCubics:
    def test_obstructed_collection(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "detect-cubics",
            "--spec", spec_file(TRIPLE_SPEC),
            "--budget", "1,1,1",
        )
        assert code == 2 and len(payload["witnesses"]) == 1

    def test_clean_collection(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "detect-cubics",
            "--spec", spec_file(SINGLE_SPEC),
            "--budget", "3",
        )
        assert code == 0 and payload["witnesses"] == []


class TestKoszulReportCommand:
    def test_certified(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "koszul-report",
            "--spec", spec_file(PAIR_SPEC),
            "--budget", "2,1",
        )
        assert code == 0 and payload["verdict"] == "g-quadratic-certified"

    def test_obstructed(self, capsys, spec_file):
        code, payload = run_cli(
            capsys,
            "koszul-report",
            "--spec", spec_file(TRIPLE_SPEC),
            "--budget", "1,1,1",
        )
        assert code == 2 and payload["verdict"] == "obstructed"


class TestPaperExamples:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_target_matches_checked_in_expectation(self, name):
        expected = load_expectation(name)
        assert expected is not None, f"missing expectation for {name}"
        assert run_case(name, {}) == expected
        assert all(expected["checks"].values())

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cli_reports_match(self, capsys, name):
        code, payload = run_cli(capsys, "paper-examples", name)
        assert code == 0
        assert payload["matches_expectation"] is True

    def test_unknown_name(self, capsys):
        assert main(["paper-examples", "ex9.9"]) == 4

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a negative shift used to run the shift-1 ideals, and an
            # unused parameter was ignored, both with exit 0
            (["ex4.2", "--a", "-2"], "parameter 'a' must be >= 0, got -2"),
            (["ex4.1", "--a", "1", "--c", "-1"],
             "parameter 'c' must be >= 0, got -1"),
            (["ex4.2", "--c", "3"],
             "example ex4.2 does not take parameter 'c'; it takes a, b"),
            (["ex4.3", "--b", "0"],
             "example ex4.3 does not take parameter 'b'; it takes a"),
            (["fig1", "--a", "2"], "example fig1 does not take parameter 'a'"),
        ],
    )
    def test_bad_parameters_exit_four(self, capsys, argv, message):
        code = main(["paper-examples"] + argv)
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_shifted_family_still_obstructed(self, capsys):
        code, payload = run_cli(
            capsys, "paper-examples", "ex4.1", "--a", "1", "--b", "0",
            "--c", "2",
        )
        assert code == 0
        assert payload["checks"]["witness_at_stated_multidegree"]
        assert payload["checks"]["stated_pair_separated"]
        assert "matches_expectation" not in payload
        mus = {w["multidegree"]["display"] for w in payload["witnesses"]}
        assert "x1*x2*x3^2*x4*x5*x6^3;t1*t2*t3" in mus

    def test_quartic_family_shift(self, capsys):
        code, payload = run_cli(
            capsys, "paper-examples", "ex4.2", "--a", "1", "--b", "1"
        )
        assert code == 0
        assert payload["checks"]["stated_pair_separated"]


class TestStartup:
    def test_importing_loads_no_slow_module(self):
        # a fresh interpreter each: nothing imports multiprocessing, no
        # class is generated by dataclasses, whose import also loads
        # inspect, ast and dis, and the bundled expectations are read by
        # path, since importlib.resources loads inspect on Python 3.12 and
        # later. -S skips the site hooks, which in some installations import
        # these modules themselves.
        src = str(Path(borel_rees.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for module in ("borel_rees", "borel_rees.cli",
                       "borel_rees.paper_cases"):
            proc = subprocess.run(
                [sys.executable, "-S", "-c",
                 f"import {module}, sys; print([m for m in ('dataclasses', "
                 f"'inspect', 'importlib.resources', 'multiprocessing') "
                 f"if m in sys.modules])"],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", module


def main_outcomes(calls):
    """(exit code, stdout, stderr) of main on each argv in turn."""
    outcomes = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outcomes.append((code, out.getvalue(), err.getvalue()))
    return outcomes


class TestParserReuse:
    def test_one_parser_answers_like_fresh_ones(self, spec_file):
        # main builds its parser once per process; usage errors, --help and
        # real runs interleaved read exactly as with a parser per call
        spec = spec_file(PAIR_SPEC)
        calls = [
            ["verify", "--spec", spec, "--budget", "x"],
            ["--help"],
            ["verify", "--spec", spec, "--budget", "1,1", "--basis", "ht"],
            ["kernel-oracle", "--help"],
            ["verify", "--spec", spec, "--budget", "1,1", "--jobs", "0"],
            ["verify", "--spec", spec, "--budget", "2,1", "--basis", "g3"],
            # the default budget, after a call that gave one
            ["verify", "--spec", spec, "--basis", "ht"],
        ]
        cli._parser.cache_clear()
        with mock.patch.object(cli, "build_parser",
                               wraps=cli.build_parser) as build:
            reused = main_outcomes(calls)
        assert build.call_count == 1
        with mock.patch.object(cli, "_parser", cli.build_parser):
            fresh = main_outcomes(calls)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [4, 0, 0, 0, 4, 2, 0]
        assert "usage: borel-rees" in reused[1][1]
        assert "error: argument --budget" in reused[0][2]

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


# each redundant spec with its minimal spec
REDUNDANT_SPECS = [
    # x3*x4 lies in B(x4^2); the split used to refuse the pair's shape
    ({"n": 4, "ideals": [{"borel_generators": ["x3*x4", "x4^2"]}]},
     {"n": 4, "ideals": [{"borel_generators": ["x4^2"]}]}),
    # x1*x2 and x1^2 lie in B(x2^2); the gate used to count g = 3
    ({"n": 2, "ideals": [{"borel_generators": ["x2^2", "x1*x2", "x1^2"]}]},
     {"n": 2, "ideals": [{"borel_generators": ["x2^2"]}]}),
    # a repeat, and a generator inside another's closure
    ({"n": 6, "ideals": [
        {"borel_generators": ["x4*x5", "x2*x6", "x4*x5", "x1*x6"]},
        {"borel_generators": ["x4^2", "x3*x6"]}]},
     PAIR_SPEC),
]


class TestRedundantGenerators:
    @pytest.mark.parametrize("redundant, minimal", REDUNDANT_SPECS)
    @pytest.mark.parametrize("command", ["closure", "verify", "koszul-report"])
    def test_output_is_the_minimal_specs(self, capsys, spec_file, command,
                                         redundant, minimal):
        argv = [command]
        if command == "koszul-report":
            # a total t-degree of 3 runs the obstruction scan
            argv += ["--budget", "3" if len(minimal["ideals"]) == 1 else "2,1"]
        runs = []
        for spec, name in ((redundant, "redundant.json"),
                           (minimal, "minimal.json")):
            code = main(argv + ["--spec", spec_file(spec, name)])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_gate_counts_minimal_generators(self, capsys, spec_file):
        code, payload = run_cli(
            capsys, "koszul-report", "--spec", spec_file(REDUNDANT_SPECS[1][0]),
            "--budget", "3",
        )
        assert payload["parameter_gate"]["g"] == [1]
        assert payload["parameter_gate"]["case"] == "c"


class TestInconclusiveNotes:
    # two copies of B(x1^2) at n=2: one variable each, so every fiber of
    # the budget is a singleton
    SINGLETONS = {"n": 2, "ideals": [{"borel_generators": ["x1^2"]},
                                     {"borel_generators": ["x1^2"]}]}

    @pytest.mark.parametrize("command, note", [
        ("koszul-report", "constructed basis run inconclusive: no checked "
         "fiber held two monomials"),
        ("kernel-oracle", "no fiber within the budget holds two monomials: "
         "no pair checked"),
    ])
    def test_a_run_with_no_pair_says_why(self, capsys, spec_file, command,
                                         note):
        code, payload = run_cli(capsys, command, "--spec",
                                spec_file(self.SINGLETONS), "--budget", "2,2")
        assert code == 3 and payload["verdict"] == "inconclusive"
        assert payload["notes"] == [note]

    NOTHING = "no checked fiber holds two monomials: nothing to certify"

    @pytest.mark.parametrize("spec, budget, rules", [
        (SINGLETONS, "2,2", 0),
        (PAIR_SPEC, "0,0", 387),
        (PAIR_SPEC, "1,0", 387),
    ])
    def test_a_walked_verify_run_says_why(self, capsys, spec_file, spec,
                                          budget, rules):
        # after the method note, and in koszul-report's basis run too
        path = spec_file(spec)
        code, payload = run_cli(capsys, "verify", "--spec", path,
                                "--budget", budget)
        assert code == 3 and payload["verdict"] == "inconclusive"
        assert payload["notes"] == [
            f"standard monomials under the ht order; {rules} rules "
            f"oriented, images equal", self.NOTHING]
        code, payload = run_cli(capsys, "koszul-report", "--spec", path,
                                "--budget", budget)
        assert code == 3
        assert payload["gb_verification"]["notes"][-1] == self.NOTHING

    def test_a_refuted_verify_run_gets_no_reason(self, capsys, spec_file):
        code, payload = run_cli(capsys, "verify", "--spec",
                                spec_file(PAIR_SPEC), "--budget", "2,1",
                                "--basis", "g3")
        assert code == 2 and self.NOTHING not in payload["notes"]

    def test_evidence_keeps_the_notes_as_they_were(self, capsys, spec_file):
        path = spec_file(PAIR_SPEC)
        code, payload = run_cli(capsys, "verify", "--spec", path,
                                "--budget", "1,1")
        assert code == 0 and payload["notes"] == [
            "standard monomials under the ht order; 387 rules oriented, "
            "images equal"]
        code, payload = run_cli(capsys, "kernel-oracle", "--spec", path,
                                "--budget", "1,1")
        assert code == 0 and payload["notes"] == []
        code, payload = run_cli(capsys, "koszul-report", "--spec", path,
                                "--budget", "1,1")
        assert code == 0
        assert payload["notes"] == ["t budget below 3: obstruction scan "
                                    "skipped"]


class TestFrontEnd:
    def test_verify_builds_each_view_and_variable_once(self, capsys,
                                                      spec_file):
        seen, built = {}, []
        unoriented_rule = verifier.unoriented_rule
        presentation_variables = presentation.presentation_variables
        init = orders.PresOrder.__init__

        def recorded_unoriented_rule(table):
            seen["rules"] = table
            return unoriented_rule(table)

        def recorded_variables(ideals):
            seen["variables"] = presentation_variables(ideals)
            return seen["variables"]

        def recorded_init(self, *args):
            built.append(self)
            init(self, *args)

        with mock.patch.object(borel, "region_partition",
                               wraps=borel.region_partition) as split, \
                mock.patch.object(verifier, "unoriented_rule",
                                  recorded_unoriented_rule), \
                mock.patch.object(presentation, "presentation_variables",
                                  recorded_variables), \
                mock.patch.object(orders.PresOrder, "__init__",
                                  recorded_init):
            code = main(["verify", "--spec", spec_file(PAIR_SPEC),
                         "--budget", "1,1", "--basis", "ht"])
        capsys.readouterr()
        assert code == 0
        # once per ideal: the views are built for the builder alone
        assert split.call_count == 2
        variables = seen["variables"]
        one = {v.key: v for v in variables}
        assert len(one) == len(variables) == 32
        # one order, the builder's, which the run checks as it came
        order = seen["rules"].order
        assert built == [order] and order.kind == "ht"
        assert sorted(map(id, order.ranked)) == sorted(map(id, variables))
        factors = [f for g in seen["rules"] for side in (g.lead, g.trail)
                   for f in side.factors]
        assert len(factors) == 4 * 387
        assert all(one[f.key] is f for f in factors)

    def test_jobs_keep_a_fiber_graph_marking_byte_identical(
            self, capsys, spec_file, tmp_path):
        # one ht rule reversed: the ht order the table carries does not
        # orient it, so verify checks nothing, whatever --jobs says; only
        # the graph oracle checks the marking, which certifies, since the
        # reversed rule is the marking of another term order
        basis_for = cli._basis_for
        marked = []

        def one_rule_reversed(ideals, name):
            table = basis_for(ideals, name)
            g = table[0]
            rules = [reduction.MarkedBinomial(g.trail, g.lead, g.source),
                     *table[1:]]
            marked.append(marked_like(table, rules))
            return marked[-1]

        path = spec_file(PAIR_SPEC)
        runs = []
        with mock.patch.object(cli, "_basis_for", one_rule_reversed):
            for jobs in ("1", "2"):
                out = tmp_path / jobs
                code = main(["verify", "--spec", path, "--budget", "2,1",
                             "--basis", "ht", "--jobs", jobs,
                             "--out", str(out)])
                runs.append((code, capsys.readouterr().out,
                             (out / "verify.json").read_text(),
                             (out / "basis.jsonl").read_text()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 3
        payload = json.loads(runs[0][1])
        assert payload["multidegrees_checked"] == 0
        assert payload["notes"] == [
            f"the ht order given with the rules does not orient "
            f"{marked[0][0].label(2)}: no fiber checked"]
        code, intact = run_cli(capsys, "verify", "--spec", path,
                               "--budget", "2,1", "--basis", "ht")
        ideals = list(borel.load_collection(PAIR_SPEC))
        graphs = graph_run(marked[0], ideals, (2, 1))
        assert graphs.verdict == intact["verdict"] == "certified-up-to-bound"
        assert graphs.multidegrees_checked == intact["multidegrees_checked"]
