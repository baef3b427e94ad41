"""The independent refutation checker (tests/check_refutation.py) on a
refuted verify run: it certifies every failure of G3 on the running pair
in either label form, and rejects a sink from another failure and a sink
that a lead divides."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import check_refutation
from borel_rees.cli import main
from borel_rees.presentation import MultiDegree, enumerate_fiber

CHECKER = Path(check_refutation.__file__)

PAIR_SPEC = {
    "n": 6,
    "ideals": [
        {"borel_generators": ["x4*x5", "x2*x6"]},
        {"borel_generators": ["x4^2", "x3*x6"]},
    ],
}


@pytest.fixture(scope="module")
def refuted(tmp_path_factory):
    """(out dir, verify.json, basis.jsonl lines) of verify --basis g3 on
    the running pair at 2,1."""
    out = tmp_path_factory.mktemp("g3")
    spec = out / "pair.json"
    spec.write_text(json.dumps(PAIR_SPEC))
    assert main(["verify", "--spec", str(spec), "--basis", "g3",
                 "--budget", "2,1", "--out", str(out)]) == 2
    report = json.loads((out / "verify.json").read_text())
    return out, report, (out / "basis.jsonl").read_text().splitlines()


def _full_labels(text):
    """Every T34/Z35 alias in text written as T[1]{x3*x4}/T[2]{x3*x5}."""
    def full(match):
        i, j = match[2], match[3]
        generator = f"x{i}^2" if i == j else f"x{i}*x{j}"
        return f"T[{1 if match[1] == 'T' else 2}]{{{generator}}}"

    return re.sub(r"\b([TZ])(\d)(\d)\b", full, text)


def test_every_failure_is_certified(refuted):
    _, report, lines = refuted
    assert len(lines) == 289
    accepted, problems = check_refutation.check(report, lines)
    assert problems == []
    assert accepted == len(report["failures"]) > 100


def test_both_label_forms_read_alike(refuted):
    _, report, lines = refuted
    assert check_refutation.parse("x1*T34^2*Z35") == check_refutation.parse(
        "x1*T[1]{x3*x4}^2*T[2]{x3*x5}")
    full = json.loads(_full_labels(json.dumps(report)))
    assert full != report and "T[1]{" in json.dumps(full["failures"])
    full_lines = [_full_labels(line) for line in lines]
    assert full_lines != lines
    assert check_refutation.check(full, full_lines) == (
        len(report["failures"]), [])


def test_a_sink_from_another_failure_is_rejected(refuted):
    _, report, lines = refuted
    mutant = json.loads(json.dumps(report))
    first, other = mutant["failures"][0], mutant["failures"][1]
    assert first["multidegree"] != other["multidegree"]
    first["sinks"][0] = other["sinks"][0]
    accepted, problems = check_refutation.check(mutant, lines)
    assert accepted == len(report["failures"]) - 1
    assert len(problems) == 1 and "maps to" in problems[0]


def test_a_sink_a_lead_divides_is_rejected(refuted, running_pair):
    # a member of the failure's own fiber that is not a sink: it has the
    # sinks' image, and some lead divides it
    _, report, lines = refuted
    mutant = json.loads(json.dumps(report))

    def others(failure):
        mu = MultiDegree(tuple(failure["multidegree"]["x"]),
                         tuple(failure["multidegree"]["t"]))
        return [v.label(2) for v in enumerate_fiber(mu, running_pair)
                if v.label(2) not in failure["sinks"]]

    failure, member = next((f, others(f)[0]) for f in mutant["failures"]
                           if others(f))
    failure["sinks"][0] = member
    accepted, problems = check_refutation.check(mutant, lines)
    assert accepted == len(report["failures"]) - 1
    assert problems and all(f"divides sink {member}" in p for p in problems)


def test_runs_alone_on_the_out_dir(refuted):
    # a script of the standard library alone: no import of the package,
    # and a run with only the standard library on the path
    out, report, _ = refuted
    tree = ast.parse(CHECKER.read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-I", str(CHECKER), str(out)],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    total = len(report["failures"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == f"{total} of {total} failures certified " \
                          f"against 289 leads\n"


def test_a_report_without_failures_is_no_refutation(tmp_path):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(PAIR_SPEC))
    assert main(["verify", "--spec", str(spec), "--basis", "ht",
                 "--budget", "1,1", "--out", str(tmp_path)]) == 0
    assert check_refutation.main([str(tmp_path)]) == 1
