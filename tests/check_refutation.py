#!/usr/bin/env python3
"""Check a refuted verify report on its own, with the standard library only.

    python tests/check_refutation.py OUT_DIR

OUT_DIR holds the verify.json and basis.jsonl that
`borel-rees verify --out OUT_DIR` writes. A failure refutes the basis when
it lists two or more distinct sinks that share one image and that no lead
divides: their difference lies in the toric ideal, and its lead term is
not in the ideal of the leads, so the rules are no Groebner basis for
their marking, at any bound (Sturmfels, Groebner Bases and Convex
Polytopes, 1996, ch. 1). This script checks exactly that for every failure,
reading the monomial labels in both forms the reports use: the T34/Z35
aliases of a two-ideal quadric run (T for the first ideal, Z for the
second, the digits the generator's variables) and T[i]{monomial}. It
imports nothing from the package it checks.

It prints how many failures it accepted and every problem found, and exits
0 when the report has failures and every one is accepted, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

_ALIAS = re.compile(r"([TZ])(\d)(\d)(?:\^(\d+))?")
_FULL = re.compile(r"T\[(\d+)\]\{([^}]*)\}(?:\^(\d+))?")
_X = re.compile(r"x(\d+)(?:\^(\d+))?")


def _tokens(label: str) -> list[str]:
    """The factors of a label: its '*'-separated parts, braces kept whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(label):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "*" and depth == 0:
            parts.append(label[start:i])
            start = i + 1
    parts.append(label[start:])
    return parts


def _ambient(text: str) -> Counter:
    """An x-monomial label ("x2*x5", "x3^2", "1") as {variable: exponent}."""
    exps: Counter = Counter()
    for token in _tokens(text):
        if token == "1":
            continue
        match = _X.fullmatch(token)
        if match is None:
            raise ValueError(f"not an x-monomial factor: {token!r}")
        exps[int(match[1])] += int(match[2] or 1)
    return exps


def parse(label: str) -> tuple[Counter, Counter]:
    """(x-part, presentation factors) of a monomial label: the x-part as
    {variable: exponent}, the factors as {(ideal, generator): multiplicity}
    with the generator a sorted tuple of (variable, exponent)."""
    xs: Counter = Counter()
    factors: Counter = Counter()
    for token in _tokens(label):
        alias = _ALIAS.fullmatch(token)
        full = _FULL.fullmatch(token)
        if alias:
            generator = Counter([int(alias[2]), int(alias[3])])
            ideal, power = (1 if alias[1] == "T" else 2), alias[4]
        elif full:
            generator = _ambient(full[2])
            ideal, power = int(full[1]), full[3]
        else:
            xs += _ambient(token)
            continue
        factors[ideal, tuple(sorted(generator.items()))] += int(power or 1)
    return xs, factors


def image(monomial: tuple[Counter, Counter]) -> tuple[dict, dict]:
    """phi of a parsed monomial: (x-exponents, t-vector), each as a dict
    without zero entries; T_u of ideal i maps to u*t_i."""
    xs, factors = monomial
    x = Counter(xs)
    t: Counter = Counter()
    for (ideal, generator), k in factors.items():
        for variable, e in generator:
            x[variable] += k * e
        t[ideal] += k
    return dict(+x), dict(+t)


def divides(lead: tuple[Counter, Counter], v: tuple[Counter, Counter]) -> bool:
    return all(v[0][a] >= k for a, k in lead[0].items()) and all(
        v[1][f] >= k for f, k in lead[1].items())


def _recorded(multidegree: dict) -> tuple[dict, dict]:
    """A report multidegree as image() writes one."""
    return ({i: e for i, e in enumerate(multidegree["x"], 1) if e},
            {i: e for i, e in enumerate(multidegree["t"], 1) if e})


def check(report: dict, basis_lines: list[str]) -> tuple[int, list[str]]:
    """(failures accepted, problems) of a verify report and its basis."""
    leads = [(text, parse(text)) for text in
             (json.loads(line)["lead"] for line in basis_lines
              if line.strip())]
    accepted, problems = 0, []
    for number, failure in enumerate(report["failures"]):
        where = f"failure {number} ({failure['multidegree']['display']})"
        found = []
        sinks = failure["sinks"]
        if failure["has_cycle"]:
            found.append("a cycle is not a refutation this script checks")
        if len(set(sinks)) < 2:
            found.append(f"{len(set(sinks))} distinct sink(s), need two")
        expected = _recorded(failure["multidegree"])
        for sink in sinks:
            v = parse(sink)
            if image(v) != expected:
                found.append(f"sink {sink} maps to {image(v)}, not to the "
                             f"failure's {expected}")
            for text, lead in leads:
                if divides(lead, v):
                    found.append(f"lead {text} divides sink {sink}")
        problems += [f"{where}: {problem}" for problem in found]
        accepted += not found
    return accepted, problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    report = json.loads((out / "verify.json").read_text())
    lines = (out / "basis.jsonl").read_text().splitlines()
    accepted, problems = check(report, lines)
    total = len(report["failures"])
    for problem in problems:
        print(problem)
    print(f"{accepted} of {total} failures certified against "
          f"{len(lines)} leads")
    return 0 if total and accepted == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
