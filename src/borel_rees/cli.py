"""Batch command-line surface.

Commands: closure | fiber-graph | verify | kernel-oracle | detect-cubics |
koszul-report | paper-examples. Data goes to stdout (and files under --out);
progress chatter goes to stderr. Exit codes: 0 certified/match, 2
refuted/obstructed/mismatch, 3 inconclusive, 4 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .borel import (
    InvalidIdeal,
    collection_spec,
    load_collection,
    order_view,
    region_partition,
)
from .monomial import MonomialParseError, parse_monomial
from .orders import (
    build_G1,
    build_G2,
    build_G3,
    build_fiber_type_basis,
    build_head_and_tail_basis,
    dump_basis,
)
from .presentation import MultiDegree, enumerate_fiber, enumerate_mixed_fiber
from .reduction import build_graph, to_dot
from .verifier import (
    VerificationReport,
    detect_obstructions,
    kernel_membership,
    koszul_report,
    mixed_x_degree,
    progress_to_stderr,
    quadratic_basis_for,
    unreached_slice_notes,
    verify_gb,
)

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_USAGE = 4

def _emit(payload: dict, out_dir: str | None, filename: str = "report.json") -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out_dir:
        Path(out_dir, filename).write_text(text)


def _load_ideals(args: argparse.Namespace):
    """The spec's collection; an omitted --budget becomes 2 per ideal."""
    if not args.spec_path:
        raise InvalidIdeal("--spec FILE is required for this command")
    with open(args.spec_path) as fh:
        try:
            spec = json.load(fh)
        except RecursionError:
            raise InvalidIdeal("spec nests too deeply to parse") from None
    ideals = load_collection(spec)
    if "budget" in args and args.budget is None:
        args.budget = (2,) * len(ideals)
    return ideals


def _parse_budget(text: str) -> tuple[int, ...]:
    try:
        budget = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget {text!r}; want e.g. 2,1")
    if any(b < 0 for b in budget):
        raise argparse.ArgumentTypeError("budgets must be >= 0")
    return budget


def _parse_count(text: str, name: str, least: int) -> int:
    """A decimal count of at least `least`; anything else is refused with
    a message naming the option."""
    if not (text.isascii() and text.isdigit()) or int(text) < least:
        raise argparse.ArgumentTypeError(
            f"{name} must be >= {least}, got {text!r}")
    return int(text)


def _parse_x_degree(text: str) -> int:
    return _parse_count(text, "x-degree", 0)


def _parse_jobs(text: str) -> int:
    return _parse_count(text, "jobs", 1)


def _fiber_type_basis(ideals):
    fiber_gb = quadratic_basis_for(ideals)
    if fiber_gb is None:
        raise InvalidIdeal("no constructive fiber basis for this collection")
    return build_fiber_type_basis(ideals, fiber_gb)


# --basis name -> (the number of ideals it applies to, None for any; builder)
_BASES = {
    "g1": (1, lambda ideals: build_G1(ideals[0], 1)),
    "g2": (1, lambda ideals: build_G2(order_view(ideals[0]), 1)),
    "g3": (2, lambda ideals: build_G3(order_view(ideals[0]),
                                      order_view(ideals[1]))),
    "ht": (2, lambda ideals: build_head_and_tail_basis(
        order_view(ideals[0]), order_view(ideals[1]))),
    "fiber-type": (None, _fiber_type_basis),
}


def _basis_name(ideals, name: str | None) -> str:
    """The --basis choice, defaulting to g1 for one ideal and ht otherwise."""
    return name or ("g1" if len(ideals) == 1 else "ht")


def _basis_for(ideals, name: str | None):
    """Resolve --basis into its rule list."""
    choice = _basis_name(ideals, name)
    count, build = _BASES[choice]
    if count not in (None, len(ideals)):
        applies = "a single ideal" if count == 1 else "a pair of ideals"
        raise InvalidIdeal(f"basis {choice} applies to {applies}")
    return build(ideals)


def cmd_closure(args: argparse.Namespace) -> int:
    ideals = _load_ideals(args)
    payload = {"n": ideals[0].n, "ideals": []}
    for ideal in ideals:
        entry = {
            "borel_generators": [str(g) for g in ideal.borel_generators],
            "degree": ideal.degree,
            "minimal_generators": [str(g) for g in ideal.minimal_generators],
            "exponent_vectors": [list(g.exps) for g in ideal.minimal_generators],
        }
        if ideal.num_borel_generators == 2 and ideal.degree == 2:
            view = region_partition(ideal)
            entry["regions"] = {
                "B_M": [str(g) for g in view.B_M],
                "B_N": [str(g) for g in view.B_N],
                "indices": {"a": view.a, "b": view.b, "c": view.c, "d": view.d},
            }
        payload["ideals"].append(entry)
    _emit(payload, args.out, "closure.json")
    return EXIT_OK


def cmd_fiber_graph(args: argparse.Namespace) -> int:
    ideals = _load_ideals(args)
    n = ideals[0].n
    r = len(ideals)
    try:
        x_part = parse_monomial(args.mu, n)
    except MonomialParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t = args.t or (0,) * r
    mu = MultiDegree(x_part.exps, t)
    basis = _basis_for(ideals, args.basis)
    if mixed_x_degree(basis, ideals, t) is None:
        fiber = enumerate_fiber(mu, ideals)
    else:
        fiber = enumerate_mixed_fiber(mu, ideals)
    if not fiber:
        _emit({"multidegree": mu.display(), "summary": "empty"}, args.out,
              "fiber.json")
        return EXIT_OK
    graph = build_graph(basis, fiber=fiber)
    dot = to_dot(graph, name=mu.display(), r=r)
    payload = {
        "multidegree": mu.display(),
        "vertices": sorted(v.label(r) for v in graph.vertices),
        "vertex_count": len(graph.vertices),
        "sinks": sorted(s.label(r) for s in graph.sinks),
        "has_cycle": graph.has_cycle,
        "edge_count": graph.num_edges(),
        "dot": dot,
    }
    _emit(payload, args.out, "fiber.json")
    if args.out:
        Path(args.out, "fiber.dot").write_text(dot)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    ideals = _load_ideals(args)
    rules = _basis_for(ideals, args.basis)
    report = verify_gb(
        rules,
        ideals,
        args.budget,
        progress=progress_to_stderr,
        x_degree=args.x_degree,
    )
    payload = report.to_json_dict()
    payload["basis"] = _basis_name(ideals, args.basis)
    _emit(payload, args.out, "verify.json")
    if args.out:
        Path(args.out, "basis.jsonl").write_text(dump_basis(rules, len(ideals)))
    return report.exit_code


def cmd_kernel_oracle(args: argparse.Namespace) -> int:
    ideals = _load_ideals(args)
    basis = _basis_for(ideals, args.basis)
    report = VerificationReport(
        ideals=collection_spec(ideals), t_budget=tuple(args.budget)
    )
    x_degree = mixed_x_degree(basis, ideals, args.budget, args.x_degree)
    if x_degree is not None:
        report.notes.append(f"mixed kernel pairs up to x-degree {x_degree}")
    checked, failures = kernel_membership(basis, ideals, args.budget, x_degree,
                                          progress=progress_to_stderr)
    # the note walks the box the fibers' walk reached, so it comes after
    # that walk: one too long to finish shows its progress first
    if x_degree is not None:
        report.notes += unreached_slice_notes(ideals, args.budget, x_degree)
    report.oracle_binomials_checked = checked
    report.oracle_failures = failures
    if report.verdict == "inconclusive":
        report.notes.append("no fiber within the budget holds two monomials: "
                            "no pair checked")
    _emit(report.to_json_dict(), args.out, "oracle.json")
    return report.exit_code


def cmd_detect_cubics(args: argparse.Namespace) -> int:
    ideals = _load_ideals(args)
    witnesses = detect_obstructions(ideals, args.budget,
                                    progress=progress_to_stderr)
    payload = {
        "t_budget": list(args.budget),
        "witnesses": [w.to_json_dict() for w in witnesses],
    }
    _emit(payload, args.out, "cubics.json")
    return EXIT_REFUTED if witnesses else EXIT_OK


def cmd_koszul_report(args: argparse.Namespace) -> int:
    ideals = _load_ideals(args)
    report = koszul_report(ideals, args.budget, progress=progress_to_stderr)
    _emit(report.to_json_dict(), args.out, "koszul.json")
    return report.exit_code


def cmd_paper_examples(args: argparse.Namespace) -> int:
    from .paper_cases import is_default_run, load_expectation, run_case

    given = {"a": args.a, "b": args.b, "c": args.c}
    params = {k: v for k, v in given.items() if v is not None}
    try:
        result = run_case(args.example, params)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    status = EXIT_OK
    if not all(result.get("checks", {}).values()):
        status = EXIT_REFUTED
    if is_default_run(args.example, params):
        expected = load_expectation(args.example)
        if expected is not None:
            match = expected == result
            result["matches_expectation"] = match
            if not match:
                status = EXIT_REFUTED
    _emit(result, args.out, f"{args.example.replace('.', '_')}.json")
    return status


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the usage code, not argparse's 2 (which
    would read as "refuted")."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="borel-rees",
        description="Strongly stable ideals, toric presentations, and "
        "bounded certification of explicit Groebner bases by standard "
        "monomials under the term order each basis is marked by.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("--spec", dest="spec_path", help="ideal spec JSON file")
        p.add_argument("--out", help="directory for reports and DOT files")
        if budget:
            p.add_argument("--jobs", type=_parse_jobs, default=1,
                           help="accepted for scripts; this command runs "
                           "serially")
            p.add_argument(
                "--budget", type=_parse_budget,
                help="per-ideal t bound, e.g. 2,1 (default: 2 per ideal)",
            )

    p = sub.add_parser("closure", help="minimal generators and regions")
    common(p)

    p = sub.add_parser("fiber-graph", help="one fiber graph, DOT + summary")
    common(p)
    p.add_argument("--mu", required=True, help="x-part, e.g. x2*x3*x4^2*x5*x6")
    p.add_argument("--t", type=_parse_budget, default=None,
                   help="t-vector, e.g. 2,1")
    p.add_argument("--basis", choices=list(_BASES))

    p = sub.add_parser(
        "verify",
        help="exhaustive certification: standard monomials under the "
        "basis's term order",
    )
    common(p, budget=True)
    p.add_argument("--basis", choices=list(_BASES))
    p.add_argument("--xdeg", dest="x_degree", type=_parse_x_degree,
                   help="x-degree bound for fiber-type verification")

    p = sub.add_parser("kernel-oracle", help="brute-force kernel membership")
    common(p, budget=True)
    p.add_argument("--basis", choices=list(_BASES))
    p.add_argument("--xdeg", dest="x_degree", type=_parse_x_degree)

    p = sub.add_parser("detect-cubics", help="disconnected-fiber obstructions")
    common(p, budget=True)

    p = sub.add_parser("koszul-report", help="gate + obstructions + GB run")
    common(p, budget=True)

    p = sub.add_parser("paper-examples", help="run a named worked example")
    p.add_argument("example", help="ex2.2 ex2.3 ex2.4 fig1..fig4 ex4.1 ex4.2 ex4.3")
    for name in ("a", "b", "c"):
        p.add_argument(f"--{name}", type=int,
                       help="shift exponent (ex4.1: a, b, c; ex4.2: a, b; "
                       "ex4.3: a), >= 0")
    p.add_argument("--out")
    return parser


_HANDLERS = {
    "closure": cmd_closure,
    "fiber-graph": cmd_fiber_graph,
    "verify": cmd_verify,
    "kernel-oracle": cmd_kernel_oracle,
    "detect-cubics": cmd_detect_cubics,
    "koszul-report": cmd_koszul_report,
    "paper-examples": cmd_paper_examples,
}


def _remove_empty(created: list[Path]) -> None:
    """Remove the given directories, deepest first, while they are empty;
    one that was never made is skipped."""
    for path in created:
        try:
            os.rmdir(path)
        except FileNotFoundError:
            continue
        except OSError:
            return


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses across calls in one process; parsing leaves
    it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        return exc.code
    created: list[Path] = []
    try:
        # a bad --out fails here, before any work or output
        if args.out:
            out = Path(args.out)
            created = [p for p in (out, *out.parents) if not p.exists()]
            out.mkdir(parents=True, exist_ok=True)
        status = _HANDLERS[args.command](args)
    except (InvalidIdeal, MonomialParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_USAGE
    except MemoryError:  # an input too large to hold, such as a huge n
        print("error: out of memory for this input", file=sys.stderr)
        status = EXIT_USAGE
    if status == EXIT_USAGE:
        # a refused run leaves no directory of its own behind
        _remove_empty(created)
    return status


if __name__ == "__main__":
    sys.exit(main())
