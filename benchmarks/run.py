#!/usr/bin/env python3
"""Benchmark of the borel-rees command line.

Four fixed workloads run serially (`--jobs 1`) through `borel_rees.cli.main`,
the entry point a `borel-rees` user waits on. Every call's report is checked
against invariants recorded in `inputs.json`, after a gate that runs all ten
`paper-examples`. Run from the repository root:

    python3 benchmarks/run.py --workload verify-ht --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seconds 30      # every workload, one table
    python3 benchmarks/run.py --workload all --smoke --seconds 1

`--trace 0` reports the end-to-end metrics:

- setup_s: median cold time, in fresh interpreters, of `import borel_rees`,
  `load_collection` of the spec and construction of the rule set;
- verdict_s: median wall time of one in-process `cli.main(argv)` call;
- fibers_per_s: fibers the command scans, per second of verdict_s;
- pairs_per_s: same-multidegree monomial pairs the command covers (checked
  by normal forms for kernel-oracle, inside the scanned fibers otherwise),
  per second of verdict_s;
- peak_rss_mb: peak resident set size of the benchmark process.

`--trace 1` alternates untraced calls with traced ones and reports per-layer
metrics from spans recorded around each layer's public functions. Layers the
workload's command does not reach are driven directly on the same collection
at a small probe budget, so every per-layer figure is a measurement on every
workload. Spans are written to `benchmarks/out/` when the run ends.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Seed 0 runs entry 0 of `inputs.json`, the inputs the
workloads are named after; any other seed runs entry 1, a different
collection of the same shape that does the same amount of work.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
INPUTS = BENCH_DIR / "inputs.json"

PAPER_EXAMPLES = (
    "ex2.2", "ex2.3", "ex2.4", "fig1", "fig2", "fig3", "fig4",
    "ex4.1", "ex4.2", "ex4.3",
)
SETUP_SAMPLES_MIN = 5
EXIT_NO_PROGRAM = 2


@dataclass(frozen=True)
class Workload:
    command: str
    budget: tuple[int, ...]
    smoke_budget: tuple[int, ...]
    basis: str | None = None
    xdeg: int | None = None
    smoke_xdeg: int | None = None
    # layers the command does not reach, driven directly in traced runs
    probes: tuple[str, ...] = ()

    def argv(self, spec_path: str, smoke: bool) -> list[str]:
        budget = self.smoke_budget if smoke else self.budget
        argv = [self.command, "--spec", spec_path, "--jobs", "1",
                "--budget", ",".join(map(str, budget))]
        if self.basis:
            argv += ["--basis", self.basis]
        xdeg = self.smoke_xdeg if smoke else self.xdeg
        if xdeg is not None:
            argv += ["--xdeg", str(xdeg)]
        return argv


# BENCHMARK.json declares verify-ht and kernel-oracle, the two whose run-to-run
# spread stayed within the bounds on this host (see BENCH_seed.json); the
# other two stay runnable by name or with --workload all.
WORKLOADS = {
    # the headline certification: fiber enumeration plus fiber-graph analysis
    # over the pair index; normal_form is never called
    "verify-ht": Workload(
        "verify", (2, 2), (1, 1), basis="ht",
        probes=("kernel", "obstructions", "mixed"),
    ),
    # about 10k kernel pairs reduced by normal_form scanning 387 rules in
    # order; no fiber-graph analysis
    "kernel-oracle": Workload(
        "kernel-oracle", (2, 1), (1, 1), basis="ht",
        probes=("analyze", "obstructions", "mixed"),
    ),
    # the only r = 3 input and the obstruction path: move catalog and
    # connected components, no marked rules
    "detect-cubics": Workload(
        "detect-cubics", (2, 2, 1), (1, 1, 1),
        probes=("basis", "analyze", "kernel", "mixed"),
    ),
    # mixed fibers, and 107 rules that all take the generic divisibility
    # scan because none is pair-indexed
    "verify-fiber-type": Workload(
        "verify", (2,), (1,), basis="fiber-type", xdeg=6, smoke_xdeg=4,
        probes=("kernel", "obstructions"),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "fibers_per_s": "1/s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "borel.load_collection.s": "s",
    "borel.minimal_generators": "count",
    "orders.basis.s": "s",
    "orders.rules": "count",
    "orders.rules.G1": "count",
    "orders.rules.G2": "count",
    "orders.rules.G3": "count",
    "orders.rules.SYZ": "count",
    "presentation.fibers_by_multidegree.s": "s",
    "presentation.fibers": "count",
    "presentation.monomials": "count",
    "presentation.max_fiber": "count",
    "verifier.mixed_fibers.s": "s",
    "verifier.mixed_fibers.fibers": "count",
    "verifier.rule_indices.pair_keys": "count",
    "verifier.rule_indices.generic": "count",
    "verifier.analyze_fiber.s": "s",
    "verifier.analyze_fiber.p50_ms": "ms",
    "verifier.analyze_fiber.p99_ms": "ms",
    "verifier.failing_fibers": "count",
    "verifier.toric_kernel_span.s": "s",
    "verifier.toric_kernel_span.pairs": "count",
    "verifier.check_membership.s": "s",
    "reduction.normal_form.s": "s",
    "reduction.normal_form.calls": "count",
    "reduction.normal_form.hit_ratio": "ratio",
    "verifier.detect_obstructions.s": "s",
    "verifier.detect_obstructions.self_s": "s",
    "verifier.detect_obstructions.witnesses": "count",
    "verifier.detect_obstructions.nontrivial_ratio": "ratio",
    "cli.report_json.s": "s",
    "cli.report_bytes": "bytes",
    "trace.verdict_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer counts that must repeat exactly between traced calls and runs.
EXACT_COUNTS = (
    "borel.minimal_generators", "orders.rules", "orders.rules.G1",
    "orders.rules.G2", "orders.rules.G3", "orders.rules.SYZ",
    "presentation.fibers", "presentation.monomials", "presentation.max_fiber",
    "verifier.mixed_fibers.fibers", "verifier.toric_kernel_span.pairs",
    "verifier.detect_obstructions.witnesses",
)


# ---------------------------------------------------------------------------
# program under test


def import_program():
    """Import borel_rees from this checkout's src/, or None if it is absent."""
    if not (SRC / "borel_rees" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import borel_rees
    from borel_rees import cli

    if Path(borel_rees.__file__).resolve().parent != SRC / "borel_rees":
        return None
    return cli


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def choose_input(name: str, seed: int) -> dict:
    """Seed 0 is the named input; other seeds cycle through the rest."""
    with open(INPUTS) as fh:
        pool = json.load(fh)[name]
    if seed == 0:
        return pool[0]
    return pool[1 + (abs(seed) - 1) % (len(pool) - 1)]


def run_cli(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """One cli.main call with stdout/stderr captured: (exit, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a dead benchmark
            code = None
            traceback.print_exc(file=sys.__stderr__)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def observe(command: str, code, stdout: str) -> dict:
    """The invariants of one report that the recorded expectation pins."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return {"exit": code, "error": "report is not JSON"}
    if command == "verify":
        return {
            "exit": code,
            "verdict": report.get("verdict"),
            "multidegrees_checked": report.get("multidegrees_checked"),
            "failures": len(report.get("failures", ())),
        }
    if command == "kernel-oracle":
        return {
            "exit": code,
            "verdict": report.get("verdict"),
            "oracle_binomials_checked": report.get("oracle_binomials_checked"),
            "oracle_failures": len(report.get("oracle_failures", ())),
        }
    return {
        "exit": code,
        "witnesses": sorted(
            w["multidegree"]["display"] for w in report.get("witnesses", ())
        ),
    }


class Ledger:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def correctness_gate(cli, ledger: Ledger) -> None:
    for name in PAPER_EXAMPLES:
        code, out, _ = run_cli(cli, ["paper-examples", name])
        try:
            match = json.loads(out).get("matches_expectation") is True
        except ValueError:
            match = False
        ledger.record(code == 0 and match, f"paper-examples {name}")


SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import json
import borel_rees
from borel_rees.verifier import quadratic_basis_for
with open(sys.argv[1]) as fh:
    ideals = borel_rees.load_collection(json.load(fh))
if sys.argv[2] == "ht":
    borel_rees.build_head_and_tail_basis(
        borel_rees.order_view(ideals[0]), borel_rees.order_view(ideals[1]))
elif sys.argv[2] == "fiber-type":
    borel_rees.build_fiber_type_basis(ideals, quadratic_basis_for(ideals))
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "module": borel_rees.__file__}))
"""


def measure_setup(spec_path: str, basis: str | None) -> float | None:
    """Set-up time in a fresh interpreter, or None if the child failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, spec_path, basis or "none"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = {}
    module = Path(result.get("module", "")).resolve().parent
    if proc.returncode != 0 or module != SRC / "borel_rees":
        print(proc.stderr, file=sys.stderr)
        return None
    return result["setup_s"]


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def time_for_another(started: float, deadline: float) -> bool:
    """Whether one more round as long as the last one ends by the deadline,
    so a run measures for at most its --seconds (and at least one round)."""
    now = time.perf_counter()
    return now + (now - started) <= deadline


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, count."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f} s, n={n}"
    if n > 10:
        pct = 100.0 * (n - 10) / n
        text += f", p{pct:.1f} {ordered[n - 11]:.4f} s"
    else:
        text += ", no percentile has ten samples beyond it"
    return text


def end_to_end(cli, name: str, wl: Workload, chosen: dict, spec_path: str,
               seconds: float, smoke: bool, ledger: Ledger) -> dict:
    argv = wl.argv(spec_path, smoke)
    expect = chosen["smoke_expect" if smoke else "expect"]
    work = chosen["smoke_work" if smoke else "work"]
    verdicts: list[float] = []
    setups: list[float] = []

    def one_setup():
        s = measure_setup(spec_path, wl.basis)
        if ledger.record(s is not None, f"{name} set-up"):
            setups.append(s)

    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        gc.collect()
        code, out, elapsed = run_cli(cli, argv)
        got = observe(wl.command, code, out)
        if ledger.record(got == expect, f"{name}: {got} != {expect}"):
            verdicts.append(elapsed)
        # set-up samples are spread over the run, not taken in one burst
        one_setup()
        if not time_for_another(started, deadline):
            break
    while len(setups) < SETUP_SAMPLES_MIN and ledger.failed == 0:
        one_setup()

    metrics = {}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if verdicts:
        verdict = statistics.median(verdicts)
        metrics["verdict_s"] = verdict
        metrics["fibers_per_s"] = work["fibers"] / verdict
        metrics["pairs_per_s"] = work["pairs"] / verdict
        print(f"{name}: verdict_s {tail(verdicts)}")
    if setups:
        print(f"{name}: setup_s {tail(setups)}")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced(cli, name: str, wl: Workload, chosen: dict, spec_path: str,
           seconds: float, smoke: bool, ledger: Ledger, trace_path: Path,
           env: dict) -> dict:
    from layers import LayerTrace

    argv = wl.argv(spec_path, smoke)
    expect = chosen["smoke_expect" if smoke else "expect"]
    budget = wl.smoke_budget if smoke else wl.budget
    with open(spec_path) as fh:
        spec = json.load(fh)
    layer_trace = LayerTrace(spec, budget, wl.basis, wl.probes)
    untraced: list[float] = []
    per_call: list[dict] = []
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        started = time.perf_counter()
        order = ("traced", "plain") if cycle % 2 == 0 else ("plain", "traced")
        for kind in order:
            gc.collect()
            if kind == "plain":
                code, out, elapsed = run_cli(cli, argv)
                untraced.append(elapsed)
            else:
                code, out, metrics = layer_trace.call(
                    lambda: run_cli(cli, argv)
                )
                per_call.append(metrics)
            got = observe(wl.command, code, out)
            ledger.record(got == expect, f"{name} ({kind}): {got} != {expect}")
        cycle += 1
        if not time_for_another(started, deadline):
            break

    varying = [k for k in EXACT_COUNTS if len({m[k] for m in per_call}) > 1]
    if varying:  # a count that changes between identical calls is a failure
        ledger.record(False, f"{name}: counts vary between traced calls: {varying}")
    metrics = {
        key: (statistics.median_low if PER_LAYER_UNITS[key] in ("count", "bytes")
              else statistics.median)(m[key] for m in per_call)
        for key in PER_LAYER_UNITS
        if key != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        metrics["trace.verdict_s"] - statistics.median(untraced)
    )
    layer_trace.tracer.write_jsonl(
        trace_path, {"workload": name, "argv": argv, "env": env}
    )
    print(f"{name}: spans written to {trace_path.relative_to(ROOT)}")
    for line in layer_trace.self_time_table():
        print(f"{name}: {line}")
    return metrics


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for checking the benchmark itself")
    args = parser.parse_args(argv)

    cli = import_program()
    if cli is None:
        print(f"error: no borel_rees package under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(BENCH_DIR))

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    ledger = Ledger()
    correctness_gate(cli, ledger)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics: dict[str, dict] = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name in names:
            wl = WORKLOADS[name]
            chosen = choose_input(name, args.seed)
            spec_path = str(Path(tmp, f"{name}.json"))
            with open(spec_path, "w") as fh:
                json.dump(chosen["spec"], fh)
            before = (ledger.attempted, ledger.failed)
            if args.trace:
                suffix = "-smoke" if args.smoke else ""
                trace_path = OUT_DIR / f"trace-{name}-seed{args.seed}{suffix}.jsonl"
                values = traced(cli, name, wl, chosen, spec_path, args.seconds,
                                args.smoke, ledger, trace_path, env)
            else:
                values = end_to_end(cli, name, wl, chosen, spec_path,
                                    args.seconds, args.smoke, ledger)
            attempted = ledger.attempted - before[0]
            failed = ledger.failed - before[1]
            print(f"{name}: error_rate {failed / max(attempted, 1)} "
                  f"({failed} of {attempted} operations failed)")
            for key, unit in units.items():
                if key in values:
                    print(f"{name}: {key} {values[key]} {unit}")
            prefix = f"{name}." if args.workload == "all" else ""
            for key, value in values.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}

    expected_keys = {
        (f"{n}." if args.workload == "all" else "") + k
        for n in names for k in units
    }
    correct = ledger.failed == 0 and set(metrics) == expected_keys
    print(f"error_rate {ledger.failed / max(ledger.attempted, 1)} "
          f"(gate and all workloads)")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
