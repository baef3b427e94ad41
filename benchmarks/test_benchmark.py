"""Self-tests of the benchmark. Run from the repository root:

    python -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_every_metric(proc, units: dict) -> None:
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {f"{w}.{k}": u for w in run.WORKLOADS for k, u in units.items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name in run.WORKLOADS:
        for key, unit in units.items():
            value = result["metrics"][f"{name}.{key}"]["value"]
            assert f"{name}: {key} {value} {unit}" in proc.stdout


def test_smoke_prints_every_end_to_end_metric_with_its_unit():
    proc = bench("--workload", "all", "--smoke", "--seconds", "1")
    check_every_metric(proc, run.END_TO_END_UNITS)
    assert "error_rate 0.0" in proc.stdout
    assert '"nproc"' in proc.stdout and '"PYTHONHASHSEED"' in proc.stdout


def test_traced_run_emits_every_per_layer_metric():
    proc = bench("--workload", "all", "--smoke", "--seconds", "1", "--trace", "1")
    check_every_metric(proc, run.PER_LAYER_UNITS)
    metrics = result_of(proc)["metrics"]
    assert metrics["verify-ht.orders.rules"]["value"] == 387
    assert metrics["verify-fiber-type.orders.rules.SYZ"]["value"] == 57
    assert metrics["verify-fiber-type.verifier.rule_indices.pair_keys"]["value"] == 0
    for name in run.WORKLOADS:
        assert metrics[f"{name}.verifier.failing_fibers"]["value"] == 0
        assert (BENCH_DIR / "out" / f"trace-{name}-seed0-smoke.jsonl").is_file()


def test_corrupted_expectation_counts_as_failed_operations(tmp_path):
    cli = run.import_program()
    name = "verify-ht"
    chosen = copy.deepcopy(run.choose_input(name, 0))
    chosen["smoke_expect"]["multidegrees_checked"] += 1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(chosen["spec"]))
    ledger = run.Ledger()
    run.end_to_end(cli, name, run.WORKLOADS[name], chosen, str(spec),
                   0.1, True, ledger)
    assert ledger.attempted > 0
    assert ledger.failed / ledger.attempted > 0


def test_seeds_pick_inputs_deterministically():
    for name in run.WORKLOADS:
        assert run.choose_input(name, 7) == run.choose_input(name, 7)
        assert run.choose_input(name, 0)["spec"] != run.choose_input(name, 1)["spec"]


def test_fails_without_a_program_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "verify-ht", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
