"""Tiny-size runs of the benchmark: every metric named in BENCHMARK.json comes
out with its unit, and every output check runs and passes."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from workloads import TINY  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

EXTRACT_CHECKS = {
    "setup.deterministic", "cli.exit_codes", "extract.columns", "extract.layout_hash",
    "extract.finite", "extract.accounting", "extract.labels", "extract.deterministic",
    "trace.invariance",
}
CHECKS = {
    "extract-full": EXTRACT_CHECKS,
    "extract-silence": EXTRACT_CHECKS | {"extract.jobs_invariance"},
    "train-grid": {"setup.deterministic", "cli.exit_codes", "train.grid_report",
                   "train.model_identical", "evaluate.report", "trace.invariance"},
    "simulate-sweep": {"setup.deterministic", "cli.exit_codes", "simulate.rows",
                       "simulate.deterministic", "trace.invariance"},
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_check(workload):
    result = bench.benchmark(bench.ROOT, workload, seed=0, seconds=0, trace=True, sizes=TINY)
    for group in ("end_to_end", "per_layer"):
        assert set(result[group]) == {m["name"] for m in SPEC[group]}
        for metric in SPEC[group]:
            value, unit = result[group][metric["name"]]
            assert unit == metric["unit"], metric["name"]
            assert math.isfinite(value), metric["name"]
    assert set(result["checks"]) == CHECKS[workload]
    assert result["correct"], result["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "extract-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
