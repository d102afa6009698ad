"""fdspoof benchmark: seeded synthetic inputs through the public CLI, in-process.

    python3 benchmark/run.py --workload extract-full --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Workloads (why each exists is recorded in BENCHMARK.json):

  extract-full     `extract --segment full --jobs 1` on 2-s FIR-filtered noise
  extract-silence  `extract --segment silence --jobs 2` on ~4-s clips with gaps
  train-grid       `train` over a small nested grid, then `evaluate`
  simulate-sweep   `simulate` over several FIR lengths at `--jobs 1`

End-to-end metrics (`--trace 0`), the same names on every workload:

  setup_s          median over repeats of writing the inputs plus a cold
                   `import fdspoof.cli` in a fresh interpreter
  command_s        median wall time of the timed command: one extract call,
                   one train call, or one simulate call; each workload repeats
                   one command on one input
  items_per_s      extracted records/s, evaluated records/s (evaluate call),
                   or simulated trials/s, of the median call
  peak_rss_mb      peak resident memory of this process, plus that of its
                   largest child on extract-silence, which starts workers
  completed_ratio  1 - (skipped records, missing trials or items of failed
                   commands) / items attempted

`--workload all` runs the four in turn and prefixes each metric with its
workload. `--trace 1` adds one traced pass at `--jobs 1` and prints the per-layer
metrics instead. The last line of standard output is the result object; the
lines before it list every metric with its unit, the output checks and the
provenance. The full result, with spans, is written under `.bench_results/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import FULL, WORKLOADS, Run, measure  # noqa: E402


def load_program(root: Path):
    """Import fdspoof from `<root>/src`, and from nowhere else."""
    src = root / "src"
    if not (src / "fdspoof" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fdspoof sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("fdspoof")
    if Path(package.__file__).resolve().parent != (src / "fdspoof").resolve():
        raise SystemExit(f"benchmark: fdspoof imported from {package.__file__}, not {src}")
    for module in ("asvspoof", "audio_io", "cepstral", "cli", "fd_features", "firsim",
                   "forest", "segmentation"):
        importlib.import_module(f"fdspoof.{module}")
    return package


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # a plain source checkout
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": _git_commit(root)}


def benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
              sizes=FULL) -> dict:
    """Run one workload and return the full result (metrics, checks, spans)."""
    program = load_program(root)
    work = root / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        run = Run(program, root, work, seed, sizes)
        result = measure(workload, run, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["checks"] = run.checks
    result["correct"] = bool(run.checks) and all(run.checks.values())
    result["provenance"] = provenance(root, workload, seed)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = benchmark(ROOT, name, args.seed, args.seconds, bool(args.trace))
        results_dir = ROOT / ".bench_results"
        results_dir.mkdir(exist_ok=True)
        (results_dir / f"{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")

        prefix = f"{name}." if len(names) > 1 else ""
        print(f"# provenance {json.dumps(result['provenance'], sort_keys=True)}")
        for check, ok in result["checks"].items():
            print(f"# check {prefix}{check} {'ok' if ok else 'FAILED'}")
        if "heldout_accuracy" in result:
            print(f"# {prefix}heldout_accuracy {result['heldout_accuracy']!r} ratio")
        metrics = result["per_layer"] if args.trace else result["end_to_end"]
        for metric, (value, unit) in metrics.items():
            print(f"{prefix}{metric} {value!r} {unit}")
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
