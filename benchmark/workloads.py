"""The four workloads and the measurement loop they share.

A run sets up its inputs several times (setup_s is the median), then calls
`fdspoof.cli.main([...])` in a closed loop until `seconds` have passed, with
tracing off. Every iteration repeats the same command on the same input, so
the work behind each timed figure does not depend on how many iterations fit
in the run. Outputs are checked afterwards, outside the timed region. With
tracing on, one more pass runs at `--jobs 1` under the span recorder, and the
per-layer metrics come from its spans; the untimed reference for the tracing
overhead is an untraced call with the same arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from inputs import (CorpusSize, FeatureSize, write_corpus, write_feature_files,
                    write_sweep_args)
from tracer import Tracer, worker_pids


@dataclass(frozen=True)
class Sizes:
    full_corpus: CorpusSize
    silence_corpus: CorpusSize
    features: FeatureSize
    grid_trees: tuple[int, ...]
    sweep_coeffs: tuple[int, ...]
    sweep_trials: int
    sweep_len: int
    setup_repeats: int
    heldout_trees: int


# Sized so that one 20-s run makes several calls of every timed command. The
# silence chunk holds 36 records, so that the pool's chunks of 16 records keep
# both of its workers busy. TINY is for the smoke test.
FULL = Sizes(CorpusSize(chunks=4, per_family=2), CorpusSize(chunks=2, per_family=6),
             FeatureSize(200, 200, 2000), (2, 4, 8, 16), (4, 8, 16, 32), 3, 32768,
             setup_repeats=3, heldout_trees=50)
TINY = Sizes(CorpusSize(chunks=1, per_family=1), CorpusSize(chunks=1, per_family=1),
             FeatureSize(40, 40, 60), (1, 2), (4, 8), 1, 8192,
             setup_repeats=1, heldout_trees=5)

CRITERIA = ("gini", "entropy")


def _cpu_times():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_mb(workers: bool) -> float:
    """This process's peak, plus the largest child's when the workload starts
    workers (forked pages shared with this process then count twice)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _tree_digest(root: Path) -> list[tuple[str, str]]:
    return [(str(p.relative_to(root)), hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(root.rglob("*")) if p.is_file()]


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Run:
    """State of one benchmark run: the program, its work directory, checks."""

    def __init__(self, fdspoof, root: Path, work: Path, seed: int, sizes: Sizes):
        self.fdspoof = fdspoof
        self.root = root
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.checks: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def cli(self, argv) -> tuple[int, float]:
        """One in-process command; its console line is discarded."""
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = self.fdspoof.cli.main(argv)
            wall = time.perf_counter() - started
        self.check("cli.exit_codes", code == 0)
        return code, wall

    def cold_import(self) -> None:
        """A fresh interpreter importing the CLI, as every command pays."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        subprocess.run([sys.executable, "-c", "import fdspoof.cli"], cwd=self.root,
                       env=env, check=True, timeout=120)


class Workload:
    """Subclasses define setup, one timed iteration, checks and the traced pass."""

    jobs = 1

    def __init__(self, run: Run):
        self.run = run
        self.walls: list[float] = []  # the timed command, one per iteration
        self.item_walls: list[float] = []  # the call whose items give items_per_s
        self.items = 0

    def setup(self, where: Path) -> None:
        raise NotImplementedError

    def iterate(self, i: int) -> tuple[int, int]:
        """Run one iteration; return (items attempted, items failed)."""
        raise NotImplementedError

    def finish(self) -> None:
        """Output checks, outside the timed region."""
        raise NotImplementedError

    def heldout_accuracy(self) -> float:
        """Accuracy of a classifier on the workload's outputs (traced runs)."""
        raise NotImplementedError

    def worker_processes(self) -> int:
        """Distinct worker processes seen in one untimed call (traced runs)."""
        return 0

    def trace_calls(self, tag: str) -> tuple[list[list], list[Path]]:
        """The commands of the traced pass, at `--jobs 1`, and the outputs
        they write; `tag` keeps the output paths of two passes apart."""
        raise NotImplementedError


class Extract(Workload):
    def __init__(self, run, segment: str, jobs: int, gaps: bool, size: CorpusSize):
        super().__init__(run)
        self.segment, self.jobs, self.gaps, self.size = segment, jobs, gaps, size
        self.outputs: list[Path] = []

    def setup(self, where):
        self.dir = where
        self.protocol, = write_corpus(where, self.run.seed, self.size, self.gaps, range(1))
        self.n_records = len(self.protocol.read_text().splitlines())

    def extract(self, protocol: Path, out: Path, jobs: int) -> tuple[int, float]:
        return self.run.cli(["extract", "--protocol", protocol,
                             "--audio-root", self.dir / "audio", "--segment", self.segment,
                             "--out", out, "--jobs", jobs])

    def iterate(self, i):
        out = self.dir / f"out{i}.csv"
        code, wall = self.extract(self.protocol, out, self.jobs)
        self.walls.append(wall)
        self.item_walls.append(wall)
        self.outputs.append(out)
        n = self.n_records
        self.items += n
        if code != 0:
            return n, n
        return n, len(checks.read_rows(Path(str(out) + ".skips.csv"))) - 1

    def finish(self):
        run = self.run
        for name, ok in checks.extract_output(
                run.fdspoof.fd_features, self.protocol, self.outputs[0]).items():
            run.check(name, ok)
        first = checks.extract_bytes(self.outputs[0])
        run.check("extract.deterministic",
                  all(checks.extract_bytes(o) == first for o in self.outputs[1:]))
        if self.jobs > 1:
            out = self.dir / "jobs1.csv"
            self.extract(self.protocol, out, 1)
            run.check("extract.jobs_invariance", checks.extract_bytes(out) == first)

    def worker_processes(self):
        if self.jobs == 1:
            return 0
        out, log = self.dir / "pids.csv", self.dir / "pids.txt"
        with worker_pids(self.run.fdspoof.audio_io, "decode", log):
            self.extract(self.protocol, out, self.jobs)
        self.run.check("extract.deterministic",
                       checks.extract_bytes(out) == checks.extract_bytes(self.outputs[0]))
        return len(set(log.read_text().split())) if log.exists() else 0

    def heldout_accuracy(self) -> float:
        """A fixed seeded forest on a seeded half of the records of every
        chunk, scored on the other half. Chunks past the timed one are written
        and extracted here."""
        asvspoof, forest = self.run.fdspoof.asvspoof, self.run.fdspoof.forest
        outs = [self.outputs[0]]
        for chunk, protocol in enumerate(write_corpus(
                self.dir, self.run.seed, self.size, self.gaps, range(1, self.size.chunks)), 1):
            outs.append(self.dir / f"heldout_c{chunk}.csv")
            self.extract(protocol, outs[-1], self.jobs)
        parts = [asvspoof.read_feature_csv(out)[0] for out in outs]
        data = forest.LabeledDataset(
            features=np.vstack([p.features for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            record_ids=sum((p.record_ids for p in parts), ()),
            layout_hash=parts[0].layout_hash,
            system_ids=sum((p.system_ids for p in parts), ()),
        )
        rng = np.random.default_rng([self.run.seed, 4])
        is_train = np.zeros(data.n_records, dtype=bool)
        for label in (0, 1):
            idx = np.nonzero(data.labels == label)[0]
            is_train[rng.permutation(idx)[: idx.size // 2]] = True
        model = forest.train_forest(
            asvspoof.subset_records(data, is_train),
            forest.ForestConfig(n_trees=self.run.sizes.heldout_trees, seed=0))
        return forest.accuracy(model, asvspoof.subset_records(data, ~is_train))

    def trace_calls(self, tag):
        out = self.dir / f"{tag}.csv"
        argv = ["extract", "--protocol", self.protocol, "--audio-root", self.dir / "audio",
                "--segment", self.segment, "--out", out, "--jobs", 1]
        return [argv], [out, Path(str(out) + ".skips.csv")]


class TrainGrid(Workload):
    def setup(self, where):
        self.dir = where
        self.files = write_feature_files(where / "features", self.run.seed,
                                         self.run.sizes.features)
        self.grid = [(n, c) for n in self.run.sizes.grid_trees for c in CRITERIA]
        self.models: list[Path] = []

    def train_argv(self, model: Path):
        argv = ["train", "--train-features", self.files["train"],
                "--dev-features", self.files["dev"], "--model-out", model]
        for n in self.run.sizes.grid_trees:
            argv += ["--n-trees", n]
        for c in CRITERIA:
            argv += ["--criterion", c]
        return argv

    def eval_argv(self, model: Path, report: Path):
        return ["evaluate", "--model", model, "--features", self.files["eval"],
                "--out", report]

    def iterate(self, i):
        model = self.dir / f"model{i}.json"
        code, wall = self.run.cli(self.train_argv(model))
        self.walls.append(wall)
        self.models.append(model)
        n = self.run.sizes.features.eval
        if code != 0:
            return n, n
        code, wall = self.run.cli(self.eval_argv(model, self.dir / f"report{i}.csv"))
        self.item_walls.append(wall)
        self.items += n
        return n, (n if code != 0 else 0)

    def finish(self):
        run = self.run
        for i, model in enumerate(self.models):
            run.check("train.grid_report",
                      checks.grid_report(Path(str(model) + ".grid.csv"), self.grid))
            run.check("evaluate.report",
                      checks.eval_report(self.dir / f"report{i}.csv", self.files["eval"]))
        run.check("train.model_identical", checks.same_bytes(self.models))

    def heldout_accuracy(self):
        return float(checks.read_rows(self.dir / "report0.csv")[-1][3])

    def trace_calls(self, tag):
        model, report = self.dir / f"{tag}_model.json", self.dir / f"{tag}_report.csv"
        return ([self.train_argv(model), self.eval_argv(model, report)],
                [model, Path(str(model) + ".grid.csv"), report])


class Sweep(Workload):
    def setup(self, where):
        self.dir = where
        s = self.run.sizes
        self.argv = write_sweep_args(where, self.run.seed, s.sweep_coeffs, s.sweep_trials,
                                     s.sweep_len)
        self.outputs: list[Path] = []

    def iterate(self, i):
        out = self.dir / f"sweep{i}.csv"
        code, wall = self.run.cli(["simulate", *self.argv, "--out", out])
        self.walls.append(wall)
        self.item_walls.append(wall)
        self.outputs.append(out)
        n = len(self.run.sizes.sweep_coeffs) * self.run.sizes.sweep_trials
        self.items += n
        if code != 0:
            return n, n
        return n, n - sum(int(r[5]) for r in checks.read_rows(out)[1:])

    def finish(self):
        s = self.run.sizes
        for out in self.outputs:
            self.run.check("simulate.rows",
                           checks.sweep_output(out, list(s.sweep_coeffs), s.sweep_trials))
        self.run.check("simulate.deterministic", checks.same_bytes(self.outputs))

    def heldout_accuracy(self):
        return 0.0  # no classifier on this workload

    def trace_calls(self, tag):
        out = self.dir / f"{tag}_sweep.csv"
        return [["simulate", *self.argv, "--out", out]], [out]


WORKLOADS = {
    "extract-full": lambda run: Extract(run, "full", jobs=1, gaps=False,
                                        size=run.sizes.full_corpus),
    "extract-silence": lambda run: Extract(run, "silence", jobs=2, gaps=True,
                                           size=run.sizes.silence_corpus),
    "train-grid": TrainGrid,
    "simulate-sweep": Sweep,
}


def measure(name: str, run: Run, seconds: float, trace: bool) -> dict:
    """Run one workload; returns metrics, counts and spans."""
    workload = WORKLOADS[name](run)

    setup_s = []
    digests = []
    for r in range(run.sizes.setup_repeats):
        where = run.work / f"setup{r}"
        started = time.perf_counter()
        workload.setup(where)
        run.cold_import()
        setup_s.append(time.perf_counter() - started)
        digests.append(_tree_digest(where))
        if r < run.sizes.setup_repeats - 1:
            shutil.rmtree(where)
    run.check("setup.deterministic", all(d == digests[0] for d in digests))

    attempted = failed = 0
    cpu_before = _cpu_times()
    started = time.perf_counter()
    i = 0
    while True:
        a, f = workload.iterate(i)
        attempted, failed, i = attempted + a, failed + f, i + 1
        elapsed = time.perf_counter() - started
        # stop at the iteration count whose end lies nearest to `seconds`
        if elapsed + 0.5 * elapsed / i >= seconds:
            break
    own_cpu, kids_cpu = (after - before for before, after in zip(cpu_before, _cpu_times()))
    peak_rss = _peak_rss_mb(workload.jobs > 1)

    try:
        workload.finish()
    except (OSError, ValueError, IndexError, KeyError) as exc:  # missing or malformed output
        print(f"output check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        run.check("outputs.readable", False)
    # every call has the same items; the median call keeps one stalled call
    # from moving the rate
    calls = workload.item_walls
    items_per_s = workload.items / len(calls) / statistics.median(calls) if calls else 0.0
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "command_s": (statistics.median(workload.walls), "s"),
        "items_per_s": (items_per_s, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "completed_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    result = {"end_to_end": end_to_end, "attempted": attempted, "failed": failed,
              "setup_walls": setup_s, "command_walls": workload.walls,
              "item_walls": workload.item_walls,
              "worker_cpu_share": kids_cpu / (own_cpu + kids_cpu) if own_cpu + kids_cpu else 0.0}
    if trace:
        try:
            result["heldout_accuracy"] = workload.heldout_accuracy()
            result["worker_processes"] = workload.worker_processes()
        except (OSError, ValueError, IndexError, KeyError) as exc:
            print(f"output check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            run.check("outputs.readable", False)
            result["heldout_accuracy"] = result["worker_processes"] = 0
        # the untraced reference runs just before the traced pass, so drift
        # in machine speed between the two stays small
        calls, reference_out = workload.trace_calls("reference")
        reference_s = sum(run.cli(argv)[1] for argv in calls)
        calls, traced_out = workload.trace_calls("traced")
        tracer = Tracer(run.fdspoof)
        with tracer:
            for argv in calls:
                with tracer.span("cli.main"):
                    run.cli(argv)
        run.check("trace.invariance",
                  all(a.read_bytes() == b.read_bytes() for a, b in zip(reference_out, traced_out)))
        result["per_layer"] = per_layer(tracer, reference_s, result)
        result["spans"] = tracer.dump()
    return result


def per_layer(tracer: Tracer, reference_s: float, untraced: dict) -> dict:
    spans = tracer.spans
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def ms(name):
        return [s.ms for s in by.get(name, [])]

    def info(name, key):
        return [s.info.get(key, 0) for s in by.get(name, [])]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, key in (("audio_io.decode", "audio_io.decode_ms"),
                      ("segmentation.segment", "segmentation.segment_ms"),
                      ("cepstral.mfcc", "cepstral.mfcc_ms")):
        values = ms(name)
        out[key + ".p50"] = (_pct(values, 50), "ms")
        out[key + ".p90"] = (_pct(values, 90), "ms")
        out[name + "_calls"] = (len(values), "count")
    normalize = {}
    for s in by.get("audio_io.strip_zeros", []) + by.get("audio_io.peak_normalize", []):
        normalize[s.record] = normalize.get(s.record, 0.0) + s.ms
    out["audio_io.normalize_ms.p50"] = (_pct(list(normalize.values()), 50), "ms")
    out["audio_io.normalize_ms.p90"] = (_pct(list(normalize.values()), 90), "ms")
    samples = info("audio_io.decode", "samples")
    out["audio_io.samples_per_decode"] = (ratio(sum(samples), len(samples)), "count")
    out["segmentation.windows"] = (sum(info("segmentation.window_labels", "windows")), "count")
    out["cepstral.frames"] = (sum(info("cepstral.mfcc", "frames")), "count")

    fits = by.get("fd_features.fit_benford_batch", [])
    cells = sum(s.info["rows"] for s in fits)
    out["fd_features.fit_calls"] = (len(fits), "count")
    out["fd_features.fit_cells"] = (cells, "count")
    out["fd_features.fit_rows_per_call"] = (ratio(cells, len(fits)), "count")
    out["fd_features.fit_ms_per_cell"] = (ratio(sum(s.ms for s in fits), cells), "ms")
    for base in (10, 20):
        of_base = [s for s in fits if s.info["base"] == base]
        out[f"fd_features.fit_converged_ratio.b{base}"] = (
            ratio(sum(s.info["converged"] for s in of_base),
                  sum(s.info["rows"] for s in of_base)), "ratio")
    residuals = [r for s in fits for r in s.info["residual"]]
    out["fd_features.fit_residual_p50"] = (_pct(residuals, 50), "mse")
    records = sum(info("fd_features.assemble_features_many", "records"))
    trials = len(by.get("firsim.apply_fir", []))
    out["fd_features.pmf_ms_per_record"] = (
        ratio(sum(ms("fd_features.digit_pmf")), records + trials), "ms")
    out["fd_features.assemble_ms_per_record"] = (
        ratio(sum(ms("fd_features.assemble_features_many")), records), "ms")

    out["asvspoof.worker_cpu_share"] = (untraced["worker_cpu_share"], "ratio")
    out["asvspoof.worker_processes"] = (untraced["worker_processes"], "count")
    out["asvspoof.build_dataset_s"] = (sum(ms("asvspoof.build_dataset")) / 1e3, "s")
    for name in ("write_feature_csv", "read_feature_csv"):
        rows = sum(info(f"asvspoof.{name}", "rows"))
        out[f"asvspoof.{name}_ms_per_krow"] = (
            ratio(sum(ms(f"asvspoof.{name}")), rows / 1e3), "ms")
    out["asvspoof.records_skipped"] = (sum(info("asvspoof.build_dataset", "skipped")), "count")

    trees = sum(info("forest.train_forest", "trees"))
    out["forest.trees_trained"] = (trees, "count")
    out["forest.train_ms_per_tree"] = (ratio(sum(ms("forest.train_forest")), trees), "ms")
    out["forest.nodes_per_tree"] = (ratio(sum(info("forest.train_forest", "nodes")), trees),
                                    "count")
    out["forest.predict_us_per_record_tree"] = (
        ratio(1e3 * sum(ms("forest.predict_batch")),
              sum(info("forest.predict_batch", "record_trees"))), "us")
    out["forest.load_model_ms"] = (sum(ms("forest.load_model")), "ms")
    out["forest.save_model_ms"] = (sum(ms("forest.save_model")), "ms")
    out["forest.model_bytes"] = (sum(info("forest.save_model", "bytes")), "B")
    out["forest.heldout_accuracy"] = (untraced["heldout_accuracy"], "ratio")

    out["firsim.design_fir_ms"] = (sum(ms("firsim.design_fir")), "ms")
    out["firsim.apply_fir_ms"] = (ratio(sum(ms("firsim.apply_fir")), trials), "ms")
    out["firsim.trials"] = (trials, "count")

    commands = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    traced_s = sum(spans[i].ms for i in commands) / 1e3
    out["cli.manifest_ms"] = (sum(ms("cli.write_manifest")), "ms")
    out["cli.overhead_ms"] = (sum(spans[i].ms - tracer.children_ms(i) for i in commands), "ms")
    for layer, value in tracer.self_ms().items():
        out[f"{layer}.self_ms"] = (value, "ms")
    out["trace.overhead_ms"] = (1e3 * (traced_s - reference_s), "ms")
    out["trace.overhead_share"] = (ratio(traced_s - reference_s, reference_s), "ratio")
    return out
