"""Spans around the public functions of every fdspoof module.

Each function is wrapped at the attribute its callers resolve at call time
(`fdspoof.audio_io.decode` for asvspoof, the name bound by `from ... import`
for firsim and cli), so nothing under `src/` changes. Spans are kept in
memory and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    record: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


def _source_id(args, kwargs):
    return getattr(args[0], "source_id", None) if args else None


def _path_stem(args, kwargs):
    return Path(args[0]).stem if args else None


def _fit_info(args, kwargs, result):
    params, residual, converged = result
    return {"base": int(args[1]), "rows": int(residual.shape[0]),
            "converged": int(np.count_nonzero(converged)),
            "residual": [float(r) for r in residual]}


def _nodes(model):
    return sum(len(tree.feature) for tree in model.trees)


# (module, attribute, span name, record-id function, info function)
TARGETS = (
    ("audio_io", "decode", "audio_io.decode", _path_stem,
     lambda a, k, r: {"samples": len(r)}),
    ("audio_io", "strip_zeros", "audio_io.strip_zeros", _source_id, None),
    ("audio_io", "peak_normalize", "audio_io.peak_normalize", _source_id, None),
    ("segmentation", "segment", "segmentation.segment", _source_id, None),
    ("segmentation", "window_labels", "segmentation.window_labels", _source_id,
     lambda a, k, r: {"windows": len(r)}),
    ("segmentation", "extract", "segmentation.extract", _source_id, None),
    ("cepstral", "mfcc", "cepstral.mfcc", _source_id,
     lambda a, k, r: {"frames": r.n_frames}),
    ("firsim", "mfcc", "cepstral.mfcc", _source_id,
     lambda a, k, r: {"frames": r.n_frames}),
    ("fd_features", "fit_benford_batch", "fd_features.fit_benford_batch", None, _fit_info),
    ("fd_features", "digit_pmf", "fd_features.digit_pmf", None, None),
    ("firsim", "digit_pmf", "fd_features.digit_pmf", None, None),
    ("fd_features", "assemble_features_many", "fd_features.assemble_features_many", None,
     lambda a, k, r: {"records": len(r[0])}),
    ("firsim", "fit_benford", "fd_features.fit_benford", None, None),
    ("firsim", "divergences", "fd_features.divergences", None, None),
    ("asvspoof", "parse_protocol", "asvspoof.parse_protocol", None, None),
    ("asvspoof", "build_dataset", "asvspoof.build_dataset", None,
     lambda a, k, r: {"records": r[0].n_records, "skipped": len(r[1])}),
    ("asvspoof", "write_feature_csv", "asvspoof.write_feature_csv", None,
     lambda a, k, r: {"rows": a[1].n_records}),
    ("asvspoof", "read_feature_csv", "asvspoof.read_feature_csv", None,
     lambda a, k, r: {"rows": r[0].n_records}),
    ("asvspoof", "write_skip_log", "asvspoof.write_skip_log", None, None),
    ("asvspoof", "evaluate_with_aggregate", "asvspoof.evaluate_with_aggregate", None, None),
    ("asvspoof", "write_report_csv", "asvspoof.write_report_csv", None, None),
    ("cli", "grid_search", "forest.grid_search", None, None),
    ("forest", "train_forest", "forest.train_forest", None,
     lambda a, k, r: {"trees": len(r.trees), "nodes": _nodes(r)}),
    ("forest", "accuracy", "forest.accuracy", None, None),
    ("forest", "predict_batch", "forest.predict_batch", None,
     lambda a, k, r: {"record_trees": a[1].n_records * len(a[0].trees)}),
    ("asvspoof", "predict_batch", "forest.predict_batch", None,
     lambda a, k, r: {"record_trees": a[1].n_records * len(a[0].trees)}),
    ("cli", "save_model", "forest.save_model", None,
     lambda a, k, r: {"bytes": Path(a[1]).stat().st_size}),
    ("cli", "load_model", "forest.load_model", None, None),
    ("firsim", "divergence_sweep", "firsim.divergence_sweep", None, None),
    ("firsim", "design_fir", "firsim.design_fir", None, None),
    ("firsim", "gaussian_source", "firsim.gaussian_source", None, None),
    ("firsim", "apply_fir", "firsim.apply_fir", _source_id, None),
    ("firsim", "write_sweep_csv", "firsim.write_sweep_csv", None, None),
    ("cli", "write_manifest", "cli.write_manifest", None, None),
)

@contextlib.contextmanager
def worker_pids(module, attr: str, log: Path):
    """While installed, every call of `module.attr` made in a process other
    than this one appends that process's id to `log`. Workers forked inside
    the block inherit the wrapper."""
    original = getattr(module, attr)
    parent = os.getpid()

    def recorded(*args, **kwargs):
        if os.getpid() != parent:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, original)


LAYERS = ("audio_io", "segmentation", "cepstral", "fd_features", "asvspoof", "forest",
          "firsim", "cli")


class Tracer:
    """Records nested spans while installed; restores every attribute on exit."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name, record=None):
        self._open(name, record)
        try:
            yield
        finally:
            self._close()

    def _open(self, name, record):
        parent = self._stack[-1] if self._stack else -1
        if record is None and parent >= 0:
            record = self.spans[parent].record
        self.spans.append(Span(name, time.perf_counter(), parent=parent, record=record))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, fn, name, record_of, info_of):
        def traced(*args, **kwargs):
            span = self._open(name, record_of(args, kwargs) if record_of else None)
            try:
                result = fn(*args, **kwargs)
                if info_of:
                    span.info = info_of(args, kwargs, result)
                return result
            finally:
                self._close()
        return traced

    def __enter__(self):
        for module_name, attr, name, record_of, info_of in TARGETS:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, record_of, info_of))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def self_ms(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's children."""
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ms[span.parent] += span.ms
        out = dict.fromkeys(LAYERS, 0.0)
        for span, covered in zip(self.spans, child_ms):
            out[span.layer] += span.ms - covered
        return out

    def children_ms(self, index: int) -> float:
        return sum(s.ms for s in self.spans if s.parent == index)

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "record": s.record, **({"info": {k: v for k, v in s.info.items()
                                                  if k != "residual"}} if s.info else {})}
                for s in self.spans]
