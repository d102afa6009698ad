"""ASVSpoof-style corpus harness: protocols, balancing, extraction, evaluation.

Protocol files are whitespace-separated lines `speaker utterance - system key`
where system is `-` for bonafide entries. Training data is decimated so every
spoof system contributes the same number of records and the bonafide total
matches the spoof total exactly. Feature extraction runs the full per-record
pipeline (decode, strip zeros, peak-normalize, segment, extract view, MFCC,
divergence features); records without enough usable material are skipped with
a machine-readable reason, missing audio files are an error.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import audio_io, cepstral, fd_features, parallel, segmentation
from .cepstral import CepstralConfig
from .exceptions import (
    DegenerateProtocol,
    EmptySignal,
    FdspoofError,
    InsufficientData,
    InsufficientDigits,
    LayoutMismatch,
    MissingAudio,
    ParseError,
    TooShort,
)
from .fd_features import FdConfig, FeatureDescriptor
from .forest import LabeledDataset, TrainedModel, default_grid, grid_search, predict_batch
from .segmentation import EnergyConfig, SegmentKind

SILENCE_HOP = 128
BONAFIDE_MARK = "-"


@dataclass(frozen=True)
class ProtocolEntry:
    speaker_id: str
    utterance_id: str
    system_id: str | None
    key: str  # "bonafide" | "spoof"


@dataclass(frozen=True)
class SkipRecord:
    record_id: str
    reason: str
    detail: str


@dataclass(frozen=True)
class EvalRow:
    system_id: str
    segment_kind: str
    config_name: str
    accuracy: float
    balanced_accuracy: float
    n_bonafide: int
    n_spoof: int


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[EvalRow, ...]


def parse_protocol(path: str | Path) -> list[ProtocolEntry]:
    """Parse an ASVSpoof 2019 LA style protocol file."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 5:
            raise ParseError(f"line {lineno}: expected >= 5 fields, got {len(fields)}")
        speaker, utterance, _, system, key = fields[:5]
        if key not in ("bonafide", "spoof"):
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        system_id = None if system == BONAFIDE_MARK else system
        if (system_id is None) != (key == "bonafide"):
            raise ParseError(f"line {lineno}: system field {system!r} inconsistent with key {key!r}")
        entries.append(ProtocolEntry(speaker, utterance, system_id, key))
    return entries


def balance_training(entries: list[ProtocolEntry], seed: int) -> list[ProtocolEntry]:
    """Decimate so each spoof system has c records and bonafide has k*c.

    c = min(per-system minimum, floor(n_bonafide / n_systems)); subsampling is
    seeded and without replacement; the original protocol order is preserved.
    """
    by_system: dict[str, list[int]] = defaultdict(list)
    bonafide_idx = []
    for i, entry in enumerate(entries):
        if entry.key == "bonafide":
            bonafide_idx.append(i)
        else:
            by_system[entry.system_id].append(i)
    if not bonafide_idx or not by_system:
        raise DegenerateProtocol("need at least one bonafide and one spoof system")

    k = len(by_system)
    smallest = min(len(v) for v in by_system.values())
    c = min(smallest, len(bonafide_idx) // k)
    if c == 0:
        raise DegenerateProtocol("not enough bonafide entries to balance")

    rng = np.random.default_rng(seed)
    selected: set[int] = set()
    for system in sorted(by_system):
        idx = by_system[system]
        chosen = rng.choice(len(idx), size=c, replace=False)
        selected.update(idx[j] for j in chosen)
    chosen = rng.choice(len(bonafide_idx), size=k * c, replace=False)
    selected.update(bonafide_idx[j] for j in chosen)
    return [entry for i, entry in enumerate(entries) if i in selected]


# ---------------------------------------------------------------------------
# feature extraction over a corpus
# ---------------------------------------------------------------------------

def hop_for_segment(kind: SegmentKind, config: CepstralConfig) -> int:
    return SILENCE_HOP if kind is SegmentKind.SILENCE else config.hop


def _record_matrix(
    path: Path,
    kind: SegmentKind,
    cepstral_cfg: CepstralConfig,
    energy_cfg: EnergyConfig,
) -> cepstral.CepstralMatrix:
    buffer = audio_io.decode(path)
    buffer = audio_io.strip_zeros(buffer)
    buffer = audio_io.peak_normalize(buffer)
    if kind is not SegmentKind.FULL:
        full, silence, voiced = segmentation.segment(buffer, energy_cfg)
        view = silence if kind is SegmentKind.SILENCE else voiced
        if view.n_samples < cepstral_cfg.frame_len:
            raise InsufficientData(
                f"{buffer.source_id}: {view.kind.value} view has {view.n_samples} samples, "
                f"need {cepstral_cfg.frame_len}"
            )
        buffer = segmentation.extract(buffer, view)
    return cepstral.mfcc(buffer, replace(cepstral_cfg, hop=hop_for_segment(kind, cepstral_cfg)))


_SKIPPABLE = (EmptySignal, TooShort, InsufficientData, InsufficientDigits)


def _skip(record_id: str, exc: FdspoofError) -> SkipRecord:
    return SkipRecord(record_id, type(exc).__name__, str(exc))


def _extract_chunk(
    paths: list[Path],
    kind: SegmentKind,
    cepstral_cfg: CepstralConfig,
    fd_cfg: FdConfig,
    energy_cfg: EnergyConfig,
) -> list[np.ndarray | SkipRecord]:
    """Feature row or skip record of every path, in order; the chunk's
    records share one batched fit per base."""
    outcomes: list[np.ndarray | SkipRecord | None] = [None] * len(paths)
    matrices, kept = [], []
    for i, path in enumerate(paths):
        try:
            matrices.append(_record_matrix(path, kind, cepstral_cfg, energy_cfg))
            kept.append(i)
        except _SKIPPABLE as exc:
            outcomes[i] = _skip(path.stem, exc)
    vectors, failures = fd_features.assemble_features_many(matrices, fd_cfg)
    for idx, exc in failures:
        outcomes[kept[idx]] = _skip(paths[kept[idx]].stem, exc)
    for i, vector in zip(kept, vectors):
        if vector is not None:
            outcomes[i] = vector.values
    return outcomes


def build_dataset(
    entries: list[ProtocolEntry],
    audio_root: str | Path,
    segment_kind: SegmentKind,
    cepstral_cfg: CepstralConfig | None = None,
    fd_cfg: FdConfig | None = None,
    energy_cfg: EnergyConfig | None = None,
    jobs: int = 1,
) -> tuple[LabeledDataset, list[SkipRecord]]:
    """Extract the divergence features of every protocol entry.

    Records run decode-to-features in contiguous chunks (`parallel.map_chunks`
    over `jobs` processes). Rows are sorted by record id; skipped records are
    reported with reasons. SettingError if `jobs < 1`.
    """
    cepstral_cfg = cepstral_cfg or CepstralConfig()
    fd_cfg = fd_cfg or FdConfig()
    energy_cfg = energy_cfg or EnergyConfig()
    audio_root = Path(audio_root)

    ordered = sorted(entries, key=lambda e: e.utterance_id)
    paths = []
    for entry in ordered:
        path = audio_root / f"{entry.utterance_id}.wav"
        if not path.exists():
            raise MissingAudio(f"no audio file for {entry.utterance_id} under {audio_root}")
        paths.append(path)

    outcomes = parallel.map_chunks(
        partial(_extract_chunk, kind=segment_kind, cepstral_cfg=cepstral_cfg,
                fd_cfg=fd_cfg, energy_cfg=energy_cfg),
        paths, jobs,
    )
    skips = sorted((o for o in outcomes if isinstance(o, SkipRecord)),
                   key=lambda skip: skip.record_id)
    rows = [(e, o) for e, o in zip(ordered, outcomes) if not isinstance(o, SkipRecord)]
    layout = fd_features.feature_layout(fd_cfg, cepstral_cfg.frequencies)
    features = np.array([v for _, v in rows]) if rows else np.zeros((0, len(layout)))
    dataset = LabeledDataset(
        features=features,
        labels=np.array([0 if e.key == "bonafide" else 1 for e, _ in rows], dtype=np.int64),
        record_ids=tuple(e.utterance_id for e, _ in rows),
        layout_hash=fd_features.layout_hash(layout),
        system_ids=tuple(e.system_id or BONAFIDE_MARK for e, _ in rows),
    )
    return dataset, skips


# ---------------------------------------------------------------------------
# feature CSV interchange
# ---------------------------------------------------------------------------

def write_feature_csv(path: str | Path, dataset: LabeledDataset,
                      layout: tuple[FeatureDescriptor, ...]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id", "label", "system_id", *(d.name for d in layout)])
        for i in range(dataset.n_records):
            system = dataset.system_ids[i] if dataset.system_ids else BONAFIDE_MARK
            writer.writerow(
                [dataset.record_ids[i], int(dataset.labels[i]), system,
                 *(repr(float(v)) for v in dataset.features[i])]
            )


def read_feature_csv(path: str | Path) -> tuple[LabeledDataset, tuple[FeatureDescriptor, ...]]:
    """Read a feature CSV; ParseError, with file:line, on an unparsable column
    name, a ragged row, a label outside {0, 1} or a non-finite value."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}:1: empty feature file")
        try:
            layout = tuple(fd_features.parse_feature_name(name) for name in header[3:])
        except ValueError as exc:
            raise ParseError(f"{path}:1: {exc}") from None
        ids, labels, systems, rows, lines = [], [], [], [], []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ParseError(f"{where}: expected {len(header)} fields, got {len(row)}")
            try:
                label = int(row[1])
                rows.append([float(v) for v in row[3:]])
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from None
            if label not in (0, 1):
                raise ParseError(f"{where}: label must be 0 or 1, got {label}")
            ids.append(row[0])
            labels.append(label)
            systems.append(row[2])
            lines.append(reader.line_num)
    features = np.array(rows) if rows else np.zeros((0, len(layout)))
    bad = np.nonzero(~np.isfinite(features).all(axis=1))[0]
    if bad.size:
        raise ParseError(f"{path}:{lines[bad[0]]}: non-finite feature value")
    dataset = LabeledDataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        record_ids=tuple(ids),
        layout_hash=fd_features.layout_hash(layout),
        system_ids=tuple(systems),
    )
    return dataset, layout


def write_skip_log(path: str | Path, skips: list[SkipRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id", "reason", "detail"])
        for skip in skips:
            writer.writerow([skip.record_id, skip.reason, skip.detail])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def subset_records(dataset: LabeledDataset, mask: np.ndarray) -> LabeledDataset:
    idx = np.nonzero(mask)[0]
    return LabeledDataset(
        features=dataset.features[idx],
        labels=dataset.labels[idx],
        record_ids=tuple(dataset.record_ids[i] for i in idx),
        layout_hash=dataset.layout_hash,
        system_ids=tuple(dataset.system_ids[i] for i in idx) if dataset.system_ids else (),
    )


def split_by_system(dataset: LabeledDataset) -> tuple[LabeledDataset, dict[str, LabeledDataset]]:
    """Split into (bonafide records, {system_id: that system's spoof records})."""
    systems = np.array(dataset.system_ids)
    bonafide = subset_records(dataset, systems == BONAFIDE_MARK)
    spoof_by_system = {
        system: subset_records(dataset, systems == system)
        for system in sorted(set(dataset.system_ids) - {BONAFIDE_MARK})
    }
    return bonafide, spoof_by_system


def _stack(a: LabeledDataset, b: LabeledDataset) -> LabeledDataset:
    return LabeledDataset(
        features=np.vstack([a.features, b.features]),
        labels=np.concatenate([a.labels, b.labels]),
        record_ids=a.record_ids + b.record_ids,
        layout_hash=a.layout_hash,
        system_ids=a.system_ids + b.system_ids,
    )


def _accuracy_pair(model: TrainedModel, data: LabeledDataset) -> tuple[float, float]:
    preds = predict_batch(model, data)
    acc = float(np.mean(preds == data.labels))
    recalls = []
    for cls in (0, 1):
        mask = data.labels == cls
        if mask.any():
            recalls.append(float(np.mean(preds[mask] == cls)))
    balanced = float(np.mean(recalls))
    return acc, balanced


def one_vs_one_eval(
    model: TrainedModel,
    bonafide: LabeledDataset,
    spoof_by_system: dict[str, LabeledDataset],
    segment_label: str,
    config_label: str,
) -> EvaluationReport:
    """Per-system accuracy of the model on (all bonafide + that system's spoofs)."""
    rows = []
    for system in sorted(spoof_by_system):
        spoofs = spoof_by_system[system]
        if spoofs.layout_hash != model.layout_hash or bonafide.layout_hash != model.layout_hash:
            raise LayoutMismatch("evaluation features do not match the model layout")
        combined = _stack(bonafide, spoofs)
        acc, balanced = _accuracy_pair(model, combined)
        rows.append(EvalRow(system, segment_label, config_label, acc, balanced,
                            bonafide.n_records, spoofs.n_records))
    return EvaluationReport(rows=tuple(rows))


def evaluate_with_aggregate(
    model: TrainedModel, dataset: LabeledDataset, segment_label: str, config_label: str
) -> EvaluationReport:
    """One-vs-one rows for every system plus an `ALL` union row."""
    bonafide, spoof_by_system = split_by_system(dataset)
    report = one_vs_one_eval(model, bonafide, spoof_by_system, segment_label, config_label)
    acc, balanced = _accuracy_pair(model, dataset)
    n_spoof = int(np.sum(dataset.labels == 1))
    all_row = EvalRow("ALL", segment_label, config_label, acc, balanced,
                      dataset.n_records - n_spoof, n_spoof)
    return EvaluationReport(rows=report.rows + (all_row,))


def write_report_csv(path: str | Path, report: EvaluationReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system", "segment", "config", "accuracy", "balanced_accuracy",
                         "n_bonafide", "n_spoof"])
        for row in report.rows:
            writer.writerow([row.system_id, row.segment_kind, row.config_name,
                             repr(row.accuracy), repr(row.balanced_accuracy),
                             row.n_bonafide, row.n_spoof])


# ---------------------------------------------------------------------------
# ablation over feature subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationConfig:
    name: str
    segment: SegmentKind
    bases: tuple[int, ...]
    deltas: tuple[float, ...]


def default_ablation_configs(fd_cfg: FdConfig = FdConfig()) -> tuple[AblationConfig, ...]:
    """The eight standard rows: delta prefixes and single bases on Silence,
    the full grid on Full, and the delta 1-3 prefix on Voiced."""
    deltas = tuple(sorted(fd_cfg.deltas))
    bases = tuple(sorted(fd_cfg.bases))
    configs = [
        AblationConfig(f"silence_d1-{i}" if i > 1 else "silence_d1",
                       SegmentKind.SILENCE, bases, deltas[:i])
        for i in range(1, len(deltas) + 1)
    ]
    configs += [
        AblationConfig(f"silence_b{b}", SegmentKind.SILENCE, (b,), deltas) for b in bases
    ]
    configs.append(AblationConfig("full_d1-4", SegmentKind.FULL, bases, deltas))
    configs.append(AblationConfig("voiced_d1-3", SegmentKind.VOICED, bases, deltas[:3]))
    return tuple(configs)


def select_columns(
    dataset: LabeledDataset,
    layout: tuple[FeatureDescriptor, ...],
    bases: tuple[int, ...],
    deltas: tuple[float, ...],
) -> tuple[LabeledDataset, tuple[FeatureDescriptor, ...]]:
    """Column subset by layout descriptor (base and delta membership)."""
    keep = [i for i, d in enumerate(layout) if d.base in bases and d.delta in deltas]
    sub_layout = tuple(layout[i] for i in keep)
    sub = LabeledDataset(
        features=dataset.features[:, keep],
        labels=dataset.labels,
        record_ids=dataset.record_ids,
        layout_hash=fd_features.layout_hash(sub_layout),
        system_ids=dataset.system_ids,
    )
    return sub, sub_layout


def ablation_run(
    data_by_segment: dict[SegmentKind, tuple[LabeledDataset, LabeledDataset,
                                             tuple[FeatureDescriptor, ...]]],
    configs: tuple[AblationConfig, ...] | None = None,
    seed: int = 0,
    grid=None,
) -> EvaluationReport:
    """Grid search + one-vs-one evaluation for every ablation configuration.

    `data_by_segment` maps a segment kind to (train, dev, layout) built from the
    full feature grid; each configuration selects columns from those files, so
    differences between rows come from the features alone. Each configuration
    gets its own independent grid search.
    """
    configs = configs or default_ablation_configs()
    rows: list[EvalRow] = []
    for config in configs:
        if config.segment not in data_by_segment:
            continue
        train, dev, layout = data_by_segment[config.segment]
        sub_train, _ = select_columns(train, layout, config.bases, config.deltas)
        sub_dev, _ = select_columns(dev, layout, config.bases, config.deltas)
        model, _ = grid_search(sub_train, sub_dev, grid or default_grid(seed), seed)
        bonafide, spoof_by_system = split_by_system(sub_dev)
        report = one_vs_one_eval(model, bonafide, spoof_by_system,
                                 config.segment.value, config.name)
        rows.extend(report.rows)
    return EvaluationReport(rows=tuple(rows))
