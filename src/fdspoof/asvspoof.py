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
    MissingAudio,
    ParseError,
    SettingError,
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


def read_text(path: str | Path, line_label: str) -> str:
    """The text of a UTF-8 file; ParseError `<line_label><n>: not UTF-8 text`
    naming the first line n that does not decode."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{line_label}{lineno}: not UTF-8 text: {exc.reason}") from None


def parse_protocol(path: str | Path) -> list[ProtocolEntry]:
    """Parse an ASVSpoof 2019 LA style protocol file."""
    text = read_text(path, "line ")
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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

def view_config(kind: SegmentKind, config: CepstralConfig) -> CepstralConfig:
    """The MFCC configuration of a segment view: the silence view always
    uses hop SILENCE_HOP, the others `config` as given. SettingError if the
    frame is shorter than that hop."""
    if kind is not SegmentKind.SILENCE:
        return config
    if config.frame_len < SILENCE_HOP:
        raise SettingError(f"the silence view's fixed hop of {SILENCE_HOP} must be in "
                           f"(0, frame_len]; frame_len is {config.frame_len}")
    return replace(config, hop=SILENCE_HOP)


def _record_pmfs(
    path: Path,
    kind: SegmentKind,
    cepstral_cfg: CepstralConfig,
    fd_cfg: FdConfig,
    energy_cfg: EnergyConfig,
) -> list[np.ndarray]:
    """The cell pmfs of one record's `kind` view; `cepstral_cfg` is the
    view's own configuration (`view_config`)."""
    buffer = audio_io.load(path)
    if kind is not SegmentKind.FULL:
        full, silence, voiced = segmentation.segment(buffer, energy_cfg)
        view = silence if kind is SegmentKind.SILENCE else voiced
        if view.n_samples < cepstral_cfg.frame_len:
            raise InsufficientData(
                f"{buffer.source_id}: {view.kind.value} view has {view.n_samples} samples, "
                f"need {cepstral_cfg.frame_len}"
            )
        buffer = segmentation.extract(buffer, view)
    return fd_features.cell_pmfs(cepstral.mfcc(buffer, cepstral_cfg), fd_cfg)


_SKIPPABLE = (EmptySignal, TooShort, InsufficientData, InsufficientDigits)


def _skip(record_id: str, exc: FdspoofError) -> SkipRecord:
    return SkipRecord(record_id, type(exc).__name__, str(exc))


def _extract_chunk(
    paths: list[Path],
    kind: SegmentKind,
    cepstral_cfg: CepstralConfig,
    fd_cfg: FdConfig,
    energy_cfg: EnergyConfig,
) -> list[tuple[np.ndarray, int] | SkipRecord]:
    """(feature row, number of capped fits) or skip record of every path, in
    order; the chunk's records share one batched fit per base."""
    outcomes: list[int | SkipRecord] = []  # a row of `pmfs`, or the skip
    pmfs = []
    for path in paths:
        try:
            pmfs.append(_record_pmfs(path, kind, cepstral_cfg, fd_cfg, energy_cfg))
            outcomes.append(len(pmfs) - 1)
        except _SKIPPABLE as exc:
            outcomes.append(_skip(path.stem, exc))
    values, capped = fd_features.assemble_features_many(pmfs, fd_cfg)
    return [o if isinstance(o, SkipRecord) else (values[o], int(capped[o])) for o in outcomes]


def build_dataset(
    entries: list[ProtocolEntry],
    audio_root: str | Path,
    segment_kind: SegmentKind,
    cepstral_cfg: CepstralConfig | None = None,
    fd_cfg: FdConfig | None = None,
    energy_cfg: EnergyConfig | None = None,
    jobs: int = 1,
) -> tuple[LabeledDataset, list[SkipRecord], int]:
    """Extract the divergence features of every protocol entry.

    Records run decode-to-features in contiguous chunks (`parallel.map_chunks`
    over `jobs` processes). Rows are sorted by record id; skipped records are
    reported with reasons. Returns (dataset, skips, capped fits): the last is
    the number of kept records' cell fits that hit the iteration cap.
    SettingError, before any record is decoded, if `jobs < 1` or the view's
    configuration is rejected (`view_config`).
    """
    cepstral_cfg = cepstral_cfg or CepstralConfig()
    view_cfg = view_config(segment_kind, cepstral_cfg)
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
        partial(_extract_chunk, kind=segment_kind, cepstral_cfg=view_cfg,
                fd_cfg=fd_cfg, energy_cfg=energy_cfg),
        paths, jobs,
    )
    skips = sorted((o for o in outcomes if isinstance(o, SkipRecord)),
                   key=lambda skip: skip.record_id)
    rows = [(e, o) for e, o in zip(ordered, outcomes) if not isinstance(o, SkipRecord)]
    layout = fd_features.feature_layout(fd_cfg, cepstral_cfg.frequencies)
    features = (np.array([values for _, (values, _) in rows]) if rows
                else np.zeros((0, len(layout))))
    dataset = LabeledDataset(
        features=features,
        labels=np.array([0 if e.key == "bonafide" else 1 for e, _ in rows], dtype=np.int64),
        record_ids=tuple(e.utterance_id for e, _ in rows),
        layout_hash=fd_features.layout_hash(layout),
        system_ids=tuple(e.system_id or BONAFIDE_MARK for e, _ in rows),
    )
    return dataset, skips, sum(capped for _, (_, capped) in rows)


# ---------------------------------------------------------------------------
# feature CSV interchange
# ---------------------------------------------------------------------------

_ID_COLUMNS = ("record_id", "label", "system_id")


def write_feature_csv(path: str | Path, dataset: LabeledDataset,
                      layout: tuple[FeatureDescriptor, ...]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*_ID_COLUMNS, *(d.name for d in layout)])
        for i in range(dataset.n_records):
            system = dataset.system_ids[i] if dataset.system_ids else BONAFIDE_MARK
            writer.writerow(
                [dataset.record_ids[i], int(dataset.labels[i]), system,
                 *(repr(float(v)) for v in dataset.features[i])]
            )


def _decoded_lines(path: str | Path, fh):
    """The lines of a binary file as UTF-8 text; ParseError, with file:line,
    for a line that does not decode."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from None


def _csv_rows(path: str | Path, fh):
    """(line number, fields) of every CSV record of a binary file; ParseError,
    with file:line, for a line that does not decode or a record the reader
    rejects."""
    reader = csv.reader(_decoded_lines(path, fh))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def read_feature_csv(path: str | Path) -> tuple[LabeledDataset, tuple[FeatureDescriptor, ...]]:
    """Read a feature CSV; ParseError, with file:line, on undecodable bytes, a
    header without the three id columns, an unparsable column name, a ragged
    row, a label outside {0, 1} or a non-finite value."""
    with open(path, "rb") as fh:
        rows_of = _csv_rows(path, fh)
        _, header = next(rows_of, (1, None))
        if header is None:
            raise ParseError(f"{path}:1: empty feature file")
        if header[:3] != list(_ID_COLUMNS):
            raise ParseError(f"{path}:1: header must start with {','.join(_ID_COLUMNS)}")
        try:
            layout = tuple(fd_features.parse_feature_name(name) for name in header[3:])
        except ValueError as exc:
            raise ParseError(f"{path}:1: {exc}") from None
        ids, labels, systems, rows, lines = [], [], [], [], []
        for line_num, row in rows_of:
            where = f"{path}:{line_num}"
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
            lines.append(line_num)
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


def _eval_row(system_id: str, segment_label: str, config_label: str, correct: np.ndarray,
              labels: np.ndarray, n_bonafide: int, n_spoof: int) -> EvalRow:
    """Accuracy and balanced accuracy of the records whose per-record
    correctness and labels are given."""
    recalls = [float(np.mean(correct[labels == cls])) for cls in (0, 1)
               if np.any(labels == cls)]
    return EvalRow(system_id, segment_label, config_label, float(np.mean(correct)),
                   float(np.mean(recalls)), n_bonafide, n_spoof)


def evaluate_with_aggregate(
    model: TrainedModel, dataset: LabeledDataset, segment_label: str, config_label: str
) -> EvaluationReport:
    """One-vs-one rows for every spoof system, in sorted order, plus an `ALL` row.

    Every record is predicted once. A system's row scores all bonafide records
    (system `-`) together with that system's records and counts them by
    system; the `ALL` row scores every record and counts the classes by label.
    """
    correct = predict_batch(model, dataset) == dataset.labels
    systems = np.array(dataset.system_ids)
    bonafide = systems == BONAFIDE_MARK
    rows = []
    for system in sorted(set(dataset.system_ids) - {BONAFIDE_MARK}):
        spoof = systems == system
        pair = bonafide | spoof
        rows.append(_eval_row(system, segment_label, config_label, correct[pair],
                              dataset.labels[pair], int(bonafide.sum()), int(spoof.sum())))
    n_spoof = int(np.sum(dataset.labels == 1))
    rows.append(_eval_row("ALL", segment_label, config_label, correct, dataset.labels,
                          dataset.n_records - n_spoof, n_spoof))
    return EvaluationReport(rows=tuple(rows))


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
    """Grid search + one-vs-one evaluation rows, without `ALL`, for every
    ablation configuration.

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
        report = evaluate_with_aggregate(model, sub_dev, config.segment.value, config.name)
        rows.extend(report.rows[:-1])
    return EvaluationReport(rows=tuple(rows))
