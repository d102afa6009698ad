"""ASVSpoof-style corpus harness: protocols, balancing, extraction, evaluation.

Protocol files are whitespace-separated lines `speaker utterance - system key`
where system is `-` for bonafide entries. In protocol and config files a line
ends at `\\n`, and `\\r\\n` is accepted. Training data is decimated so every
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
from itertools import islice
from pathlib import Path

import numpy as np

from . import audio_io, cepstral, fd_features, parallel, segmentation
from .cepstral import CepstralConfig
from .exceptions import (
    DegenerateProtocol,
    EmptyDataset,
    EmptySignal,
    FdspoofError,
    InsufficientData,
    InsufficientDigits,
    LayoutMismatch,
    MissingAudio,
    ParseError,
    SettingError,
    TooShort,
)
from .fd_features import FdConfig, FeatureDescriptor
from .forest import LabeledDataset, TrainedModel, grid_search, predict_batch
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


def decoded_lines(line_label: str, fh):
    """(line number, text) of every line of a binary file, decoded as UTF-8;
    a line ends at `\\n`, which its text keeps. ParseError
    `<line_label><n>: not UTF-8 text` for a line n that does not decode."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{line_label}{lineno}: not UTF-8 text: {exc.reason}") from None


def parse_protocol(path: str | Path) -> list[ProtocolEntry]:
    """Parse an ASVSpoof 2019 LA style protocol file. Every line is decoded
    before any is parsed, and a `\\r` inside a line is a ParseError."""
    with open(path, "rb") as fh:
        lines = list(decoded_lines("line ", fh))
    entries = []
    for lineno, line in lines:
        if "\r" in line.rstrip():
            raise ParseError(f"line {lineno}: carriage return inside the line")
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
    # csv quotes the id fields; the values are repr floats, which never need
    # quoting, so they are joined as they are
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="")
        writer.writerow([*_ID_COLUMNS, *(d.name for d in layout)])
        for i, values in enumerate(dataset.features):
            system = dataset.system_ids[i] if dataset.system_ids else BONAFIDE_MARK
            fh.write("\r\n")
            writer.writerow([dataset.record_ids[i], int(dataset.labels[i]), system])
            if layout:
                fh.write(",")
                fh.write(",".join(map(repr, values.tolist())))
        fh.write("\r\n")


# Data lines whose value texts numpy parses in one call: the reader holds no
# more text than this at once, and the call costs the same per line from one
# line up.
_BLOCK_LINES = 256

# csv syntax, and the separators 0x1c-0x1f, which numpy's parser skips as
# whitespace. A data line that holds one, or is empty, is split by csv, and its
# value fields are checked for separators (`_value_text`) before numpy reads them.
_CSV_CHARS = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")

# What numpy's parser reads as the end of a value or of a row, or skips as
# whitespace (0x1c-0x1f, which float() rejects): in a value field, one would
# make numpy read other fields, rows or values than csv split.
_SEPARATORS = frozenset(",\r\n\x1c\x1d\x1e\x1f")


def _csv_fields(path: str | Path, lineno: int, text: str) -> list[str]:
    """The fields of one line as csv reads them; ParseError, with file:line,
    for a line csv rejects. A quote left open takes the rest of the line, its
    line break too, into one field; a last line without one is given one, so
    that its open quote is not closed by the end of the file."""
    try:
        return next(csv.reader([text if text.endswith("\n") else text + "\n"]), [])
    except csv.Error as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from None


def _value_text(fields: list[str]) -> str | ValueError:
    """The value fields of a line csv split, joined for numpy; else, where a
    field holds a separator, the ValueError naming the line's first bad field
    (`_bad_value`)."""
    if any(not _SEPARATORS.isdisjoint(field) for field in fields):
        return ValueError(_bad_value(fields))
    return ",".join(fields)


def _record(path: str | Path, lineno: int, text: str,
            width: int) -> tuple[str, int, str, str | ValueError]:
    """(record id, label, system id, value text) of one data line of `width`
    fields; ParseError, with file:line, for a wrong field count or label. The
    value text is a ValueError, for the block to raise, where it is empty or a
    field of a line csv split holds a separator."""
    body = text.removesuffix("\n").removesuffix("\r")
    plain = body and not any(c in body for c in _CSV_CHARS)
    if plain:
        fields = body.split(",", 3)
        n_fields = len(fields) + (fields[3].count(",") if len(fields) == 4 else 0)
    else:
        fields = _csv_fields(path, lineno, text)
        n_fields = len(fields)
    if n_fields != width:
        raise ParseError(f"{path}:{lineno}: expected {width} fields, got {n_fields}")
    if fields[1] not in ("0", "1"):
        raise ParseError(f"{path}:{lineno}: label must be 0 or 1, got {fields[1]!r}")
    values = ((fields[3] if plain else _value_text(fields[3:]))
              or ValueError("could not convert string to float: ''"))
    return fields[0], int(fields[1]), fields[2], values


def _read_values(texts: list[str]) -> np.ndarray:
    """One float64 row per value text, from numpy's C parser, which rounds as
    float() does; ValueError for a text it cannot read or skips (numpy drops
    empty lines)."""
    values = np.loadtxt(texts, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    if len(values) != len(texts):
        raise ValueError(f"{len(texts)} value texts gave {len(values)} rows")
    return values


def _bad_value(fields: list[str]) -> str:
    """Why a line's value fields cannot be read, worded as float()'s message:
    the first field that holds a separator or that numpy rejects on its own."""
    for field in fields:
        if _SEPARATORS.isdisjoint(field):
            try:
                _read_values([field])
                continue
            except ValueError:
                pass
        return f"could not convert string to float: {field!r}"


def _block_values(path: str | Path, first: int, texts: list[str | ValueError]) -> np.ndarray:
    """The values of consecutive data lines, the first at line `first`, in one
    numpy call; when that fails, a ParseError, with file:line, for the first
    line with a ValueError or a text numpy rejects. Each text has the header's
    number of fields and no separator inside one, so numpy rejects a block only
    where it rejects one of its lines alone."""
    try:
        return _read_values(texts)
    except (TypeError, ValueError):  # numpy raises TypeError on a ValueError in `texts`
        for lineno, text in enumerate(texts, start=first):
            if isinstance(text, ValueError):
                raise ParseError(f"{path}:{lineno}: {text}") from None
            try:
                _read_values([text])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: {_bad_value(text.split(','))}") from None
        raise


def read_feature_csv(path: str | Path) -> tuple[LabeledDataset, tuple[FeatureDescriptor, ...]]:
    """Read a feature CSV; ParseError, with file:line, on undecodable bytes, a
    header without the id columns or any feature column, an unparsable column
    name, a ragged row, a label other than the text 0 or 1, an unparsable value
    or a non-finite value.

    A record is one line. Each data line is split into its ids and its value
    text, and the value texts of `_BLOCK_LINES` lines at a time are parsed in
    one numpy call, so a bad value is reported after the field count and label
    of every line in its block are checked."""
    with open(path, "rb") as fh:
        lines = decoded_lines(f"{path}:", fh)
        _, text = next(lines, (1, None))
        if text is None:
            raise ParseError(f"{path}:1: empty feature file")
        header = _csv_fields(path, 1, text)
        if header[:3] != list(_ID_COLUMNS):
            raise ParseError(f"{path}:1: header must start with {','.join(_ID_COLUMNS)}")
        if len(header) == len(_ID_COLUMNS):
            raise ParseError(f"{path}:1: header names no feature columns")
        try:
            layout = tuple(fd_features.parse_feature_name(name) for name in header[3:])
        except ValueError as exc:
            raise ParseError(f"{path}:1: {exc}") from None
        records = (_record(path, lineno, text, len(header)) for lineno, text in lines)
        ids, labels, systems, blocks = [], [], [], []
        while block := list(islice(records, _BLOCK_LINES)):
            # data line k (from 0) is line k + 2 of the file
            first = len(ids) + 2
            for record_id, label, system, _ in block:
                ids.append(record_id)
                labels.append(label)
                systems.append(system)
            blocks.append(_block_values(path, first, [values for *_, values in block]))
    features = np.concatenate(blocks) if blocks else np.zeros((0, len(layout)))
    bad = np.nonzero(~np.isfinite(features).all(axis=1))[0]
    if bad.size:
        raise ParseError(f"{path}:{bad[0] + 2}: non-finite feature value")
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
) -> tuple[EvalRow, ...]:
    """One-vs-one rows for every spoof system, in sorted order, plus an `ALL` row.

    Every record is predicted once. A system's row scores all bonafide records
    (system `-`) together with that system's records and counts them by
    system; the `ALL` row scores every record and counts the classes by label.
    EmptyDataset if the dataset has no records.
    """
    if dataset.n_records == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
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
    return tuple(rows)


def write_report_csv(path: str | Path, rows: tuple[EvalRow, ...]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system", "segment", "config", "accuracy", "balanced_accuracy",
                         "n_bonafide", "n_spoof"])
        for row in rows:
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


def default_ablation_configs() -> tuple[AblationConfig, ...]:
    """The eight standard rows, over the default `FdConfig` grid: delta prefixes
    and single bases on Silence, the full grid on Full, the d1-3 prefix on Voiced."""
    fd_cfg = FdConfig()
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


def _row_columns(layout: tuple[FeatureDescriptor, ...],
                 config: AblationConfig) -> tuple[list[int], str]:
    """The layout columns of one ablation row and the layout hash of their
    sub-layout; LayoutMismatch, naming the row, if any (base, step) pair it
    asks for has no column."""
    present = {(d.base, d.delta) for d in layout}
    missing = [f"({b}, {s:g})" for b in config.bases for s in config.deltas
               if (b, s) not in present]
    if missing:
        raise LayoutMismatch(f"ablation row {config.name} needs (base, step) "
                             f"{', '.join(missing)}, which the features lack; extract "
                             "them with the default bases and steps")
    keep = [i for i, d in enumerate(layout) if d.base in config.bases and d.delta in config.deltas]
    return keep, fd_features.layout_hash(layout[i] for i in keep)


def select_columns(dataset: LabeledDataset, columns: list[int],
                   layout_hash: str) -> LabeledDataset:
    """The dataset cut down to one ablation row's columns and their layout
    hash, as `_row_columns` gives them."""
    return replace(dataset, features=dataset.features[:, columns], layout_hash=layout_hash)


def ablation_run(
    data_by_segment: dict[SegmentKind, tuple[LabeledDataset, LabeledDataset,
                                             tuple[FeatureDescriptor, ...]]],
    seed: int = 0,
) -> tuple[EvalRow, ...]:
    """Grid search + one-vs-one evaluation rows, without `ALL`, for every
    default ablation row whose segment has data.

    `data_by_segment` maps a segment kind to (train, dev, layout) built from the
    full feature grid; each row selects columns from those files, so
    differences between rows come from the features alone. Each row gets its
    own grid search over the default tree counts x criteria at `seed`.
    LayoutMismatch, before any tree grows, if a row's columns are missing.
    """
    configs = [c for c in default_ablation_configs() if c.segment in data_by_segment]
    columns = [_row_columns(data_by_segment[c.segment][2], c) for c in configs]
    rows: list[EvalRow] = []
    for config, (keep, sub_hash) in zip(configs, columns):
        train, dev, _ = data_by_segment[config.segment]
        sub_dev = select_columns(dev, keep, sub_hash)
        model, _ = grid_search(select_columns(train, keep, sub_hash), sub_dev, seed=seed)
        rows.extend(evaluate_with_aggregate(model, sub_dev, config.segment.value,
                                            config.name)[:-1])
    return tuple(rows)
