import shutil

import numpy as np
import pytest

from conftest import make_filtered_clip
from fdspoof import asvspoof, audio_io
from fdspoof.asvspoof import (
    EvalRow,
    ProtocolEntry,
    balance_training,
    build_dataset,
    evaluate_with_aggregate,
    parse_protocol,
    read_feature_csv,
    select_columns,
    subset_records,
    write_feature_csv,
)
from fdspoof.cepstral import CepstralConfig
from fdspoof.exceptions import DegenerateProtocol, MissingAudio, ParseError, SettingError
from fdspoof.fd_features import FdConfig, feature_layout, layout_hash
from fdspoof.forest import ForestConfig, LabeledDataset, TrainedModel, Tree, predict_batch
from fdspoof.segmentation import SegmentKind
from fdspoof.forest import grid_search
from test_forest import grid_by_cells


def leaf_model(label, layout_hash_value):
    counts = [0, 1] if label == 1 else [1, 0]
    tree = Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                counts=[counts], gain=[0.0])
    return TrainedModel((tree,), ForestConfig(n_trees=1), layout_hash_value)


class TestParseProtocol:
    def test_bonafide_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("LA_0079 LA_T_1138215 - - bonafide\n")
        (entry,) = parse_protocol(path)
        assert entry == ProtocolEntry("LA_0079", "LA_T_1138215", None, "bonafide")

    def test_spoof_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("LA_0079 LA_T_1271820 - A01 spoof\n")
        (entry,) = parse_protocol(path)
        assert entry.system_id == "A01"
        assert entry.key == "spoof"

    def test_malformed_line_has_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("LA_0079 LA_T_1138215 - - bonafide\nbad line here\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_protocol(path)

    def test_undecodable_line_has_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"LA_0079 LA_T_1138215 - - bonafide\nLA_0080 LA_T_\x80 - - bonafide\n")
        with pytest.raises(ParseError, match="line 2: not UTF-8"):
            parse_protocol(path)

    def test_unknown_system_preserved(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("S U - A99 spoof\n")
        assert parse_protocol(path)[0].system_id == "A99"


def proto_entries(n_by_system, n_bonafide):
    entries = []
    for i in range(n_bonafide):
        entries.append(ProtocolEntry("S", f"bona_{i:04d}", None, "bonafide"))
    for system, count in n_by_system.items():
        for i in range(count):
            entries.append(ProtocolEntry("S", f"{system}_{i:04d}", system, "spoof"))
    return entries


class TestBalance:
    def test_already_balanced_keeps_all(self):
        entries = proto_entries({"A01": 100, "A02": 100}, 200)
        assert len(balance_training(entries, 0)) == 400

    def test_bonafide_short_decimates_systems(self):
        entries = proto_entries({"A01": 100, "A02": 100}, 120)
        out = balance_training(entries, 0)
        counts = {}
        for entry in out:
            key = entry.system_id or "bona"
            counts[key] = counts.get(key, 0) + 1
        assert counts == {"bona": 120, "A01": 60, "A02": 60}

    def test_no_bonafide_rejected(self):
        with pytest.raises(DegenerateProtocol):
            balance_training(proto_entries({"A01": 5}, 0), 0)

    def test_exact_balance_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            systems = {f"A{i:02d}": int(rng.integers(3, 40)) for i in range(rng.integers(1, 6))}
            entries = proto_entries(systems, int(rng.integers(1, 120)))
            try:
                out = balance_training(entries, 7)
            except DegenerateProtocol:
                continue
            spoof_counts = {}
            n_bona = 0
            for entry in out:
                if entry.key == "bonafide":
                    n_bona += 1
                else:
                    spoof_counts[entry.system_id] = spoof_counts.get(entry.system_id, 0) + 1
            assert len(set(spoof_counts.values())) == 1
            assert sum(spoof_counts.values()) == n_bona

    def test_seeded_and_order_preserving(self):
        entries = proto_entries({"A01": 30, "A02": 30}, 40)
        a = balance_training(entries, 5)
        b = balance_training(entries, 5)
        assert a == b
        positions = [entries.index(e) for e in a]
        assert positions == sorted(positions)


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    """Six clips: bonafide through 4-tap FIR, spoofs (A01/A02) through longer ones."""
    root = tmp_path_factory.mktemp("corpus")
    audio_dir = root / "audio"
    audio_dir.mkdir()
    entries = []
    spec = [("bona", None, 4), ("bona", None, 4), ("A01", "A01", 32),
            ("A01", "A01", 32), ("A02", "A02", 64), ("A02", "A02", 64)]
    for i, (tag, system, n_coeffs) in enumerate(spec):
        name = f"LA_T_{i:07d}"
        clip = make_filtered_clip(n_coeffs, clip_seed=500 + i)
        audio_io.write_wav(audio_dir / f"{name}.wav",
                           audio_io.AudioBuffer(clip.samples, 16000, name))
        entries.append(ProtocolEntry("LA_0001", name, system,
                                     "bonafide" if system is None else "spoof"))
    return audio_dir, entries


class TestBuildDataset:
    def test_empty_entry_list(self, toy_corpus):
        audio_dir, _ = toy_corpus
        dataset, skips, _ = build_dataset([], audio_dir, SegmentKind.FULL)
        assert dataset.n_records == 0
        assert skips == []

    def test_full_segment_features(self, toy_corpus):
        audio_dir, entries = toy_corpus
        dataset, skips, _ = build_dataset(entries, audio_dir, SegmentKind.FULL)
        assert dataset.n_records == 6
        assert skips == []
        assert dataset.features.shape == (6, 416)
        assert list(dataset.record_ids) == sorted(dataset.record_ids)
        assert set(dataset.system_ids) == {"-", "A01", "A02"}
        assert np.all(np.isfinite(dataset.features))

    def test_missing_audio_is_an_error(self, toy_corpus):
        audio_dir, entries = toy_corpus
        bad = entries + [ProtocolEntry("S", "LA_T_9999999", None, "bonafide")]
        with pytest.raises(MissingAudio):
            build_dataset(bad, audio_dir, SegmentKind.FULL)

    def test_silence_on_voiced_corpus_skips_with_reason(self, toy_corpus):
        audio_dir, entries = toy_corpus
        # filtered noise clips are voiced throughout: no interior silence
        dataset, skips, _ = build_dataset(entries[:2], audio_dir, SegmentKind.SILENCE)
        assert dataset.n_records == 0
        assert len(skips) == 2
        assert {s.reason for s in skips} == {"InsufficientData"}
        assert len({s.record_id for s in skips}) == 2

    def test_silence_hop_checked_before_any_record(self, toy_corpus, monkeypatch):
        audio_dir, entries = toy_corpus
        monkeypatch.setattr(asvspoof.audio_io, "load", lambda path: pytest.fail("decoded"))
        short_frame = CepstralConfig(frame_len=64, hop=32)
        with pytest.raises(SettingError, match="silence view's fixed hop of 128"):
            build_dataset(entries, audio_dir, SegmentKind.SILENCE, short_frame)
        assert asvspoof.view_config(SegmentKind.VOICED, short_frame) is short_frame
        assert asvspoof.view_config(SegmentKind.SILENCE, CepstralConfig()).hop == 128

    def test_deterministic_bytes(self, toy_corpus, tmp_path):
        audio_dir, entries = toy_corpus
        cfg = FdConfig()
        for run in ("a", "b"):
            dataset, _, _ = build_dataset(entries, audio_dir, SegmentKind.FULL, fd_cfg=cfg)
            layout = feature_layout(cfg, tuple(range(2, 15)))
            write_feature_csv(tmp_path / f"{run}.csv", dataset, layout)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_jobs_do_not_change_output(self, toy_corpus, tmp_path):
        # seven records split 7 / 4+3 / 3+3+1 at jobs 1 / 2 / 3, and the
        # all-zero clip sorted into the middle of them is skipped
        audio_dir, entries = toy_corpus
        for entry in entries:
            shutil.copy(audio_dir / f"{entry.utterance_id}.wav", tmp_path)
        silent = "LA_T_0000002z"
        audio_io.write_wav(tmp_path / f"{silent}.wav",
                           audio_io.AudioBuffer(np.zeros(32000), 16000, silent))
        entries = entries + [ProtocolEntry("LA_0001", silent, None, "bonafide")]
        runs = [build_dataset(entries, tmp_path, SegmentKind.FULL, jobs=jobs)
                for jobs in (1, 2, 3)]
        serial, skips, capped = runs[0]
        assert serial.n_records == 6
        assert [(s.record_id, s.reason) for s in skips] == [(silent, "EmptySignal")]
        for dataset, other_skips, other_capped in runs[1:]:
            assert np.array_equal(serial.features, dataset.features)
            assert serial.record_ids == dataset.record_ids
            assert serial.system_ids == dataset.system_ids
            assert skips == other_skips
            assert capped == other_capped


class TestFeatureCsv:
    def test_roundtrip(self, tmp_path):
        cfg = FdConfig()
        layout = feature_layout(cfg, (2, 3))
        rng = np.random.default_rng(1)
        dataset = LabeledDataset(
            features=rng.normal(size=(4, len(layout))),
            labels=np.array([0, 1, 0, 1]),
            record_ids=("a", "b", "c", "d"),
            layout_hash=layout_hash(layout),
            system_ids=("-", "A01", "-", "A02"),
        )
        path = tmp_path / "f.csv"
        write_feature_csv(path, dataset, layout)
        back, back_layout = read_feature_csv(path)
        assert back_layout == layout
        assert back.layout_hash == dataset.layout_hash
        assert np.array_equal(back.features, dataset.features)
        assert back.record_ids == dataset.record_ids
        assert back.system_ids == dataset.system_ids


def synthetic_dataset(n_per_class, layout, seed, systems=("A01", "A02")):
    """Separable synthetic features: spoof rows are shifted up."""
    rng = np.random.default_rng(seed)
    rows, labels, ids, sys_ids = [], [], [], []
    for i in range(n_per_class):
        rows.append(rng.normal(0.0, 1.0, len(layout)))
        labels.append(0)
        ids.append(f"bona_{seed}_{i:03d}")
        sys_ids.append("-")
    for i in range(n_per_class):
        system = systems[i % len(systems)]
        rows.append(rng.normal(4.0, 1.0, len(layout)))
        labels.append(1)
        ids.append(f"{system}_{seed}_{i:03d}")
        sys_ids.append(system)
    return LabeledDataset(np.array(rows), np.array(labels), tuple(ids),
                          layout_hash(layout), tuple(sys_ids))


def stacked_eval(model, dataset, segment_label, config_label):
    """Reference evaluation: for every spoof system, the bonafide records
    (system `-`) and that system's records are stacked and predicted on their
    own; the whole set is predicted once more for `ALL`."""
    def scores(data):
        preds = predict_batch(model, data)
        recalls = [float(np.mean(preds[data.labels == cls] == cls)) for cls in (0, 1)
                   if np.any(data.labels == cls)]
        return float(np.mean(preds == data.labels)), float(np.mean(recalls))

    systems = np.array(dataset.system_ids)
    bonafide = subset_records(dataset, systems == "-")
    rows = []
    for system in sorted(set(dataset.system_ids) - {"-"}):
        spoofs = subset_records(dataset, systems == system)
        stacked = LabeledDataset(np.vstack([bonafide.features, spoofs.features]),
                                 np.concatenate([bonafide.labels, spoofs.labels]),
                                 bonafide.record_ids + spoofs.record_ids, dataset.layout_hash,
                                 bonafide.system_ids + spoofs.system_ids)
        rows.append(EvalRow(system, segment_label, config_label, *scores(stacked),
                            bonafide.n_records, spoofs.n_records))
    n_spoof = int(np.sum(dataset.labels == 1))
    rows.append(EvalRow("ALL", segment_label, config_label, *scores(dataset),
                        dataset.n_records - n_spoof, n_spoof))
    return tuple(rows)


class TestEvaluation:
    def test_constant_spoof_predictor_scores_half(self):
        layout = feature_layout(FdConfig(), (2,))
        data = synthetic_dataset(10, layout, seed=3)
        model = leaf_model(1, data.layout_hash)
        report = evaluate_with_aggregate(model, data, "full", "const")
        for row in report.rows[:-1]:
            assert row.accuracy == pytest.approx(row.n_spoof / (row.n_bonafide + row.n_spoof))
            assert row.balanced_accuracy == 0.5

    def test_perfect_predictor(self):
        layout = feature_layout(FdConfig(), (2,))
        data = synthetic_dataset(12, layout, seed=4)
        train = synthetic_dataset(12, layout, seed=5)
        model, _ = grid_search(train, data, [ForestConfig(n_trees=10, seed=0)])
        report = asvspoof.evaluate_with_aggregate(model, data, "full", "10xgini")
        assert all(row.accuracy == 1.0 for row in report.rows)
        assert report.rows[-1].system_id == "ALL"
        assert report.rows[-1].n_bonafide == 12
        assert report.rows[-1].n_spoof == 12

    def test_one_prediction_matches_stacked_per_system_predictions(self, monkeypatch):
        # noisy features so that the forest makes mistakes in every class;
        # systems come unsorted, A09 has a single record, and three records
        # disagree with their system mark (two spoofs marked `-`, a bonafide
        # marked A01), which separates counting by system from counting by label
        layout = feature_layout(FdConfig(), (2,))
        rng = np.random.default_rng(15)
        systems = ["-"] * 20 + ["A07", "A01", "A04"] * 6 + ["A09"]
        labels = np.array([0 if s == "-" else 1 for s in systems])
        labels[3], labels[4], labels[21] = 1, 1, 0
        features = rng.normal(0.0, 1.0, (len(systems), len(layout))) + 1.5 * labels[:, None]
        data = LabeledDataset(features, labels, tuple(f"r{i:02d}" for i in range(len(systems))),
                              layout_hash(layout), tuple(systems))
        train = synthetic_dataset(20, layout, seed=16, systems=("A07", "A01"))
        noisy = LabeledDataset(train.features + rng.normal(0.0, 3.0, train.features.shape),
                               train.labels, train.record_ids, train.layout_hash,
                               train.system_ids)
        model = grid_search(noisy, noisy, [ForestConfig(n_trees=7, seed=2)])[0]

        calls = []

        def counted(model, dataset):
            calls.append(dataset.n_records)
            return predict_batch(model, dataset)

        monkeypatch.setattr(asvspoof, "predict_batch", counted)
        rows = evaluate_with_aggregate(model, data, "silence", "7xgini").rows
        assert calls == [data.n_records]
        assert rows == stacked_eval(model, data, "silence", "7xgini")
        assert [r.system_id for r in rows] == ["A01", "A04", "A07", "A09", "ALL"]
        assert [(r.n_bonafide, r.n_spoof) for r in rows] == [
            (20, 6), (20, 6), (20, 6), (20, 1), (19, 20)]
        assert len({r.accuracy for r in rows}) > 2


class TestColumnSelection:
    def test_delta_subset_is_104_columns(self):
        layout = feature_layout(FdConfig(), tuple(range(2, 15)))
        data = synthetic_dataset(3, layout, seed=6)
        sub, sub_layout = select_columns(data, layout, (10, 20), (1.0,))
        assert sub.features.shape[1] == 104
        assert len(sub_layout) == 104

    def test_base_subset_is_208_columns(self):
        layout = feature_layout(FdConfig(), tuple(range(2, 15)))
        data = synthetic_dataset(3, layout, seed=7)
        sub, sub_layout = select_columns(data, layout, (10,), (1.0, 2.0, 3.0, 4.0))
        assert sub.features.shape[1] == 208

    def test_whole_subset_equals_original(self):
        layout = feature_layout(FdConfig(), tuple(range(2, 15)))
        data = synthetic_dataset(3, layout, seed=8)
        sub, sub_layout = select_columns(data, layout, (10, 20), (1.0, 2.0, 3.0, 4.0))
        assert np.array_equal(sub.features, data.features)
        assert sub.layout_hash == data.layout_hash


class TestAblation:
    def test_row_bookkeeping(self):
        layout = feature_layout(FdConfig(), tuple(range(2, 15)))
        data = {
            kind: (synthetic_dataset(8, layout, seed=10 + i),
                   synthetic_dataset(4, layout, seed=20 + i), layout)
            for i, kind in enumerate(SegmentKind)
        }
        report = asvspoof.ablation_run(data, grid=[ForestConfig(n_trees=10, seed=0)])
        # 8 configurations x 2 dev systems
        assert len(report.rows) == 16
        names = [row.config_name for row in report.rows]
        assert names.count("silence_d1") == 2
        assert names.count("full_d1-4") == 2
        assert names.count("voiced_d1-3") == 2
        segments = {row.config_name: row.segment_kind for row in report.rows}
        assert segments["full_d1-4"] == "full"
        assert segments["silence_b20"] == "silence"

    def test_report_bytes_match_cell_by_cell_search(self, tmp_path, monkeypatch):
        # noise swamps the class shift, so the grid cells score differently
        layout = feature_layout(FdConfig(), tuple(range(2, 15)))
        rng = np.random.default_rng(9)

        def noisy(n_per_class, seed):
            d = synthetic_dataset(n_per_class, layout, seed)
            features = d.features + rng.normal(0.0, 6.0, d.features.shape)
            return LabeledDataset(features, d.labels, d.record_ids, d.layout_hash,
                                  d.system_ids)

        data = {kind: (noisy(10, 30 + i), noisy(8, 40 + i), layout)
                for i, kind in enumerate(SegmentKind)}
        grid = [ForestConfig(n_trees=n, criterion=c, seed=3)
                for n in (6, 1, 3) for c in ("entropy", "gini")]
        asvspoof.write_report_csv(tmp_path / "prefix.csv",
                                  asvspoof.ablation_run(data, grid=grid))
        monkeypatch.setattr(asvspoof, "grid_search",
                            lambda train, dev, grid, seed: grid_by_cells(train, dev, grid))
        asvspoof.write_report_csv(tmp_path / "cells.csv",
                                  asvspoof.ablation_run(data, grid=grid))
        prefix = (tmp_path / "prefix.csv").read_bytes()
        assert prefix == (tmp_path / "cells.csv").read_bytes()
        assert len({line.split(b",")[3] for line in prefix.splitlines()[1:]}) > 2
