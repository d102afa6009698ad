"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 1-10 are desk scale (no external data). Criteria 11-13 require the
ASVSpoof 2019 LA corpus (transcoded to 16 kHz mono wav) and run for hours; they
are skipped unless FDSPOOF_ASVSPOOF_LA points at the prepared corpus root.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats as sp_stats

from conftest import make_blobs, make_filtered_clip
from fdspoof import asvspoof, audio_io, fd_features as fd, firsim, segmentation
from fdspoof.asvspoof import ProtocolEntry, build_dataset
from fdspoof.audio_io import AudioBuffer
from fdspoof.forest import ForestConfig, grid_search, save_model, train_forest
from fdspoof.forest import LabeledDataset, accuracy as forest_accuracy
from fdspoof.segmentation import EnergyConfig, SegmentKind
from test_forest import walk_tree


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] FAIL  {name}")
        raise
    print(f"[criterion {num:>2}] PASS  {name}")


def brute_force_first_digit(x, base):
    m = abs(x)
    while m >= base:
        m /= base
    while m < 1.0:
        m *= base
    return int(m)


def test_criterion_1_first_digit_oracle_equivalence():
    with criterion(1, "first-digit implementation matches brute-force oracle exactly"):
        rng = np.random.default_rng(101)
        values = 10.0 ** rng.uniform(-6.0, 6.0, 10000)
        mismatches = 0
        for base in (10, 20):
            got = fd._first_digits(values.copy(), base)
            want = np.array([brute_force_first_digit(v, base) for v in values])
            mismatches += int(np.sum(got != want))
        assert mismatches == 0


def test_criterion_2_benford_identities():
    with criterion(2, "classic Benford curve normalizes and hits p(1)=log10(2)"):
        # the evaluator the fit and the divergences use
        curve = fd._curve_batch(np.array([[1.0, 0.0, 1.0]]),
                                np.log(np.arange(1, 10, dtype=float)), math.log(10))[0]
        total = sum(curve)
        assert abs(total - 1.0) < 1e-12
        assert curve[0] == pytest.approx(0.301030, abs=1e-6)


def test_criterion_3_divergence_identities():
    with criterion(3, "divergences vanish at p == p-hat; base-3 example = 0.0702 nats"):
        d = np.arange(1, 10, dtype=float)
        probs = np.log1p(1.0 / d) / np.log(10.0)
        pmf = fd.DigitPmf(10, probs, 1000)
        ds = fd.divergences(pmf, fd.BenfordFit(1.0, 0.0, 1.0, 0.0, True))
        assert abs(ds.js) < 1e-12 and abs(ds.renyi) < 1e-12
        assert abs(ds.tsallis) < 1e-12 and abs(ds.mse) < 1e-12

        pmf3 = fd.DigitPmf(3, np.array([0.5, 0.5]), 100)
        ds3 = fd.divergences(pmf3, fd.BenfordFit(1.0, 0.0, 1.0, 0.0, True))
        q = np.array([math.log(2) / math.log(3), math.log(1.5) / math.log(3)])
        oracle_js = float(np.sum(0.5 * np.log(0.5 / q)) + np.sum(q * np.log(q / 0.5)))
        assert ds3.js == pytest.approx(0.0702, abs=1e-3)
        assert ds3.js == pytest.approx(oracle_js, abs=1e-9)


def test_criterion_4_fit_recovery():
    with criterion(4, "generate-normalize-fit recovers the curve in >= 48/50 cases"):
        rng = np.random.default_rng(104)
        digits = np.arange(1, 10, dtype=float)
        recovered = 0
        silently_wrong = 0
        for _ in range(50):
            beta = rng.uniform(0.8, 1.2)
            gamma = rng.uniform(0.0, 0.5)
            delta = rng.uniform(0.7, 1.3)
            probs = beta * np.log1p(1.0 / (gamma + digits ** delta)) / np.log(10.0)
            probs = probs / probs.sum()
            fit = fd.fit_benford(fd.DigitPmf(10, probs, 1000))
            if fit.converged and fit.residual_mse < 1e-6:
                recovered += 1
            elif fit.converged:
                silently_wrong += 1  # converged but residual above spec bound
        assert recovered >= 48
        assert silently_wrong == 0


def test_criterion_5_benford_vs_uniform_ordering():
    with criterion(5, "sampled Benford js < 0.01 and non-monotone-digit js at least 10x larger"):
        rng = np.random.default_rng(105)
        benford_values = 10.0 ** rng.uniform(0.0, 1.0, 100000)
        pmf_b = fd.digit_pmf(benford_values, 1.0, 10)
        fit_b = fd.fit_benford(pmf_b)
        js_b = fd.divergences(pmf_b, fit_b).js
        assert js_b < 0.01

        # Every member of the curve family is monotone in d (the uniform pmf is
        # the member at delta=0), so the contrast needs a non-monotone profile:
        # mantissas in [2,3) u [8,9) give first digits 2 and 8 only.
        contrast_values = rng.choice((2.0, 8.0), 100000) + rng.uniform(0.0, 1.0, 100000)
        pmf_c = fd.digit_pmf(contrast_values, 1.0, 10)
        fit_c = fd.fit_benford(pmf_c)
        js_c = fd.divergences(pmf_c, fit_c).js
        assert js_c >= 10.0 * js_b, (
            f"js_contrast={js_c:.3e} is not 10x js_benford={js_b:.3e}; no monotone "
            "curve fits digits 2 and 8 alone, so the fit or the divergence is wrong"
        )


def test_criterion_6_segmentation_boundary_recovery():
    with criterion(6, "tone-gap silent extents recovered within one window, 100/100"):
        rng = np.random.default_rng(106)
        window = 101
        n = 80 * window
        hits = 0
        for _ in range(100):
            gap_len = int(rng.integers(3 * window, 20 * window))
            gap_start = int(rng.integers(2 * window, n - gap_len - 2 * window))
            samples = np.sin(2.0 * np.pi * 440.0 * np.arange(n) / 16000.0)
            samples[gap_start : gap_start + gap_len] = 0.0
            buffer = AudioBuffer(samples / np.max(np.abs(samples)), 16000, "gap")
            _, silence, _ = segmentation.segment(buffer, EnergyConfig())
            if len(silence.index_ranges) != 1:
                continue
            a, b = silence.index_ranges[0]
            if abs(a - gap_start) <= window and abs(b - (gap_start + gap_len)) <= window:
                hits += 1
        assert hits == 100


def test_criterion_7_feature_layout_is_416():
    with criterion(7, "default configuration emits exactly 416 features"):
        layout = fd.feature_layout(fd.FdConfig(), tuple(range(2, 15)))
        assert len(layout) == 416
        # 4 divergences x 13 frequencies x 2 bases x 4 quantization steps
        assert len(layout) == 4 * 13 * 2 * 4


def test_criterion_8_forest_sanity(tmp_path):
    with criterion(8, "forest: blobs 1.0 on every grid cell, XOR to purity, byte determinism"):
        train = make_blobs(100, seed=0)
        held = make_blobs(50, seed=999)
        _, report = grid_search(train, held, seed=0)
        assert len(report) == 8
        assert all(cell.dev_accuracy == 1.0 for cell in report)

        xor_features = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        xor = LabeledDataset(xor_features, np.array([0, 1, 1, 0]),
                             ("a", "b", "c", "d"), "xor")
        tree = train_forest(xor, ForestConfig(n_trees=1, features_per_split=2, seed=0,
                                              bootstrap=False)).trees[0]
        assert [walk_tree(tree, r) for r in xor_features] == [0, 1, 1, 0]

        for name in ("m1.json", "m2.json"):
            save_model(train_forest(train, ForestConfig(n_trees=20, seed=5)), tmp_path / name)
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_criterion_9_end_to_end_separability(tmp_path):
    with criterion(9, "two FIR families separate at >= 0.90 held-out accuracy in < 3 min"):
        started = time.perf_counter()
        audio_dir = tmp_path / "clips"
        audio_dir.mkdir()
        entries = []
        for family, (n_coeffs, key, system) in enumerate(
            [(4, "bonafide", None), (64, "spoof", "F64")]
        ):
            for i in range(200):
                name = f"clip_{family}_{i:04d}"
                clip = make_filtered_clip(n_coeffs, clip_seed=family * 1000 + i)
                audio_io.write_wav(audio_dir / f"{name}.wav",
                                   AudioBuffer(clip.samples, 16000, name))
                entries.append(ProtocolEntry("S", name, system, key))

        dataset, skips, _ = build_dataset(entries, audio_dir, SegmentKind.FULL, jobs=2)
        assert dataset.n_records + len(skips) == 400

        is_train = np.array([int(rid.split("_")[2]) < 140 for rid in dataset.record_ids])
        train = asvspoof.subset_records(dataset, is_train)
        held = asvspoof.subset_records(dataset, ~is_train)
        model = train_forest(train, ForestConfig(n_trees=100, seed=0))
        held_accuracy = forest_accuracy(model, held)
        elapsed = time.perf_counter() - started
        print(f"  [criterion 9 detail] held-out accuracy {held_accuracy:.3f}, "
              f"{elapsed:.0f}s, {len(skips)} skips")
        assert held_accuracy >= 0.90
        assert elapsed < 180.0


def spearman(x, y):
    rho, _ = sp_stats.spearmanr(x, y)
    return float(rho)


def test_criterion_10_fir_sweep_trend():
    with criterion(10, "fitted-vs-empirical js decreases with FIR length (two setups)"):
        lengths = (8, 16, 32, 64, 128)
        first = firsim.divergence_sweep(n_coeffs_list=lengths, deltas=(0.008,),
                                        frequencies=(2,), n_trials=20, seed=0)
        means_a = [row.js_mean for row in first.rows]
        rho_a = spearman(lengths, means_a)

        second = firsim.divergence_sweep(n_coeffs_list=lengths, deltas=(0.01,),
                                         frequencies=(3,), n_trials=20, seed=0)
        means_b = [row.js_mean for row in second.rows]
        rho_b = spearman(lengths, means_b)
        print(f"  [criterion 10 detail] delta=0.008 f=2: means={np.round(means_a, 4)} "
              f"rho={rho_a:.2f}; delta=0.01 f=3: means={np.round(means_b, 4)} rho={rho_b:.2f}")

        drop_a = means_a[0] - means_a[-1]
        drop_b = means_b[0] - means_b[-1]
        assert rho_a <= -0.8, (
            f"spearman {rho_a:.2f} > -0.8: the divergence trend is not decreasing "
            "under the declared MFCC conventions (see README, Known limitations)"
        )
        assert rho_b <= -0.8
        assert drop_a != pytest.approx(drop_b, rel=0.1)  # magnitudes differ by setup


# ---------------------------------------------------------------------------
# dataset-dependent suite (multi-hour; requires external ASVSpoof 2019 LA
# transcoded to 16 kHz mono wav under <root>/wav/{train,dev,eval} with the
# three protocol files under <root>/protocols)
# ---------------------------------------------------------------------------

ASVSPOOF_ROOT = os.environ.get("FDSPOOF_ASVSPOOF_LA")
needs_corpus = pytest.mark.skipif(
    not ASVSPOOF_ROOT, reason="set FDSPOOF_ASVSPOOF_LA to run the corpus suite"
)


@pytest.fixture(scope="module")
def corpus_models():
    root = ASVSPOOF_ROOT
    protocols = {
        "train": f"{root}/protocols/ASVspoof2019.LA.cm.train.trn.txt",
        "dev": f"{root}/protocols/ASVspoof2019.LA.cm.dev.trl.txt",
        "eval": f"{root}/protocols/ASVspoof2019.LA.cm.eval.trl.txt",
    }
    jobs = os.cpu_count() or 1
    data = {}
    for kind in (SegmentKind.SILENCE, SegmentKind.FULL, SegmentKind.VOICED):
        train_entries = asvspoof.balance_training(
            asvspoof.parse_protocol(protocols["train"]), seed=0
        )
        train_ds, _, _ = build_dataset(train_entries, f"{root}/wav/train", kind, jobs=jobs)
        dev_ds, _, _ = build_dataset(
            asvspoof.parse_protocol(protocols["dev"]), f"{root}/wav/dev", kind, jobs=jobs
        )
        eval_ds, _, _ = build_dataset(
            asvspoof.parse_protocol(protocols["eval"]), f"{root}/wav/eval", kind, jobs=jobs
        )
        data[kind] = (train_ds, dev_ds, eval_ds)
    return data


@needs_corpus
def test_criterion_11_table_one_vs_one(corpus_models):
    with criterion(11, "dev one-vs-one accuracies for Silence deltas 1-3 within 0.05"):
        layout = fd.feature_layout(fd.FdConfig(), tuple(range(2, 15)))
        train_ds, dev_ds, _ = corpus_models[SegmentKind.SILENCE]
        sub_train, _ = asvspoof.select_columns(train_ds, layout, (10, 20), (1.0, 2.0, 3.0))
        sub_dev, _ = asvspoof.select_columns(dev_ds, layout, (10, 20), (1.0, 2.0, 3.0))
        model, _ = grid_search(sub_train, sub_dev, seed=0)
        rows = asvspoof.evaluate_with_aggregate(model, sub_dev, "silence", "d1-3").rows[:-1]
        by_id = {row.system_id: row.accuracy for row in rows}
        assert by_id["A02"] == pytest.approx(0.972, abs=0.05)
        assert by_id["A05"] == pytest.approx(0.964, abs=0.05)
        assert by_id["A06"] == pytest.approx(0.466, abs=0.05)


@needs_corpus
def test_criterion_12_aggregate_accuracies(corpus_models):
    with criterion(12, "aggregate dev/eval accuracies within 0.05 of 0.869/0.819 & 0.871/0.820"):
        expected = {SegmentKind.SILENCE: (0.869, 0.819), SegmentKind.FULL: (0.871, 0.820)}
        for kind, (dev_target, eval_target) in expected.items():
            train_ds, dev_ds, eval_ds = corpus_models[kind]
            model, _ = grid_search(train_ds, dev_ds, seed=0)
            dev_acc = forest_accuracy(model, dev_ds)
            eval_acc = forest_accuracy(model, eval_ds)
            assert dev_acc == pytest.approx(dev_target, abs=0.05)
            assert eval_acc == pytest.approx(eval_target, abs=0.05)


@needs_corpus
def test_criterion_13_qualitative_orderings(corpus_models):
    with criterion(13, "voiced << silence ~ full; VC systems score below TTS systems"):
        def dev_mean_accuracy(kind):
            train_ds, dev_ds, _ = corpus_models[kind]
            model, _ = grid_search(train_ds, dev_ds, seed=0)
            rows = asvspoof.evaluate_with_aggregate(model, dev_ds, "x", "x").rows[:-1]
            return float(np.mean([r.accuracy for r in rows]))

        voiced = dev_mean_accuracy(SegmentKind.VOICED)
        silence = dev_mean_accuracy(SegmentKind.SILENCE)
        full = dev_mean_accuracy(SegmentKind.FULL)
        assert voiced < silence - 0.10 and voiced < full - 0.10
        assert abs(silence - full) < 0.05

        train_ds, _, eval_ds = corpus_models[SegmentKind.SILENCE]
        _, dev_ds, _ = corpus_models[SegmentKind.SILENCE]
        model, _ = grid_search(train_ds, dev_ds, seed=0)
        rows = asvspoof.evaluate_with_aggregate(model, eval_ds, "x", "x").rows[:-1]
        by_id = {r.system_id: r.accuracy for r in rows}
        vc = [by_id[s] for s in ("A17", "A18", "A19") if s in by_id]
        tts = [v for s, v in by_id.items() if s not in ("A17", "A18", "A19")]
        assert np.mean(vc) < np.mean(tts) - 0.10
