import math

import numpy as np
import pytest

from fdspoof import segmentation
from fdspoof.audio_io import AudioBuffer
from fdspoof.exceptions import EmptySignal, TooShort, ViewMismatch
from fdspoof.segmentation import EnergyConfig, SegmentKind, SegmentView, extract, segment

CFG = EnergyConfig()
W = CFG.window_len


def tone(n, freq=440.0, rate=16000):
    return np.sin(2.0 * np.pi * freq * np.arange(n) / rate)


def buffer_of(samples, name="seg"):
    return AudioBuffer(np.asarray(samples, dtype=np.float64), 16000, name)


def energy_of(samples):
    """Energy (dB) of the first window of `samples`, as `window_labels` reports it."""
    return segmentation.window_labels(buffer_of(samples), CFG)[0][2]


# The per-window scoring and merging that `segment` replaced with one array
# pass, kept as the oracle for it.

def oracle_energy_db(samples):
    power = float(np.mean(samples * samples))
    if power == 0.0:
        return -math.inf
    return 10.0 * math.log10(power)


def oracle_window_labels(buffer, config):
    n = len(buffer)
    if n < config.window_len:
        raise TooShort(f"{buffer.source_id}: {n} samples < window of {config.window_len}")
    rows = []
    for i, start in enumerate(range(0, n, config.window_len)):
        energy = oracle_energy_db(buffer.samples[start : start + config.window_len])
        rows.append((i, start, energy, "voiced" if energy > config.threshold_db else "silence"))
    return rows


def oracle_merge_windows(indices, window_len, n):
    if not indices:
        return ()
    ranges = []
    run_start = prev = indices[0]
    for i in indices[1:]:
        if i != prev + 1:
            ranges.append((run_start * window_len, min((prev + 1) * window_len, n)))
            run_start = i
        prev = i
    ranges.append((run_start * window_len, min((prev + 1) * window_len, n)))
    return tuple(ranges)


def oracle_segment(buffer, config):
    n = len(buffer)
    rows = oracle_window_labels(buffer, config)
    voiced_idx = [i for i, _, _, label in rows if label == "voiced"]
    silent_idx = [i for i, _, _, label in rows if label == "silence"]
    interior = ([i for i in silent_idx if voiced_idx[0] < i < voiced_idx[-1]]
                if voiced_idx else [])
    return (
        SegmentView(SegmentKind.FULL, ((0, n),), buffer.source_id),
        SegmentView(SegmentKind.SILENCE, oracle_merge_windows(interior, config.window_len, n),
                    buffer.source_id),
        SegmentView(SegmentKind.VOICED, oracle_merge_windows(voiced_idx, config.window_len, n),
                    buffer.source_id),
    )


def oracle_samples(kind, n, window_len, rng):
    """Test signals for the oracle: loud/quiet stretches with exact zeros,
    all-silent, all-voiced, and windows whose power underflows to 0."""
    if kind == "all_silent":
        return 1e-4 * rng.uniform(-1, 1, n)
    if kind == "all_voiced":
        return 0.5 * tone(n) + 0.75  # every sample >= 0.25, above -40 dB alone
    envelope = np.repeat(rng.uniform(0, 1, n // window_len + 1) ** 4, window_len)[:n]
    samples = rng.uniform(-1, 1, n) * envelope
    samples[rng.uniform(size=n) < 0.05] = 0.0
    quiet = slice(n // 5, n // 3)
    samples[quiet] = 10 ** (-54 / 20) * rng.uniform(-1, 1, samples[quiet].size)
    if kind == "underflow":
        # squares of 1e-170 underflow to 0 (energy -inf), of 1e-160 to subnormals
        samples[n // 2 : n // 2 + 3 * window_len] = 1e-170
        samples[n // 2 + 3 * window_len : n // 2 + 4 * window_len] = 1e-160
    return samples


class TestWindowEnergy:
    def test_unit_energy(self):
        assert energy_of(np.ones(W)) == pytest.approx(0.0)

    def test_all_zero_is_minus_inf(self):
        assert energy_of(np.zeros(W)) == -math.inf

    def test_small_constant(self):
        # 10*log10(0.005^2) = -46.02 dB, safely below the -40 dB threshold
        energy = energy_of(np.full(W, 0.005))
        assert energy == pytest.approx(-46.0206, abs=1e-3)
        assert energy < CFG.threshold_db


class TestArrayPassMatchesPerWindowOracle:
    @pytest.mark.parametrize("kind", ["mixed", "all_silent", "all_voiced", "underflow"])
    @pytest.mark.parametrize("window_len", [1, 7, 101, 256])
    def test_views_and_energies_equal(self, window_len, kind):
        rng = np.random.default_rng(window_len)
        config = EnergyConfig(window_len=window_len)
        for n in sorted({window_len, 40 * window_len, 40 * window_len + window_len // 2 + 1,
                         4001}):
            if n < 4 * window_len and kind == "underflow":
                continue
            buffer = buffer_of(oracle_samples(kind, n, window_len, rng))
            rows = segmentation.window_labels(buffer, config)
            expected = oracle_window_labels(buffer, config)
            assert [repr(row) for row in rows] == [repr(row) for row in expected]
            views = segment(buffer, config)
            assert views == oracle_segment(buffer, config)
            bounds = [b for view in views for interval in view.index_ranges for b in interval]
            assert all(type(b) is int for b in bounds)
        if kind == "underflow":
            assert any(row[2] == -math.inf for row in rows)
        if kind in ("all_silent", "all_voiced"):
            assert {row[3] for row in rows} == {"silence" if kind == "all_silent" else "voiced"}

    def test_no_per_window_mean(self, monkeypatch):
        calls = []
        mean = np.mean
        monkeypatch.setattr(np, "mean", lambda *a, **k: calls.append(1) or mean(*a, **k))
        rows = segmentation.window_labels(buffer_of(tone(10 * W + 17)), CFG)
        assert len(rows) == 11
        assert len(calls) == 2  # the full windows at once, then the tail


class TestSegment:
    def test_pure_silence_trims_to_nothing(self):
        buf = buffer_of(np.full(10 * W, 1e-4))
        full, silence, voiced = segment(buf, CFG)
        assert silence.index_ranges == ()
        assert voiced.index_ranges == ()
        assert full.index_ranges == ((0, 10 * W),)

    def test_gap_in_tone_recovered(self):
        n = 50 * W
        samples = tone(n)
        gap_start, gap_len = 2021, 1010
        samples[gap_start : gap_start + gap_len] = 0.0
        buf = buffer_of(samples / np.max(np.abs(samples)))
        _, silence, _ = segment(buf, CFG)
        assert len(silence.index_ranges) == 1
        a, b = silence.index_ranges[0]
        assert abs(a - gap_start) <= W
        assert abs(b - (gap_start + gap_len)) <= W

    def test_all_voiced_equals_full(self):
        buf = buffer_of(tone(10 * W + 17))
        full, silence, voiced = segment(buf, CFG)
        assert silence.index_ranges == ()
        assert voiced.index_ranges == full.index_ranges

    def test_too_short(self):
        with pytest.raises(TooShort):
            segment(buffer_of(np.ones(W - 1)), CFG)

    def test_sample_count_partition(self):
        samples = tone(40 * W + 55)
        # silent stretches at both ends and in the middle
        samples[: 3 * W] = 0.0
        samples[-2 * W :] = 0.0
        samples[10 * W : 14 * W] = 1e-4
        buf = buffer_of(samples / np.max(np.abs(samples)))
        full, silence, voiced = segment(buf, CFG)
        trimmed = len(buf) - silence.n_samples - voiced.n_samples
        assert silence.n_samples + voiced.n_samples + trimmed == full.n_samples
        # leading run: windows 0..2; trailing run: window 39 + the 55-sample tail
        assert trimmed == 3 * W + W + 55
        assert silence.n_samples == 4 * W

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(9)
        samples = rng.uniform(-1, 1, 30 * W) * np.repeat(rng.uniform(0, 1, 30) ** 4, W)
        buf = buffer_of(samples / np.max(np.abs(samples)))
        lo = segmentation.window_labels(buf, EnergyConfig(threshold_db=-40.0))
        hi = segmentation.window_labels(buf, EnergyConfig(threshold_db=-30.0))
        for (_, _, _, label_lo), (_, _, _, label_hi) in zip(lo, hi):
            if label_lo == "silence":
                assert label_hi == "silence"

    def test_deterministic(self):
        samples = tone(20 * W)
        samples[5 * W : 7 * W] = 0.0
        buf = buffer_of(samples / np.max(np.abs(samples)))
        assert segment(buf, CFG) == segment(buf, CFG)


class TestExtract:
    def test_full_view_is_identity(self):
        buf = buffer_of(tone(5 * W))
        full, _, _ = segment(buf, CFG)
        out = extract(buf, full)
        assert np.array_equal(out.samples, buf.samples)
        assert out.source_id == buf.source_id

    def test_empty_view_raises(self):
        buf = buffer_of(tone(5 * W))
        view = SegmentView(SegmentKind.SILENCE, (), buf.source_id)
        with pytest.raises(EmptySignal):
            extract(buf, view)

    def test_two_intervals_concatenate(self):
        buf = buffer_of(np.arange(4 * W, dtype=float) + 1.0)
        view = SegmentView(SegmentKind.VOICED, ((0, 101), (202, 303)), buf.source_id)
        out = extract(buf, view)
        assert len(out) == 202
        assert np.array_equal(out.samples[:101], buf.samples[:101])
        assert np.array_equal(out.samples[101:], buf.samples[202:303])

    def test_foreign_view_rejected(self):
        buf = buffer_of(tone(5 * W))
        view = SegmentView(SegmentKind.FULL, ((0, 5 * W),), "someone-else")
        with pytest.raises(ViewMismatch):
            extract(buf, view)

    def test_out_of_bounds_rejected(self):
        buf = buffer_of(tone(2 * W))
        view = SegmentView(SegmentKind.FULL, ((0, 3 * W),), buf.source_id)
        with pytest.raises(ViewMismatch):
            extract(buf, view)
