"""Split a waveform into Full / Silence / Voiced views by short-window energy.

The signal is tiled into consecutive non-overlapping windows of 101 samples
(the final partial window is judged on its own length). A window is voiced
when its mean-power energy over the peak-normalized signal exceeds -40 dB.
The Silence view drops the maximal leading and trailing runs of silent
windows; the Full view always covers the whole buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio_io import AudioBuffer
from .exceptions import EmptySignal, LengthError, SettingError, TooShort, ViewMismatch


class SegmentKind(Enum):
    FULL = "full"
    SILENCE = "silence"
    VOICED = "voiced"


@dataclass(frozen=True)
class EnergyConfig:
    window_len: int = 101
    threshold_db: float = -40.0

    def __post_init__(self) -> None:
        if self.window_len < 1:
            raise SettingError("window_len must be >= 1")


@dataclass(frozen=True)
class SegmentView:
    """An ordered set of half-open sample intervals into a parent buffer."""

    kind: SegmentKind
    index_ranges: tuple[tuple[int, int], ...]
    parent_id: str

    @property
    def n_samples(self) -> int:
        return sum(b - a for a, b in self.index_ranges)


def _energy_db(samples: np.ndarray) -> float:
    power = float(np.mean(samples * samples))
    if power == 0.0:
        return -math.inf
    return 10.0 * math.log10(power)


def window_energy_db(samples: np.ndarray, config: EnergyConfig) -> float:
    """Mean-power energy of one window in dB; -inf for an all-zero window."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] != config.window_len:
        raise LengthError(f"window has {samples.shape[0]} samples, expected {config.window_len}")
    return _energy_db(samples)


def window_labels(buffer: AudioBuffer, config: EnergyConfig) -> list[tuple[int, int, float, str]]:
    """Per-window report rows: (window_index, start_sample, energy_db, label)."""
    n = len(buffer)
    if n < config.window_len:
        raise TooShort(f"{buffer.source_id}: {n} samples < window of {config.window_len}")
    rows = []
    for i, start in enumerate(range(0, n, config.window_len)):
        chunk = buffer.samples[start : start + config.window_len]
        energy = _energy_db(chunk)
        label = "voiced" if energy > config.threshold_db else "silence"
        rows.append((i, start, energy, label))
    return rows


def _merge_windows(indices: list[int], window_len: int, n: int) -> tuple[tuple[int, int], ...]:
    if not indices:
        return ()
    ranges: list[tuple[int, int]] = []
    run_start = indices[0]
    prev = indices[0]
    for i in indices[1:]:
        if i != prev + 1:
            ranges.append((run_start * window_len, min((prev + 1) * window_len, n)))
            run_start = i
        prev = i
    ranges.append((run_start * window_len, min((prev + 1) * window_len, n)))
    return tuple(ranges)


def segment(
    buffer: AudioBuffer, config: EnergyConfig = EnergyConfig()
) -> tuple[SegmentView, SegmentView, SegmentView]:
    """Return (Full, Silence, Voiced) views of a peak-normalized buffer.

    Silence excludes the leading and trailing runs of silent windows so that
    edge padding cannot dominate the silent statistics.
    """
    n = len(buffer)
    rows = window_labels(buffer, config)
    voiced_idx = [i for i, _, _, label in rows if label == "voiced"]
    silent_idx = [i for i, _, _, label in rows if label == "silence"]

    if voiced_idx:
        first_voiced, last_voiced = voiced_idx[0], voiced_idx[-1]
        interior_silent = [i for i in silent_idx if first_voiced < i < last_voiced]
    else:
        interior_silent = []  # everything is a leading/trailing silent run

    full = SegmentView(SegmentKind.FULL, ((0, n),), buffer.source_id)
    silence = SegmentView(
        SegmentKind.SILENCE, _merge_windows(interior_silent, config.window_len, n), buffer.source_id
    )
    voiced = SegmentView(
        SegmentKind.VOICED, _merge_windows(voiced_idx, config.window_len, n), buffer.source_id
    )
    return full, silence, voiced


def extract(buffer: AudioBuffer, view: SegmentView) -> AudioBuffer:
    """Concatenate the view's intervals into a new buffer (no cross-fade)."""
    if view.parent_id != buffer.source_id:
        raise ViewMismatch(f"view of {view.parent_id!r} applied to {buffer.source_id!r}")
    n = len(buffer)
    prev_end = 0
    for a, b in view.index_ranges:
        if not (0 <= a < b <= n) or a < prev_end:
            raise ViewMismatch(f"bad interval ({a}, {b}) for buffer of {n} samples")
        prev_end = b
    if view.n_samples == 0:
        raise EmptySignal(f"{buffer.source_id}: empty {view.kind.value} view")
    parts = [buffer.samples[a:b] for a, b in view.index_ranges]
    return AudioBuffer(
        samples=np.concatenate(parts),
        sample_rate=buffer.sample_rate,
        source_id=buffer.source_id,
    )
