"""Split a waveform into Full / Silence / Voiced views by short-window energy.

The signal is tiled into consecutive non-overlapping windows of 101 samples
(the final partial window is judged on its own length). A window is voiced
when its mean-power energy over the peak-normalized signal exceeds -40 dB.
The Silence view drops the maximal leading and trailing runs of silent
windows; the Full view always covers the whole buffer.

A record is scored in one array pass: the full windows are one reshape of the
squared samples and one mean per row, and the views' intervals are the runs
of the voiced and interior-silent window masks. `window_labels` is the one
scoring path; the `segment-report` rows and `segment` both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio_io import AudioBuffer
from .exceptions import EmptySignal, SettingError, TooShort, ViewMismatch


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
        if not math.isfinite(self.threshold_db):
            raise SettingError("threshold_db must be finite")


@dataclass(frozen=True)
class SegmentView:
    """An ordered set of half-open sample intervals into a parent buffer."""

    kind: SegmentKind
    index_ranges: tuple[tuple[int, int], ...]
    parent_id: str

    @property
    def n_samples(self) -> int:
        return sum(b - a for a, b in self.index_ranges)


def window_labels(buffer: AudioBuffer, config: EnergyConfig) -> list[tuple[int, int, float, str]]:
    """Per-window report rows: (window_index, start_sample, energy_db, label).

    The full windows are scored in one pass over a (windows, window_len) view
    and the partial tail window on its own; energy_db is -inf for a power of 0.
    """
    n, w = len(buffer), config.window_len
    if n < w:
        raise TooShort(f"{buffer.source_id}: {n} samples < window of {w}")
    squares = buffer.samples * buffer.samples
    tiled = n - n % w
    power = np.mean(squares[:tiled].reshape(-1, w), axis=1).tolist()
    if tiled < n:
        power.append(float(np.mean(squares[tiled:])))
    # math.log10, not np.log10: the two differ in the last bit on some powers
    energies = [10.0 * math.log10(p) if p > 0.0 else -math.inf for p in power]
    return [(i, i * w, energy, "voiced" if energy > config.threshold_db else "silence")
            for i, energy in enumerate(energies)]


def _ranges(mask: np.ndarray, window_len: int, n: int) -> tuple[tuple[int, int], ...]:
    """Half-open sample intervals of the runs of True windows in `mask`."""
    edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1) * window_len
    ends = np.minimum(np.flatnonzero(edges == -1) * window_len, n)
    return tuple(zip(starts.tolist(), ends.tolist()))


def segment(
    buffer: AudioBuffer, config: EnergyConfig = EnergyConfig()
) -> tuple[SegmentView, SegmentView, SegmentView]:
    """Return (Full, Silence, Voiced) views of a peak-normalized buffer.

    Silence excludes the leading and trailing runs of silent windows so that
    edge padding cannot dominate the silent statistics.
    """
    n = len(buffer)
    voiced = np.array([label == "voiced" for *_, label in window_labels(buffer, config)])
    interior = np.zeros_like(voiced)
    voiced_idx = np.flatnonzero(voiced)
    if voiced_idx.size:  # else everything is a leading/trailing silent run
        interior[voiced_idx[0] : voiced_idx[-1]] = True
    w = config.window_len
    return (
        SegmentView(SegmentKind.FULL, ((0, n),), buffer.source_id),
        SegmentView(SegmentKind.SILENCE, _ranges(interior & ~voiced, w, n), buffer.source_id),
        SegmentView(SegmentKind.VOICED, _ranges(voiced, w, n), buffer.source_id),
    )


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
