"""MFCC coefficient matrices with fixed, reproducible conventions.

Conventions (declared once, applied everywhere): Hann taper, unscaled
magnitude-squared spectrum, 26 triangular mel filters from 0 Hz to Nyquist on
the 2595*log10(1+f/700) scale with unit peak height, natural log floored at
1e-10, orthonormal DCT-II, no pre-emphasis, no liftering. Kept coefficients
are the 1-based DCT indices 2..14, so the energy-like first coefficient is
always dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import AudioBuffer
from .exceptions import InsufficientData, SettingError

ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class CepstralConfig:
    frame_len: int = 1024
    hop: int = 512
    n_filters: int = 26
    coeff_lo: int = 2
    coeff_hi: int = 14

    def __post_init__(self) -> None:
        if not (0 < self.hop <= self.frame_len):
            raise SettingError("hop must be in (0, frame_len]")
        if self.frame_len < 2:  # a 1-point Hann window divides 0 by 0
            raise SettingError("frame_len must be >= 2")
        if self.frame_len & (self.frame_len - 1):
            raise SettingError("frame_len must be a power of two")
        if not (1 <= self.coeff_lo <= self.coeff_hi <= self.n_filters):
            raise SettingError("coefficient selection out of range")

    @property
    def frequencies(self) -> tuple[int, ...]:
        return tuple(range(self.coeff_lo, self.coeff_hi + 1))


@dataclass(frozen=True)
class CepstralMatrix:
    """n_w x n_c matrix of MFCC values; `frequencies` are 1-based DCT indices."""

    values: np.ndarray
    frequencies: tuple[int, ...]

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def hann_window(n: int) -> np.ndarray:
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1)))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(n_filters: int, frame_len: int, sample_rate: int) -> np.ndarray:
    """Triangular filters evaluated at the rFFT bin frequencies, unit peak."""
    edges_mel = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), n_filters + 2)
    edges_hz = _mel_to_hz(edges_mel)
    freqs = np.fft.rfftfreq(frame_len, 1.0 / sample_rate)
    bank = np.zeros((n_filters, freqs.shape[0]))
    for j in range(n_filters):
        lo, mid, hi = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        rising = (freqs - lo) / (mid - lo)
        falling = (hi - freqs) / (hi - mid)
        bank[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.setflags(write=False)
    return bank


@lru_cache(maxsize=4)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, row k = coefficient k (0-based)."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    mat = np.cos(np.pi * k * (2 * m + 1) / (2.0 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    mat.setflags(write=False)
    return mat


def frame(buffer: AudioBuffer, config: CepstralConfig) -> np.ndarray:
    """Hann-tapered frames starting at 0, hop, 2*hop, ... (full frames only)."""
    n = len(buffer)
    if n < config.frame_len:
        raise InsufficientData(
            f"{buffer.source_id}: {n} samples < one frame of {config.frame_len}"
        )
    frames = np.lib.stride_tricks.sliding_window_view(buffer.samples, config.frame_len)
    return frames[::config.hop] * hann_window(config.frame_len)


def mfcc(buffer: AudioBuffer, config: CepstralConfig = CepstralConfig()) -> CepstralMatrix:
    """MFCC matrix of the buffer, keeping coefficients coeff_lo..coeff_hi."""
    tapered = frame(buffer, config)
    power = np.abs(np.fft.rfft(tapered, axis=1)) ** 2
    bank = mel_filterbank(config.n_filters, config.frame_len, buffer.sample_rate)
    energies = np.maximum(power @ bank.T, ENERGY_FLOOR)
    cepstra = np.log(energies) @ dct_matrix(config.n_filters).T
    kept = cepstra[:, config.coeff_lo - 1 : config.coeff_hi]
    return CepstralMatrix(values=kept, frequencies=config.frequencies)
