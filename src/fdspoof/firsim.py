"""FIR-filter simulation: how filter length shapes first-digit statistics.

A seeded Gaussian i.i.d. signal is pushed through an equiripple low-pass FIR
(band edges `PASSBAND_EDGE` = 0.2 and `STOPBAND_EDGE` = 0.7, normalized to
Nyquist and the same for every filter length), MFCC coefficients are
extracted, and the symmetrized KL divergence between the empirical digit pmf
and its fitted generalized Benford curve is averaged over trials for every
(filter length, quantization step, frequency) cell.

Design note: for this very wide transition band the true equiripple deviation
falls below float64 resolution somewhere around 48 taps (the optimal ripple at
128 taps would be ~1e-27), so no double-precision Remez exchange can converge
there. Longer filters fall back to a Kaiser-window design sized from the
transition width, which continues the longer-is-flatter progression at the
precision that is actually representable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

# scipy.signal is imported inside the functions that use it: importing it
# takes about a second, and no command but `simulate` needs it.
from . import fd_features, parallel
from .audio_io import REQUIRED_RATE, AudioBuffer, peak_normalize
from .cepstral import CepstralConfig, CepstralMatrix, mfcc
from .exceptions import DesignFailure, FdspoofError, SettingError
from .fd_features import FdConfig, digit_pmf
# fit_benford and divergences, the single-pmf wrappers, are not called here;
# they stay bound because the benchmark's tracer (benchmark/tracer.py) wraps
# them by these names on this module.
from .fd_features import divergences, fit_benford  # noqa: F401

REMEZ_MAX_ITER = 50
SWEEP_BASE = 10
PASSBAND_EDGE = 0.2  # band edges of every design, in Nyquist units
STOPBAND_EDGE = 0.7


@dataclass(frozen=True)
class SweepRow:
    n_coeffs: int
    delta: float
    frequency: int
    js_mean: float
    js_std: float
    n_trials: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    capped_fits: int = 0  # trials whose curve fit hit the iteration cap


def _kaiser_attenuation(n_coeffs: int) -> float:
    """Attenuation (dB) achievable for this length/transition, Kaiser's estimate."""
    width = (STOPBAND_EDGE - PASSBAND_EDGE) * math.pi
    return 2.285 * width * (n_coeffs - 1) + 7.95


def _kaiser_fallback(n_coeffs: int) -> np.ndarray:
    from scipy import signal as sp_signal

    atten = _kaiser_attenuation(n_coeffs)
    beta = 0.1102 * (atten - 8.7) if atten > 50 else 0.5842 * (atten - 21) ** 0.4 + 0.07886 * (atten - 21)
    cutoff = 0.5 * (PASSBAND_EDGE + STOPBAND_EDGE)
    return sp_signal.firwin(n_coeffs, cutoff, window=("kaiser", beta), fs=2.0)


def design_fir(n_coeffs: int) -> np.ndarray:
    """Linear-phase low-pass coefficients of `n_coeffs` taps, exactly symmetric.

    Remez exchange with equal band weights; lengths whose optimal ripple is
    below double precision use the Kaiser fallback described in the module
    docstring.
    """
    if n_coeffs < 3:
        raise SettingError("n_coeffs must be >= 3")
    from scipy import signal as sp_signal

    try:
        coeffs = sp_signal.remez(
            n_coeffs,
            [0.0, PASSBAND_EDGE, STOPBAND_EDGE, 1.0],
            [1.0, 0.0],
            fs=2.0,
            maxiter=REMEZ_MAX_ITER,
        )
    except ValueError as exc:
        # beyond ~180 dB the optimal deviation is unresolvable in float64 and
        # the exchange cannot alternate; anything short of that is a real failure
        if _kaiser_attenuation(n_coeffs) < 180.0:
            raise DesignFailure(f"equiripple exchange failed for {n_coeffs} taps: {exc}")
        coeffs = _kaiser_fallback(n_coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise DesignFailure(f"non-finite coefficients for {n_coeffs} taps")
    # enforce bit-exact linear-phase symmetry
    coeffs = 0.5 * (coeffs + coeffs[::-1])
    coeffs.setflags(write=False)
    return coeffs


def raw_gaussian(n_samples: int, seed) -> np.ndarray:
    """Standard-normal i.i.d. samples from a seeded generator."""
    return np.random.default_rng(seed).standard_normal(n_samples)


def gaussian_source(n_samples: int, seed) -> AudioBuffer:
    """Peak-normalized Gaussian noise buffer."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return peak_normalize(AudioBuffer(samples=raw_gaussian(n_samples, seed),
                                      sample_rate=REQUIRED_RATE, source_id=f"gaussian-{seed}"))


def apply_fir(buffer: AudioBuffer, coeffs: np.ndarray) -> AudioBuffer:
    """Full convolution truncated to the input length, re-peak-normalized;
    EmptySignal if the filtered signal is all zero."""
    from scipy import signal as sp_signal

    out = sp_signal.convolve(buffer.samples, np.asarray(coeffs, dtype=np.float64),
                             mode="full")[: len(buffer)]
    return peak_normalize(AudioBuffer(samples=out, sample_rate=buffer.sample_rate,
                                      source_id=buffer.source_id + "+fir"))


def _sweep_chunk(trials, signal_len: int) -> list[tuple[float, bool] | str]:
    """(js, whether the fit hit the iteration cap) of every (coeffs, delta,
    frequency, seed) trial, or the text of the error that stopped it; the
    chunk's pmfs share one batched fit. MFCC and features use the default
    `CepstralConfig` and `FdConfig`."""
    fd_cfg = FdConfig()
    outcomes: list[int | str] = []  # a row of `pmfs`, or the error text
    pmfs = []
    for coeffs, delta, frequency, trial_seed in trials:
        try:
            buffer = apply_fir(gaussian_source(signal_len, trial_seed), coeffs)
            matrix = mfcc(buffer)
            column = CepstralMatrix(matrix.values[:, [matrix.frequencies.index(frequency)]],
                                    (frequency,))
            pmfs.append(digit_pmf(column, (delta,), SWEEP_BASE, fd_cfg.min_digits)[0, 0])
            outcomes.append(len(pmfs) - 1)
        except FdspoofError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    if not pmfs:
        return outcomes
    divs, converged = fd_features.fitted_divergences(np.array(pmfs), SWEEP_BASE,
                                                     fd_cfg.alpha, fd_cfg.epsilon)
    return [o if isinstance(o, str) else (float(divs[o, 0]), not converged[o])
            for o in outcomes]


def divergence_sweep(
    n_coeffs_list=(8, 16, 32, 64, 128),
    deltas=(0.008, 0.01),
    frequencies=(2, 3),
    n_trials: int = 20,
    signal_len: int = 2 ** 20,
    seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Mean and std of the fitted-vs-empirical js per (n_coeffs, delta, frequency),
    and how many of the trials' fits hit the iteration cap.

    Trial randomness derives from (seed, cell index, trial index), and each
    trial's fit is independent of the others in its batch, so results do not
    depend on `jobs` or on how trials are chunked; a cell fails only if every
    trial fails. Every setting is checked, as SettingError, before any trial
    runs.
    """
    cepstral_cfg = CepstralConfig()
    if n_trials < 1:
        raise SettingError("n_trials must be >= 1")
    if signal_len < cepstral_cfg.frame_len:
        raise SettingError(f"signal_len must be >= frame_len ({cepstral_cfg.frame_len})")
    FdConfig(deltas=tuple(deltas))  # checks the steps as `extract` does
    if not n_coeffs_list or not frequencies:
        raise SettingError("FIR lengths and frequencies must not be empty")
    if len(set(n_coeffs_list)) < len(n_coeffs_list) or len(set(frequencies)) < len(frequencies):
        raise SettingError("FIR lengths and frequencies must not repeat")
    unknown = sorted(set(frequencies) - set(cepstral_cfg.frequencies))
    if unknown:
        raise SettingError(
            f"frequencies {unknown} are not kept coefficients "
            f"({cepstral_cfg.coeff_lo}..{cepstral_cfg.coeff_hi})"
        )
    cells = [
        (delta, freq, nc)
        for delta in sorted(deltas)
        for freq in sorted(frequencies)
        for nc in sorted(n_coeffs_list)
    ]
    designs = {nc: design_fir(nc) for nc in sorted(n_coeffs_list)}
    trials = [
        (designs[nc], delta, freq,
         int(np.random.SeedSequence([seed, cell_index, trial]).generate_state(1, np.uint64)[0]))
        for cell_index, (delta, freq, nc) in enumerate(cells)
        for trial in range(n_trials)
    ]
    outcomes = parallel.map_chunks(
        partial(_sweep_chunk, signal_len=signal_len), trials, jobs,
    )

    rows = []
    capped = 0
    for cell_index, (delta, freq, nc) in enumerate(cells):
        cell = outcomes[cell_index * n_trials : (cell_index + 1) * n_trials]
        fitted = [o for o in cell if not isinstance(o, str)]
        values = [js for js, _ in fitted]
        capped += sum(cap for _, cap in fitted)
        if not values:
            raise FdspoofError(
                f"every trial failed for cell (Nc={nc}, delta={delta:g}, f={freq}): {cell[-1]}"
            )
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        rows.append(SweepRow(nc, float(delta), int(freq), mean, std, len(values)))
    return SweepResult(rows=tuple(rows), capped_fits=capped)


def write_sweep_csv(path: str | Path, result: SweepResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_coeffs", "delta", "frequency", "js_mean", "js_std", "n_trials"])
        for row in result.rows:
            writer.writerow([row.n_coeffs, repr(row.delta), row.frequency,
                             repr(row.js_mean), repr(row.js_std), row.n_trials])
