import re

import numpy as np
import pytest
from scipy import signal as sp_signal

from fdspoof import firsim
from fdspoof.audio_io import AudioBuffer
from fdspoof.cepstral import mfcc
from fdspoof.exceptions import (
    DesignFailure,
    EmptySignal,
    FdspoofError,
    InsufficientDigits,
    SettingError,
)
from fdspoof.fd_features import FdConfig, digit_pmf, divergences, fit_benford
from fdspoof.firsim import (
    FirDesignSpec,
    SweepRow,
    apply_fir,
    design_fir,
    divergence_sweep,
    gaussian_source,
    raw_gaussian,
    write_sweep_csv,
)


def band_magnitudes(coeffs, spec=FirDesignSpec(n_coeffs=3)):
    w, h = sp_signal.freqz(coeffs, worN=8192)
    wn = w / np.pi
    mag = np.abs(h)
    return mag[wn <= spec.passband_edge], mag[wn >= spec.stopband_edge]


class TestDesign:
    def test_three_taps_symmetric(self):
        coeffs = design_fir(FirDesignSpec(n_coeffs=3))
        assert len(coeffs) == 3
        assert coeffs[0] == coeffs[2]

    def test_symmetry_bit_exact(self):
        for n_coeffs in (4, 15, 31, 64, 128):
            coeffs = design_fir(FirDesignSpec(n_coeffs=n_coeffs))
            assert np.array_equal(coeffs, coeffs[::-1])

    def test_dc_gain_within_passband_ripple(self):
        for n_coeffs in (8, 15, 31):
            coeffs = design_fir(FirDesignSpec(n_coeffs=n_coeffs))
            passband, _ = band_magnitudes(coeffs)
            ripple = np.max(np.abs(passband - 1.0))
            dc_gain = float(np.sum(coeffs))
            assert abs(dc_gain - 1.0) <= ripple + 1e-12

    def test_longer_filter_attenuates_more(self):
        small = design_fir(FirDesignSpec(n_coeffs=15))
        large = design_fir(FirDesignSpec(n_coeffs=31))
        _, stop_small = band_magnitudes(small)
        _, stop_large = band_magnitudes(large)
        assert np.max(stop_large) < np.max(stop_small)

    def test_equiripple_alternation(self):
        # band-edge and interior error extrema must alternate in sign and sit
        # at a common magnitude level (the equiripple deviation)
        spec = FirDesignSpec(n_coeffs=15)
        coeffs = design_fir(spec)
        w, h = sp_signal.freqz(coeffs, worN=1 << 14)
        wn = w / np.pi
        zero_phase = np.real(h * np.exp(1j * w * (spec.n_coeffs - 1) / 2))

        candidates = []
        for lo, hi, desired in ((0.0, spec.passband_edge, 1.0),
                                (spec.stopband_edge, 1.0, 0.0)):
            band = np.nonzero((wn >= lo) & (wn <= hi))[0]
            err = zero_phase[band] - desired
            for j in range(len(err)):
                interior_peak = 0 < j < len(err) - 1 and (
                    abs(err[j]) >= abs(err[j - 1]) and abs(err[j]) >= abs(err[j + 1])
                )
                if j in (0, len(err) - 1) or interior_peak:
                    candidates.append(err[j])
        delta = max(abs(e) for e in candidates)
        kept = [candidates[0]]
        for e in candidates[1:]:
            if abs(e) < 0.5 * delta:
                continue
            if np.sign(e) != np.sign(kept[-1]):
                kept.append(e)
            elif abs(e) > abs(kept[-1]):
                kept[-1] = e
        # a length-15 type-I design alternates at (15-1)/2 + 2 = 9 extrema
        assert len(kept) >= 9
        assert min(abs(e) for e in kept) >= 0.85 * delta

    def test_exchange_failure_maps_to_design_failure(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("Failure to converge")

        monkeypatch.setattr(sp_signal, "remez", broken)
        # 8 taps can only reach ~34 dB here, far from the precision ceiling,
        # so a failed exchange must surface as DesignFailure (no fallback)
        with pytest.raises(DesignFailure):
            design_fir(FirDesignSpec(n_coeffs=8))


class TestGaussianSource:
    def test_deterministic(self):
        a = gaussian_source(1000, 42)
        b = gaussian_source(1000, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_single_sample(self):
        buf = gaussian_source(1, 0)
        assert len(buf) == 1
        assert abs(buf.samples[0]) == 1.0

    def test_raw_law_of_large_numbers(self):
        n = 1_000_000
        raw = raw_gaussian(n, 7)
        assert abs(raw.mean()) < 4.0 / np.sqrt(n)
        assert abs(raw.var() - 1.0) < 0.01

    def test_peak_normalized(self):
        buf = gaussian_source(4096, 3)
        assert np.max(np.abs(buf.samples)) == 1.0


class TestApplyFir:
    def test_unit_coeff_is_identity(self):
        buf = gaussian_source(256, 1)
        out = apply_fir(buf, np.array([1.0]))
        assert np.allclose(out.samples, buf.samples, atol=1e-12)

    def test_moving_average_of_constant(self):
        buf = AudioBuffer(np.ones(64), 16000, "c")
        out = apply_fir(buf, np.array([0.5, 0.5]))
        assert np.allclose(out.samples[1:], 1.0, atol=1e-12)

    def test_all_zero_output_is_empty_signal(self):
        with pytest.raises(EmptySignal, match=r"^c\+fir: all samples are zero"):
            apply_fir(AudioBuffer(np.ones(64), 16000, "c"), np.zeros(3))

    def test_impulse_reproduces_coefficients(self):
        impulse = np.zeros(32)
        impulse[0] = 1.0
        coeffs = design_fir(FirDesignSpec(n_coeffs=8))
        out = apply_fir(AudioBuffer(impulse, 16000, "i"), coeffs)
        expected = coeffs / np.max(np.abs(coeffs))
        assert np.allclose(out.samples[:8], expected, atol=1e-12)


def trial_seed(seed, cell_index, trial):
    return int(np.random.SeedSequence([seed, cell_index, trial]).generate_state(1, np.uint64)[0])


def scalar_sweep(n_coeffs_list, deltas, frequencies, n_trials, signal_len, seed):
    """The sweep one trial at a time through the single-pmf fit: the oracle
    for the batched sweep. Trial errors are skipped as the sweep skips them."""
    rows = []
    cells = [(d, f, nc) for d in sorted(deltas) for f in sorted(frequencies)
             for nc in sorted(n_coeffs_list)]
    for cell_index, (delta, freq, nc) in enumerate(cells):
        coeffs = design_fir(FirDesignSpec(n_coeffs=nc))
        values = []
        for trial in range(n_trials):
            source = firsim.gaussian_source(signal_len, trial_seed(seed, cell_index, trial))
            buffer = apply_fir(source, coeffs)
            matrix = mfcc(buffer)
            column = matrix.values[:, [matrix.frequencies.index(freq)]]
            try:
                pmf = firsim.digit_pmf(column, (delta,), firsim.SWEEP_BASE,
                                       FdConfig().min_digits)[0, 0]
            except FdspoofError:
                continue
            values.append(divergences(pmf, firsim.SWEEP_BASE,
                                      fit_benford(pmf, firsim.SWEEP_BASE)).js)
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        rows.append(SweepRow(nc, float(delta), freq, float(np.mean(values)), std, len(values)))
    return tuple(rows)


@pytest.fixture
def failing_seeds(monkeypatch):
    """Make `firsim.digit_pmf` raise InsufficientDigits, naming the trial
    seed, for every trial whose seed is added to the returned set."""
    seeds = set()
    current = []

    def source(n_samples, seed, *args, **kwargs):
        current[:] = [seed]
        return gaussian_source(n_samples, seed, *args, **kwargs)

    def pmf(*args, **kwargs):
        if current[0] in seeds:
            raise InsufficientDigits(f"probe seed {current[0]}")
        return digit_pmf(*args, **kwargs)

    monkeypatch.setattr(firsim, "gaussian_source", source)
    monkeypatch.setattr(firsim, "digit_pmf", pmf)
    return seeds


class TestSweep:
    SMALL = dict(n_coeffs_list=(8, 32), deltas=(0.01,), frequencies=(2, 3), n_trials=3,
                 signal_len=1 << 14, seed=11)

    def test_deterministic_and_jobs_invariant(self, tmp_path):
        kwargs = dict(n_coeffs_list=(8,), deltas=(0.01,), frequencies=(2,),
                      n_trials=2, signal_len=1 << 15, seed=11)
        a = divergence_sweep(**kwargs)
        b = divergence_sweep(**kwargs)
        c = divergence_sweep(**kwargs, jobs=2)
        assert a == b == c
        write_sweep_csv(tmp_path / "a.csv", a)
        write_sweep_csv(tmp_path / "b.csv", c)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_batched_equals_scalar_path_at_any_jobs(self, tmp_path):
        # 12 trials run as chunks of 12, 6 and 4: jobs 3 splits cells of 3 trials
        expected = scalar_sweep(**self.SMALL)
        paths = []
        for jobs in (1, 2, 3):
            result = divergence_sweep(**self.SMALL, jobs=jobs)
            assert result.rows == expected
            paths.append(tmp_path / f"jobs{jobs}.csv")
            write_sweep_csv(paths[-1], result)
        assert len({p.read_bytes() for p in paths}) == 1

    def test_failed_trial_leaves_the_rest_of_its_batch(self, failing_seeds):
        kwargs = dict(self.SMALL, frequencies=(2,))
        failing_seeds.add(trial_seed(kwargs["seed"], 1, 1))
        result = divergence_sweep(**kwargs)
        assert [r.n_trials for r in result.rows] == [3, 2]
        assert result.rows == scalar_sweep(**kwargs)

    def test_cell_with_every_trial_failed_reports_the_last_error(self, failing_seeds):
        kwargs = dict(self.SMALL, frequencies=(2,))
        failing_seeds.update(trial_seed(kwargs["seed"], 0, t) for t in range(3))
        last = trial_seed(kwargs["seed"], 0, 2)
        message = f"(Nc=8, delta=0.01, f=2): InsufficientDigits: probe seed {last}"
        with pytest.raises(FdspoofError, match=re.escape(message)):
            divergence_sweep(**kwargs)

    @pytest.mark.parametrize("change, message", [
        (dict(n_trials=0), "n_trials must be >= 1"),
        (dict(deltas=(0.01, 0.0)), "every quantization step must be > 0"),
        (dict(signal_len=1023), "signal_len must be >= frame_len (1024)"),
        (dict(frequencies=(2, 99)), "frequencies [99] are not kept coefficients (2..14)"),
        (dict(n_coeffs_list=(8, 2)), "n_coeffs must be >= 3"),
        (dict(jobs=0), "jobs must be >= 1"),
        (dict(deltas=(float("nan"),)), "every quantization step must be > 0"),
    ])
    def test_settings_rejected_before_any_trial(self, monkeypatch, change, message):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(firsim, "gaussian_source", no_trial)
        with pytest.raises(SettingError, match=re.escape(message)):
            divergence_sweep(**{**self.SMALL, **change})

    def test_row_order_and_counts(self):
        result = divergence_sweep(n_coeffs_list=(16, 8), deltas=(0.01, 0.008),
                                  frequencies=(3, 2), n_trials=1, signal_len=1 << 15,
                                  seed=0)
        key = [(r.delta, r.frequency, r.n_coeffs) for r in result.rows]
        assert key == sorted(key)
        assert len(result.rows) == 8
        assert all(r.n_trials == 1 and r.js_mean >= 0.0 for r in result.rows)

    def test_power_of_base_delta_stretches_statistics_only(self):
        from fdspoof.cepstral import mfcc

        buf = apply_fir(gaussian_source(1 << 16, 5), design_fir(FirDesignSpec(n_coeffs=8)))
        column = mfcc(buf).values[:, :1]
        reference, *stretched = digit_pmf(column, (1.0, 10.0, 100.0), 10, 10)[0]
        for pmf in stretched:
            assert np.array_equal(pmf, reference)
