import math

import numpy as np
import pytest

from fdspoof.audio_io import AudioBuffer
from fdspoof.cepstral import CepstralConfig, frame, hann_window, mfcc
from fdspoof.exceptions import InsufficientData

CFG = CepstralConfig()


def buffer_of(samples, name="cep"):
    return AudioBuffer(np.asarray(samples, dtype=np.float64), 16000, name)


# ---------------------------------------------------------------------------
# independent oracle: same declared conventions, evaluated the slow way
# (explicit DFT matrix, per-filter loops, direct DCT sums) so it shares no
# code with the pipeline implementation
# ---------------------------------------------------------------------------

def oracle_mfcc_frame(buffer, cfg=CFG):
    samples, rate = buffer.samples, buffer.sample_rate
    n = cfg.frame_len
    assert len(samples) == n
    taper = np.array([0.5 * (1 - math.cos(2 * math.pi * k / (n - 1))) for k in range(n)])
    x = samples * taper

    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    dft = np.exp(-2j * math.pi * k * t / n)
    spectrum = dft @ x
    power = np.abs(spectrum) ** 2

    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def unmel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [unmel(mel(0.0) + (mel(rate / 2) - mel(0.0)) * j / (cfg.n_filters + 1))
             for j in range(cfg.n_filters + 2)]
    freqs = [i * rate / n for i in range(n // 2 + 1)]
    log_energies = []
    for j in range(cfg.n_filters):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        total = 0.0
        for i, f in enumerate(freqs):
            if lo <= f <= mid:
                w = (f - lo) / (mid - lo)
            elif mid < f <= hi:
                w = (hi - f) / (hi - mid)
            else:
                w = 0.0
            total += w * power[i]
        log_energies.append(math.log(max(total, 1e-10)))

    nf = cfg.n_filters
    coeffs = []
    for order in range(nf):
        scale = math.sqrt(1.0 / nf) if order == 0 else math.sqrt(2.0 / nf)
        value = sum(
            log_energies[m] * math.cos(math.pi * order * (2 * m + 1) / (2 * nf))
            for m in range(nf)
        )
        coeffs.append(scale * value)
    return np.array(coeffs[cfg.coeff_lo - 1 : cfg.coeff_hi])


def indexed_frames(samples, cfg, starts):
    """The frames at `starts`, each copied from its own slice and tapered."""
    return np.array([samples[s:s + cfg.frame_len] * hann_window(cfg.frame_len)
                     for s in starts])


class TestFrame:
    def test_single_frame_boundary(self):
        frames = frame(buffer_of(np.ones(1024)), CFG)
        assert frames.shape == (1, 1024)

    def test_hop_512(self):
        frames = frame(buffer_of(np.ones(2048)), CFG)
        assert frames.shape[0] == 3  # starts 0, 512, 1024
        # the last frame ends exactly at the end of the buffer
        samples = np.random.default_rng(3).normal(size=2048)
        assert (frame(buffer_of(samples), CFG).tobytes()
                == indexed_frames(samples, CFG, [0, 512, 1024]).tobytes())

    def test_hop_128(self):
        cfg = CepstralConfig(hop=128)
        frames = frame(buffer_of(np.ones(2048)), cfg)
        assert frames.shape[0] == 9  # starts 0..1024 step 128
        # 127 samples past the last frame, too few for another
        samples = np.random.default_rng(4).normal(size=2048 + 127)
        assert (frame(buffer_of(samples), cfg).tobytes()
                == indexed_frames(samples, cfg, range(0, 1025, 128)).tobytes())

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            frame(buffer_of(np.ones(1023)), CFG)

    def test_hann_taper_applied(self):
        frames = frame(buffer_of(np.ones(1024)), CFG)
        assert frames[0, 0] == 0.0  # symmetric Hann endpoints are zero
        assert frames[0, 511] == pytest.approx(1.0, abs=1e-4)


class TestMfcc:
    def test_zero_buffer_gives_zero_coefficients(self):
        matrix = mfcc(buffer_of(np.zeros(1024)), CFG)
        # constant (floored) log-spectrum puts all energy in coefficient 1
        assert np.max(np.abs(matrix.values)) < 1e-12

    def test_pure_sine_matches_oracle(self):
        t = np.arange(1024)
        samples = np.sin(2 * np.pi * 1000.0 * t / 16000.0)
        buffer = buffer_of(samples)
        matrix = mfcc(buffer, CFG)
        expected = oracle_mfcc_frame(buffer)
        assert matrix.values.shape == (1, 13)
        assert np.allclose(matrix.values[0], expected, rtol=1e-6, atol=1e-9)

    def test_noise_frame_matches_oracle(self):
        samples = np.random.default_rng(3).standard_normal(1024)
        samples /= np.max(np.abs(samples))
        buffer = buffer_of(samples)
        matrix = mfcc(buffer, CFG)
        expected = oracle_mfcc_frame(buffer)
        assert np.allclose(matrix.values[0], expected, rtol=1e-6, atol=1e-9)

    def test_deterministic(self):
        samples = np.random.default_rng(4).standard_normal(4096)
        a = mfcc(buffer_of(samples), CFG)
        b = mfcc(buffer_of(samples), CFG)
        assert np.array_equal(a.values, b.values)

    def test_thirteen_coefficients_labeled_2_to_14(self):
        matrix = mfcc(buffer_of(np.random.default_rng(5).standard_normal(2048)), CFG)
        assert matrix.values.shape[1] == 13
        assert matrix.frequencies == tuple(range(2, 15))

    def test_hop_shift_drops_boundary_frames_only(self):
        samples = np.random.default_rng(6).standard_normal(8192)
        whole = mfcc(buffer_of(samples), CFG)
        shifted = mfcc(buffer_of(samples[512:]), CFG)
        assert np.array_equal(shifted.values, whole.values[1:])

    def test_finite_for_any_input(self):
        spiky = np.zeros(2048)
        spiky[100] = 1.0
        matrix = mfcc(buffer_of(spiky), CFG)
        assert np.all(np.isfinite(matrix.values))
