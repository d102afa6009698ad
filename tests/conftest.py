import numpy as np
import pytest

from fdspoof import audio_io, firsim
from fdspoof.forest import LabeledDataset


@pytest.fixture
def wav_factory(tmp_path):
    """Write an AudioBuffer to a temp wav file and return its path."""

    def write(samples, name="clip", rate=16000, bits=16):
        buf = audio_io.AudioBuffer(np.asarray(samples, dtype=np.float64), rate, name)
        path = tmp_path / f"{name}.wav"
        audio_io.write_wav(path, buf, bits=bits)
        return path

    return write


def brute_force_first_digit(x, base):
    """Oracle: repeatedly multiply/divide |x| into [1, base)."""
    m = abs(x)
    while m >= base:
        m /= base
    while m < 1.0:
        m *= base
    return int(m)


def make_blobs(n_per_class=100, n_features=5, separation=5.0, seed=0):
    """Two gaussian blobs with draws truncated at 2 sigma.

    Truncation is what makes the fixture genuinely linearly separable:
    with 5-sigma separation every coordinate then carries a clean 1-sigma
    gap between the classes, so accuracy 1.0 is a hard requirement rather
    than a tail-probability gamble.
    """
    rng = np.random.default_rng(seed)
    x0 = np.clip(rng.normal(0.0, 1.0, (n_per_class, n_features)), -2.0, 2.0)
    x1 = separation + np.clip(rng.normal(0.0, 1.0, (n_per_class, n_features)), -2.0, 2.0)
    features = np.vstack([x0, x1])
    labels = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    ids = tuple(f"r{i:04d}" for i in range(2 * n_per_class))
    return LabeledDataset(features, labels, ids, layout_hash="blobs")


@pytest.fixture
def blobs():
    return make_blobs()


def make_filtered_clip(n_coeffs, clip_seed, n_samples=32000):
    """Gaussian noise shaped by an equiripple low-pass of the given length."""
    coeffs = firsim.design_fir(n_coeffs)
    source = firsim.gaussian_source(n_samples, clip_seed)
    return firsim.apply_fir(source, coeffs)
