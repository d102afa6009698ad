import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdspoof import audio_io
from fdspoof.exceptions import ChannelError, EmptySignal, RateError, UnsupportedFormat


def raw_wav(path, payload, fmt_tag=1, channels=1, rate=16000, bits=16):
    """Independent minimal WAV writer so decode() is not tested against itself."""
    block = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_tag, channels, rate, rate * block, block, bits,
        b"data", len(payload),
    )
    path.write_bytes(header + payload)
    return path


class TestDecode:
    def test_fullscale_16bit_mapping(self, tmp_path):
        path = raw_wav(tmp_path / "one.wav", struct.pack("<h", 32767))
        buf = audio_io.decode(path)
        assert buf.samples.shape == (1,)
        assert buf.samples[0] == pytest.approx(32767 / 32768, abs=1e-9)
        assert buf.sample_rate == 16000
        assert buf.source_id == "one"

    def test_stereo_rejected(self, tmp_path):
        payload = struct.pack("<4h", 1, 2, 3, 4)
        path = raw_wav(tmp_path / "st.wav", payload, channels=2)
        with pytest.raises(ChannelError):
            audio_io.decode(path)

    def test_wrong_rate_rejected(self, tmp_path):
        path = raw_wav(tmp_path / "slow.wav", struct.pack("<h", 100), rate=8000)
        with pytest.raises(RateError):
            audio_io.decode(path)

    def test_compressed_tag_rejected(self, tmp_path):
        path = raw_wav(tmp_path / "mp3ish.wav", b"\x00\x00", fmt_tag=0x0055)
        with pytest.raises(UnsupportedFormat):
            audio_io.decode(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"garbage")
        with pytest.raises(UnsupportedFormat):
            audio_io.decode(path)

    def test_empty_data_rejected(self, tmp_path):
        path = raw_wav(tmp_path / "empty.wav", b"")
        with pytest.raises(EmptySignal):
            audio_io.decode(path)

    def test_float32_payload(self, tmp_path):
        values = np.array([0.25, -0.5], dtype="<f4")
        path = raw_wav(tmp_path / "f32.wav", values.tobytes(), fmt_tag=3, bits=32)
        buf = audio_io.decode(path)
        assert np.allclose(buf.samples, [0.25, -0.5])

    def test_24bit_payload(self, tmp_path):
        # +2^22 and -2^22 as little-endian 24-bit
        payload = b"\x00\x00\x40" + b"\x00\x00\xc0"
        path = raw_wav(tmp_path / "b24.wav", payload, bits=24)
        buf = audio_io.decode(path)
        assert np.allclose(buf.samples, [0.5, -0.5])

    def test_truncated_payload_tolerated(self, tmp_path):
        # three bytes = one full 16-bit sample plus a dangling byte
        path = raw_wav(tmp_path / "trunc.wav", struct.pack("<hB", 1000, 7))
        buf = audio_io.decode(path)
        assert buf.samples.shape == (1,)

    def test_roundtrip_within_one_quantization_level(self, tmp_path, wav_factory):
        rng = np.random.default_rng(11)
        samples = rng.uniform(-1.0, 1.0, 4096)
        path = wav_factory(samples, "rt")
        back = audio_io.decode(path)
        assert np.max(np.abs(back.samples - samples)) <= 2.0 ** -15


class TestStripZeros:
    def test_definition(self):
        buf = audio_io.AudioBuffer(np.array([0.0, 0.2, 0.0, -0.1]), 16000, "a")
        out = audio_io.strip_zeros(buf)
        assert np.array_equal(out.samples, [0.2, -0.1])

    def test_identity_when_no_zeros(self):
        buf = audio_io.AudioBuffer(np.array([0.3, -0.4]), 16000, "a")
        assert np.array_equal(audio_io.strip_zeros(buf).samples, [0.3, -0.4])

    def test_all_zero_rejected(self):
        buf = audio_io.AudioBuffer(np.zeros(2), 16000, "a")
        with pytest.raises(EmptySignal):
            audio_io.strip_zeros(buf)

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=64))
    def test_idempotent(self, values):
        buf = audio_io.AudioBuffer(np.array(values), 16000, "h")
        try:
            once = audio_io.strip_zeros(buf)
        except EmptySignal:
            return
        twice = audio_io.strip_zeros(once)
        assert np.array_equal(once.samples, twice.samples)


class TestLoad:
    def test_decode_strip_normalize(self, tmp_path):
        path = raw_wav(tmp_path / "clip.wav", struct.pack("<4h", 0, 8192, 0, -16384))
        buf = audio_io.load(path)
        assert np.array_equal(buf.samples, [0.5, -1.0])
        assert buf.source_id == "clip"

    def test_all_zero_file_rejected(self, tmp_path):
        with pytest.raises(EmptySignal):
            audio_io.load(raw_wav(tmp_path / "zeros.wav", bytes(8)))


class TestPeakNormalize:
    def test_scaling(self):
        buf = audio_io.AudioBuffer(np.array([0.5, -0.25]), 16000, "a")
        assert np.array_equal(audio_io.peak_normalize(buf).samples, [1.0, -0.5])

    def test_already_normalized(self):
        buf = audio_io.AudioBuffer(np.array([1.0, 0.3]), 16000, "a")
        assert np.array_equal(audio_io.peak_normalize(buf).samples, [1.0, 0.3])

    def test_sign_preserved_on_peak(self):
        buf = audio_io.AudioBuffer(np.array([-0.1]), 16000, "a")
        assert np.array_equal(audio_io.peak_normalize(buf).samples, [-1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(EmptySignal):
            audio_io.peak_normalize(audio_io.AudioBuffer(np.zeros(3), 16000, "a"))

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=32),
        st.floats(0.01, 100.0),
    )
    def test_idempotent_and_scale_invariant(self, values, gain):
        arr = np.array(values)
        if np.max(np.abs(arr)) < 1e-6:  # keep the scaled copy clear of underflow
            return
        base = audio_io.peak_normalize(audio_io.AudioBuffer(arr, 16000, "h"))
        scaled = audio_io.peak_normalize(audio_io.AudioBuffer(arr * gain, 16000, "h"))
        again = audio_io.peak_normalize(base)
        assert np.max(np.abs(base.samples)) == 1.0
        assert np.allclose(base.samples, scaled.samples, atol=1e-12)
        assert np.array_equal(base.samples, again.samples)
