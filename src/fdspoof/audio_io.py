"""Decode, validate and normalize input audio.

Only uncompressed RIFF/WAVE files are accepted: mono, 16 kHz, with 16/24/32-bit
integer or 32-bit float samples. Anything else (compressed codecs, multi-channel
material, other rates) must be transcoded externally before ingestion.

`load` is the front end every command reads audio through: decode, drop the
samples that are exactly zero, then scale the peak to 1.0. `peak_normalize`
is the one normalization in the package; the FIR simulation uses it too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ChannelError, EmptySignal, RateError, UnsupportedFormat

REQUIRED_RATE = 16000

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class AudioBuffer:
    """A mono waveform: float64 samples, sample rate, and a provenance id."""

    samples: np.ndarray
    sample_rate: int
    source_id: str

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


def _read_fmt(chunk: bytes) -> tuple[int, int, int, int]:
    if len(chunk) < 16:
        raise UnsupportedFormat("fmt chunk truncated")
    fmt_tag, n_channels, rate, _, _, bits = struct.unpack("<HHIIHH", chunk[:16])
    if fmt_tag == _WAVE_FORMAT_EXTENSIBLE:
        # actual format code lives in the first two bytes of the SubFormat GUID
        if len(chunk) < 26:
            raise UnsupportedFormat("extensible fmt chunk truncated")
        fmt_tag = struct.unpack("<H", chunk[24:26])[0]
    return fmt_tag, n_channels, rate, bits


def _decode_samples(data: bytes, fmt_tag: int, bits: int) -> np.ndarray:
    """Samples of a data chunk; `decode` has checked that fmt_tag is PCM or IEEE float."""
    if fmt_tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedFormat(f"{bits}-bit float samples not supported")
        data = data[: (len(data) // 4) * 4]  # tolerate a truncated final sample
        out = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if not np.isfinite(out).all():
            raise UnsupportedFormat("non-finite float samples")
        return out
    if bits == 16:
        ints = np.frombuffer(data[: (len(data) // 2) * 2], dtype="<i2").astype(np.int32)
    elif bits == 32:
        ints = np.frombuffer(data[: (len(data) // 4) * 4], dtype="<i4")
    elif bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8)
        raw = raw[: (len(raw) // 3) * 3].reshape(-1, 3).astype(np.int32)
        ints = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        ints = np.where(ints & 0x800000, ints - 0x1000000, ints)
    else:
        raise UnsupportedFormat(f"{bits}-bit integer samples not supported")
    return ints.astype(np.float64) / float(2 ** (bits - 1))


def decode(path: str | Path) -> AudioBuffer:
    """Read a linear-PCM mono 16 kHz WAV file into an AudioBuffer.

    Integer samples are mapped to reals by dividing by 2^(bits-1); 32-bit float
    samples are taken verbatim. The buffer is not normalized here.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise UnsupportedFormat(f"{path.name}: not a RIFF/WAVE file")

    fmt_chunk: bytes | None = None
    data_chunk: bytes | None = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        size = struct.unpack("<I", blob[pos + 4 : pos + 8])[0]
        body = blob[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt_chunk = body
        elif cid == b"data":
            data_chunk = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt_chunk is None or data_chunk is None:
        raise UnsupportedFormat(f"{path.name}: missing fmt or data chunk")

    fmt_tag, n_channels, rate, bits = _read_fmt(fmt_chunk)
    if fmt_tag not in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT):
        raise UnsupportedFormat(f"{path.name}: format tag 0x{fmt_tag:04x} is not linear PCM")
    samples = _decode_samples(data_chunk, fmt_tag, bits)
    if n_channels != 1:
        raise ChannelError(f"{path.name}: {n_channels} channels, expected mono")
    if rate != REQUIRED_RATE:
        raise RateError(f"{path.name}: sample rate {rate}, expected {REQUIRED_RATE}")
    if samples.size == 0:
        raise EmptySignal(f"{path.name}: no samples")
    return AudioBuffer(samples=samples, sample_rate=rate, source_id=path.stem)


def write_wav(path: str | Path, buffer: AudioBuffer, bits: int = 16) -> None:
    """Write a buffer as mono PCM WAV (16-bit int or 32-bit float)."""
    path = Path(path)
    if bits == 16:
        clipped = np.clip(np.round(buffer.samples * 32768.0), -32768, 32767)
        payload = clipped.astype("<i2").tobytes()
        fmt_tag, block = _WAVE_FORMAT_PCM, 2
    elif bits == 32:
        payload = buffer.samples.astype("<f4").tobytes()
        fmt_tag, block = _WAVE_FORMAT_IEEE_FLOAT, 4
    else:
        raise UnsupportedFormat(f"cannot write {bits}-bit files")
    rate = buffer.sample_rate
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, fmt_tag, 1, rate, rate * block, block, bits,
        b"data", len(payload),
    )
    path.write_bytes(header + payload)


def strip_zeros(buffer: AudioBuffer) -> AudioBuffer:
    """Drop samples that are exactly 0.0, preserving order."""
    kept = buffer.samples[buffer.samples != 0.0]
    if kept.size == 0:
        raise EmptySignal(f"{buffer.source_id}: all samples are zero")
    return AudioBuffer(samples=kept, sample_rate=buffer.sample_rate, source_id=buffer.source_id)


def peak_normalize(buffer: AudioBuffer) -> AudioBuffer:
    """Scale so the maximum absolute sample is exactly 1.0."""
    if len(buffer) == 0:
        raise EmptySignal(f"{buffer.source_id}: empty buffer")
    peak = np.max(np.abs(buffer.samples))
    if peak == 0.0:
        raise EmptySignal(f"{buffer.source_id}: all samples are zero")
    return AudioBuffer(
        samples=buffer.samples / peak,
        sample_rate=buffer.sample_rate,
        source_id=buffer.source_id,
    )


def load(path: str | Path) -> AudioBuffer:
    """The decoded file with its zero samples dropped, peak-normalized."""
    return peak_normalize(strip_zeros(decode(path)))
