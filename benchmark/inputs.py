"""Seeded input generators for the benchmark workloads.

Everything here depends only on numpy/scipy and the workload seed, never on
the fdspoof package, so the inputs stay the same when the program changes.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal

SAMPLE_RATE = 16000

# (filter length, system id); "-" marks bonafide. The bonafide and spoof
# lengths interleave, so neighbouring families look alike and held-out
# accuracy stays below 1.0 and can move both ways.
FIR_FAMILIES = ((4, "-"), (8, "-"), (16, "-"), (6, "A01"), (12, "A02"), (32, "A03"))

# The 416-column layout: frequency, then base, then step, then divergence.
FEATURE_NAMES = tuple(
    f"{div}_f{f}_b{b}_d{d:g}"
    for f in range(2, 15)
    for b in (10, 20)
    for d in (1.0, 2.0, 3.0, 4.0)
    for div in ("js", "renyi", "tsallis", "mse")
)
FEATURE_SYSTEMS = ("A01", "A02", "A03", "A04")


@dataclass(frozen=True)
class CorpusSize:
    chunks: int  # protocol files; chunk 0 is timed, all of them train the held-out forest
    per_family: int  # clips of each FIR family in one chunk


@dataclass(frozen=True)
class FeatureSize:
    train: int
    dev: int
    eval: int


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def write_wav(path: Path, samples: np.ndarray) -> None:
    """Mono 16-bit PCM at 16 kHz."""
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(pcm), b"WAVE",
        b"fmt ", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16,
        b"data", len(pcm),
    )
    path.write_bytes(header + pcm)


def _lowpass(n_taps: int) -> np.ndarray:
    # the same band edges as the program's simulator (Nyquist units)
    return signal.remez(n_taps, [0.0, 0.2, 0.7, 1.0], [1.0, 0.0], fs=2.0, maxiter=50)


def _filtered_noise(taps: np.ndarray, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(n_samples + taps.size - 1)
    return np.convolve(noise, taps, mode="valid")


def _fir_clip(taps, rng) -> np.ndarray:
    """2-s filtered Gaussian clip at a random level."""
    x = _filtered_noise(taps, 2 * SAMPLE_RATE, rng)
    return rng.uniform(0.3, 0.9) * x / np.max(np.abs(x))


def _gap_clip(taps, rng) -> np.ndarray:
    """~4-s clip: three loud stretches with two interior gaps of noise at
    about -54 dB re peak. The gaps are low-level but never digital zero,
    because zero samples are stripped before segmentation."""
    parts = []
    for k in range(5):
        if k % 2 == 0:
            x = _filtered_noise(taps, int(rng.integers(14000, 18000)), rng)
            parts.append(0.9 * x / np.max(np.abs(x)))
        else:
            x = _filtered_noise(taps, int(rng.integers(6000, 9000)), rng)
            parts.append(0.9 * 10 ** (-54 / 20) * x / np.sqrt(np.mean(x * x)))
    return np.concatenate(parts)


def write_corpus(root: Path, seed: int, size: CorpusSize, gaps: bool,
                 chunks: range) -> list[Path]:
    """FIR-family corpus: `<root>/audio/*.wav` plus `<root>/chunk<k>.txt` for
    each chunk k in `chunks`.

    Every chunk holds `per_family` clips of each family, so each extract
    invocation sees both classes and every spoof system. A clip depends only
    on the seed and its index, so chunks can be written separately.
    """
    audio = root / "audio"
    audio.mkdir(parents=True, exist_ok=True)
    taps = {n: _lowpass(n) for n, _ in FIR_FAMILIES}
    make = _gap_clip if gaps else _fir_clip
    protocols = []
    for chunk in chunks:
        lines = []
        index = chunk * size.per_family * len(FIR_FAMILIES)
        for _ in range(size.per_family):
            for n_taps, system in FIR_FAMILIES:
                name = f"LA_{index:05d}"
                write_wav(audio / f"{name}.wav", make(taps[n_taps], rng_for(seed, 1, index)))
                key = "bonafide" if system == "-" else "spoof"
                lines.append(f"SPK{index % 8:02d} {name} - {system} {key}\n")
                index += 1
        path = root / f"chunk{chunk}.txt"
        path.write_text("".join(lines))
        protocols.append(path)
    return protocols


def layout_hash(names) -> str:
    return hashlib.sha256(",".join(names).encode()).hexdigest()[:16]


def _feature_rows(n: int, rng: np.random.Generator, informative: np.ndarray):
    """Positive divergence-like values (renyi columns negative), with a
    minority of columns shifted per spoof system."""
    labels = np.arange(n) % 2
    systems = ["-" if lab == 0 else FEATURE_SYSTEMS[(i // 2) % len(FEATURE_SYSTEMS)]
               for i, lab in enumerate(labels)]
    values = rng.gamma(2.0, 0.01, size=(n, len(FEATURE_NAMES)))
    per_system = np.array_split(informative, len(FEATURE_SYSTEMS))
    for i, system in enumerate(systems):
        if system != "-":
            values[i, per_system[FEATURE_SYSTEMS.index(system)]] += 0.015
            values[i, informative] += 0.005
    sign = np.array([-1.0 if name.startswith("renyi") else 1.0 for name in FEATURE_NAMES])
    return labels, systems, values * sign


def write_feature_files(root: Path, seed: int, size: FeatureSize) -> dict[str, Path]:
    """train/dev/eval feature CSVs with `.meta.txt` sidecars."""
    root.mkdir(parents=True)
    rng = rng_for(seed, 2)
    informative = rng.choice(len(FEATURE_NAMES), size=len(FEATURE_NAMES) // 10, replace=False)
    meta = "".join(f"{k}={v}\n" for k, v in sorted({
        "alpha": 0.3, "bases": [10, 20], "coeff_hi": 14, "coeff_lo": 2,
        "deltas": [1.0, 2.0, 3.0, 4.0], "epsilon": 1e-10, "frame_len": 1024, "hop": 512,
        "layout_hash": layout_hash(FEATURE_NAMES), "min_digits": 10, "n_filters": 26,
        "segment": "full", "threshold_db": -40.0, "window_len": 101,
    }.items()))
    header = ",".join(("record_id", "label", "system_id") + FEATURE_NAMES) + "\n"
    paths = {}
    for split, n in (("train", size.train), ("dev", size.dev), ("eval", size.eval)):
        labels, systems, values = _feature_rows(n, rng, informative)
        path = root / f"{split}.csv"
        with open(path, "w") as fh:
            fh.write(header)
            for i, row in enumerate(values.tolist()):
                fh.write(f"{split.upper()}_{i:05d},{labels[i]},{systems[i]},"
                         + ",".join(map(repr, row)) + "\n")
        Path(str(path) + ".meta.txt").write_text(meta)
        paths[split] = path
    return paths


def write_sweep_args(root: Path, seed: int, n_coeffs: tuple[int, ...], trials: int,
                     signal_len: int) -> list[str]:
    """`fdspoof simulate` arguments: several FIR lengths, one quantization
    step, one frequency, a few trials and a sweep seed drawn from the
    workload seed. Written to `<root>/sweep.json`."""
    root.mkdir(parents=True)
    args = {
        "nc_list": ",".join(str(n) for n in n_coeffs),
        "deltas": "0.01",
        "frequencies": "5",
        "trials": trials,
        "signal_len": signal_len,
        "seed": int(rng_for(seed, 3).integers(0, 2 ** 31)),
    }
    (root / "sweep.json").write_text(json.dumps(args, sort_keys=True) + "\n")
    return ["--nc-list", args["nc_list"], "--deltas", args["deltas"],
            "--frequencies", args["frequencies"], "--trials", str(trials),
            "--signal-len", str(signal_len), "--seed", str(args["seed"]), "--jobs", "1"]
