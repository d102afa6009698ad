"""Byte-mutation fuzzing of every file decoder.

Each decoder reads a valid file with a few bytes flipped, inserted, deleted
or cut off. Whatever the bytes, it may only return or raise an FdspoofError
subclass, which the CLI maps to a documented exit code; any other exception
would surface as the internal-error exit 70.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fdspoof import asvspoof, audio_io
from fdspoof.exceptions import FdspoofError
from fdspoof.fd_features import FdConfig, feature_layout
from fdspoof.forest import ForestConfig, LabeledDataset, load_model, save_model, train_forest
from test_forest import three_node_doc

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    """`seed` with one to eight byte flips, insertions, deletions or a cut."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(("flip", "insert", "delete", "cut")))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        if op == "flip" and data:
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=4))
        elif op == "delete" and data:
            del data[pos : pos + draw(st.integers(1, 4))]
        elif op == "cut":
            del data[pos:]
    return bytes(data)


def _wav_bytes(tmp_path, bits):
    samples = np.sin(np.linspace(0.0, 20.0, 48))
    path = tmp_path / f"seed{bits}.wav"
    audio_io.write_wav(path, audio_io.AudioBuffer(samples, 16000, "seed"), bits=bits)
    return path.read_bytes()


def _protocol_bytes():
    return (b"LA_0001 LA_T_0000001 - - bonafide\n"
            b"LA_0002 LA_T_0000002 - A01 spoof\n"
            b"LA_0003 LA_T_0000003 - A02 spoof\n")


def _feature_csv_bytes(tmp_path):
    layout = feature_layout(FdConfig(bases=(10,), deltas=(1.0,)), (2,))
    dataset = LabeledDataset(np.array([[0.5, -0.25, 0.125, 1e-3], [1.5, -2.0, 0.0, 7.0]]),
                             np.array([0, 1]), ("r1", "r2"), "h", ("-", "A01"))
    path = tmp_path / "seed.csv"
    asvspoof.write_feature_csv(path, dataset, layout)
    return path.read_bytes()


def _model_bytes(tmp_path):
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.normal(size=(12, 3)), np.arange(12) % 2,
                          tuple(f"r{i}" for i in range(12)), "h")
    path = tmp_path / "seed.json"
    save_model(train_forest(data, ForestConfig(n_trees=2, seed=0)), path)
    return path.read_bytes()


def _decodes_or_rejects(read, path, blob):
    path.write_bytes(blob)
    try:
        read(path)
    except FdspoofError:
        pass


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzzseeds")
    return {
        "wav16": _wav_bytes(root, 16),
        "wav32": _wav_bytes(root, 32),
        "protocol": _protocol_bytes(),
        "csv": _feature_csv_bytes(root),
        "model": _model_bytes(root),
        "model_doc": json.dumps(three_node_doc()).encode(),
    }


@pytest.mark.parametrize("kind", ["wav16", "wav32"])
def test_decode_raises_only_fdspoof_errors(seeds, tmp_path, kind):
    @FUZZ
    @given(mutated(seeds[kind]))
    def check(blob):
        _decodes_or_rejects(audio_io.decode, tmp_path / "clip.wav", blob)

    check()


def test_parse_protocol_raises_only_fdspoof_errors(seeds, tmp_path):
    @FUZZ
    @given(mutated(seeds["protocol"]))
    def check(blob):
        _decodes_or_rejects(asvspoof.parse_protocol, tmp_path / "protocol.txt", blob)

    check()


def test_read_feature_csv_raises_only_fdspoof_errors(seeds, tmp_path):
    @FUZZ
    @given(mutated(seeds["csv"]))
    def check(blob):
        _decodes_or_rejects(asvspoof.read_feature_csv, tmp_path / "features.csv", blob)

    check()


@pytest.mark.parametrize("kind", ["model", "model_doc"])
def test_load_model_raises_only_fdspoof_errors(seeds, tmp_path, kind):
    @FUZZ
    @given(mutated(seeds[kind]))
    def check(blob):
        _decodes_or_rejects(load_model, tmp_path / "model.json", blob)

    check()
