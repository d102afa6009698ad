import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdspoof
from conftest import make_filtered_clip
from fdspoof import asvspoof, audio_io, cli, fd_features, firsim, forest
from fdspoof.asvspoof import write_feature_csv
from fdspoof.fd_features import FdConfig, feature_layout, layout_hash
from fdspoof.forest import LabeledDataset
from test_forest import three_node_doc, v1_doc, v2_doc


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    audio_dir = root / "audio"
    audio_dir.mkdir()
    lines = []
    for i in range(6):
        n_coeffs = 4 if i % 2 == 0 else 64
        name = f"LA_T_{i:07d}"
        clip = make_filtered_clip(n_coeffs, clip_seed=900 + i)
        audio_io.write_wav(audio_dir / f"{name}.wav",
                           audio_io.AudioBuffer(clip.samples, 16000, name))
        if i % 2 == 0:
            lines.append(f"LA_0001 {name} - - bonafide")
        else:
            lines.append(f"LA_0001 {name} - A01 spoof")
    protocol = root / "protocol.txt"
    protocol.write_text("\n".join(lines) + "\n")
    return root, protocol, audio_dir


@pytest.fixture(scope="module")
def extracted(cli_corpus):
    root, protocol, audio_dir = cli_corpus
    out = root / "features.csv"
    code = cli.main([
        "extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
        "--segment", "full", "--out", str(out),
    ])
    assert code == 0
    return root, out


class TestExtract:
    def test_csv_shape(self, extracted):
        _, out = extracted
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # header + 6 records
        assert len(lines[0].split(",")) == 419  # 3 id columns + 416 features

    def test_meta_and_manifest_written(self, extracted):
        _, out = extracted
        meta = (str(out) + ".meta.txt",)
        assert "segment=full" in open(meta[0]).read()
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["command"] == "extract"
        assert manifest["config"]["frame_len"] == 1024
        assert len(manifest["input_hashes"]) == 1

    def test_rerun_is_byte_identical(self, cli_corpus, tmp_path):
        root, protocol, audio_dir = cli_corpus
        outs = []
        for name, jobs in (("x.csv", "1"), ("y.csv", "2")):
            out = tmp_path / name
            assert cli.main([
                "extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
                "--segment", "full", "--out", str(out), "--jobs", jobs,
            ]) == 0
            outs.append((out.read_bytes(), Path(str(out) + ".manifest.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_unknown_segment_is_usage_error(self, cli_corpus, tmp_path):
        root, protocol, audio_dir = cli_corpus
        code = cli.main([
            "extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
            "--segment", "noise", "--out", str(tmp_path / "z.csv"),
        ])
        assert code == 64

    def test_missing_audio_exits_2(self, cli_corpus, tmp_path):
        root, protocol, audio_dir = cli_corpus
        bad = tmp_path / "bad.txt"
        bad.write_text("LA_0001 LA_T_NOPE - - bonafide\n")
        code = cli.main([
            "extract", "--protocol", str(bad), "--audio-root", str(audio_dir),
            "--segment", "full", "--out", str(tmp_path / "z.csv"),
        ])
        assert code == 2

    def test_config_file_and_flag_precedence(self, cli_corpus, tmp_path):
        root, protocol, audio_dir = cli_corpus
        cfg = tmp_path / "conf.txt"
        cfg.write_text("deltas=1,2\nmin_digits=5\n")
        out = tmp_path / "small.csv"
        code = cli.main([
            "extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
            "--segment", "full", "--out", str(out), "--config", str(cfg),
            "--bases", "10",
        ])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        # 13 freqs x 1 base (flag) x 2 deltas (file) x 4 divergences
        assert len(header) - 3 == 13 * 1 * 2 * 4
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["config"]["bases"] == [10]
        assert manifest["config"]["deltas"] == [1.0, 2.0]

    def test_summary_counts_capped_fits_outside_the_outputs(self, cli_corpus, tmp_path,
                                                            capsys, monkeypatch):
        root, protocol, audio_dir = cli_corpus
        argv = ["extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
                "--segment", "full"]
        assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        summary = capsys.readouterr().out
        capped = int(summary.split(" skipped, ")[1].split(" of ")[0])
        assert 0 <= capped < 624 // 20
        assert "of 624 fits hit the iteration cap" in summary

        # with a one-iteration cap, the count is that of the same pmfs' fits
        # at that cap which report converged=False; the outputs do not say so
        fit = fd_features.fit_benford_batch
        pmfs = []

        def capped_fit(probs, base):
            pmfs.append((probs, base))
            return fit(probs, base, max_iter=1)

        monkeypatch.setattr(fd_features, "fit_benford_batch", capped_fit)
        assert cli.main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        want = sum(np.count_nonzero(~fit(probs, base, max_iter=1)[2]) for probs, base in pmfs)
        assert f"{want} of 624 fits hit the iteration cap" in capsys.readouterr().out
        for suffix in (".meta.txt", ".manifest.json", ".skips.csv"):
            a = Path(str(tmp_path / "a.csv") + suffix).read_bytes()
            assert a == Path(str(tmp_path / "b.csv") + suffix).read_bytes()
            assert b"cap" not in a

    @staticmethod
    def loaded_after_import(modules):
        """Which of `modules` a fresh interpreter has loaded after `import fdspoof.cli`."""
        src = str(Path(fdspoof.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys, fdspoof.cli; print([m for m in {modules!r} if m in sys.modules])"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_import_leaves_scipy_signal_unloaded(self):
        assert self.loaded_after_import(["scipy.signal"]) == "[]"

    def test_import_leaves_process_pools_unloaded(self):
        assert self.loaded_after_import(["multiprocessing", "concurrent.futures"]) == "[]"

    def test_sha256_of_a_multi_block_file(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(0).bytes((1 << 20) * 2 + 12345))
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestTrainEvaluate:
    def test_train_then_evaluate(self, extracted, tmp_path):
        root, features = extracted
        model_path = tmp_path / "model.json"
        code = cli.main([
            "train", "--train-features", str(features), "--dev-features", str(features),
            "--model-out", str(model_path), "--n-trees", "10", "--seed", "3",
        ])
        assert code == 0
        grid_lines = (tmp_path / "model.json.grid.csv").read_text().splitlines()
        assert len(grid_lines) == 3  # header + 10xgini + 10xentropy
        report_path = tmp_path / "report.csv"
        code = cli.main([
            "evaluate", "--model", str(model_path), "--features", str(features),
            "--out", str(report_path),
        ])
        assert code == 0
        rows = report_path.read_text().splitlines()
        assert rows[0].startswith("system,segment,config")
        assert rows[-1].startswith("ALL,")

    def test_single_cell_grid_report(self, extracted, tmp_path):
        root, features = extracted
        model_path = tmp_path / "m.json"
        code = cli.main([
            "train", "--train-features", str(features), "--dev-features", str(features),
            "--model-out", str(model_path), "--n-trees", "10", "--criterion", "gini",
        ])
        assert code == 0
        grid_lines = (model_path.parent / "m.json.grid.csv").read_text().splitlines()
        assert len(grid_lines) == 2

    def test_layout_mismatch_exits_65(self, extracted, tmp_path):
        root, features = extracted
        other_layout = feature_layout(FdConfig(bases=(10,)), tuple(range(2, 15)))
        rng = np.random.default_rng(0)
        small = LabeledDataset(
            features=rng.normal(size=(4, len(other_layout))),
            labels=np.array([0, 1, 0, 1]),
            record_ids=("a", "b", "c", "d"),
            layout_hash=layout_hash(other_layout),
            system_ids=("-", "A01", "-", "A01"),
        )
        other_csv = tmp_path / "other.csv"
        write_feature_csv(other_csv, small, other_layout)
        code = cli.main([
            "train", "--train-features", str(features), "--dev-features", str(other_csv),
            "--model-out", str(tmp_path / "m2.json"),
        ])
        assert code == 65


class TestSimulate:
    def test_row_count_and_determinism(self, tmp_path):
        args = [
            "simulate", "--nc-list", "8,16", "--deltas", "0.01", "--frequencies", "2",
            "--trials", "2", "--signal-len", "32768", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b), "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        manifests = [Path(str(out) + ".manifest.json").read_bytes() for out in (a, b)]
        assert manifests[0] == manifests[1]
        assert len(a.read_text().splitlines()) == 3  # header + 2 cells

    def test_summary_counts_capped_fits_outside_the_outputs(self, tmp_path, capsys,
                                                            monkeypatch):
        args = ["simulate", "--nc-list", "8,16", "--deltas", "0.01", "--frequencies", "2",
                "--trials", "2", "--signal-len", "32768", "--seed", "5"]
        sweep = dict(n_coeffs_list=(8, 16), deltas=(0.01,), frequencies=(2,), n_trials=2,
                     signal_len=32768, seed=5)

        def run(tag):
            out = tmp_path / f"{tag}.csv"
            assert cli.main(args + ["--out", str(out)]) == 0
            summary = capsys.readouterr().out
            result = firsim.divergence_sweep(**sweep)
            assert (f"simulate: 2 cells, {result.capped_fits} of 4 fits hit the iteration "
                    f"cap -> {out}") in summary
            # the CSV holds the sweep rows and nothing else
            firsim.write_sweep_csv(tmp_path / "rows.csv", firsim.SweepResult(result.rows))
            assert out.read_bytes() == (tmp_path / "rows.csv").read_bytes()
            return out, result.capped_fits

        default, _ = run("default")
        # with a one-iteration cap, the count is that of the same pmfs' fits
        # at that cap which report converged=False; run() fits them twice,
        # through the command and through the sweep
        fit = fd_features.fit_benford_batch
        pmfs = []

        def capped_fit(probs, base):
            pmfs.append((probs, base))
            return fit(probs, base, max_iter=1)

        monkeypatch.setattr(fd_features, "fit_benford_batch", capped_fit)
        capped_out, capped = run("capped")
        assert len(pmfs) == 2 and np.array_equal(pmfs[0][0], pmfs[1][0])
        probs, base = pmfs[1]
        assert capped == np.count_nonzero(~fit(probs, base, max_iter=1)[2])
        manifests = [Path(str(out) + ".manifest.json").read_bytes()
                     for out in (default, capped_out)]
        assert manifests[0] == manifests[1]
        assert b"cap" not in manifests[0]


class TestSegmentReport:
    def test_report_columns(self, tmp_path):
        samples = np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
        # low-level noise, not exact zeros: the pipeline strips zeros first
        samples[4040:5050] = 1e-3 * np.sin(np.arange(1010))
        buf = audio_io.AudioBuffer(samples / np.max(np.abs(samples)), 16000, "seg")
        wav = tmp_path / "seg.wav"
        audio_io.write_wav(wav, buf)
        out = tmp_path / "report.csv"
        code = cli.main(["segment-report", "--audio", str(wav), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "window_index,start_sample,energy_db,label"
        labels = [line.split(",")[3] for line in lines[1:]]
        assert "silence" in labels and "voiced" in labels


class TestAblateCommand:
    def inputs(self, tmp_path, fd_cfg, segments=("silence", "full", "voiced")):
        """`ablate`'s train/dev arguments for synthetic feature files of the
        layout `extract` writes under `fd_cfg`."""
        layout = feature_layout(fd_cfg, tuple(range(2, 15)))

        def synth(seed, n=6):
            rows, labels, ids, systems = [], [], [], []
            gen = np.random.default_rng(seed)
            for i in range(n):
                spoof = i % 2
                rows.append(gen.normal(3.0 * spoof, 1.0, len(layout)))
                labels.append(spoof)
                ids.append(f"r{seed}_{i}")
                systems.append("A01" if spoof else "-")
            return LabeledDataset(np.array(rows), np.array(labels), tuple(ids),
                                  layout_hash(layout), tuple(systems))

        args = []
        for index, segment in enumerate(segments):
            for role, seed in (("train", 1), ("dev", 2)):
                path = tmp_path / f"{segment}_{role}.csv"
                write_feature_csv(path, synth(seed * 10 + index), layout)
                args += [f"--{role}-{segment}", str(path)]
        return args

    def test_ablate_runs_on_synthetic_features(self, tmp_path):
        out = tmp_path / "ablation.csv"
        code = cli.main(["ablate", *self.inputs(tmp_path, FdConfig()), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 8  # header + 8 configurations x 1 system

    @pytest.mark.parametrize("fd_cfg,missing", [
        (FdConfig(bases=(16,)), "silence_d1 needs (base, step) (10, 1), (20, 1),"),
        (FdConfig(deltas=(1.0, 2.0)), "silence_d1-3 needs (base, step) (10, 3), (20, 3),"),
    ], ids=["bases_16", "deltas_1_2"])
    def test_features_without_the_default_grid_exit_65(self, tmp_path, capsys, monkeypatch,
                                                      fd_cfg, missing):
        # every row's columns are checked before any tree grows
        monkeypatch.setattr(asvspoof, "grid_search", lambda *_, **__: pytest.fail("a tree grew"))
        out = tmp_path / "ablation.csv"
        code = cli.main(["ablate", *self.inputs(tmp_path, fd_cfg, ("silence",)),
                         "--out", str(out)])
        assert code == 65
        assert f"layout mismatch: ablation row {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dev_cfg", [FdConfig(deltas=(1.0, 2.0)), FdConfig(bases=(10, 16))],
                             ids=["narrower", "same_width"])
    def test_dev_layout_other_than_train_exits_65(self, tmp_path, capsys, dev_cfg):
        (tmp_path / "train").mkdir()
        (tmp_path / "dev").mkdir()
        train = self.inputs(tmp_path / "train", FdConfig(), ("silence",))[:2]
        dev = self.inputs(tmp_path / "dev", dev_cfg, ("silence",))[2:]
        out = tmp_path / "ablation.csv"
        assert cli.main(["ablate", *train, *dev, "--out", str(out)]) == 65
        assert "layout mismatch: silence: train layout " in capsys.readouterr().err
        assert not out.exists()


class TestRejectedInput:
    """Malformed files exit 2, rejected setting values 64, out-of-layout models 65."""

    @pytest.mark.parametrize("argv, config, message", [
        (["extract", "--hop", "0"], None, "hop must be in (0, frame_len]"),
        (["extract", "--bases", "x"], None, "bases: invalid literal"),
        (["extract"], "alpha=2\n", "alpha must lie in (0, 1)"),
        (["train", "--n-trees", "0"], None, "n_trees must be >= 1"),
        (["simulate", "--trials", "0"], None, "n_trials must be >= 1"),
        (["simulate", "--nc-list", "x"], None, "nc_list: invalid literal"),
        (["simulate", "--deltas", "0"], None, "every quantization step must be > 0"),
        (["simulate", "--signal-len", "0"], None, "signal_len must be >= frame_len"),
        (["simulate", "--frequencies", "99"], None, "frequencies [99] are not kept"),
        (["simulate", "--jobs", "0"], None, "jobs must be >= 1"),
        (["extract", "--jobs", "0"], None, "jobs must be >= 1"),
        (["extract", "--window-len", "0"], None, "window_len must be >= 1"),
        (["extract", "--window-len", "-5"], None, "window_len must be >= 1"),
        (["segment-report", "--window-len", "0"], None, "window_len must be >= 1"),
        (["extract", "--deltas", "nan"], None, "every quantization step must be > 0"),
        (["simulate", "--deltas", "nan"], None, "every quantization step must be > 0"),
        (["extract", "--epsilon", "0"], None, "epsilon must be finite and > 0"),
        (["extract"], "epsilon=-1\n", "epsilon must be finite and > 0"),
        (["extract", "--bases", "10,10"], None, "bases and quantization steps must not repeat"),
        (["extract", "--deltas", "1,2,1"], None, "bases and quantization steps must not repeat"),
        (["extract", "--min-digits", "0"], None, "min_digits must be >= 1"),
        (["extract", "--deltas", "inf"], None, "every quantization step must be > 0"),
        (["simulate", "--deltas", "inf"], None, "every quantization step must be > 0"),
        (["extract", "--threshold-db", "nan"], None, "threshold_db must be finite"),
        (["extract", "--threshold-db", "inf"], None, "threshold_db must be finite"),
        (["extract"], "threshold_db=-inf\n", "threshold_db must be finite"),
        (["segment-report", "--threshold-db", "nan"], None, "threshold_db must be finite"),
        (["segment-report", "--threshold-db", "inf"], None, "threshold_db must be finite"),
        (["segment-report", "--threshold-db=-inf"], None, "threshold_db must be finite"),
        (["extract", "--deltas", "1,1e-320"], None, "quantization step 1e-320 is too small"),
        (["simulate", "--deltas", "1e-320", "--signal-len", "4096", "--trials", "1",
          "--nc-list", "8", "--frequencies", "2"], None, "quantization step 1e-320 is too small"),
        (["extract", "--balance-seed", "-1"], None, "argument --balance-seed: must be >= 0"),
        (["train", "--seed", "-1"], None, "argument --seed: must be >= 0"),
        (["ablate", "--seed", "-1"], None, "argument --seed: must be >= 0"),
        (["simulate", "--seed", "-1"], None, "argument --seed: must be >= 0"),
        (["simulate", "--nc-list", "8,8"], None, "FIR lengths and frequencies must not repeat"),
        (["simulate", "--frequencies", "5,5"], None, "FIR lengths and frequencies must not repeat"),
        (["extract", "--frame-len", "1", "--hop", "1"], None, "frame_len must be >= 2"),
    ])
    def test_rejected_setting_is_usage_error(self, extracted, cli_corpus, tmp_path, capsys,
                                             argv, config, message):
        _, features = extracted
        _, protocol, audio_dir = cli_corpus
        required = {
            "extract": ["--protocol", str(protocol), "--audio-root", str(audio_dir),
                        "--segment", "full", "--out", str(tmp_path / "f.csv")],
            "train": ["--train-features", str(features), "--dev-features", str(features),
                      "--model-out", str(tmp_path / "m.json")],
            "ablate": ["--out", str(tmp_path / "a.csv")],
            "simulate": ["--out", str(tmp_path / "s.csv")],
            "segment-report": ["--audio", str(next(audio_dir.glob("*.wav"))),
                               "--out", str(tmp_path / "r.csv")],
        }[argv[0]]
        if config is not None:
            (tmp_path / "conf.txt").write_text(config)
            required += ["--config", str(tmp_path / "conf.txt")]
        code = cli.main(argv + required)
        assert code == 64
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["extract", "--help"], ["--version"]])
    def test_help_returns_zero(self, argv, capsys):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out

    def test_unknown_config_key_is_usage_error(self, cli_corpus, tmp_path, capsys):
        # a misspelt key would otherwise leave its setting at the default
        _, protocol, audio_dir = cli_corpus
        conf = tmp_path / "conf.txt"
        conf.write_text("hop=512\nalhpa=0.5\n")
        code = cli.main(["extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
                         "--segment", "full", "--out", str(tmp_path / "f.csv"),
                         "--config", str(conf)])
        assert code == 64
        assert f"{conf}: no setting named 'alhpa'" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_config_line_ends_only_at_line_feed(self, cli_corpus, tmp_path, capsys):
        # 0x0b ends a line for str.splitlines() but is whitespace inside one
        _, protocol, audio_dir = cli_corpus
        conf = tmp_path / "conf.txt"
        conf.write_bytes(b"alpha=0.3\x0b\nhop\n")
        code = cli.main(["extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
                         "--segment", "full", "--out", str(tmp_path / "f.csv"),
                         "--config", str(conf)])
        assert code == 2
        assert f"{conf}:2: expected key=value" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_carriage_return_inside_config_line_exits_2(self, cli_corpus, tmp_path, capsys):
        _, protocol, audio_dir = cli_corpus
        conf = tmp_path / "conf.txt"
        conf.write_bytes(b"alpha=0.3\r\nhop=512\ralpha=0.5\n")
        code = cli.main(["extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
                         "--segment", "full", "--out", str(tmp_path / "f.csv"),
                         "--config", str(conf)])
        assert code == 2
        assert f"{conf}:2: carriage return inside the line" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_undecodable_config_file_exits_2(self, cli_corpus, tmp_path, capsys):
        _, protocol, audio_dir = cli_corpus
        conf = tmp_path / "conf.txt"
        conf.write_bytes(b"hop=512\nalpha=\xff0.3\n")
        code = cli.main(["extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
                         "--segment", "full", "--out", str(tmp_path / "f.csv"),
                         "--config", str(conf)])
        assert code == 2
        assert f"{conf}:2: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_silence_hop_longer_than_frame_is_usage_error(self, cli_corpus, tmp_path, capsys):
        _, protocol, audio_dir = cli_corpus
        code = cli.main(["extract", "--protocol", str(protocol), "--audio-root", str(audio_dir),
                         "--segment", "silence", "--out", str(tmp_path / "f.csv"),
                         "--frame-len", "64", "--hop", "32"])
        assert code == 64
        assert "silence view's fixed hop of 128" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_undecodable_meta_sidecar_exits_2(self, extracted, tmp_path, capsys):
        _, features = extracted
        copy = tmp_path / "f.csv"
        copy.write_bytes(features.read_bytes())
        meta = Path(str(copy) + ".meta.txt")
        model = self.model_for(features, tmp_path, feature=[415, -1, -1])
        meta.write_text("alpha=0.3\nsegment=full\n")
        assert self.evaluate(model, copy, tmp_path) == 0
        assert (tmp_path / "report.csv").read_text().splitlines()[-1].startswith("ALL,full,")
        meta.write_bytes(b"alpha=0.3\nsegment=\xfffull\n")
        assert self.evaluate(model, copy, tmp_path) == 2
        assert f"{meta}:2: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("probe", ["ragged_row", "bad_column_name", "non_finite", "label_7",
                                       "undecodable", "short_header", "ids_only_header",
                                       "blank_line", "bare_cr", "open_quote", "underscore",
                                       "label_+1", "label_0_0", "label_ 1"])
    def test_malformed_feature_csv_exits_2(self, extracted, tmp_path, capsys, probe):
        _, features = extracted
        lines = features.read_text().splitlines()
        fields = lines[2].split(",")
        if probe == "ragged_row":
            lines[2] = ",".join(fields[:-1])
        elif probe == "bad_column_name":
            lines[0] = lines[0].replace("js_f2_b10_d1", "js_fx_b10_d1")
        elif probe == "non_finite":
            lines[2] = ",".join(fields[:5] + ["nan"] + fields[6:])
        elif probe == "undecodable":
            lines[2] = "\x80" + lines[2]  # written as 0x80, a lone UTF-8 continuation byte
        elif probe == "short_header":
            lines = [line.split(",")[0] for line in lines]
        elif probe == "ids_only_header":
            lines = [",".join(line.split(",")[:3]) for line in lines]
        elif probe == "blank_line":
            lines[2] = ""
        elif probe == "bare_cr":
            lines[2] = ",".join(fields[:5]) + "\r" + ",".join(fields[5:])
        elif probe == "open_quote":
            lines[2] = '"' + lines[2]  # a record is one line: the quote does not run on
        elif probe == "underscore":
            lines[2] = ",".join(fields[:5] + ["1_0"] + fields[6:])  # float() reads it as 10
        else:
            # int() reads every label probe but 7 as 0 or 1
            lines[2] = ",".join(fields[:1] + [probe.removeprefix("label_")] + fields[2:])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        code = cli.main([
            "train", "--train-features", str(bad), "--dev-features", str(features),
            "--model-out", str(tmp_path / "m.json"), "--n-trees", "2", "--criterion", "gini",
        ])
        assert code == 2
        line = 1 if probe in ("bad_column_name", "short_header", "ids_only_header") else 3
        assert f"{bad}:{line}:" in capsys.readouterr().err

    def test_header_only_dev_file_exits_2_before_training(self, extracted, tmp_path,
                                                          monkeypatch):
        _, features = extracted
        dev = tmp_path / "dev.csv"
        dev.write_text(features.read_text().splitlines()[0] + "\n")
        grown = []
        grow = forest._grow

        def counted(*args):
            grown.append(args)
            return grow(*args)

        monkeypatch.setattr(forest, "_grow", counted)
        model = tmp_path / "m.json"
        code = cli.main(["train", "--train-features", str(features), "--dev-features", str(dev),
                         "--model-out", str(model)])
        assert code == 2
        assert grown == []
        assert not model.exists() and not (tmp_path / "m.json.grid.csv").exists()

    def test_header_only_features_file_exits_2_on_evaluate(self, extracted, tmp_path):
        _, features = extracted
        empty = tmp_path / "empty.csv"
        empty.write_text(features.read_text().splitlines()[0] + "\n")
        model = self.model_for(features, tmp_path)
        assert self.evaluate(model, empty, tmp_path) == 2
        assert not (tmp_path / "report.csv").exists()

    def model_for(self, features, tmp_path, **nodes):
        doc = three_node_doc()
        doc["layout_hash"] = layout_hash(feature_layout(FdConfig(), tuple(range(2, 15))))
        doc["trees"][0].update(nodes)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    def evaluate(self, model, features, tmp_path):
        return cli.main(["evaluate", "--model", str(model), "--features", str(features),
                         "--out", str(tmp_path / "report.csv")])

    def test_cyclic_model_exits_2_without_hanging(self, extracted, tmp_path):
        _, features = extracted
        # every row goes left at nodes 0 and 1, so a walk that follows 1 -> 0 never ends
        model = self.model_for(features, tmp_path, feature=[0, 0, -1], left=[1, 0, -1],
                               right=[2, 2, -1], threshold=[1e300, 1e300, 0.0])
        src = str(Path(fdspoof.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-m", "fdspoof.cli", "evaluate", "--model", str(model),
             "--features", str(features), "--out", str(tmp_path / "report.csv")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert "children must both be -1 or both lie in" in done.stderr

    def test_out_of_range_child_exits_2(self, extracted, tmp_path):
        _, features = extracted
        model = self.model_for(features, tmp_path, right=[7, -1, -1])
        assert self.evaluate(model, features, tmp_path) == 2

    def test_out_of_range_feature_exits_65(self, extracted, tmp_path):
        _, features = extracted
        model = self.model_for(features, tmp_path, feature=[416, -1, -1])
        assert self.evaluate(model, features, tmp_path) == 65
        model = self.model_for(features, tmp_path, feature=[415, -1, -1])
        assert self.evaluate(model, features, tmp_path) == 0

    def assert_asks_to_retrain(self, doc, features, tmp_path, capsys):
        doc["layout_hash"] = layout_hash(feature_layout(FdConfig(), tuple(range(2, 15))))
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert self.evaluate(model, features, tmp_path) == 65
        assert f"{doc['format']!r}; retrain" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_first_format_model_exits_65_asking_to_retrain(self, extracted, tmp_path, capsys):
        self.assert_asks_to_retrain(v1_doc(), extracted[1], tmp_path, capsys)

    def test_second_format_model_exits_65_asking_to_retrain(self, extracted, tmp_path, capsys):
        self.assert_asks_to_retrain(v2_doc(), extracted[1], tmp_path, capsys)

    @pytest.mark.parametrize("text", ["{not json", '{"format": "fdspoof-forest-v3"}'])
    def test_unreadable_model_exits_2(self, extracted, tmp_path, text):
        _, features = extracted
        model = tmp_path / "model.json"
        model.write_text(text)
        assert self.evaluate(model, features, tmp_path) == 2

    def test_missing_model_file_exits_2(self, extracted, tmp_path, capsys):
        _, features = extracted
        assert self.evaluate(tmp_path / "missing.json", features, tmp_path) == 2
        assert "FileNotFoundError" in capsys.readouterr().err

    def test_missing_audio_file_exits_2(self, tmp_path, capsys):
        code = cli.main(["segment-report", "--audio", str(tmp_path / "missing.wav"),
                         "--out", str(tmp_path / "windows.csv")])
        assert code == 2
        assert "FileNotFoundError" in capsys.readouterr().err
