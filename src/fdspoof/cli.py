"""Command-line entry point.

Commands: extract, train, evaluate, ablate, simulate, segment-report.
Configuration precedence is flags > config file (plain key=value lines) >
built-in defaults; every command writes a manifest with the fully resolved
configuration and the SHA-256 of its declared file inputs, so a run can be
reproduced byte-for-byte.

Exit codes: 0 success, 2 data error (including a file that cannot be read or
written), 64 usage error, 65 feature-layout mismatch, 70 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, asvspoof, audio_io, firsim, segmentation
from .cepstral import CepstralConfig
from .exceptions import FdspoofError, LayoutMismatch, ParseError, SettingError
from .fd_features import DIVERGENCE_NAMES, FdConfig, feature_layout
from .forest import CRITERIA, DEFAULT_GRID_TREES, grid_search, load_model, save_model
from .segmentation import EnergyConfig, SegmentKind

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64
EXIT_LAYOUT = 65
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_path: Path, command: str, config: dict,
                   inputs: list[Path], seed: int | None = None) -> None:
    doc = {"command": command, "version": __version__, "seed": seed, "config": config,
           "input_hashes": {str(p): _sha256(p) for p in inputs}}
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


def read_config_file(path: str | Path) -> dict[str, str]:
    """key=value settings of a config or `.meta.txt` file; blank and `#`
    lines are skipped, and a `\\r` inside a line is a ParseError."""
    with open(path, "rb") as fh:
        lines = list(asvspoof.decoded_lines(f"{path}:", fh))
    values = {}
    for lineno, line in lines:
        if "\r" in line.rstrip():
            raise ParseError(f"{path}:{lineno}: carriage return inside the line")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FdspoofError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _ints(text) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(","))


def _floats(text) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


def _seed(text: str) -> int:
    """argparse type of the seed flags; a ValueError or a negative seed is a
    usage error."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _parsed(name: str, parse, text):
    """`parse(text)`, with a ValueError turned into a SettingError naming `name`."""
    try:
        return parse(text)
    except ValueError as exc:
        raise SettingError(f"{name}: {exc}") from None


_CONFIGS = (EnergyConfig, CepstralConfig, FdConfig)


def _parser_for(default):
    if isinstance(default, tuple):
        return _ints if isinstance(default[0], int) else _floats
    return type(default)


# name -> (parser, default), from the fields of the configs, in flag order
_SETTINGS = {
    f.name: (_parser_for(f.default), f.default)
    for config in _CONFIGS for f in fields(config)
}


def resolve_settings(args: argparse.Namespace) -> dict:
    """flags > config file > defaults, returning plain python values.

    SettingError if a flag or config-file value does not parse, or if a
    config-file key names no setting.
    """
    file_values = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_SETTINGS))
    if unknown:
        raise SettingError(f"{args.config}: no setting named {unknown[0]!r}")
    resolved = {}
    for name, (parse, default) in _SETTINGS.items():
        flag = getattr(args, name)
        if flag is not None:
            resolved[name] = _parsed(name, parse, flag)
        elif name in file_values:
            resolved[name] = _parsed(name, parse, file_values[name])
        else:
            resolved[name] = default
    return resolved


def _configs_from(settings: dict) -> tuple[EnergyConfig, CepstralConfig, FdConfig]:
    return tuple(config(**{f.name: settings[f.name] for f in fields(config)})
                 for config in _CONFIGS)


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_extract(args) -> int:
    settings = resolve_settings(args)
    energy, cep, fd = _configs_from(settings)
    entries = asvspoof.parse_protocol(args.protocol)
    if args.balance_seed is not None:
        entries = asvspoof.balance_training(entries, args.balance_seed)
    kind = SegmentKind(args.segment)
    dataset, skips, capped = asvspoof.build_dataset(
        entries, args.audio_root, kind, cep, fd, energy, jobs=args.jobs
    )
    layout = feature_layout(fd, cep.frequencies)
    out = Path(args.out)
    asvspoof.write_feature_csv(out, dataset, layout)
    asvspoof.write_skip_log(Path(str(out) + ".skips.csv"), skips)
    meta = {name: _jsonable(settings[name]) for name in sorted(settings)}
    meta["segment"] = kind.value
    meta["layout_hash"] = dataset.layout_hash
    Path(str(out) + ".meta.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in sorted(meta.items()))
    )
    write_manifest(out, "extract", meta, [Path(args.protocol)], seed=args.balance_seed)
    fits = dataset.n_records * len(layout) // len(DIVERGENCE_NAMES)
    print(f"extract: {dataset.n_records} records, {len(skips)} skipped, "
          f"{capped} of {fits} fits hit the iteration cap -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    train_ds, _ = asvspoof.read_feature_csv(args.train_features)
    dev_ds, _ = asvspoof.read_feature_csv(args.dev_features)
    model, report = grid_search(train_ds, dev_ds, args.n_trees or DEFAULT_GRID_TREES,
                                args.criterion or CRITERIA, args.seed)
    out = Path(args.model_out)
    save_model(model, out)
    report_path = Path(args.grid_report) if args.grid_report else Path(str(out) + ".grid.csv")
    with open(report_path, "w") as fh:
        fh.write("n_trees,criterion,dev_accuracy\n")
        for cell in report:
            fh.write(f"{cell.n_trees},{cell.criterion},{cell.dev_accuracy!r}\n")
    write_manifest(out, "train",
                   {"grid": [[c.n_trees, c.criterion] for c in report], "seed": args.seed},
                   [Path(args.train_features), Path(args.dev_features)], seed=args.seed)
    best = model.config
    print(f"train: best n_trees={best.n_trees} criterion={best.criterion} -> {out}")
    return EXIT_OK


def _segment_label_for(features_path: str) -> str:
    meta_path = Path(str(features_path) + ".meta.txt")
    if meta_path.exists():
        return read_config_file(meta_path).get("segment", "unknown")
    return "unknown"


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    dataset, _ = asvspoof.read_feature_csv(args.features)
    if args.protocol:
        keys = {e.utterance_id: e.key for e in asvspoof.parse_protocol(args.protocol)}
        for record_id, label in zip(dataset.record_ids, dataset.labels):
            expected = keys.get(record_id)
            if expected is not None and (expected == "spoof") != bool(label):
                raise FdspoofError(f"label mismatch for {record_id} against protocol")
    config_label = f"{model.config.n_trees}x{model.config.criterion}"
    rows = asvspoof.evaluate_with_aggregate(
        model, dataset, _segment_label_for(args.features), config_label
    )
    asvspoof.write_report_csv(args.out, rows)
    write_manifest(Path(args.out), "evaluate", {"config": config_label},
                   [Path(args.model), Path(args.features)])
    aggregate = rows[-1]
    print(f"evaluate: aggregate accuracy {aggregate.accuracy:.3f} -> {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    data = {}
    pairs = {
        SegmentKind.SILENCE: (args.train_silence, args.dev_silence),
        SegmentKind.FULL: (args.train_full, args.dev_full),
        SegmentKind.VOICED: (args.train_voiced, args.dev_voiced),
    }
    inputs = []
    for kind, (train_path, dev_path) in pairs.items():
        if train_path and dev_path:
            train_ds, layout = asvspoof.read_feature_csv(train_path)
            dev_ds, _ = asvspoof.read_feature_csv(dev_path)
            if dev_ds.layout_hash != train_ds.layout_hash:  # both are cut by `layout`
                raise LayoutMismatch(f"{kind.value}: train layout {train_ds.layout_hash} "
                                     f"!= dev layout {dev_ds.layout_hash}")
            data[kind] = (train_ds, dev_ds, layout)
            inputs += [Path(train_path), Path(dev_path)]
    if not data:
        raise FdspoofError("ablate needs at least one segment's train/dev feature files")
    rows = asvspoof.ablation_run(data, seed=args.seed)
    asvspoof.write_report_csv(args.out, rows)
    write_manifest(Path(args.out), "ablate", {"seed": args.seed}, inputs, seed=args.seed)
    print(f"ablate: {len(rows)} rows -> {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    result = firsim.divergence_sweep(
        n_coeffs_list=_parsed("nc_list", _ints, args.nc_list),
        deltas=_parsed("deltas", _floats, args.deltas),
        frequencies=_parsed("frequencies", _ints, args.frequencies),
        n_trials=args.trials,
        signal_len=args.signal_len,
        seed=args.seed,
        jobs=args.jobs,
    )
    firsim.write_sweep_csv(args.out, result)
    write_manifest(Path(args.out), "simulate",
                   {"nc_list": args.nc_list, "deltas": args.deltas,
                    "frequencies": args.frequencies, "trials": args.trials,
                    "signal_len": args.signal_len},
                   [], seed=args.seed)
    fits = sum(row.n_trials for row in result.rows)
    print(f"simulate: {len(result.rows)} cells, "
          f"{result.capped_fits} of {fits} fits hit the iteration cap -> {args.out}")
    return EXIT_OK


def cmd_segment_report(args) -> int:
    config = EnergyConfig(window_len=args.window_len, threshold_db=args.threshold_db)
    rows = segmentation.window_labels(audio_io.load(args.audio), config)
    with open(args.out, "w") as fh:
        fh.write("window_index,start_sample,energy_db,label\n")
        for index, start, energy, label in rows:
            fh.write(f"{index},{start},{energy!r},{label}\n")
    write_manifest(Path(args.out), "segment-report", asdict(config), [Path(args.audio)])
    print(f"segment-report: {len(rows)} windows -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="fdspoof", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_settings(p):
        p.add_argument("--config", help="key=value config file")
        for name in _SETTINGS:
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)

    p = sub.add_parser("extract", help="extract divergence features for a corpus")
    p.add_argument("--protocol", required=True)
    p.add_argument("--audio-root", required=True)
    p.add_argument("--segment", required=True, choices=[k.value for k in SegmentKind])
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--balance-seed", type=_seed, default=None,
                   help="class-balance the protocol with this seed before extraction")
    add_settings(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="grid-search and train the random forest")
    p.add_argument("--train-features", required=True)
    p.add_argument("--dev-features", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--grid-report")
    p.add_argument("--n-trees", type=int, action="append")
    p.add_argument("--criterion", choices=CRITERIA, action="append")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="per-system one-vs-one evaluation report")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--protocol", help="optional cross-check of labels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="feature-subset ablation over segments")
    p.add_argument("--train-silence")
    p.add_argument("--dev-silence")
    p.add_argument("--train-full")
    p.add_argument("--dev-full")
    p.add_argument("--train-voiced")
    p.add_argument("--dev-voiced")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("simulate", help="FIR length vs divergence sweep")
    p.add_argument("--nc-list", default="8,16,32,64,128")
    p.add_argument("--deltas", default="0.008,0.01")
    p.add_argument("--frequencies", default="2,3")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--signal-len", type=int, default=2 ** 20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("segment-report", help="per-window energy/label CSV")
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window-len", type=int, default=EnergyConfig.window_len)
    p.add_argument("--threshold-db", type=float, default=EnergyConfig.threshold_db)
    p.set_defaults(func=cmd_segment_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version (0), or a usage error (64)
        return exc.code
    try:
        return args.func(args)
    except SettingError as exc:
        print(f"fdspoof: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LayoutMismatch as exc:
        print(f"fdspoof: layout mismatch: {exc}", file=sys.stderr)
        return EXIT_LAYOUT
    except (FdspoofError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"fdspoof: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"fdspoof: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
