"""Output checks: each returns True when the program's output is right."""

from __future__ import annotations

import csv
import math
from pathlib import Path

from inputs import FEATURE_NAMES


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def protocol_entries(path: Path) -> dict[str, tuple[str, str]]:
    """utterance id -> (system, key)."""
    out = {}
    for line in path.read_text().splitlines():
        _, utterance, _, system, key = line.split()[:5]
        out[utterance] = (system, key)
    return out


def meta_values(features_path: Path) -> dict[str, str]:
    meta = Path(str(features_path) + ".meta.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in meta if "=" in line)


def extract_output(fd_features, protocol: Path, out: Path) -> dict[str, bool]:
    """416 named columns, layout hash equal to the meta file, finite values,
    labels from the protocol, and kept rows plus skips equal to the number
    of protocol records."""
    rows = read_rows(out)
    header, body = rows[0], rows[1:]
    skips = read_rows(Path(str(out) + ".skips.csv"))[1:]
    expected = protocol_entries(protocol)
    names = header[3:]
    layout = tuple(fd_features.parse_feature_name(name) for name in names)
    kept = [row[0] for row in body]
    return {
        "extract.columns": header[:3] == ["record_id", "label", "system_id"]
        and tuple(names) == FEATURE_NAMES,
        "extract.layout_hash":
            meta_values(out).get("layout_hash") == fd_features.layout_hash(layout),
        "extract.finite": all(len(row) == len(header)
                              and all(math.isfinite(float(v)) for v in row[3:])
                              for row in body),
        "extract.accounting": len(kept) + len(skips) == len(expected)
        and sorted(kept + [s[0] for s in skips]) == sorted(expected),
        "extract.labels": all(
            row[0] in expected
            and row[1] == ("0" if expected[row[0]][1] == "bonafide" else "1")
            and row[2] == expected[row[0]][0]
            for row in body),
    }


def same_bytes(paths: list[Path]) -> bool:
    first = paths[0].read_bytes()
    return all(p.read_bytes() == first for p in paths[1:])


def extract_bytes(out: Path) -> tuple[bytes, bytes]:
    """The feature CSV and skip log; the manifest records `jobs` and is left out."""
    return out.read_bytes(), Path(str(out) + ".skips.csv").read_bytes()


def grid_report(path: Path, grid: list[tuple[int, str]]) -> bool:
    rows = read_rows(path)
    return (rows[0] == ["n_trees", "criterion", "dev_accuracy"]
            and [(int(r[0]), r[1]) for r in rows[1:]] == grid
            and all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:]))


def eval_report(path: Path, features: Path) -> bool:
    """One row per spoof system plus ALL, with the counts of the features file."""
    rows = read_rows(path)
    data = read_rows(features)[1:]
    systems = sorted({row[2] for row in data} - {"-"})
    n_bonafide = sum(row[1] == "0" for row in data)
    body = rows[1:]
    per_system = {s: sum(row[2] == s for row in data) for s in systems}
    return (rows[0][:3] == ["system", "segment", "config"]
            and [r[0] for r in body] == systems + ["ALL"]
            and all(int(r[5]) == n_bonafide for r in body)
            and all(int(r[6]) == per_system[r[0]] for r in body[:-1])
            and int(body[-1][6]) == len(data) - n_bonafide
            and all(0.0 <= float(r[3]) <= 1.0 for r in body))


def sweep_output(path: Path, n_coeffs: list[int], trials: int) -> bool:
    """One row per (length, step, frequency) cell with every trial reported."""
    rows = read_rows(path)
    body = rows[1:]
    return (rows[0] == ["n_coeffs", "delta", "frequency", "js_mean", "js_std", "n_trials"]
            and [int(r[0]) for r in body] == sorted(n_coeffs)
            and all(int(r[5]) == trials for r in body)
            and all(math.isfinite(float(r[3])) and math.isfinite(float(r[4])) for r in body))
