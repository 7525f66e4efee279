"""Compare two `spinamp run --out` trees, experiment by experiment.

    python tools/compare_runs.py A B

An experiment's run is a directory holding a manifest.json: A itself after a
run of one experiment, A/<name> after a run of several. For every run found
in either tree, both sides must list the same output files with the same
sha256, hashed from the files themselves rather than read from the
manifests; the same config_text apart from the [output] directory line; and
the same stage names. For a CSV whose bytes differ, each column's largest
relative change |b - a| / max(|a|, |b|) is printed, 0 where both are 0 and
inf where either is not finite; a changed column gets a second line, its
largest |b - a| over the column's largest |a|, so that a change to entries
near zero reads against the column's scale. The exit status is 0 when everything
matches, 1 when anything differs and 2 when A or B is not given. Standard
library and numpy only.
"""

from __future__ import annotations

import csv
import difflib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np


def manifests(root: Path) -> dict[Path, dict]:
    """Each run's manifest under root, by the run's directory relative to root."""
    return {
        path.parent.relative_to(root): json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("manifest.json"))
    }


def config_lines(manifest: dict) -> list[str]:
    return [line for line in manifest["config_text"].splitlines() if not line.startswith("directory = ")]


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def column_change(col_a: list[str], col_b: list[str]) -> tuple[float, float]:
    """Over the entries that differ as text: the largest |b - a| / max(|a|, |b|),
    and the largest |b - a| relative to the largest |a| of the whole column."""
    a_all = np.array(col_a, dtype=float)
    differ = np.array([p != q for p, q in zip(col_a, col_b)])
    a = a_all[differ]
    b = np.array(col_b, dtype=float)[differ]
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(b - a) / np.maximum(np.abs(a), np.abs(b))
        scaled = np.abs(b - a).max(initial=0.0) / np.abs(a_all).max(initial=0.0)
    return float(np.nan_to_num(rel, nan=np.inf).max(initial=0.0)), float(np.nan_to_num(scaled, nan=np.inf))


def column_changes(path_a: Path, path_b: Path) -> list[str]:
    """Lines for each column of two CSVs: its largest relative change and,
    for a changed column, its largest change scaled by the column's largest |a|."""
    head_a, rows_a = read_csv(path_a)
    head_b, rows_b = read_csv(path_b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"header {head_a} vs {head_b}, {len(rows_a)} rows vs {len(rows_b)}"]
    if any(len(row) != len(head_a) for row in rows_a + rows_b):
        return ["a row is not as wide as the header"]
    lines = []
    for j, name in enumerate(head_a):
        col_a = [row[j] for row in rows_a]
        col_b = [row[j] for row in rows_b]
        if col_a == col_b:
            lines.append(f"{name}: unchanged")
            continue
        try:
            rel, scaled = column_change(col_a, col_b)
        except ValueError:
            changed = sum(p != q for p, q in zip(col_a, col_b))
            lines.append(f"{name}: text differs in {changed} of {len(col_a)} rows")
            continue
        lines.append(f"{name}: largest relative change {rel:.2e}")
        lines.append(f"{name}: largest change {scaled:.2e} of the column's largest |a|")
    return lines


def compare(a: Path, b: Path) -> tuple[list[str], int, int]:
    """(every difference between the runs under a and b, one line each;
    the runs and the files compared)."""
    runs_a, runs_b = manifests(a), manifests(b)
    if not runs_a and not runs_b:
        return [f"no manifest.json under {a} or {b}"], 0, 0
    problems = []
    runs = files = 0
    for run in sorted(runs_a.keys() | runs_b.keys()):
        if run not in runs_a or run not in runs_b:
            here, there = (a, b) if run in runs_a else (b, a)
            problems.append(f"{here / run}: no run to match in {there}")
            continue
        runs += 1
        ma, mb = runs_a[run], runs_b[run]
        label = ma["experiment"]
        if config_lines(ma) != config_lines(mb):
            diff = [line for line in difflib.ndiff(config_lines(ma), config_lines(mb)) if line[:1] in "-+"]
            problems.append(f"{label}: config_text differs: {diff}")
        stages_a = [s["name"] for s in ma["stages"]]
        stages_b = [s["name"] for s in mb["stages"]]
        if stages_a != stages_b:
            problems.append(f"{label}: stages {stages_a} vs {stages_b}")
        paths_a = [o["path"] for o in ma["outputs"]]
        paths_b = [o["path"] for o in mb["outputs"]]
        if paths_a != paths_b:
            problems.append(f"{label}: outputs {paths_a} vs {paths_b}")
        for path in (p for p in paths_a if p in paths_b):
            files += 1
            file_a, file_b = a / run / path, b / run / path
            da, db = digest(file_a), digest(file_b)
            if da is None or db is None:
                problems.append(f"{run / path}: missing in {file_a.parent if da is None else file_b.parent}")
            elif da != db:
                problems.append(f"{run / path}: sha256 differs")
                if path.endswith(".csv"):
                    problems.extend(f"  {line}" for line in column_changes(file_a, file_b))
    return problems, runs, files


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python tools/compare_runs.py A B", file=sys.stderr)
        return 2
    a, b = Path(argv[1]), Path(argv[2])
    problems, runs, files = compare(a, b)
    for line in problems:
        print(line)
    if problems:
        print(f"{a} and {b} differ")
        return 1
    print(f"{a} and {b} match (runs: {runs}, files: {files})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
