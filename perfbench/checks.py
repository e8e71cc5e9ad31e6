"""Output checks, scores and digests for the benchmark's CLI commands.

Each ``check_*`` function returns a list of problems; an empty list means the
command's outputs passed.  The benchmark parses the CSV files itself rather
than through the program, so a broken reader in the program cannot hide a
broken writer.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

DIGESTED = ("checkpoint.bin", "train_log.csv", "median.csv", "q05.csv", "q95.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory``, by relative path."""
    directory = Path(directory)
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


def read_table(path: Path) -> np.ndarray:
    """A ``time,<node>,...`` CSV as a float array without the time column;
    empty fields become NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(tok) if tok.strip() else np.nan for tok in row[1:]]
                     for row in rows])


def crps(samples: np.ndarray, truth: np.ndarray) -> float:
    """Sample CRPS averaged over cells: mean|x_s - y| - 1/2 mean|x_s - x_s'|.

    ``samples`` is (S, M) and ``truth`` (M,).  The pairwise term uses the
    sorted-sample identity sum_{s,s'} |x_s - x_s'| = 2 sum_i (2i - S + 1) x_(i).
    """
    s_count = samples.shape[0]
    ordered = np.sort(samples, axis=0)
    weights = 2.0 * np.arange(s_count) - s_count + 1.0
    spread = 2.0 * (weights[:, None] * ordered).sum(axis=0) / s_count**2
    per_cell = np.abs(samples - truth[None, :]).mean(axis=0) - 0.5 * spread
    return float(per_cell.mean())


def _masks(dataset: Path):
    observed = read_table(dataset / "observed_mask.csv") != 0
    held_out = read_table(dataset / "eval_mask.csv") != 0
    return observed & ~held_out, held_out & observed


def check_impute(out: Path, dataset: Path, samples: int) -> tuple[list[str], dict]:
    """Check an impute output directory against its input dataset.

    Returns the problems and the scores (mae from summary.json, crps from the
    sample files over the held-out cells).
    """
    problems: list[str] = []
    truth = read_table(dataset / "values.csv")
    visible, held_out = _masks(dataset)
    grids = {}
    names = ["median", "q05", "q95"] + [f"sample_{s:03d}" for s in range(samples)]
    for name in names:
        path = out / f"{name}.csv"
        if not path.is_file():
            problems.append(f"{name}.csv missing")
            continue
        grid = read_table(path)
        if grid.shape != truth.shape:
            problems.append(f"{name}.csv shape {grid.shape} != input {truth.shape}")
        elif not np.isfinite(grid).all():
            problems.append(f"{name}.csv has non-finite cells")
        else:
            grids[name] = grid
    if problems:
        return problems, {}
    if not np.array_equal(grids["median"][visible], truth[visible]):
        problems.append("median.csv differs from values.csv on visible cells")
    if not (grids["q05"] <= grids["median"]).all() or not (grids["median"] <= grids["q95"]).all():
        problems.append("q05 <= median <= q95 fails in some cell")
    stack = np.stack([grids[f"sample_{s:03d}"][held_out] for s in range(samples)])
    summary = json.loads((out / "summary.json").read_text())
    scores = {"mae": float(summary["metrics"]["mae"]), "crps": crps(stack, truth[held_out])}
    if not all(np.isfinite(v) and v > 0 for v in scores.values()):
        problems.append(f"scores not finite and positive: {scores}")
    return problems, scores


def read_train_log(out: Path) -> np.ndarray:
    """train_log.csv as an array of (step, loss_simple, loss_init, loss_joint)."""
    with open(out / "train_log.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(tok) for tok in row] for row in rows]).reshape(-1, 4)


def check_train(out: Path, epochs: int, steps_per_epoch: int) -> tuple[list[str], dict]:
    """Check a train output directory; score the mean joint loss of the last epoch."""
    problems: list[str] = []
    if not (out / "checkpoint.bin").is_file() or (out / "checkpoint.bin").stat().st_size == 0:
        problems.append("checkpoint.bin missing or empty")
    log = read_train_log(out)
    if log.shape[0] != epochs * steps_per_epoch:
        problems.append(f"train_log.csv has {log.shape[0]} steps, "
                        f"expected {epochs} x {steps_per_epoch}")
    if not np.isfinite(log).all():
        problems.append("train_log.csv has non-finite losses")
    if problems:
        return problems, {}
    return problems, {"train_loss": float(log[-steps_per_epoch:, 3].mean())}
