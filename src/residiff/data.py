"""Datasets, masking protocols, normalization and evaluation metrics.

Grid layout is time x node throughout: ``values[i, j]`` is node j at step i.
A :class:`MaskedGrid` carries two mask layers: ``observed_mask`` marks cells
the sensors recorded, ``eval_mask`` marks observed cells artificially hidden
for scoring.  Cells visible to models are ``observed & ~eval``; masking
never touches values, so eval cells keep their ground truth for metrics.

CSV formats (all with header rows):
  values.csv     time,<node>,...   one row per step; empty/NaN = unobserved
  mask files     time,<node>,...   0/1 entries, same shape as values
  adjacency.csv  node,<node>,...   symmetric nonnegative weights, zero diag;
                                   header and row labels are values' node ids
  training logs  step,loss_simple,loss_init,loss_joint   one row per step
  sweep tables   parameter,value,mae,mse,mre   one row per grid point

Tables are read through a text stream one record at a time, straight into
float64 arrays, so a load never holds a whole file as text.  The first bad
record is the one reported, by record: a ragged row, a cell that is not a
number, a field over the csv module's limit.  Bytes that are not UTF-8 are
reported by physical line, as soon as the stream's read buffer reaches them,
so they win over a record fault a few kilobytes before them.
"""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "MaskedGrid",
    "Graph",
    "NormStats",
    "load_csv",
    "load_values_csv",
    "save_values_csv",
    "save_mask_csv",
    "save_adjacency_csv",
    "save_log_csv",
    "save_sweep_csv",
    "save_json",
    "synth_generate",
    "SynthParams",
    "mask_point",
    "mask_block",
    "mask_node",
    "check_target_draw",
    "draw_point_targets",
    "draw_block_targets",
    "metrics",
    "normalize",
    "denormalize",
]


@dataclass
class Graph:
    """Weighted symmetric adjacency over the sensor nodes, zero diagonal."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataError("adjacency must be square")
        if not np.all(np.isfinite(a)):
            raise DataError("adjacency contains non-finite weights")
        if np.any(a < 0):
            raise DataError("adjacency weights must be nonnegative")
        if not np.array_equal(a, a.T):
            raise DataError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise DataError("adjacency diagonal must be zero")
        self.adjacency = a


@dataclass
class MaskedGrid:
    values: np.ndarray  # (L, N)
    observed_mask: np.ndarray  # bool (L, N)
    eval_mask: np.ndarray  # bool (L, N), subset of observed_mask
    timestamps: np.ndarray  # (L,) monotone
    node_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        obs = np.asarray(self.observed_mask, dtype=bool)
        ev = np.asarray(self.eval_mask, dtype=bool)
        if v.shape != obs.shape or v.shape != ev.shape:
            raise DataError("values and masks must share one shape")
        if np.any(ev & ~obs):
            raise DataError("eval mask must be a subset of the observed mask")
        if not np.all(np.isfinite(v[obs])):
            raise DataError("observed cells must be finite")
        if np.any(np.diff(np.asarray(self.timestamps)) <= 0):
            raise DataError("timestamps must be strictly increasing")
        self.values = v
        self.observed_mask = obs
        self.eval_mask = ev
        if not self.node_ids:
            self.node_ids = [f"n{j}" for j in range(v.shape[1])]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def visible_mask(self) -> np.ndarray:
        """Cells models may condition on: observed and not held out."""
        return self.observed_mask & ~self.eval_mask

    def with_eval(self, eval_mask: np.ndarray) -> "MaskedGrid":
        return replace(self, eval_mask=np.asarray(eval_mask, dtype=bool))


# --------------------------------------------------------------------------
# CSV I/O


def _reprs(x) -> list[str]:
    """repr of each entry of a 1-D array as a Python float."""
    return list(map(repr, np.asarray(x, dtype=np.float64).tolist()))


def _parse_timestamp(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        try:
            return np.datetime64(token).astype("datetime64[s]").astype(np.float64)
        except ValueError as exc:
            raise DataError(f"unparseable timestamp {token!r}") from exc


def _read_table(path, kind: str, blank: float | None = None, label=None):
    """Read a CSV table one record at a time: (header, cells, labels).

    ``cells`` holds the cells after each record's first as float64, one row
    per record; an empty cell reads as ``blank``, and without one it is an
    error like any other cell that is not a number.  ``labels`` is an array
    of each record's first cell through ``label``, or None without one.
    Only one record's text is held at a time; the first bad record is
    reported.
    """
    cells, labels = array("d"), []
    header, records = None, 0
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for records, row in enumerate(csv.reader(fh), start=1):
                if header is None:
                    header = row
                    continue
                if len(row) != len(header):
                    raise DataError(f"{kind} file {path}: ragged row at line {records}")
                if label is not None:
                    labels.append(label(row[0]))
                for tok in row[1:]:
                    tok = tok.strip()
                    try:
                        cells.append(blank if blank is not None and not tok else float(tok))
                    except ValueError:
                        raise DataError(f"{kind} file {path}: {tok!r} at line {records} "
                                        "is not a number") from None
    except csv.Error as exc:
        raise DataError(f"{kind} file {path}: {exc} at line {records + 1}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for line, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise DataError(f"{kind} file {path}: line {line} is not UTF-8 text") from None
        raise
    if records < 2 or not header:
        raise DataError(f"{kind} file {path} needs a header and data rows")
    grid = np.frombuffer(cells, dtype=np.float64).reshape(records - 1, len(header) - 1)
    return header, grid, (np.array(labels) if label is not None else None)


def load_csv(values_path, adjacency_path, mask_path=None,
             eval_mask_path=None) -> tuple[MaskedGrid, Graph]:
    """Load a dataset directory's CSV files into (MaskedGrid, Graph).

    Missing cells may be encoded as empty strings or NaN; a mask file, when
    given, must agree in shape and is intersected with value finiteness.
    """
    values, timestamps, node_ids = load_values_csv(values_path)
    L, n = values.shape
    observed = np.isfinite(values)
    if mask_path is not None:
        observed &= _load_mask(mask_path, (L, n))
    eval_mask = np.zeros((L, n), dtype=bool)
    if eval_mask_path is not None:
        eval_mask = _load_mask(eval_mask_path, (L, n)) & observed
    values = np.where(np.isfinite(values), values, 0.0)

    header, adj, rows = _read_table(adjacency_path, "adjacency", label=str)
    if adj.shape != (n, n):
        raise DataError(f"adjacency shape {adj.shape[0]}x{adj.shape[1]} "
                        f"does not match {n} nodes")
    for axis, ids in (("column", header[1:]), ("row", rows.tolist())):
        for k, (got, want) in enumerate(zip(ids, node_ids)):
            if got != want:
                raise DataError(f"adjacency file {adjacency_path}: {axis} {k + 1} "
                                f"is node {got!r} where values has {want!r}")

    grid = MaskedGrid(
        values=values,
        observed_mask=observed,
        eval_mask=eval_mask,
        timestamps=timestamps,
        node_ids=list(node_ids),
    )
    return grid, Graph(adj)


def load_values_csv(path):
    """Read a values table alone: (values, timestamps, node_ids); NaN kept."""
    header, values, timestamps = _read_table(path, "values", blank=np.nan,
                                             label=_parse_timestamp)
    return values, timestamps, header[1:]


def _load_mask(path, shape) -> np.ndarray:
    _, mask, _ = _read_table(path, "mask")
    if mask.shape != shape:
        raise DataError(f"mask shape {mask.shape} does not match values {shape}")
    bad = (mask != 0.0) & (mask != 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataError(f"mask file {path}: {float(mask[i, j])!r} at line {i + 2} "
                        "is not 0 or 1")
    return mask == 1.0


def _write_table(path, corner: str, columns, labels, rows):
    """A header row ``corner, *columns``, then each label and its row's cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([corner, *columns])
        writer.writerows([label, *row] for label, row in zip(labels, rows, strict=True))


def save_values_csv(path, values, timestamps, node_ids, observed_mask=None):
    """Write a values table; unobserved cells become empty fields.

    Floats are written with repr so a load/save round trip is bit exact.
    """
    rows = np.asarray(values, dtype=np.float64).tolist()
    if observed_mask is None:
        cells = (map(repr, row) for row in rows)
    else:
        shown = np.asarray(observed_mask, dtype=bool).tolist()
        cells = ([repr(x) if k else "" for x, k in zip(row, keep)]
                 for row, keep in zip(rows, shown, strict=True))
    _write_table(path, "time", node_ids, _reprs(timestamps), cells)


def save_mask_csv(path, mask, timestamps, node_ids):
    rows = np.asarray(mask, dtype=bool).astype(np.int64).tolist()
    _write_table(path, "time", node_ids, _reprs(timestamps), rows)


def save_adjacency_csv(path, graph: Graph, node_ids):
    rows = (map(repr, row) for row in graph.adjacency.tolist())
    _write_table(path, "node", node_ids, node_ids, rows)


def save_log_csv(path, log):
    """Write a training log's rows of (step, loss_simple, loss_init, loss_joint)."""
    _write_table(path, "step", ("loss_simple", "loss_init", "loss_joint"),
                 [row[0] for row in log], ([repr(x) for x in row[1:]] for row in log))


def save_sweep_csv(path, parameters, rows):
    """Write a sweep's rows of (value, mae, mse, mre), one per swept
    parameter, each as soon as ``rows`` yields it."""
    _write_table(path, "parameter", ("value", "mae", "mse", "mre"), parameters, rows)


def save_json(path, obj):
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SynthParams:
    """Desk-scale stand-in for sensor-network series.

    Nodes sit at random positions in the unit square; edges connect pairs
    within ``radius`` with Gaussian-kernel weights.  Each node's series is a
    daily sinusoid (phase drifts smoothly across space, so nearby nodes stay
    in phase) plus a node offset plus graph-filtered AR(1) noise.
    """

    steps_per_day: int = 24
    radius: float = 0.5
    kernel_scale: float = 0.25
    amp_low: float = 0.9
    amp_high: float = 1.4
    phase_spread: float = 0.2
    offset_scale: float = 1.0
    ar_coef: float = 0.65
    ar_scale: float = 0.35
    spatial_mix: float = 0.8


def synth_generate(seed: int, n_nodes: int, n_steps: int,
                   params: SynthParams | None = None) -> tuple[MaskedGrid, Graph]:
    """Deterministic synthetic dataset; fully observed."""
    params = params or SynthParams()
    if n_nodes < 2:
        raise ConfigError("need at least 2 nodes")
    if params.steps_per_day < 1:
        raise ConfigError(f"steps per day must be >= 1, got {params.steps_per_day}")
    if n_steps < params.steps_per_day:
        raise ConfigError("need at least one day of steps")
    rng = np.random.default_rng(seed)

    pos = rng.uniform(0.0, 1.0, size=(n_nodes, 2))
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    adj = np.exp(-0.5 * (dist / params.kernel_scale) ** 2)
    adj[dist > params.radius] = 0.0
    np.fill_diagonal(adj, 0.0)
    # connect isolated nodes to their nearest neighbor so every column has
    # at least one graph source
    for j in range(n_nodes):
        if adj[j].sum() == 0.0:
            order = np.argsort(dist[j])
            k = order[1]
            w = np.exp(-0.5 * (dist[j, k] / params.kernel_scale) ** 2)
            adj[j, k] = adj[k, j] = w

    row_sum = adj.sum(axis=1)
    mix = adj / row_sum[:, None]

    amp = rng.uniform(params.amp_low, params.amp_high, size=n_nodes)
    phase = 2.0 * np.pi * params.phase_spread * (pos[:, 0] + pos[:, 1]) / 2.0
    offset = rng.normal(0.0, params.offset_scale, size=n_nodes)

    t = np.arange(n_steps)
    angle = 2.0 * np.pi * t[:, None] / params.steps_per_day + phase[None, :]
    season = amp[None, :] * np.sin(angle)

    innov = rng.normal(0.0, params.ar_scale, size=(n_steps, n_nodes))
    innov = (1.0 - params.spatial_mix) * innov + params.spatial_mix * innov @ mix.T
    noise = np.zeros((n_steps, n_nodes))
    noise[0] = innov[0]
    for i in range(1, n_steps):
        noise[i] = params.ar_coef * noise[i - 1] + innov[i]

    values = offset[None, :] + season + noise
    grid = MaskedGrid(
        values=values,
        observed_mask=np.ones_like(values, dtype=bool),
        eval_mask=np.zeros_like(values, dtype=bool),
        timestamps=np.arange(n_steps, dtype=np.float64),
    )
    return grid, Graph(adj)


# --------------------------------------------------------------------------
# Masking protocols


def check_target_draw(protocol: str, p_point: float, p_block: float = 0.0,
                      len_range: tuple[int, int] = (1, 1)) -> None:
    """ConfigError unless a target draw's parameters lie in range.

    A ``point`` draw's rate lies in (0, 1); a ``block`` draw's point rate may
    be 0, so it and the block start rate lie in [0, 1).  Block lengths run
    from 1 <= min <= max hours.  The draws call this, and so does
    ``TrainConfig``, so that a bad value fails before any work starts.
    """
    if protocol == "point" and not 0.0 < p_point < 1.0:
        raise ConfigError(f"masking probability must be in (0, 1), got {p_point}")
    if not 0.0 <= p_point < 1.0 or not 0.0 <= p_block < 1.0:
        raise ConfigError("masking probabilities must be in [0, 1)")
    if len_range[0] < 1 or len_range[1] < len_range[0]:
        raise ConfigError(f"invalid block length range {len_range}")


def draw_point_targets(visible: np.ndarray, p: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Each visible cell independently becomes a target with probability p."""
    check_target_draw("point", p)
    return visible & (rng.random(visible.shape) < p)


def draw_block_targets(visible: np.ndarray, p_point: float, p_block: float,
                       len_range: tuple[int, int], steps_per_hour: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Point masking at p_point plus per-node contiguous temporal blocks.

    ``visible`` is (..., L, N): a grid or a batch of windows.  At each
    (step, node) a block starts with probability p_block and runs along the
    time axis of its own window; its length is uniform over ``len_range``
    hours converted via ``steps_per_hour``.
    """
    check_target_draw("block", p_point, p_block, len_range)
    target = (
        visible & (rng.random(visible.shape) < p_point)
        if p_point > 0
        else np.zeros_like(visible)
    )
    if p_block > 0:
        starts = rng.random(visible.shape) < p_block
        lengths = rng.integers(len_range[0], len_range[1] + 1, size=visible.shape)
        for *lead, i, j in zip(*np.nonzero(starts)):
            span = int(lengths[(*lead, i, j)]) * steps_per_hour
            cells = (*lead, slice(i, i + span), j)
            target[cells] |= visible[cells]
    return target


def mask_point(grid: MaskedGrid, p: float, seed: int) -> MaskedGrid:
    """Move each observed cell to the eval set independently with prob p."""
    rng = np.random.default_rng(seed)
    targets = draw_point_targets(grid.visible_mask, p, rng)
    return grid.with_eval(grid.eval_mask | targets)


def mask_block(grid: MaskedGrid, p_point: float = 0.05, p_block: float = 0.0015,
               len_range: tuple[int, int] = (1, 4), steps_per_hour: int = 1,
               seed: int = 0) -> MaskedGrid:
    rng = np.random.default_rng(seed)
    targets = draw_block_targets(
        grid.visible_mask, p_point, p_block, len_range, steps_per_hour, rng
    )
    return grid.with_eval(grid.eval_mask | targets)


def mask_node(grid: MaskedGrid, node_ids) -> MaskedGrid:
    """Hide the full observed series of the listed nodes (whole-node setting)."""
    cols = []
    for nid in node_ids:
        if isinstance(nid, str):
            if nid not in grid.node_ids:
                raise DataError(f"unknown node id {nid!r}")
            cols.append(grid.node_ids.index(nid))
        else:
            if not 0 <= int(nid) < grid.shape[1]:
                raise DataError(f"node index {nid} out of range")
            cols.append(int(nid))
    eval_mask = grid.eval_mask.copy()
    for j in cols:
        eval_mask[:, j] |= grid.observed_mask[:, j]
    if np.all(eval_mask | ~grid.observed_mask):
        raise DataError("masking all nodes leaves nothing to condition on")
    return grid.with_eval(eval_mask)


# --------------------------------------------------------------------------
# Metrics and normalization


def metrics(x_hat: np.ndarray, x: np.ndarray, eval_mask: np.ndarray) -> dict:
    """MAE, MSE and MRE over evaluation cells.

    MRE is the ratio of summed absolute errors to summed absolute truths
    (the elementwise form divides by zero on zero-valued truths).  An
    evaluation cell without a finite imputed value is a DataError, not a
    NaN score.
    """
    mask = np.asarray(eval_mask, dtype=bool)
    if not mask.any():
        raise DataError("empty evaluation mask")
    imputed = np.asarray(x_hat)[mask]
    missing = int(np.count_nonzero(~np.isfinite(imputed)))
    if missing:
        raise DataError(f"{missing} of {imputed.size} evaluation cells hold "
                        "no finite imputed value")
    err = np.asarray(x)[mask] - imputed
    denom = np.abs(np.asarray(x)[mask]).sum()
    if denom == 0.0:
        raise DataError("MRE undefined: evaluation truths sum to zero")
    return {
        "mae": float(np.abs(err).mean()),
        "mse": float((err**2).mean()),
        "mre": float(np.abs(err).sum() / denom),
    }


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray  # (N,)
    std: np.ndarray  # (N,)


def normalize(grid: MaskedGrid, stats: NormStats | None = None) -> tuple[MaskedGrid, NormStats]:
    """Per-node z-score; unobserved cells become 0.

    Without ``stats`` they are taken from the visible cells, and degenerate
    stds fall back to 1.
    """
    if stats is None:
        vis = grid.visible_mask
        n = grid.shape[1]
        stats = NormStats(mean=np.zeros(n), std=np.ones(n))
        for j in range(n):
            col = grid.values[vis[:, j], j]
            if col.size:
                stats.mean[j] = col.mean()
            if col.size >= 2:
                s = col.std()
                if s > 1e-12:
                    stats.std[j] = s
    values = (grid.values - stats.mean[None, :]) / stats.std[None, :]
    values = np.where(grid.observed_mask, values, 0.0)
    return replace(grid, values=values), stats


def denormalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    return np.asarray(values) * stats.std[None, :] + stats.mean[None, :]
