"""Spans around the program's public functions, recorded from outside it.

``tracing(tracer)`` replaces each traced function with a wrapper for the
duration of a ``with`` block and restores the originals afterwards.  A name
is patched in the namespace its caller looks it up in: ``residiff.cli``
imports ``train_joint``, ``save_checkpoint`` and ``load_checkpoint`` by name,
``residiff.sampler`` the posterior means and ``residiff.trainer``
``q_sample``, so those are patched there.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import csv
import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from math import prod
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, COMMAND = range(5)

AUTODIFF_OPS = ("matmul", "softmax", "add", "mul", "reshape", "tanh", "einsum2", "transpose")

# (metric, unit, better); the traced run reports exactly these.
PER_LAYER = [
    ("cli.main.self_ms", "ms", "lower"),
    ("data.load_csv.ms", "ms", "lower"),
    ("data.save_values_csv.ms", "ms", "lower"),
    ("data.save_values_csv.calls", "count", "lower"),
    ("trainer.train_joint.ms", "ms", "lower"),
    ("trainer.pretrain_initial.ms", "ms", "lower"),
    ("trainer.Adam.step.ms", "ms", "lower"),
    ("trainer.Adam.step.calls", "count", "lower"),
    ("trainer.save_checkpoint.ms", "ms", "lower"),
    ("trainer.load_checkpoint.ms", "ms", "lower"),
    ("initial.trainable_fill.ms", "ms", "lower"),
    ("initial.trainable_fill.calls", "count", "lower"),
    ("initial.impute_initial.ms", "ms", "lower"),
    ("initial.init_loss.ms", "ms", "lower"),
    ("forward.q_sample.ms", "ms", "lower"),
    ("forward.posterior_mean.ms", "ms", "lower"),
    ("forward.posterior_mean.calls", "count", "lower"),
    ("denoiser.forward.ms", "ms", "lower"),
    ("denoiser.forward.self_ms", "ms", "lower"),
    ("denoiser.forward.calls", "count", "lower"),
    ("denoiser.forward.windows", "count", "lower"),
    ("denoiser.forward.ms_per_window", "ms", "lower"),
    *[(f"autodiff.{op}.{q}", unit, "lower")
      for op in AUTODIFF_OPS for q, unit in (("ms", "ms"), ("calls", "count"))],
    ("autodiff.matmul.gflop", "gflop_computed", "lower"),
    ("autodiff.matmul.gflop_per_s", "gflop/s", "higher"),
    ("autodiff.softmax.mb", "MB_computed", "lower"),
    ("autodiff.backward.ms", "ms", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.tape_ops", "count", "lower"),
    ("sampler.impute.ms", "ms", "lower"),
    ("sampler.self_ms", "ms", "lower"),
    ("sampler.accelerated_step.ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics that count work; they must repeat exactly from command to command.
COUNTS = {name for name, unit, _ in PER_LAYER if unit in ("count", "gflop_computed", "MB_computed")}

# span name -> metric holding its self time
_SELF_TIMES = {"cli.main": "cli.main.self_ms", "denoiser.forward": "denoiser.forward.self_ms",
               "sampler.impute": "sampler.self_ms"}


class Tracer:
    """Spans as [name, start, end, parent index, command id], plus per-command
    quantities (windows, tape ops, computed flops and bytes)."""

    def __init__(self):
        self.spans: list[list] = []
        self.quantities: dict = defaultdict(float)
        self.command = None
        self._open: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.quantities[(self.command, key)] += amount

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, self.command]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._open.pop()
            if measure is not None:
                measure(self, args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_s", "end_s", "parent", "command"])
            writer.writerows(self.spans)


def _shape(x):
    return getattr(x, "shape", ())


def _count_tape(tracer, args, kwargs, result):
    from residiff.autodiff import Tensor

    if isinstance(result, Tensor):
        tracer.add("autodiff.tape_ops", 1)


def _count_matmul(tracer, args, kwargs, result):
    _count_tape(tracer, args, kwargs, result)
    a, b = _shape(args[0]), _shape(args[1])
    a2 = (1,) + a if len(a) == 1 else a
    b2 = b + (1,) if len(b) == 1 else b
    batch = prod(_broadcast(a2[:-2], b2[:-2]))
    tracer.add("autodiff.matmul.gflop", 2.0 * batch * a2[-2] * a2[-1] * b2[-1] / 1e9)


def _broadcast(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    a, b = (1,) * (n - len(a)) + a, (1,) * (n - len(b)) + b
    return tuple(max(x, y) for x, y in zip(a, b))


def _count_softmax(tracer, args, kwargs, result):
    _count_tape(tracer, args, kwargs, result)
    # read the scores once, write the probabilities once, float64
    tracer.add("autodiff.softmax.mb", 2 * 8 * prod(_shape(args[0])) / 1e6)


def _count_windows(tracer, args, kwargs, result):
    z_t = args[2] if len(args) > 2 else kwargs["z_t"]
    shape = _shape(z_t)
    tracer.add("denoiser.forward.windows", shape[0] if len(shape) == 3 else 1)


def _patch_points():
    """(owner, attribute, span name, measure) for every traced function."""
    from residiff import autodiff, cli, data, denoiser, initial, sampler, trainer

    points = [
        (cli, "main", "cli.main", None),
        (data, "load_csv", "data.load_csv", None),
        (data, "save_values_csv", "data.save_values_csv", None),
        (cli, "train_joint", "trainer.train_joint", None),
        (trainer, "pretrain_initial", "trainer.pretrain_initial", None),
        (trainer.Adam, "step", "trainer.Adam.step", None),
        (cli, "save_checkpoint", "trainer.save_checkpoint", None),
        (cli, "load_checkpoint", "trainer.load_checkpoint", None),
        (initial, "trainable_fill", "initial.trainable_fill", None),
        (initial, "impute_initial", "initial.impute_initial", None),
        (initial, "init_loss", "initial.init_loss", None),
        (trainer, "q_sample", "forward.q_sample", None),
        (sampler, "posterior_mean_eps", "forward.posterior_mean", None),
        (sampler, "posterior_mean_z0", "forward.posterior_mean", None),
        (denoiser, "forward", "denoiser.forward", _count_windows),
        (autodiff.Tensor, "backward", "autodiff.backward", None),
        (sampler, "ancestral_impute", "sampler.impute", None),
        (sampler, "accelerated_impute", "sampler.impute", None),
        (sampler, "accelerated_step", "sampler.accelerated_step", None),
    ]
    measures = {"matmul": _count_matmul, "softmax": _count_softmax}
    for op in autodiff.__all__:
        if op not in ("Tensor", "value_of"):
            points.append((autodiff, op, f"autodiff.{op}", measures.get(op, _count_tape)))
    return points


@contextmanager
def tracing(tracer: Tracer):
    """Route every traced function through ``tracer`` inside the block."""
    saved = []
    try:
        for owner, attr, name, measure in _patch_points():
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, measure))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] not covered by any child interval.

    Children may nest or overlap each other; each is clipped to the parent.
    """
    covered = 0.0
    run_start = run_end = None
    for lo, hi in sorted((max(s, start), min(e, end)) for s, e in children):
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def command_metrics(tracer: Tracer, command) -> dict[str, float]:
    """Per-layer metrics of one traced command, except trace.overhead_s."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[COMMAND] == command]
    children = defaultdict(list)
    for _, s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    total_ms: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    self_ms: dict = defaultdict(float)
    for i, s in spans:
        name = s[NAME]
        total_ms[name] += 1e3 * (s[END] - s[START])
        calls[name] += 1
        if name in _SELF_TIMES:
            self_ms[_SELF_TIMES[name]] += 1e3 * self_time(s[START], s[END], children[i])
    q = {key: v for (cmd, key), v in tracer.quantities.items() if cmd == command}
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in _SELF_TIMES.values():
            out[metric] = self_ms[metric]
        elif metric.endswith(".ms"):
            out[metric] = total_ms[metric[: -len(".ms")]]
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
    out["denoiser.forward.windows"] = q.get("denoiser.forward.windows", 0.0)
    out["denoiser.forward.ms_per_window"] = (
        out["denoiser.forward.ms"] / out["denoiser.forward.windows"]
        if out["denoiser.forward.windows"] else 0.0)
    out["autodiff.tape_ops"] = q.get("autodiff.tape_ops", 0.0)
    out["autodiff.matmul.gflop"] = q.get("autodiff.matmul.gflop", 0.0)
    out["autodiff.softmax.mb"] = q.get("autodiff.softmax.mb", 0.0)
    matmul_s = out["autodiff.matmul.ms"] / 1e3
    out["autodiff.matmul.gflop_per_s"] = out["autodiff.matmul.gflop"] / matmul_s if matmul_s else 0.0
    return out


def summarise(per_command: list[dict]) -> tuple[dict, list[str]]:
    """Median of each metric over the traced commands, and the counts that did
    not repeat exactly from one command to the next."""
    merged = {}
    unsteady = []
    for metric in per_command[0]:
        values = [m[metric] for m in per_command]
        if metric in COUNTS and len(set(values)) > 1:
            unsteady.append(f"{metric}: {values}")
        merged[metric] = statistics.median(values)
    return merged, unsteady
