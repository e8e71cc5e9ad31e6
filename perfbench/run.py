"""residiff benchmark: times whole CLI commands the way a user runs them.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark sets up three replicates of
the workload's inputs (synthetic CSVs and, for the impute workloads, a
trained checkpoint), each in a fresh process, and reports the median set-up
time as ``setup_s``.  It then runs the workload's command in process, through
``residiff.cli.main``, cycling through the replicates until ``--seconds``
would be exceeded (at least four commands), checks every command's outputs,
and reports end-to-end metrics.  With ``--trace 1`` it sets up one replicate
and alternates untraced and traced commands; the traced ones record spans
around the program's public functions and yield the per-layer metrics.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  The line before it holds the details:
environment, repetition counts, output digests and any problems found; the
same details and, for traced runs, the spans are written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import env

env.pin_blas_threads()  # before anything below imports numpy

import checks  # noqa: E402
import selfcheck  # noqa: E402
import spans  # noqa: E402
from workloads import (DATA_STEPS, END_TO_END, N_WINDOW, WORKLOADS,  # noqa: E402
                       derive_seed, rough_fill_mae)

# Set-ups per untraced run, one per replicate; setup_s is their median.  At
# least one command more than this runs whatever --seconds says, so every
# replicate is scored and one command repeats an earlier one byte for byte.
REPLICATES = 3
MIN_TRACE_REPS = 2    # of each kind, untraced and traced, in a traced run
HARD_LIMIT_S = 120    # no command starts if it would end after this


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _log_shape(train_argv) -> tuple[int, int]:
    """(epochs, steps per epoch) of the train_log.csv a train command writes."""
    batches = -(-(DATA_STEPS // N_WINDOW) // int(_flag(train_argv, "--batch-size")))
    return int(_flag(train_argv, "--epochs")), batches


class Run:
    """One workload at one seed: its replicates' inputs, its commands and
    their tallies.

    Replicate r has its own synthetic world, training seed, mask seed and
    sample seed.  Timed commands cycle through the replicates, so the
    quality metrics average over several worlds and checkpoints while every
    command does the same amount of work.
    """

    def __init__(self, workload, seed: int, directory: Path):
        self.w = workload
        self.seed = seed
        self.dir = directory
        self.replicates = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: dict[int, dict] = {}
        self.scores: dict[int, dict] = {}

    def inputs(self, r: int) -> Path:
        return self.dir / f"setup{r}"

    def out(self, r: int) -> Path:
        return self.dir / f"out{r}"

    # -- set-up ------------------------------------------------------------
    def set_up(self, replicates: int) -> list[float]:
        script = Path(__file__).with_name("workloads.py")
        seconds = []
        for r in range(replicates):
            started = perf_counter()
            subprocess.run([sys.executable, "-B", str(script), self.w.name, str(self.seed), str(r),
                            str(self.inputs(r))], check=True)
            seconds.append(perf_counter() - started)
            self.scores[r] = {}
        self.replicates = replicates
        return seconds

    # -- commands ----------------------------------------------------------
    def argv(self, r: int) -> list[str]:
        inputs = self.inputs(r)
        if self.w.trains:
            return [*self.w.command, "--data", str(inputs / "data"), "--out", str(self.out(r)),
                    "--seed", str(derive_seed(self.seed, r, "train"))]
        return [*self.w.command, "--data", str(inputs / "slice"),
                "--checkpoint", str(inputs / "checkpoint" / "checkpoint.bin"),
                "--out", str(self.out(r)), "--seed", str(derive_seed(self.seed, r, "sample"))]

    def _invoke(self, argv, tracer=None) -> tuple[float, list[str]]:
        from residiff import cli

        shutil.rmtree(_flag(argv, "--out"), ignore_errors=True)
        gc.collect()
        with spans.tracing(tracer) if tracer else nullcontext():
            started = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                code = "exception"
            elapsed = perf_counter() - started
        self.attempted += 1
        return elapsed, ([] if code == 0 else [f"residiff {argv[0]} exited {code}"])

    def timed_command(self, tracer=None) -> float:
        """Run the next command in the replicate cycle, check it, return its time."""
        r = self.attempted % self.replicates
        elapsed, problems = self._invoke(self.argv(r), tracer)
        if not problems:
            problems += self._check(r)
            tree = checks.tree_digests(self.out(r))
            if self.first_outputs.setdefault(r, tree) != tree:
                problems.append(f"replicate {r}: outputs differ from its first command's")
        self._tally(problems)
        return elapsed

    def _check(self, r: int) -> list[str]:
        if self.w.trains:
            problems, scores = checks.check_train(self.out(r), *_log_shape(self.w.command))
        else:
            problems, scores = checks.check_impute(self.out(r), self.inputs(r) / "slice",
                                                   self.w.samples)
            if self.w.beats_rough_fill and scores:
                rough = json.loads((self.inputs(r) / "reference.json").read_text())["rough_fill_mae"]
                if not scores["mae"] < rough:
                    problems.append(f"mae {scores['mae']} not below the rough fill's {rough}")
        self.scores[r].update(scores)
        return problems

    def _tally(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems

    def score_remaining(self) -> None:
        """Scores a workload's command does not produce itself, untimed.

        For the train workload, mae is that of the rough fill of each
        checkpoint it wrote, on the held-out cells of the slice.  The fill is
        a point forecast, whose CRPS equals its absolute error.  (An impute
        with these 8-epoch checkpoints scores a barely trained denoiser, and
        its MAE spread about 0.2 across seeds even over three replicates.)
        For the impute workloads, train_loss is the last-epoch loss of each
        set-up training.
        """
        for r in range(self.replicates):
            if self.w.trains:
                mae = rough_fill_mae(self.inputs(r) / "slice", self.out(r) / "checkpoint.bin")
                self.scores[r].update(mae=mae, crps=mae)
            else:
                problems, scores = checks.check_train(self.inputs(r) / "checkpoint",
                                                      *_log_shape(self.w.checkpoint))
                self.problems += problems
                self.scores[r].update(scores)

    def quality(self) -> dict[str, float]:
        """Each score averaged over the replicates."""
        names = set.intersection(*(set(s) for s in self.scores.values()))
        return {n: statistics.fmean(s[n] for s in self.scores.values()) for n in sorted(names)}

    def digests(self) -> dict[str, str]:
        """sha256 of the files that show "same behaviour", for replicate 0."""
        return {name: checks.sha256(d / name) for name in checks.DIGESTED
                for d in (self.out(0), self.inputs(0) / "checkpoint") if (d / name).is_file()}


def _keep_going(times: list[float], started: float, seconds: float, minimum: int) -> bool:
    if not times:
        return True
    ends_at = perf_counter() - started + times[-1]
    if ends_at > HARD_LIMIT_S:
        return False
    return len(times) < minimum or ends_at <= seconds


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics."""
    setup_times = run.set_up(REPLICATES)
    times: list[float] = []
    started = perf_counter()
    while _keep_going(times, started, seconds, REPLICATES + 1):
        times.append(run.timed_command())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    run.score_remaining()
    values = {"command_s": statistics.median(times), "setup_s": statistics.median(setup_times),
              "peak_rss_mb": peak_rss_mb, **run.quality()}
    details = {"command_reps": len(times), "command_times_s": times,
               "setup_reps": len(setup_times), "setup_times_s": setup_times,
               "scores_by_replicate": run.scores}
    return values, details


def measure_traced(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Traced run: per-layer metrics and the tracing overhead."""
    run.set_up(1)
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    in_order: list[float] = []
    per_command = []
    started = perf_counter()
    while _keep_going(in_order, started, seconds, 2 * MIN_TRACE_REPS):
        if len(plain) <= len(traced):
            elapsed = run.timed_command()
            plain.append(elapsed)
        else:
            tracer.command = len(traced)
            elapsed = run.timed_command(tracer)
            traced.append(elapsed)
            per_command.append(spans.command_metrics(tracer, tracer.command))
        in_order.append(elapsed)
    tracer.write(spans_path)
    values, unsteady = spans.summarise(per_command)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    run.problems += [f"count did not repeat: {u}" for u in unsteady]
    details = {"untraced_times_s": plain, "traced_times_s": traced,
               "counts_repeat": not unsteady, "spans_file": str(spans_path.relative_to(env.ROOT))}
    return values, details


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results = env.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    directory = env.WORK / f"{tag}-{os.getpid()}"
    run = Run(workload, args.seed, directory)
    run.problems += selfcheck.problems()
    try:
        if args.trace:
            values, details = measure_traced(run, args.seconds, results / f"{tag}.spans.csv")
            table = spans.PER_LAYER
        else:
            values, details = measure(run, args.seconds)
            table = END_TO_END
        details["digests"] = run.digests()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    missing = [row[0] for row in table if row[0] not in values]
    run.problems += [f"metric not measured: {m}" for m in missing]
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit, *_ in table}
    details = {"workload": workload.name, "command": ["residiff", *run.argv(0)],
               "environment": env.record(args.seed), **details,
               "problems": run.problems}
    (results / f"{tag}.json").write_text(json.dumps({"metrics": metrics, **details}, indent=1))
    for name, m in metrics.items():
        print(f"{workload.name:18s} {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(details))
    print(json.dumps({"correct": not run.problems and run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, "-B", __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        env.use_checkout_sources()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
