"""Checks of the benchmark's own helpers; every run makes them first.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import sys

import numpy as np

import checks
import env
import spans
import workloads


def _crps_problems() -> list[str]:
    problems = []
    x, y = np.array([[1.5, -2.0]]), np.array([0.25, 1.0])
    if not np.isclose(checks.crps(x, y), np.mean(np.abs(x[0] - y)), rtol=0, atol=1e-15):
        problems.append("CRPS of one sample is not |x - y|")
    a, b, y2 = 0.3, 1.7, 1.0
    closed = (abs(a - y2) + abs(b - y2)) / 2 - abs(a - b) / 4
    if not np.isclose(checks.crps(np.array([[a], [b]]), np.array([y2])), closed, rtol=0, atol=1e-15):
        problems.append("CRPS of two samples differs from its closed form")
    rng = np.random.default_rng(0)
    many, truth = rng.normal(size=(7, 5)), rng.normal(size=5)
    pairs = np.abs(many[:, None, :] - many[None, :, :]).mean(axis=(0, 1))
    brute = float((np.abs(many - truth).mean(axis=0) - 0.5 * pairs).mean())
    if not np.isclose(checks.crps(many, truth), brute, rtol=1e-12, atol=0):
        problems.append("CRPS differs from the all-pairs formula")
    return problems


def _self_time_problems() -> list[str]:
    problems = []
    cases = [
        ("no children", (0.0, 10.0, []), 10.0),
        ("disjoint children", (0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]), 6.0),
        ("nested children", (0.0, 10.0, [(1.0, 6.0), (2.0, 3.0)]), 5.0),
        ("overlapping children", (0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (5.0, 8.0)]), 3.0),
        ("children past the parent", (2.0, 10.0, [(0.0, 3.0), (9.0, 12.0)]), 6.0),
    ]
    for label, (start, end, children), expected in cases:
        got = spans.self_time(start, end, children)
        if abs(got - expected) > 1e-12:
            problems.append(f"self time with {label}: {got} != {expected}")
    return problems


def _declaration_problems() -> list[str]:
    """BENCHMARK.json must name what the benchmark reports, in the same units."""
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", spans.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if got != [row[:3] for row in table]:
            problems.append(f"BENCHMARK.json {key} differs from the metrics reported")
    bounds = [m["bound"] for m in declared["end_to_end"]]
    if bounds != [row[3] for row in workloads.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end bounds differ from workloads.END_TO_END")
    return problems


def problems() -> list[str]:
    return _crps_problems() + _self_time_problems() + _declaration_problems()


if __name__ == "__main__":
    found = problems()
    for p in found:
        print(p, file=sys.stderr)
    print("selfcheck:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
