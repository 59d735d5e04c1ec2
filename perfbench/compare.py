#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result records as ``perfbench/run.py --out`` appends them,
typically ten seeds per workload measured on one commit.  For every
workload × end-to-end metric the table shows each side's median and
quartiles over its runs and a verdict, using the metric's ``bound`` and
``better`` from ``BENCHMARK.json``:

* ``worse`` — the change's median is worse than the base's by more than the
  bound;
* ``unresolved`` — a side's spread (quartile distance over median) is wider
  than the bound and not every change run beats every base run, so the
  runs cannot tell a change from noise;
* ``better`` — the change wins at least nine tenths of the runs paired by
  seed and its median moved by more than the base's quartile distance;
* ``same`` — none of the above.

When the files hold traced runs, their per-layer metrics follow, without
verdicts.
The exit status is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(values: list[float]) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: dict[int, float], change: dict[int, float], bound: float, better: str) -> str:
    """Classify one metric; ``base``/``change`` map seed -> value."""
    sign = 1 if better == "lower" else -1
    base_values, change_values = list(base.values()), list(change.values())
    base_median, base_q1, base_q3 = summary(base_values)
    change_median = summary(change_values)[0]
    # Positive means the change is worse, as a share of the base median.
    worse_by = sign * (change_median - base_median) / abs(base_median) if base_median else 0.0
    all_better = all(sign * (c - b) < 0 for c in change_values for b in base_values)
    if max(spread(base_values), spread(change_values)) > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = [(base[seed], change[seed]) for seed in base if seed in change]
    wins = sum(sign * (c - b) < 0 for b, c in pairs)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (base_median - change_median) > base_q3 - base_q1
    ):
        return "better"
    return "same"


def _collect(runs: list[dict], section: str) -> dict[tuple[str, str], dict[int, float]]:
    table: dict[tuple[str, str], dict[int, float]] = {}
    for run in runs:
        # Traced runs also carry end-to-end values, but from half the passes
        # and with the tracer's cost nearby; only untraced runs are compared.
        if section == "end_to_end" and run["trace"]:
            continue
        for name, metric in run.get(section, {}).items():
            table.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return table


def _provenance(label: str, runs: list[dict]) -> str:
    shas = sorted({str(run["provenance"].get("git_sha"))[:12] for run in runs})
    first = runs[0]["provenance"] if runs else {}
    return (f"{label}: {len(runs)} runs, git {', '.join(shas)}, {first.get('cpu_model')}, "
            f"nproc {first.get('nproc')}, python {first.get('python')}, "
            f"numpy {first.get('numpy')}, scipy {first.get('scipy')}")


def compare(base_runs: list[dict], change_runs: list[dict]) -> list[str]:
    """The comparison table as lines; the last element is the verdict tally."""
    spec = json.loads(SPEC_FILE.read_text())
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    lines = [_provenance("base", base_runs), _provenance("change", change_runs)]
    header = (f"{'workload':<16} {'metric':<26} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'change':>8}  verdict")
    lines.append(header)
    tally: dict[str, int] = {}
    for section, judged in (("end_to_end", True), ("per_layer", False)):
        base, change = _collect(base_runs, section), _collect(change_runs, section)
        for key in sorted(set(base) | set(change)):
            workload, name = key
            if key not in base or key not in change:
                result = "missing"
                cells = ["—", "—", ""]
            else:
                b, c = summary(list(base[key].values())), summary(list(change[key].values()))
                delta = (c[0] - b[0]) / abs(b[0]) if b[0] else 0.0
                cells = [f"{b[0]:.5g} [{b[1]:.5g}, {b[2]:.5g}]",
                         f"{c[0]:.5g} [{c[1]:.5g}, {c[2]:.5g}]", f"{delta:+.1%}"]
                if judged and name in metrics:
                    result = verdict(base[key], change[key], metrics[name]["bound"],
                                     metrics[name]["better"])
                else:
                    result = ""
            if result:
                tally[result] = tally.get(result, 0) + 1
            lines.append(f"{workload:<16} {name:<26} {cells[0]:>34} {cells[1]:>34} "
                         f"{cells[2]:>8}  {result}")
    lines.append("verdicts: " + ", ".join(f"{key} {value}" for key, value in sorted(tally.items())))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/compare.py", description=__doc__.split("\n")[1]
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    lines = compare(load_runs(args.base), load_runs(args.change))
    print("\n".join(lines))
    return 1 if " worse" in lines[-1] else 0


if __name__ == "__main__":
    sys.exit(main())
