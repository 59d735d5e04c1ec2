#!/usr/bin/env python3
"""Run the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

``--workload`` is one of the names in ``BENCHMARK.json`` (``all`` runs
each of them in turn, each in a fresh interpreter, and ends with one
combined line) or one of their parts, to measure that part alone.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable table.  Each run also appends its full result record (every
metric, per-pass samples, provenance, the trace report) to ``--out``, a
JSON-lines file that ``perfbench/compare.py`` reads.

The benchmark measures the library in ``src/`` of the checkout it sits in
and exits with status 2 when there is none.  It runs on one CPU (see
:func:`pin_to_one_cpu`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The workloads ``BENCHMARK.json`` names, then the parts they are made of.
WORKLOAD_NAMES = ("simulate", "serve-solve")
PART_NAMES = ("run-large", "sweep-converge", "service-replay", "exact-solve")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, *PART_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="how long the timed passes run (default 32)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "results" / "runs.jsonl",
                        help="JSON-lines file the full result record is appended to")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and print it (used internally)")
    return parser.parse_args(argv)


def _print_table(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}  "
          f"failed_frac {record['failed_frac']:.4g}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for section in ("end_to_end", "per_layer"):
        for name, metric in record.get(section, {}).items():
            print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in record["extra"].items():
        print(f"  {name:<28} {value:>14.6g} (extra)")
    trace = record.get("trace_report")
    if trace:
        print(f"  untouched by this workload: {', '.join(trace['untouched']) or 'none'}")
        if trace["missing_targets"]:
            print(f"  targets not found: {', '.join(trace['missing_targets'])}")
        scopes = trace["per_scope"]
        if len(scopes) > 1:
            times = [name for name, metric in record["per_layer"].items() if metric["unit"] == "s"]
            labels = sorted(scopes)
            print("  self time per operation (s): " + " | ".join(labels))
            for name in times:
                row = [scopes[label].get(name, 0) for label in labels]
                if any(row):
                    print(f"    {name:<26} " + " | ".join(f"{value:.4f}" for value in row))


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU.

    A closed loop with one caller has no work to run in parallel, but its
    threads (the service's server and executor threads, the client) hand the
    interpreter lock to each other on every request.  Spread over several
    CPUs of a shared host, each hand-off waits on another CPU's wake-up, and
    that wait varies with the host's load.  Pinning happens before numpy is
    imported, so its thread pools size themselves to the one CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    if args.setup_only:
        directory = Path(tempfile.mkdtemp(prefix="setup-", dir=harness.scratch_dir()))
        try:
            workload, seconds = harness.timed_setup(args.workload, args.seed, directory, args.scale)
            workload.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    if args.workload == "all":
        return _run_all(args)
    record = harness.run_benchmark(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), scale=args.scale
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    _print_table(record)
    print(json.dumps(harness.final_line(record)))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in a fresh interpreter of its own, one after another.

    A workload's set-up then always includes the import of the library, and
    its peak memory is its own rather than the largest of the workloads
    before it: each figure is the one the workload reports when run alone.
    """
    lines = []
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale, "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        output = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not output:
            print(f"perfbench: workload {name} exited with status {completed.returncode}",
                  file=sys.stderr)
            return completed.returncode or 1
        print("\n".join(output[:-1]))
        lines.append((name, json.loads(output[-1])))
    summary = {
        "correct": all(line["correct"] for _, line in lines),
        "attempted": sum(line["attempted"] for _, line in lines),
        "failed": sum(line["failed"] for _, line in lines),
        "metrics": {
            f"{name}.{metric}": value
            for name, line in lines
            for metric, value in line["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0

if __name__ == "__main__":
    sys.exit(main())
