"""The measurement loop, the metrics, and the result record.

One call of :func:`run_benchmark` measures one workload for one seed:

1. **Set-up**, several times: the harness's own set-up plus fresh child
   interpreters (``run.py --setup-only``), each timing the import of the
   library, the workload's fixture and its cache warm-up.  ``setup_s`` is
   their median, so work moved out of the timed passes into set-up shows.
2. **A reference pass**, untimed: its outputs are what every later pass of
   the same seed must reproduce.
3. **Timed passes** until ``seconds`` have elapsed (at least one).  With
   ``trace`` the passes alternate between untraced and traced; the
   per-layer metrics come from the traced ones, and the untraced ones give
   the tracing overhead.
4. **Checks** after each pass, outside the timed region.

The end-to-end metrics are the same for every workload so that runs can be
compared across commits metric by metric (``compare.py``).
"""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from perfbench.tracing import Tracer, metric_unit, per_layer_metrics
from perfbench.workloads import WORKLOADS, Pass

ROOT = Path(__file__).resolve().parents[1]
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"
#: Set-up samples per run: the harness's own plus fresh child interpreters.
SETUP_SAMPLES = 3
#: Child set-up time limit, in seconds.
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` % at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    ``VmHWM`` is the high-water mark of the process's own address space.
    ``ru_maxrss`` is only the fallback where ``/proc`` is missing: a process
    started by fork (or vfork) and exec inherits in it the peak of the
    process that started it.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(seed: int) -> dict[str, Any]:
    """Where and on what a result was measured."""
    info: dict[str, Any] = {
        "git_sha": None,
        "git_dirty": None,
        "cpu_model": platform.processor() or None,
        "nproc": os.cpu_count(),
        # The CPUs the run was confined to (run.py pins it to one).
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            info["git_sha"] = _git("rev-parse", "HEAD")
            info["git_dirty"] = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True, timeout=30
    ).stdout.strip()


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def timed_setup(name: str, seed: int, workdir: Path, scale: str):
    """Import the library, build the workload and its fixture; returns (workload, seconds)."""
    start = perf_counter()
    import repro  # noqa: F401  (timed: import cost is part of set-up)

    workload = WORKLOADS[name](seed, workdir, scale)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    return workload, perf_counter() - start


def child_setup_s(name: str, seed: int, scale: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(RUN_SCRIPT), "--setup-only", "--workload", name,
         "--seed", str(seed), "--scale", scale],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"child set-up of {name} failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Traced:
    """Per-layer values of one traced pass, overall and per operation scope."""

    layers: dict[str, float]
    scopes: dict[str, dict[str, float]]


def _measure(workload, tracer: Tracer | None, index: int) -> tuple[Pass, Traced | None]:
    """One pass, traced or not; checks run after the tracer is removed."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
        workload.tracer = tracer
    try:
        result = workload.run_pass(index)
    finally:
        if tracer is not None:
            tracer.uninstall()
            workload.tracer = None
    traced = None
    if tracer is not None:
        layers = tracer.metrics()
        # Client-side latency not spent inside the service's own methods.
        layers["service.http_s"] = (
            result.extra["client_s"] - tracer.inclusive_s("service")
            if "client_s" in result.extra else 0
        )
        traced = Traced(layers, {scope: tracer.metrics(scope) for scope in tracer.scopes()})
    workload.check(result)
    return result, traced


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: str = "full",
) -> dict[str, Any]:
    """Measure one workload; returns the full result record."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_dir()))
    try:
        setups = [child_setup_s(name, seed, scale) for _ in range(SETUP_SAMPLES - 1)]
        workload, own_setup = timed_setup(name, seed, workdir, scale)
        setups.append(own_setup)
        try:
            return _run(workload, seed, seconds, trace, scale, setups)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def scratch_dir() -> Path:
    """Where runs keep temporary stores: inside the checkout, ignored by git."""
    path = ROOT / "perfbench" / "results" / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run(workload, seed: int, seconds: float, trace: bool, scale: str,
         setups: list[float]) -> dict[str, Any]:
    tracer = Tracer() if trace else None
    reference, _ = _measure(workload, None, 0)
    attempted = len(reference.ops)
    failures = [f"pass 0 {op}: {message}" for op, message in reference.failures.items()]
    untraced: list[Pass] = []
    traced: list[tuple[Pass, Traced]] = []
    deadline = perf_counter() + seconds
    index = 1
    while True:
        use_tracer = tracer is not None and index % 2 == 0
        result, layers = _measure(workload, tracer if use_tracer else None, index)
        for op, output in result.outputs.items():
            if output != reference.outputs.get(op):
                result.fail(op, "output differs from the first pass")
        attempted += len(result.ops)
        failures.extend(f"pass {index} {op}: {message}" for op, message in result.failures.items())
        if use_tracer:
            traced.append((result, layers))
        else:
            untraced.append(result)
        index += 1
        if perf_counter() >= deadline and untraced and (tracer is None or traced):
            break

    latencies = [value for result in untraced for value in result.latencies_s]
    busy = sum(result.wall_s for result in untraced)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result.wall_s for result in untraced),
        "runs_per_s": sum(result.records for result in untraced) / busy,
        # Per pass, then the median pass, like wall_s: pooled over the run, a
        # percentile that falls between two kinds of operation (run-large's
        # specs, the sweep) would pick the slowest of one kind or the
        # fastest of the next, the least steady values of the run.
        "request_p50_ms": 1e3 * statistics.median(
            statistics.median(result.latencies_s) for result in untraced),
        "request_p99_ms": 1e3 * statistics.median(
            percentile(result.latencies_s, 99) for result in untraced),
        "peak_rss_mb": peak_rss_mb(),
    }
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in end_to_end.items()
        },
        "samples": {
            "setup_s": setups,
            "pass_wall_s": [result.wall_s for result in untraced],
            "requests": len(latencies),
        },
        "extra": {
            "interactions_per_s": sum(result.interactions for result in untraced) / busy,
            **{
                key: statistics.median(result.extra[key] for result in untraced)
                for key in untraced[0].extra
                if isinstance(untraced[0].extra[key], float)
            },
        },
    }
    if tracer is not None:
        record["per_layer"], record["trace_report"] = _per_layer(tracer, traced, untraced)
    return record


def _per_layer(tracer: Tracer, traced, untraced) -> tuple[dict[str, Any], dict[str, Any]]:
    """Median per-pass value of every per-layer metric, and the trace report."""
    names = per_layer_metrics()
    values: dict[str, float] = {}
    for name in names:
        if name == "trace.overhead_frac":
            traced_wall = statistics.median(result.wall_s for result, _ in traced)
            untraced_wall = statistics.median(result.wall_s for result in untraced)
            values[name] = traced_wall / untraced_wall - 1
        else:
            values[name] = statistics.median(layers.layers[name] for _, layers in traced)
    untouched = [
        name for name in names
        if name != "trace.overhead_frac" and all(layers.layers[name] == 0 for _, layers in traced)
    ]
    scopes: dict[str, dict[str, float]] = {}
    for _, layers in traced:
        for scope, metrics in layers.scopes.items():
            target = scopes.setdefault(scope, {})
            for key, value in metrics.items():
                target.setdefault(key, []).append(value)
    per_scope = {
        scope: {key: statistics.median(series) for key, series in metrics.items()}
        for scope, metrics in scopes.items()
    }
    per_layer = {name: {"value": values[name], "unit": metric_unit(name)} for name in names}
    report = {
        "traced_passes": len(traced),
        "untouched": untouched,
        "missing_targets": tracer.missing,
        "per_scope": per_scope,
    }
    return per_layer, report


def final_line(record: dict[str, Any]) -> dict[str, Any]:
    """The one-line summary a run prints last: end-to-end metrics, or per-layer when traced."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
