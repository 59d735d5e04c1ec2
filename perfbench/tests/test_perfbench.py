"""Tests of the benchmark itself, at tiny sizes.

They check the result schema the benchmark promises, that planted wrong
outputs are counted as failures, that a traced run reports every per-layer
metric (or marks it untouched), and the verdicts of the compare mode.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import compare, harness, run, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]

#: Layers each workload exists to exercise; a traced run must touch them.
TOUCHED = {
    "simulate": {
        # run-large
        "workloads.generate_s", "engine.setup_s", "kernel.calls", "kernel.interactions",
        "kernel.advance_s", "observers.delta_s", "core.energy_s", "executor.run_s",
        "records.assemble_s",
        # sweep-converge
        "criterion.checks", "executor.groups", "executor.group_rows", "store.puts",
        "store.put_s", "store.manifest_save_s",
    },
    "serve-solve": {
        # service-replay
        "service.requests", "service.server_s", "service.http_s", "store.gets",
        "store.get_s", "store.hit_ratio", "queue.maps", "queue.map_s",
        # exact-solve
        "exact.chain_s", "exact.configurations", "exact.orbits", "verify.symmetry_s",
        "exact.solve_calls", "exact.solve_s", "exact.solve_rational_s", "exact.absorption_s",
        "exact.lift_s",
    },
}
#: Layers a workload must leave alone (the other side of a path choice).
UNTOUCHED = {
    "simulate": {"service.requests", "queue.maps", "exact.solve_calls"},
    "serve-solve": {"kernel.calls"},
}


def tiny(name: str, trace: bool = False) -> dict:
    return harness.run_benchmark(name, seed=3, seconds=0, trace=trace, scale="tiny")


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {name: tiny(name) for name in NAMES}


def test_benchmark_file_matches_the_code():
    assert NAMES == list(workloads.BENCHMARK_WORKLOADS) == list(run.WORKLOAD_NAMES)
    parts = [part.name for name in NAMES for part in workloads.WORKLOADS[name].parts]
    assert parts == list(run.PART_NAMES)
    assert list(workloads.WORKLOADS) == NAMES + parts
    assert END_TO_END == list(harness.END_TO_END_UNITS)
    assert PER_LAYER == tracing.per_layer_metrics()
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == tracing.metric_unit(metric["name"])


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_has_the_result_schema(untraced, name):
    record = untraced[name]
    line = harness.final_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, record["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == END_TO_END
    for metric in SPEC["end_to_end"]:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float) and value["value"] > 0
    assert json.loads(json.dumps(line)) == line
    assert record["failed_frac"] == 0
    for key in ("git_sha", "git_dirty", "cpu_model", "nproc", "python", "numpy", "scipy",
                "seed", "timestamp"):
        assert key in record["provenance"]


def test_cli_prints_the_result_last_and_appends_the_record(tmp_path):
    out = tmp_path / "runs.jsonl"
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-solve", "--seed", "5",
         "--seconds", "0", "--trace", "0", "--scale", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and list(line["metrics"]) == END_TO_END
    [record] = compare.load_runs(out)
    assert record["workload"] == "exact-solve" and record["seed"] == 5
    assert len(record["samples"]["setup_s"]) == harness.SETUP_SAMPLES
    if hasattr(os, "sched_getaffinity"):
        assert len(record["provenance"]["cpus"]) == 1


def _cli(out: Path, workload: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", "0", "--scale", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_all_reports_what_each_workload_reports_alone(tmp_path):
    combined = _cli(tmp_path / "all.jsonl", "all")
    alone = {name: _cli(tmp_path / "alone.jsonl", name) for name in NAMES}
    assert combined["correct"] is True
    assert combined["attempted"] == sum(line["attempted"] for line in alone.values())
    assert list(combined["metrics"]) == [f"{name}.{metric}" for name in NAMES
                                         for metric in END_TO_END]
    records = {record["workload"]: record for record in compare.load_runs(tmp_path / "all.jsonl")}
    assert list(records) == NAMES
    for name, line in alone.items():
        assert records[name]["attempted"] == line["attempted"]
        assert combined["metrics"][f"{name}.peak_rss_mb"] == records[name]["end_to_end"][
            "peak_rss_mb"]
        # Each workload's peak memory is its own, not the largest one before it.
        ratio = records[name]["end_to_end"]["peak_rss_mb"]["value"] / line["metrics"][
            "peak_rss_mb"]["value"]
        assert 0.9 < ratio < 1.1, (name, ratio)


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout


def test_planted_wrong_record_raises_failed_frac(monkeypatch):
    original = workloads.RunLarge._execute

    def tampered(self, spec):
        record = original(self, spec)
        if spec.protocol == "circles" and spec.criterion is None:
            record = dataclasses.replace(record, final_energy=record.initial_energy + 1)
        return record

    monkeypatch.setattr(workloads.RunLarge, "_execute", tampered)
    record = tiny("simulate")
    # One bad record in the reference pass and one in the measured pass.
    assert record["failed"] == 2
    assert record["failed_frac"] == pytest.approx(2 / record["attempted"])
    assert harness.final_line(record)["correct"] is False


def test_planted_drift_between_passes_is_a_failure(monkeypatch):
    original = workloads.RunLarge._execute
    calls = []

    def drifting(self, spec):
        calls.append(spec)
        record = original(self, spec)
        return dataclasses.replace(record, extras={"call": len(calls)})

    monkeypatch.setattr(workloads.RunLarge, "_execute", drifting)
    record = tiny("run-large")
    assert any("differs from the first pass" in failure for failure in record["failures"])


def test_planted_wrong_exact_value_is_a_failure(monkeypatch):
    original = workloads.ExactSolve._analyses

    def wrong_input(self):
        tied, untied = original(self)
        return (tied[0], tied[1], (0, 0, 1, 1, 1, 1), tied[3]), untied

    monkeypatch.setattr(workloads.ExactSolve, "_analyses", wrong_input)
    record = tiny("serve-solve")
    assert record["failed"] == 2
    assert "expected interactions" in record["failures"][0]


def test_planted_wrong_stored_record_is_a_failure(monkeypatch):
    original = workloads.ServiceReplay.setup

    def corrupt_reference(self):
        original(self)
        first = self.stored_specs[0].sha()
        self.stored[first] = {**self.stored[first], "steps": -1}

    monkeypatch.setattr(workloads.ServiceReplay, "setup", corrupt_reference)
    record = tiny("service-replay")
    assert record["failed"] > 0
    assert any("differs from the store" in failure for failure in record["failures"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_or_marks_it_untouched(name):
    record = tiny(name, trace=True)
    line = harness.final_line(record)
    assert line["correct"] is True, record["failures"]
    assert list(line["metrics"]) == PER_LAYER
    report = record["trace_report"]
    assert report["missing_targets"] == []
    untouched = set(report["untouched"])
    assert untouched <= set(PER_LAYER)
    for metric in SPEC["per_layer"]:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        if metric["name"] != "trace.overhead_frac":
            assert (value["value"] == 0) == (metric["name"] in untouched), metric["name"]
    assert not TOUCHED[name] & untouched
    assert UNTOUCHED[name] <= untouched


def test_tracer_restores_the_library():
    import repro.api.executor as executor
    import repro.core.potential as potential
    import repro.simulation.base as base

    before = (executor.execute_run, potential.configuration_energy,
              base.SimulationEngine.__dict__["run"])
    tracer = tracing.Tracer()
    tracer.install()
    assert executor.execute_run is not before[0]
    tracer.uninstall()
    assert (executor.execute_run, potential.configuration_energy,
            base.SimulationEngine.__dict__["run"]) == before


def test_tracer_splits_self_time_between_nested_layers():
    import repro.api.executor as executor
    from repro.api.spec import RunSpec

    tracer = tracing.Tracer()
    tracer.install()
    try:
        executor.execute_run(RunSpec(protocol="circles", n=8, k=2, engine="batch", seed=1))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["executor.runs"] == 1
    assert metrics["criterion.checks"] >= 1
    assert metrics["engine.run_s"] > 0 and metrics["executor.run_s"] > 0
    # Self times of the layers inside one run add up to no more than the run.
    inside = sum(metrics.get(name, 0) for name in PER_LAYER if name.endswith("_s") and name not in (
        "exact.solve_rational_s", "exact.solve_dense_s", "exact.solve_sparse_s"))
    assert inside <= tracer.inclusive_s("executor.run") * 1.0001


def test_traced_generator_adds_every_resumption_to_inclusive_time():
    tracer = tracing.Tracer()
    layer = tracing.Layer("stream", "stream_s", "stream.calls", ())

    def stream(steps):
        for step in range(steps):
            time.sleep(0.02)
            yield step

    assert list(tracer._wrap(layer, stream)(5)) == list(range(5))
    assert 0.1 <= tracer.inclusive_s("stream") < 0.5
    totals = tracer._totals[("all", "stream")]
    assert totals.count == 1 and totals.inclusive_ns == totals.self_ns


def test_compare_verdicts():
    base = {seed: 1.0 + 0.01 * seed for seed in range(10)}
    assert compare.verdict(base, base, 0.1, "lower") == "same"
    assert compare.verdict(base, {s: 1.3 * v for s, v in base.items()}, 0.1, "lower") == "worse"
    assert compare.verdict(base, {s: 0.7 * v for s, v in base.items()}, 0.1, "lower") == "better"
    assert compare.verdict(base, {s: 0.7 * v for s, v in base.items()}, 0.1, "higher") == "worse"
    noisy = {seed: 1.0 + 0.5 * (seed % 2) for seed in range(10)}
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
