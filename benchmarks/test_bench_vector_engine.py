"""Vector-engine benchmark — replicate groups versus looped serial runs.

The replicate-group routing exists for exactly one reason: a sweep's
``trials`` axis re-simulates the *same* compiled protocol on the same input
``R`` times, and advancing all ``R`` rows through one shared state matrix
amortizes every per-interaction cost across the group.  The perf test pins
that claim on an E6-scale workload: a 256-replicate Circles group at
``n = 10^5`` must execute at least **10× faster** than the serial
one-spec-at-a-time baseline — while producing byte-identical records (the
smoke test keeps the identity exercised in the default suite).

Wall-clock assertions are opt-in via ``pytest --perf benchmarks/``; timings
land in ``BENCH_results.json`` through the atomic ``record_perf`` fixture.
"""

import time

import pytest

from repro.api.executor import execute_replicate_group, execute_run
from repro.api.spec import SweepSpec

pytest.importorskip("numpy", reason="the lockstep kernel path needs numpy")

N = 100_000
K = 4
REPLICATES = 256
BUDGET = 200_000  # interactions per replicate; far below convergence at n = 10^5


def vector_sweep(n: int, replicates: int, max_steps: int) -> SweepSpec:
    return SweepSpec(
        protocols=("circles",),
        populations=(n,),
        ks=(K,),
        engines=("batch",),
        trials=replicates,
        seed=17,
        max_steps=max_steps,
    )


def test_replicate_group_records_match_serial(reference_record):
    """Smoke (default suite): a kernel-path group is record-identical to serial
    ``run_circles`` runs (the independent reference; ``execute_run`` itself
    runs an eligible spec as a group of one)."""
    specs = vector_sweep(4096, 3, 20_000).expand()
    grouped = execute_replicate_group(specs)
    assert grouped == [reference_record(spec) for spec in specs]
    assert len({record.seed for record in grouped}) == len(specs)


@pytest.mark.perf
def test_replicate_group_is_10x_faster_than_serial(record_perf):
    specs = vector_sweep(N, REPLICATES, BUDGET).expand()

    # Serial baseline: time a small sample of full single-spec executions and
    # extrapolate — running all 256 serially would take minutes by design.
    sample_indices = (0, REPLICATES // 2, REPLICATES - 1)
    sample_records = {}
    start = time.perf_counter()
    for index in sample_indices:
        sample_records[index] = execute_run(specs[index])
    serial_sample_time = time.perf_counter() - start
    baseline_seconds = serial_sample_time / len(sample_indices) * REPLICATES

    start = time.perf_counter()
    grouped = execute_replicate_group(specs)
    vector_seconds = time.perf_counter() - start

    for index, record in sample_records.items():
        assert grouped[index] == record, f"row {index} diverged from serial execution"

    speedup = baseline_seconds / vector_seconds
    total = REPLICATES * BUDGET
    print(
        f"\nvector: {total / vector_seconds:,.0f} interactions/s over "
        f"{REPLICATES} replicates ({vector_seconds:.2f}s), serial baseline "
        f"{baseline_seconds:.1f}s (extrapolated), speedup {speedup:.1f}x"
    )
    record_perf(
        "vector-replicates-vs-serial",
        n=N,
        engine="vector",
        seconds=vector_seconds,
        speedup=speedup,
        baseline_seconds=baseline_seconds,
    )
    assert vector_seconds * 10 <= baseline_seconds, (
        f"replicate group only {speedup:.1f}x faster than serial "
        f"({vector_seconds:.2f}s vs {baseline_seconds:.1f}s for "
        f"{REPLICATES} x {BUDGET} interactions)"
    )
