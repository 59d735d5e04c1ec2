"""Replicate-group routing: sweep trials through the vector engine, unchanged.

The promise the routing makes: a sweep executed with ``vectorize=True`` is
*record-for-record identical* to the same sweep executed one spec at a time —
same seeds, same trajectories, same JSON — so the result store, the manifest,
and every downstream consumer cannot tell the difference.  These tests pin
the grouping key, the eligibility gate, the identity across executors and
the composition with the content-addressed store.

A single eligible spec runs as a group of one, so ``execute_run`` and
``execute_replicate_group`` share their code; identity is therefore checked
against the ``reference_record`` fixture, which executes each spec through
``run_circles`` / ``run_protocol`` directly.
"""

from dataclasses import replace

import pytest

import repro.api.executor as executor
from repro.api.executor import (
    SerialExecutor,
    SweepRunner,
    _replicate_groupable,
    execute_replicate_group,
    execute_run,
    replicate_group_key,
    run_sweep,
)
from repro.api.spec import RunSpec, SweepSpec
from repro.core.circles import CirclesProtocol
from repro.protocols.registry import DEFAULT_REGISTRY, get_protocol


def circles_sweep(**overrides) -> SweepSpec:
    params = dict(
        protocols=("circles",),
        populations=(48,),
        ks=(3,),
        engines=("batch",),
        trials=5,
        seed=13,
    )
    params.update(overrides)
    return SweepSpec(**params)


class TestGroupingKey:
    def test_key_ignores_only_the_run_seed(self):
        specs = circles_sweep().expand()
        keys = {replicate_group_key(spec) for spec in specs}
        assert len(keys) == 1
        other_n = circles_sweep(populations=(64,)).expand()[0]
        assert replicate_group_key(other_n) not in keys

    def test_expanded_trial_seeds_are_pairwise_distinct(self):
        """The SHA-derived per-trial seeds the lockstep rows rely on."""
        specs = circles_sweep(trials=512).expand()
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)

    def test_eligibility_gate(self):
        base = circles_sweep().expand()[0]
        assert _replicate_groupable(base)
        assert _replicate_groupable(replace(base, engine="vector"))
        # Engines without lockstep support, schedulers, observers, missing
        # seeds and floating workloads all fall back to per-spec execution.
        assert not _replicate_groupable(replace(base, engine="agent"))
        assert not _replicate_groupable(replace(base, engine="configuration"))
        assert not _replicate_groupable(replace(base, engine="exact"))
        assert not _replicate_groupable(replace(base, scheduler="round-robin"))
        assert not _replicate_groupable(replace(base, observers=("energy",)))
        assert not _replicate_groupable(replace(base, seed=None, workload_seed=7))
        assert not _replicate_groupable(replace(base, workload_seed=None))


class TestExecuteReplicateGroup:
    def test_records_identical_to_serial_execution(self, reference_record):
        specs = circles_sweep().expand()
        assert execute_replicate_group(specs) == [reference_record(spec) for spec in specs]

    def test_explicit_criterion_branch(self, reference_record):
        specs = circles_sweep(criterion="silent", trials=3).expand()
        assert execute_replicate_group(specs) == [reference_record(spec) for spec in specs]

    def test_ineligible_specs_fall_back_per_spec(self, reference_record):
        specs = circles_sweep(engines=("configuration",), trials=2).expand()
        assert execute_replicate_group(specs) == [reference_record(spec) for spec in specs]

    def test_single_eligible_spec_runs_as_a_group_of_one(self, monkeypatch, reference_record):
        groups = []
        original = executor.execute_replicate_group

        def spy(specs):
            groups.append(len(specs))
            return original(specs)

        monkeypatch.setattr(executor, "execute_replicate_group", spy)
        spec = circles_sweep().expand()[0]
        assert execute_run(spec) == reference_record(spec)
        assert groups == [1]
        # Ineligible specs take the engine loop instead.
        assert execute_run(replace(spec, engine="configuration")) == reference_record(
            replace(spec, engine="configuration")
        )
        assert groups == [1]

    def test_mixed_groups_rejected(self):
        a = circles_sweep().expand()[0]
        b = circles_sweep(populations=(64,)).expand()[0]
        with pytest.raises(ValueError, match="identical up to the run seed"):
            execute_replicate_group([a, b])

    def test_duplicate_seeds_rejected(self):
        spec = circles_sweep().expand()[0]
        with pytest.raises(ValueError, match="pairwise distinct"):
            execute_replicate_group([spec, replace(spec), spec])

    def test_empty_group(self):
        assert execute_replicate_group([]) == []


class TestSweepRunnerRouting:
    def test_vectorized_sweep_equals_per_spec_sweep(self):
        sweep = circles_sweep()
        vectorized = run_sweep(sweep, vectorize=True)
        serial = run_sweep(sweep, vectorize=False)
        assert vectorized.records == serial.records

    def test_multiprocessing_executor_routes_groups(self):
        sweep = circles_sweep(trials=4)
        assert (
            run_sweep(sweep, workers=2).records
            == run_sweep(sweep, vectorize=False).records
        )

    def test_run_iter_yields_every_index_once(self):
        sweep = circles_sweep(trials=4, populations=(32, 48))
        runner = SweepRunner(vectorize=True)
        seen = sorted(index for index, _record, _cached in runner.run_iter(sweep))
        assert seen == list(range(len(sweep.expand())))

    def test_executor_without_map_groups_keeps_spec_path(self):
        calls = []

        class PlainExecutor:
            def map(self, specs):
                calls.append(len(specs))
                return SerialExecutor().map(specs)

        sweep = circles_sweep(trials=3)
        result = SweepRunner(executor=PlainExecutor()).run(sweep)
        assert calls == [3]
        assert result.records == run_sweep(sweep, vectorize=False).records

    def test_duplicate_specs_become_singletons_not_errors(self):
        """A sweep hand-built with repeated identical specs must still run."""
        spec = circles_sweep().expand()[0]
        runner = SweepRunner(vectorize=True)
        units = runner._units([spec, spec, spec], [0, 1, 2])
        assert sorted(len(unit) for unit in units) == [1, 1, 1]

    def test_partially_cached_group_executes_only_the_remainder(
        self, tmp_path, reference_record
    ):
        store = pytest.importorskip("repro.service.store")
        sweep = circles_sweep(trials=5)
        specs = sweep.expand()
        reference = [reference_record(spec) for spec in specs]
        cache = store.ResultStore(tmp_path)
        cache.put(specs[1], reference[1])
        cache.put(specs[3], reference[3])
        runner = SweepRunner(store=cache, vectorize=True)
        cached_flags = {}
        records = [None] * len(specs)
        for index, record, cached in runner.run_iter(sweep):
            cached_flags[index] = cached
            records[index] = record
        assert records == reference
        assert cached_flags == {0: False, 1: True, 2: False, 3: True, 4: False}


def _registry_points() -> list[tuple[str, int]]:
    points = []
    for name in DEFAULT_REGISTRY.names():
        for k in (2, 3):
            try:
                get_protocol(name, k)
            except ValueError:
                continue
            points.append((name, k))
    return points


@pytest.mark.parametrize("name,k", _registry_points())
def test_registry_identity_matrix(name, k, reference_record):
    """Every registry protocol, alone and in a group, matches the run API.

    Rotates engine (batch/vector) and compilation over every criterion at a
    pool-path population (n = 16) and a kernel-path one (n = 4096, numpy
    permitting), with fixed budgets so the matrix stays cheap.
    """
    criteria: list[str | None] = [None, "output-consensus", "silent"]
    if isinstance(get_protocol(name, k), CirclesProtocol):
        criteria.append("stable-circles")
    index = 0
    for n, budget in ((16, 2_000), (4_096, 12_000)):
        for criterion in criteria:
            spec = RunSpec(
                protocol=name,
                n=n,
                k=k,
                engine=("batch", "vector")[index % 2],
                compiled=None if n > 16 or index % 4 < 2 else False,
                criterion=criterion,
                max_steps=budget,
                seed=11 + index,
                workload_seed=5,
            )
            index += 1
            expected = reference_record(spec)
            assert execute_run(spec) == expected, spec
            if criterion is None:
                rows = [spec, replace(spec, seed=spec.seed + 100)]
                assert execute_replicate_group(rows) == [expected, reference_record(rows[1])]
