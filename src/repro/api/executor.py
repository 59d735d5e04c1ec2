"""Spec execution: registries, the run function, and pluggable executors.

This module turns a declarative :class:`~repro.api.spec.RunSpec` into a
:class:`~repro.api.records.RunRecord`.  Everything a spec names resolves
here, through registries:

* **criteria** — ``"output-consensus"``, ``"silent"``, ``"stable-circles"``;
* **schedulers** — built by name with the population size, a derived seed
  and (for the adaptive adversaries) the protocol instance in hand, which is
  why scheduler construction is a registry of *builders* rather than bare
  classes;
* **runners** — named run strategies.  The default ``"protocol"`` runner
  resolves the protocol registry; experiments with bespoke instrumentation
  (e.g. E2's per-exchange potential check) register their own runner so
  they stay spec-drivable.

:func:`execute_run` is a module-level function of the spec alone — no shared
state, no ambient RNG — which is what makes the multiprocessing executor's
results identical to the serial executor's, record for record.

:func:`execute_replicate_group` is the many-replicate analogue: a pure
function of a *list* of specs that are identical up to the run seed (a
"replicate group", the shape :meth:`SweepSpec.expand` produces for
``trials > 1``).  It routes the whole group through the vector engine's
lockstep path (:mod:`repro.simulation.vector_engine`) and assembles one
:class:`RunRecord` per row from the row's final configuration.

There is one spec pipeline: ``_plan`` decides a spec's protocol, colors,
criterion, Circles metrics and budget, and the ``"protocol"`` runner runs
every spec the lockstep path can reproduce as a replicate group of one,
handing the rest to the engine loop of :mod:`repro.simulation.runner`.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.api import aggregate as _aggregate
from repro.api.records import RunRecord, SweepResult
from repro.api.spec import RunSpec, SweepCell, SweepSpec, canonical_json, derive_seed
from repro.api.stopping import StopDecision, StoppingRule
from repro.core.potential import configuration_energy, state_weights
from repro.protocols.base import PopulationProtocol
from repro.protocols.registry import get_protocol
from repro.scheduling.adversarial import GreedyStallScheduler, IsolationScheduler
from repro.scheduling.base import Scheduler
from repro.scheduling.permutation import RandomPermutationScheduler
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.simulation.convergence import (
    ConvergenceCriterion,
    OutputConsensus,
    SilentConfiguration,
    StableCircles,
)
from repro.simulation.engine import AgentSimulation
from repro.simulation.registry import ENGINES
from repro.simulation.runner import _run_engine, _true_majority, default_max_steps
from repro.simulation.vector_engine import ReplicateOutcome, VectorReplicateSimulation
from repro.utils.errors import unknown_name_error
from repro.workloads.registry import DEFAULT_WORKLOADS

# --------------------------------------------------------------------------- #
# criteria
# --------------------------------------------------------------------------- #

#: Criterion name -> zero/keyword-argument factory.
CRITERIA: dict[str, Callable[..., ConvergenceCriterion]] = {
    OutputConsensus.name: OutputConsensus,
    SilentConfiguration.name: SilentConfiguration,
    StableCircles.name: StableCircles,
}


def build_criterion(name: str, **params: object) -> ConvergenceCriterion:
    """Instantiate a convergence criterion by registry name."""
    try:
        factory = CRITERIA[name]
    except KeyError:
        raise ValueError(
            f"unknown criterion {name!r}; available: {', '.join(sorted(CRITERIA))}"
        ) from None
    return factory(**params)


# --------------------------------------------------------------------------- #
# schedulers
# --------------------------------------------------------------------------- #

#: ``builder(num_agents, seed, protocol, **params) -> Scheduler``.
SchedulerBuilder = Callable[..., Scheduler]

SCHEDULERS: dict[str, SchedulerBuilder] = {
    UniformRandomScheduler.name: lambda n, seed, protocol, **params: UniformRandomScheduler(
        n, seed=seed, **params
    ),
    RoundRobinScheduler.name: lambda n, seed, protocol, **params: RoundRobinScheduler(
        n, seed=seed, **params
    ),
    RandomPermutationScheduler.name: lambda n, seed, protocol, **params: RandomPermutationScheduler(
        n, seed=seed, **params
    ),
    GreedyStallScheduler.name: lambda n, seed, protocol, **params: GreedyStallScheduler(
        n,
        transition_changes=lambda a, b: protocol.transition(a, b).changed,
        seed=seed,
        **params,
    ),
    IsolationScheduler.name: lambda n, seed, protocol, **params: IsolationScheduler(
        n, seed=seed, **params
    ),
}


def build_scheduler(
    name: str,
    num_agents: int,
    seed: int | None = None,
    protocol: PopulationProtocol | None = None,
    **params: object,
) -> Scheduler:
    """Instantiate a scheduler by registry name.

    The adaptive adversaries close over ``protocol`` (e.g. greedy-stall needs
    the transition function), so callers pass the protocol instance the run
    will use.
    """
    try:
        builder = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {', '.join(sorted(SCHEDULERS))}"
        ) from None
    return builder(num_agents, seed, protocol, **params)


# --------------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------------- #

#: ``runner(spec) -> RunRecord``; must be a pure function of the spec.
RunnerFn = Callable[[RunSpec], RunRecord]

_RUNNERS: dict[str, RunnerFn] = {}


def register_runner(name: str, runner: RunnerFn, *, overwrite: bool = False) -> None:
    """Register a named run strategy usable as ``RunSpec.runner``."""
    if not overwrite and name in _RUNNERS:
        raise ValueError(f"runner name {name!r} is already registered")
    _RUNNERS[name] = runner


def get_runner(name: str) -> RunnerFn:
    """Resolve a runner name; imports the experiment package once as a
    fallback so specs naming experiment-registered runners (e.g.
    ``"e2-stabilization"``) work from a cold process.

    Raises:
        KeyError: for unknown names, listing the available ones (the shared
            registry error contract of :mod:`repro.utils.errors`).
    """
    if name not in _RUNNERS:
        import repro.experiments  # noqa: F401  (registers experiment runners)
    try:
        return _RUNNERS[name]
    except KeyError:
        raise unknown_name_error("runner", name, _RUNNERS) from None


def resolve_workload(spec: RunSpec) -> list[int]:
    """Generate the input colors a spec describes."""
    return DEFAULT_WORKLOADS.generate(
        spec.workload,
        spec.n,
        spec.k,
        seed=spec.effective_workload_seed,
        **dict(spec.workload_params),
    )


@dataclass(frozen=True)
class _RunPlan:
    """What a ``"protocol"``-runner spec resolves to before any engine runs."""

    protocol: PopulationProtocol
    colors: list[int]
    criterion: ConvergenceCriterion
    #: Count the quantities of the paper's proof: ket exchanges and the
    #: initial/final configuration energies (Theorem 3.4).
    circles_metrics: bool
    budget: int


def _plan(spec: RunSpec) -> _RunPlan:
    """Resolve a spec's protocol, inputs, criterion, metrics and budget.

    The one place the Circles defaults are decided: a Circles spec without a
    criterion stops on :class:`StableCircles` and counts the Circles
    metrics; every other spec stops on its named criterion, or
    :class:`OutputConsensus` when it names none.
    """
    colors = resolve_workload(spec)
    protocol = get_protocol(spec.protocol, spec.k, **dict(spec.protocol_params))
    circles_metrics = spec.protocol == "circles" and spec.criterion is None
    criterion = (
        StableCircles()
        if circles_metrics
        else build_criterion(spec.criterion or OutputConsensus.name)
    )
    budget = (
        spec.max_steps
        if spec.max_steps is not None
        else default_max_steps(len(colors), protocol.num_colors)
    )
    return _RunPlan(protocol, colors, criterion, circles_metrics, budget)


def _protocol_runner(spec: RunSpec) -> RunRecord:
    """The default strategy: a registry protocol on the spec's workload.

    A spec the lockstep path can reproduce runs as a replicate group of
    one; the rest (other engines, schedulers, observers, unseeded specs) go
    through the engine loop of :mod:`repro.simulation.runner`.
    """
    if _replicate_groupable(spec):
        return execute_replicate_group([spec])[0]
    plan = _plan(spec)
    scheduler = None
    if spec.scheduler is not None:
        scheduler_seed = None if spec.seed is None else derive_seed(spec.seed, "scheduler")
        scheduler = build_scheduler(
            spec.scheduler,
            spec.n,
            seed=scheduler_seed,
            protocol=plan.protocol,
            **dict(spec.scheduler_params),
        )
    result = _run_engine(
        plan.protocol,
        plan.colors,
        plan.criterion,
        circles_metrics=plan.circles_metrics,
        scheduler=scheduler,
        max_steps=plan.budget,
        seed=spec.seed,
        engine=spec.engine,
        compiled=spec.compiled,
        observers=spec.observers,
    )
    extras: dict[str, object] = {}
    if result.observer_summaries:
        extras["observers"] = result.observer_summaries
    if result.exact is not None:
        # The analytical engine's DistributionResult payload; JSON-native by
        # construction, so the record round trip stays lossless.
        extras["exact"] = result.exact
    return RunRecord.from_result(spec, result, extras=extras)


register_runner("protocol", _protocol_runner)


def execute_run(spec: RunSpec) -> RunRecord:
    """Execute one spec and return its record.

    A pure function of the spec (all randomness flows from the spec's seeds),
    so it can run in any process in any order.
    """
    return get_runner(spec.runner)(spec)


# --------------------------------------------------------------------------- #
# exact anchors for adaptive stopping
# --------------------------------------------------------------------------- #

#: Configuration-space cap for stopping-rule anchors: bounds the BFS the
#: anchor solve may attempt per cell, so an anchor lookup on a large
#: population degrades to "no anchor" quickly instead of enumerating for
#: minutes (mirrors E6's cap for its exact column).
EXACT_ANCHOR_MAX_CONFIGURATIONS = 4_000


def exact_anchor_value(spec: RunSpec, metric: str) -> float | None:
    """The exact engine's analytical value of ``metric`` for ``spec``'s cell.

    The anchor a :class:`~repro.api.stopping.StoppingRule` with
    ``exact_anchor=True`` compares its empirical confidence interval against:
    the correctness probability for ``metric="correct"``, the expected
    interactions to convergence for ``metric="steps"`` — both computed on the
    cell's exact workload colors under the uniform-random-scheduler Markov
    chain (:mod:`repro.exact`).

    Returns ``None`` — "no anchor; stop on the half-width rule alone" —
    whenever the analytical value does not exist or does not describe what
    the empirical runs sample: other metrics, custom runners, schedulers
    other than uniform-random (including the agent engine's default
    random-permutation scheduler), inputs without a unique majority,
    criteria not almost surely reached, and chains past the exact-analysis
    caps.

    The exact pipeline quotients the chain by the input's color symmetries
    by default, so the configuration cap counts *orbit representatives*:
    symmetric (tied) cells whose raw configuration count exceeds the cap
    can still anchor as long as their quotient fits.
    """
    if metric not in ("correct", "steps") or spec.runner != "protocol":
        return None
    engine_cls = ENGINES.get(spec.engine)
    if spec.scheduler is None:
        # Only the configuration-level engines sample the uniform chain
        # implicitly; the agent engine defaults to random-permutation.
        if engine_cls is None or issubclass(engine_cls, AgentSimulation):
            return None
    elif spec.scheduler != UniformRandomScheduler.name:
        return None
    from repro.exact import (
        ChainTooLarge,
        SolveTooLarge,
        exact_correctness_probability,
        exact_expected_convergence,
    )
    from repro.exact.solve import practical_max_transient

    plan = _plan(spec)
    try:
        if metric == "correct":
            return exact_correctness_probability(
                plan.protocol, plan.colors, max_configurations=EXACT_ANCHOR_MAX_CONFIGURATIONS
            )
        return exact_expected_convergence(
            plan.protocol,
            plan.colors,
            plan.criterion,
            max_configurations=EXACT_ANCHOR_MAX_CONFIGURATIONS,
            max_transient=practical_max_transient(),
        )
    except (ChainTooLarge, SolveTooLarge):
        return None


# --------------------------------------------------------------------------- #
# replicate groups
# --------------------------------------------------------------------------- #


def replicate_group_key(spec: RunSpec) -> str:
    """The grouping key: the spec's canonical JSON with the run seed blanked.

    Two specs with equal keys describe the same experiment point — same
    workload (the workload seed is part of the key, so the input colors are
    too), same protocol, same engine, same budget — and differ only in the
    per-run seed.  That is exactly the set the vector engine can advance in
    lockstep.
    """
    payload = spec.to_dict()
    payload.pop("seed", None)
    return canonical_json(payload)


def _replicate_groupable(spec: RunSpec) -> bool:
    """Whether a spec may be executed as a row of a replicate group.

    The gate mirrors what the lockstep driver can reproduce bit-for-bit:
    the default ``"protocol"`` runner under the uniform random scheduler
    (configuration-level engines simulate it directly), no observers, a
    concrete run seed, and a pinned workload seed (without one the input
    colors would vary with the run seed, so the rows would not share a
    configuration).  The engine itself opts in via the
    ``supports_replicates`` class flag.
    """
    engine_cls = ENGINES.get(spec.engine)
    return (
        spec.runner == "protocol"
        and spec.scheduler is None
        and not spec.observers
        and spec.seed is not None
        and spec.workload_seed is not None
        and engine_cls is not None
        and engine_cls.supports_replicates
    )


def _configuration_energy_counts(configuration, num_colors: int) -> int:
    """``configuration_energy`` of a final configuration, ``O(d)`` not ``O(n)``."""
    states = list(configuration.support())
    weights = state_weights(states, num_colors)
    return sum(configuration[state] * weight for state, weight in zip(states, weights))


def _replicate_record(
    spec: RunSpec,
    outcome: ReplicateOutcome,
    protocol: PopulationProtocol,
    num_colors: int,
    majority: int | None,
    initial_energy: int | None,
) -> RunRecord:
    """One row's :class:`RunRecord`, matching :func:`execute_run` field by field.

    Assembled from the row's final configuration (a multiset over ``d``
    states) instead of a per-agent state list, so record assembly is
    ``O(d)`` per row — per-row ``O(n)`` Python here would swallow the
    group's vectorization win.
    """
    output = protocol.output
    support_outputs = {output(state) for state in outcome.configuration.support()}
    final_energy = (
        _configuration_energy_counts(outcome.configuration, num_colors)
        if initial_energy is not None
        else None
    )
    return RunRecord(
        spec=spec,
        seed=spec.seed,
        protocol_name=protocol.name,
        num_agents=spec.n,
        num_colors=num_colors,
        engine=spec.engine,
        scheduler_name="uniform-random",
        converged=outcome.converged,
        correct=majority is not None and support_outputs == {majority},
        steps=outcome.steps,
        interactions_changed=outcome.interactions_changed,
        majority=majority,
        unanimous=len(support_outputs) == 1,
        ket_exchanges=outcome.ket_exchanges,
        initial_energy=initial_energy,
        final_energy=final_energy,
        extras={},
    )


def execute_replicate_group(specs: Sequence[RunSpec]) -> list[RunRecord]:
    """Execute a replicate group in lockstep; records match serial execution.

    A pure function of the specs, picklable for the multiprocessing
    executor.  This is also how :func:`execute_run` executes a single
    eligible spec — as a group of one.  Specs the lockstep path cannot
    reproduce fall back to :func:`execute_run` per spec, so callers never
    need to pre-check eligibility.

    Raises:
        ValueError: when the specs disagree on anything but the run seed, or
            when two rows share a seed.  Shared seeds would silently produce
            duplicated trajectories masquerading as independent replicates;
            the SHA-derived seeds of :meth:`SweepSpec.expand` are pairwise
            distinct by construction, so a collision here means hand-built
            specs reused one.
    """
    specs = list(specs)
    if not specs:
        return []
    if not all(_replicate_groupable(spec) for spec in specs):
        return [execute_run(spec) for spec in specs]
    key = replicate_group_key(specs[0])
    if any(replicate_group_key(spec) != key for spec in specs[1:]):
        raise ValueError(
            "replicate group specs must be identical up to the run seed; "
            "group runs with SweepRunner (or execute each spec with "
            "execute_run) instead of hand-assembling mixed groups"
        )
    seeds = [spec.seed for spec in specs]
    if len(set(seeds)) != len(seeds):
        raise ValueError(
            f"replicate run seeds must be pairwise distinct, got "
            f"{len(seeds) - len(set(seeds))} duplicate(s) among {len(seeds)} rows; "
            "identical seeds replay identical trajectories instead of "
            "independent replicates"
        )
    plan = _plan(specs[0])
    protocol, num_colors = plan.protocol, plan.protocol.num_colors
    initial_energy = (
        configuration_energy(
            [protocol.initial_state(color) for color in plan.colors], num_colors
        )
        if plan.circles_metrics
        else None
    )
    group = VectorReplicateSimulation.replicate_group_from_colors(
        protocol,
        plan.colors,
        seeds,
        compiled=specs[0].compiled,
        count_ket_exchanges=plan.circles_metrics,
    )
    outcomes = group.run(plan.budget, criterion=plan.criterion)
    majority = _true_majority(plan.colors)
    return [
        _replicate_record(spec, outcome, protocol, num_colors, majority, initial_energy)
        for spec, outcome in zip(specs, outcomes)
    ]


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #


class SerialExecutor:
    """Run every spec in the calling process, in order."""

    def map(self, specs: Sequence[RunSpec]) -> list[RunRecord]:
        return [execute_run(spec) for spec in specs]

    def map_groups(self, groups: Sequence[Sequence[RunSpec]]) -> list[list[RunRecord]]:
        """Execute replicate groups in order (see :func:`execute_replicate_group`)."""
        return [execute_replicate_group(group) for group in groups]


class MultiprocessingExecutor:
    """Fan specs out over a ``multiprocessing`` pool.

    Records come back in spec order (``Pool.map`` preserves ordering), and
    because :func:`execute_run` derives all randomness from the spec, the
    result is record-for-record identical to :class:`SerialExecutor`.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers

    def map(self, specs: Sequence[RunSpec]) -> list[RunRecord]:
        if self.workers == 1 or len(specs) <= 1:
            return SerialExecutor().map(specs)
        context = multiprocessing.get_context()
        with context.Pool(processes=min(self.workers, len(specs))) as pool:
            return pool.map(execute_run, specs)

    def map_groups(self, groups: Sequence[Sequence[RunSpec]]) -> list[list[RunRecord]]:
        """One pool task per replicate group; group order is preserved."""
        if self.workers == 1 or len(groups) <= 1:
            return SerialExecutor().map_groups(groups)
        context = multiprocessing.get_context()
        with context.Pool(processes=min(self.workers, len(groups))) as pool:
            return pool.map(execute_replicate_group, [list(group) for group in groups])


#: ``builder(workers, **params) -> executor`` (an object with
#: ``map(specs) -> list[RunRecord]``).  ``workers`` may be ``None`` for the
#: builder's own default.
ExecutorBuilder = Callable[..., object]

EXECUTORS: dict[str, ExecutorBuilder] = {
    "serial": lambda workers=None, **params: SerialExecutor(),
    "multiprocessing": lambda workers=None, **params: MultiprocessingExecutor(
        workers if workers is not None else 1
    ),
}


def register_executor(name: str, builder: ExecutorBuilder, *, overwrite: bool = False) -> None:
    """Register a named executor usable as ``SweepRunner(executor=name)``."""
    if not overwrite and name in EXECUTORS:
        raise ValueError(f"executor name {name!r} is already registered")
    EXECUTORS[name] = builder


def available_executors() -> tuple[str, ...]:
    """The names :func:`build_executor` accepts, sorted."""
    _import_service_executors()
    return tuple(sorted(EXECUTORS))


def _import_service_executors() -> None:
    """Import :mod:`repro.service` once so its executors self-register.

    Mirrors :func:`get_runner`'s lazy experiment import: the service package
    registers the ``"asyncio"`` work-stealing executor on import, and
    importing it *here* (instead of at module top) keeps ``repro.api`` free
    of a circular dependency on the service layer.
    """
    if "asyncio" not in EXECUTORS:
        import repro.service  # noqa: F401  (registers service executors)


def build_executor(name: str, workers: int | None = None, **params: object):
    """Instantiate an executor by registry name.

    Raises:
        KeyError: for unknown names, listing the available ones (the shared
            registry error contract of :mod:`repro.utils.errors`).
    """
    _import_service_executors()
    try:
        builder = EXECUTORS[name]
    except KeyError:
        raise unknown_name_error("executor", name, EXECUTORS) from None
    return builder(workers=workers, **params)


class SweepRunner:
    """Execute a :class:`SweepSpec` through a pluggable executor.

    ``workers=None`` (or 1) runs serially; ``workers=N`` uses a
    ``multiprocessing`` pool of N processes.  Pass ``executor=`` to pick an
    executor from the registry by name (``"serial"``, ``"multiprocessing"``,
    the service layer's ``"asyncio"``) or to supply any object with a
    ``map(specs) -> list[RunRecord]`` method directly.

    ``store=`` plugs in a result cache (duck-typed; canonically a
    :class:`repro.service.store.ResultStore`).  With a store attached the
    runner serves every spec whose SHA is already stored instead of
    re-executing it, persists fresh records as they complete, and checkpoints
    progress in the store's sweep manifest — so a killed sweep restarted on
    the same store executes only the remainder.  ``chunk_size`` bounds how
    many execution units are in flight between checkpoints (default: one
    executor round's worth).

    ``vectorize=True`` (the default) detects replicate groups — pending runs
    identical up to the run seed, the shape ``trials > 1`` expands to — and
    dispatches each whole group to the vector engine's lockstep driver
    through the executor's ``map_groups``.  ``vectorize=False`` sends every
    spec through ``map`` instead, where an eligible spec runs as a group of
    one.  A run's record does not depend on the routing (see
    :func:`execute_replicate_group`), so the store, the manifest, and every
    consumer are oblivious to it; a partially cached group simply shrinks to
    its pending rows.  Executors without a ``map_groups`` method (any
    pre-existing custom executor) transparently keep the one-spec-at-a-time
    path.  For chunking purposes a replicate group counts as one unit.
    """

    def __init__(
        self,
        workers: int | None = None,
        executor: object | str | None = None,
        store=None,
        chunk_size: int | None = None,
        vectorize: bool = True,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(
                f"workers must be a positive number of worker processes, got "
                f"{workers}; omit it (or pass None) to run serially"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        if isinstance(executor, str):
            self.executor = build_executor(executor, workers=workers)
        elif executor is not None:
            self.executor = executor
        elif workers is not None and workers > 1:
            self.executor = MultiprocessingExecutor(workers)
        else:
            self.executor = SerialExecutor()
        self.store = store
        self.chunk_size = chunk_size
        self.vectorize = vectorize
        #: Per-cell stopping diagnostics of the most recent adaptive sweep
        #: (cell coordinates + :meth:`StopDecision.to_dict`), in cell order;
        #: empty after fixed sweeps.
        self.last_stopping: list[dict] = []

    def run(self, sweep: SweepSpec) -> SweepResult:
        """Expand the sweep and execute every run (through the cache, if any).

        Adaptive sweeps (``trials="auto"``) return their records in cell
        order (each cell's executed trials in trial order) with the per-cell
        stopping diagnostics under ``result.extras["stopping"]``.
        """
        if sweep.is_adaptive:
            by_index = {
                index: record for index, record, _cached in self._iter_adaptive(sweep)
            }
            return SweepResult(
                spec=sweep,
                records=[by_index[index] for index in sorted(by_index)],
                extras={"stopping": list(self.last_stopping)},
            )
        specs = sweep.expand()
        records: list[RunRecord | None] = [None] * len(specs)
        if self.store is None:
            units = self._units(specs, list(range(len(specs))))
            for index, record in self._execute_units(specs, units):
                records[index] = record
        else:
            for index, record, _cached in self._iter_with_store(sweep, specs):
                records[index] = record
        return SweepResult(spec=sweep, records=list(records))

    def run_iter(self, sweep: SweepSpec):
        """Execute the sweep, yielding ``(index, record, cached)`` as runs finish.

        ``index`` is the run's position in ``sweep.expand()`` and ``cached``
        is True when the record came from the store instead of an execution.
        This is the streaming entry point behind the sweep service: records
        are yielded (and, with a store, persisted) chunk by chunk, so a
        consumer sees results while the sweep is still running and a crash
        loses at most the chunk in flight.

        For adaptive sweeps ``index`` is the run's position in the
        ``max_trials`` expansion (``cell_index · max_trials + trial``) and
        only executed trials are yielded; the per-cell stopping diagnostics
        are available as ``runner.last_stopping`` once the generator is
        exhausted.
        """
        if sweep.is_adaptive:
            yield from self._iter_adaptive(sweep)
            return
        specs = sweep.expand()
        if self.store is not None:
            yield from self._iter_with_store(sweep, specs)
            return
        for chunk in self._chunks(self._units(specs, list(range(len(specs))))):
            for index, record in self._execute_units(specs, chunk):
                yield index, record, False

    # -- adaptive (trials="auto") execution ---------------------------------------

    def _iter_adaptive(self, sweep: SweepSpec):
        """Sequential sampling: run each cell in batches until its rule stops it.

        The schedule is deterministic — every cell is evaluated at the fixed
        checkpoints ``min_trials, +batch_size, …, max_trials`` of the sweep's
        :class:`~repro.api.stopping.StoppingRule`, and
        :meth:`StoppingRule.evaluate` is a pure function of the cell's metric
        values in trial order — so the executed trial set (and therefore the
        result) is identical across executors, re-runs, and kill/resume.

        Everything flows through the same machinery as fixed sweeps: trial
        seeds come from the ``(cell, trial)`` derivation (the first ``B``
        trials of a cell are record-identical to a fixed ``trials=B`` sweep
        and share its store entries), a round's batch of a cell forms a
        replicate group for the vector engine, and the store/manifest
        checkpointing works per round.  The manifest's universe is the full
        ``max_trials`` expansion; early-stopped trials simply stay pending —
        advisory only, the store remains the source of truth on resume.
        """
        rule = sweep.stopping_rule
        assert rule is not None  # SweepSpec.__post_init__ defaults it
        cells = sweep.expand_cells()
        max_trials = rule.max_trials
        specs = [cell.spec(trial) for cell in cells for trial in range(max_trials)]
        manifest = None
        if self.store is not None:
            manifest = self.store.open_manifest(sweep, specs)
        values: list[dict[int, float]] = [{} for _ in cells]
        decisions: list[StopDecision | None] = [None] * len(cells)
        anchors: dict[int, float | None] = {}
        done_trials = [0] * len(cells)
        active = list(range(len(cells)))
        while active:
            batch: list[int] = []
            for cell_index in active:
                target = rule.next_target(done_trials[cell_index])
                batch.extend(
                    cell_index * max_trials + trial
                    for trial in range(done_trials[cell_index], target)
                )
                done_trials[cell_index] = target
            pending: list[int] = []
            for index in batch:
                record = self.store.get(specs[index]) if self.store is not None else None
                if record is not None:
                    assert manifest is not None
                    manifest.mark_done(index)
                    self._note_metric(rule, cells, values, index, max_trials, record)
                    yield index, record, True
                else:
                    pending.append(index)
            if self.store is not None:
                self.store.save_manifest(manifest)
            for chunk in self._chunks(self._units(specs, pending)):
                for index, record in self._execute_units(specs, chunk):
                    if self.store is not None:
                        self.store.put(specs[index], record)
                        assert manifest is not None
                        manifest.mark_done(index)
                    self._note_metric(rule, cells, values, index, max_trials, record)
                    yield index, record, False
                if self.store is not None:
                    self.store.save_manifest(manifest)
            still_active: list[int] = []
            for cell_index in active:
                if rule.exact_anchor and cell_index not in anchors:
                    anchors[cell_index] = exact_anchor_value(
                        cells[cell_index].spec(0), rule.metric
                    )
                ordered = [
                    values[cell_index][trial]
                    for trial in sorted(values[cell_index])
                ]
                decision = rule.evaluate(ordered, anchor=anchors.get(cell_index))
                if decision is None:
                    still_active.append(cell_index)
                else:
                    decisions[cell_index] = decision
            active = still_active
        self.last_stopping = [
            {**cell.describe(), **decision.to_dict()}
            for cell, decision in zip(cells, decisions)
            if decision is not None
        ]

    @staticmethod
    def _note_metric(
        rule: StoppingRule,
        cells: Sequence[SweepCell],
        values: list[dict[int, float]],
        index: int,
        max_trials: int,
        record: RunRecord,
    ) -> None:
        """Record one trial's metric value for its cell's stop evaluation."""
        cell_index, trial = divmod(index, max_trials)
        value = _aggregate.record_value(record, rule.metric)
        if value is None:
            raise ValueError(
                f"stopping metric {rule.metric!r} is None on a record of cell "
                f"{cells[cell_index].describe()}; pick a metric the cell's "
                "runner actually measures"
            )
        values[cell_index][trial] = float(value)

    # -- replicate-group routing ------------------------------------------------

    def _units(self, specs: Sequence[RunSpec], indices: list[int]) -> list[list[int]]:
        """Partition pending run indices into execution units.

        A unit is either a singleton (executed through ``executor.map``) or a
        replicate group (executed through ``executor.map_groups``).  Groups
        preserve first-seen order, and a seed that repeats within a group is
        split off into its own singleton — a duplicated spec is a legitimate
        sweep (with a store it is simply a cache hit), not the hard error
        :func:`execute_replicate_group` reserves for hand-built groups.
        """
        if not self.vectorize or not hasattr(self.executor, "map_groups"):
            return [[index] for index in indices]
        units: list[list[int]] = []
        groups: dict[str, tuple[list[int], set[int | None]]] = {}
        for index in indices:
            spec = specs[index]
            if not _replicate_groupable(spec):
                units.append([index])
                continue
            key = replicate_group_key(spec)
            entry = groups.get(key)
            if entry is not None and spec.seed not in entry[1]:
                entry[0].append(index)
                entry[1].add(spec.seed)
            elif entry is not None:
                units.append([index])
            else:
                unit = [index]
                groups[key] = (unit, {spec.seed})
                units.append(unit)
        return units

    def _execute_units(
        self, specs: Sequence[RunSpec], units: list[list[int]]
    ) -> list[tuple[int, RunRecord]]:
        """Execute a batch of units; returns ``(index, record)`` in index order."""
        singles = [unit[0] for unit in units if len(unit) == 1]
        groups = [unit for unit in units if len(unit) > 1]
        pairs: list[tuple[int, RunRecord]] = []
        if singles:
            pairs.extend(zip(singles, self.executor.map([specs[i] for i in singles])))
        if groups:
            group_records = self.executor.map_groups(
                [[specs[i] for i in unit] for unit in groups]
            )
            for unit, records in zip(groups, group_records):
                pairs.extend(zip(unit, records))
        pairs.sort(key=lambda pair: pair[0])
        return pairs

    # -- store-backed execution -------------------------------------------------

    def _chunks(self, units: list) -> Iterator[list]:
        size = self.chunk_size if self.chunk_size is not None else self._default_chunk_size()
        for start in range(0, len(units), size):
            yield units[start : start + size]

    def _default_chunk_size(self) -> int:
        """One executor round: every worker busy, checkpoint after each round."""
        workers = getattr(self.executor, "workers", 1)
        try:
            return max(1, int(workers))
        except (TypeError, ValueError):
            return 1

    def _iter_with_store(self, sweep: SweepSpec, specs: Sequence[RunSpec]):
        manifest = self.store.open_manifest(sweep, specs)
        pending: list[int] = []
        for index, spec in enumerate(specs):
            record = self.store.get(spec)
            if record is not None:
                manifest.mark_done(index)
                yield index, record, True
            else:
                manifest.mark_pending(index)
                pending.append(index)
        self.store.save_manifest(manifest)
        for chunk in self._chunks(self._units(specs, pending)):
            for index, record in self._execute_units(specs, chunk):
                self.store.put(specs[index], record)
                manifest.mark_done(index)
                yield index, record, False
            self.store.save_manifest(manifest)


def run_sweep(
    sweep: SweepSpec,
    workers: int | None = None,
    store=None,
    executor: object | str | None = None,
    vectorize: bool = True,
) -> SweepResult:
    """Execute a sweep; ``workers`` defaults to the spec's own ``workers`` field.

    ``store=`` enables the content-addressed result cache (runs already in
    the store are served, fresh ones persisted); ``executor=`` picks an
    executor by registry name or instance; ``vectorize=False`` runs one
    replicate group per spec instead of one per group of trials (the records
    are identical either way — the flag exists for A/B timing and
    debugging).
    """
    effective = workers if workers is not None else sweep.workers
    return SweepRunner(
        workers=effective, executor=executor, store=store, vectorize=vectorize
    ).run(sweep)
