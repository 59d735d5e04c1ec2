"""High-level run API.

``run_protocol`` and ``run_circles`` wrap the engines, schedulers and
convergence criteria into one call that the examples, the tests and the
experiment harness all share.  The result is a :class:`RunResult` dataclass
holding everything an experiment needs to report: whether the run converged,
whether the final outputs are correct, how many interactions and ket
exchanges it took, and the initial/final energies.

Both entry points share one engine loop; ``run_circles`` only adds the
Circles defaults.  Seeded specs on the lockstep engines execute through
:mod:`repro.api.executor`'s replicate groups instead, with identical
records; the tests use this module as their independent reference.

Engine selection
----------------

Both entry points accept ``engine=`` with a registry name from
:mod:`repro.simulation.registry`:

* ``"agent"`` (default) — per-agent simulation; the only engine that
  supports custom schedulers (``scheduler=``) and trace recording
  (``record_trace=True``).
* ``"configuration"`` — exact sequential configuration-level sampling of the
  uniform random scheduler.
* ``"batch"`` — the batched configuration-level engine; the fast path for
  large populations (E6-scale convergence sweeps).
* ``"exact"`` — the analytical engine (:mod:`repro.exact`): solves the
  uniform-random-scheduler Markov chain instead of sampling it.  The
  result's ``steps`` / ``interactions_changed`` are exact *expected* values,
  ``correct`` means "correct with probability one", ``outputs`` reflect the
  modal stable outcome, and the full :class:`~repro.exact.result.DistributionResult`
  rides on :attr:`RunResult.exact` (JSON-native, persisted into sweep
  records).  Small populations only — the configuration space is enumerated
  exhaustively.

The configuration-level engines *are* the uniform random scheduler, so they
reject an explicit ``scheduler=`` argument; results report the scheduler as
``"uniform-random"``.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

from repro.core.circles import CirclesProtocol, CirclesVariant
from repro.core.greedy_sets import has_unique_majority, predicted_majority
from repro.core.potential import configuration_energy
from repro.protocols.base import PopulationProtocol
from repro.scheduling.base import Scheduler
from repro.simulation.base import SimulationEngine
from repro.simulation.convergence import ConvergenceCriterion, OutputConsensus, StableCircles
from repro.simulation.engine import AgentSimulation
from repro.simulation.observers import (
    KetExchangeObserver,
    Observer,
    build_observer,
    ket_exchange_occurred,
)
from repro.simulation.registry import get_engine
from repro.simulation.trace import Trace
from repro.utils.rng import RngLike

State = TypeVar("State", bound=Hashable)

__all__ = [
    "RunResult",
    "default_max_steps",
    "ket_exchange_occurred",
    "run_circles",
    "run_protocol",
]


def default_max_steps(num_agents: int, num_colors: int) -> int:
    """A generous default interaction budget.

    Under weakly fair schedulers Circles stabilizes after at most
    ``O(n·k)`` ket exchanges, each realized within one scheduler cycle of
    ``n·(n-1)`` interactions, so ``c·n²·(n + k)`` interactions are ample for
    the population sizes the tests and examples use.  Benchmarks override
    this with experiment-specific budgets.
    """
    return max(2_000, 4 * num_agents * num_agents * (num_agents + num_colors))


def _resolve_observers(
    observers: Sequence[Observer | str | tuple] | None,
) -> list[Observer]:
    """Resolve an ``observers=`` argument into live observer instances.

    Accepts :class:`~repro.simulation.observers.Observer` instances, registry
    names, and ``(name, params)`` pairs (the ``RunSpec.observers`` spelling).
    """
    resolved: list[Observer] = []
    for entry in observers or ():
        if isinstance(entry, str):
            resolved.append(build_observer(entry))
        elif isinstance(entry, (tuple, list)):
            name, params = entry
            resolved.append(build_observer(name, **dict(params)))
        else:
            resolved.append(entry)
    return resolved


def _validate_input_colors(colors: Sequence[int]) -> None:
    """Population protocols need an interaction partner for every agent."""
    if len(colors) < 2:
        raise ValueError(
            f"at least two input colors are required (one per agent), got {len(colors)}"
        )


@dataclass
class RunResult:
    """Everything a single protocol run reports."""

    protocol_name: str
    num_agents: int
    num_colors: int
    input_colors: tuple[int, ...]
    scheduler_name: str
    converged: bool
    steps: int
    interactions_changed: int
    outputs: tuple[int, ...]
    majority: int | None
    correct: bool
    final_states: tuple = ()
    ket_exchanges: int | None = None
    initial_energy: int | None = None
    final_energy: int | None = None
    #: Registry name of the engine that produced the result.
    engine: str | None = None
    #: The integer seed the run was started with (``None`` for unseeded runs
    #: or runs seeded with a live ``random.Random`` instance).
    seed: int | None = None
    #: ``{observer name: summary}`` for the observers the run was asked to
    #: attach (JSON-native; sweeps persist it into ``RunRecord.extras``).
    observer_summaries: dict = field(default_factory=dict)
    #: For ``engine="exact"`` runs, the
    #: :meth:`~repro.exact.result.DistributionResult.to_dict` payload of the
    #: analytical result (absorption probabilities, exact expected
    #: interactions, correctness probability); ``None`` for sampled runs.
    exact: dict | None = None
    trace: Trace | None = field(default=None, repr=False)

    @property
    def unanimous(self) -> bool:
        """Whether every agent reports the same color."""
        return len(set(self.outputs)) == 1

    def summary(self) -> dict[str, object]:
        """A flat dictionary for tabular reports."""
        return {
            "protocol": self.protocol_name,
            "n": self.num_agents,
            "k": self.num_colors,
            "scheduler": self.scheduler_name,
            "engine": self.engine,
            "seed": self.seed,
            "converged": self.converged,
            "correct": self.correct,
            "steps": self.steps,
            "interactions_changed": self.interactions_changed,
            "ket_exchanges": self.ket_exchanges,
        }


def _true_majority(colors: Sequence[int]) -> int | None:
    return predicted_majority(colors) if has_unique_majority(colors) else None


def _run_engine(
    protocol: PopulationProtocol[State],
    colors: Sequence[int],
    criterion: ConvergenceCriterion[State],
    circles_metrics: bool,
    scheduler: Scheduler | None = None,
    max_steps: int | None = None,
    seed: RngLike = None,
    record_trace: bool = False,
    check_interval: int | None = None,
    engine: str = "agent",
    compiled: bool | None = None,
    observers: Sequence[Observer | str | tuple] | None = None,
) -> RunResult:
    """The engine loop behind :func:`run_protocol` and :func:`run_circles`.

    ``circles_metrics`` adds the quantities of the paper's proof to the
    result: the ket exchanges (counted by a
    :class:`~repro.simulation.observers.KetExchangeObserver`) and the
    initial/final configuration energies of Theorem 3.4.
    """
    colors = tuple(colors)
    _validate_input_colors(colors)
    num_colors = protocol.num_colors
    budget = max_steps if max_steps is not None else default_max_steps(len(colors), num_colors)
    engine_cls = get_engine(engine)
    # compiled=None leaves each engine on its own default: the
    # configuration-level engines compile transparently, the agent engine
    # does not (it exists for arbitrary schedulers and per-step
    # instrumentation).
    if issubclass(engine_cls, AgentSimulation):
        trace = Trace() if record_trace else None
        simulation: SimulationEngine[State] = engine_cls.from_colors(
            protocol, colors, seed=seed, scheduler=scheduler, trace=trace, compiled=bool(compiled)
        )
        scheduler_name = simulation.scheduler.name
    else:
        if scheduler is not None:
            raise ValueError(
                f"engine {engine!r} simulates the uniform random scheduler directly; "
                "pass engine='agent' to use a custom scheduler"
            )
        if record_trace:
            raise ValueError(
                f"engine {engine!r} does not track individual agents; "
                "pass engine='agent' to record an interaction trace"
            )
        simulation = engine_cls.from_colors(protocol, colors, seed=seed, compiled=compiled)
        trace, scheduler_name = None, "uniform-random"

    initial_energy: int | None = None
    exchange_counter: KetExchangeObserver | None = None
    if circles_metrics:
        initial_energy = configuration_energy(
            [protocol.initial_state(color) for color in colors], num_colors
        )
        # The analytical engine simulates no interactions, so a ket-exchange
        # counter would misreport 0; circles runs on it report None instead.
        if engine_cls.samples_trajectories:
            exchange_counter = KetExchangeObserver()
    resolved = _resolve_observers(observers)
    for observer in [exchange_counter, *resolved] if exchange_counter else resolved:
        simulation.add_observer(observer)
    converged = simulation.run(budget, criterion=criterion, check_interval=check_interval)

    final_states = tuple(simulation.states())
    outputs = tuple(simulation.outputs())
    majority = _true_majority(colors)
    correct = majority is not None and all(output == majority for output in outputs)
    exact_result = getattr(simulation, "distribution_result", None)
    if exact_result is not None:
        # The analytical engine reports distribution-level correctness:
        # "correct" means the chain stabilizes on the majority output with
        # probability one, not just in the modal outcome.
        correct = bool(exact_result.always_correct)
    return RunResult(
        protocol_name=protocol.name,
        num_agents=len(colors),
        num_colors=num_colors,
        input_colors=colors,
        scheduler_name=scheduler_name,
        converged=converged,
        steps=simulation.steps_taken,
        interactions_changed=simulation.interactions_changed,
        outputs=outputs,
        majority=majority,
        correct=correct,
        final_states=final_states,
        ket_exchanges=exchange_counter.exchanges if exchange_counter else None,
        initial_energy=initial_energy,
        final_energy=configuration_energy(final_states, num_colors) if circles_metrics else None,
        engine=engine,
        seed=seed if isinstance(seed, int) else None,
        observer_summaries={obs.name: obs.summary() for obs in resolved},
        exact=exact_result.to_dict() if exact_result is not None else None,
        trace=trace,
    )


def run_protocol(
    protocol: PopulationProtocol[State],
    colors: Sequence[int],
    scheduler: Scheduler | None = None,
    criterion: ConvergenceCriterion[State] | None = None,
    max_steps: int | None = None,
    seed: RngLike = None,
    record_trace: bool = False,
    check_interval: int | None = None,
    engine: str = "agent",
    compiled: bool | None = None,
    observers: Sequence[Observer | str | tuple] | None = None,
) -> RunResult:
    """Run any population protocol on an input color assignment.

    Args:
        protocol: the protocol to run.
        colors: one input color per agent (at least two agents).
        scheduler: defaults to :class:`RandomPermutationScheduler` (weakly
            fair and randomized), seeded with ``seed``; only the ``"agent"``
            engine accepts one.
        criterion: defaults to :class:`OutputConsensus`.
        max_steps: interaction budget; defaults to
            :func:`default_max_steps`.
        seed: seed for the default scheduler (``"agent"`` engine) or the
            engine's sampler (configuration-level engines).
        record_trace: record a full interaction trace on the result
            (``"agent"`` engine only).
        check_interval: how often (in interactions) the criterion is checked;
            defaults to :func:`~repro.simulation.base.default_check_interval`.
        engine: engine registry name — ``"agent"``, ``"configuration"``,
            ``"batch"``, or the analytical ``"exact"`` (see the module
            docstring for its distribution-level result semantics).
        compiled: whether the engine runs on compiled transition tables
            (:mod:`repro.compile`).  ``None`` keeps each engine's default
            (configuration-level engines compile, the agent engine does not);
            ``False`` forces the uncompiled path, e.g. for benchmarks.
        observers: observers to attach for the run
            (:mod:`repro.simulation.observers`): instances, registry names,
            or ``(name, params)`` pairs.  Their ``summary()`` dictionaries
            are reported as ``RunResult.observer_summaries``.

    Returns:
        A :class:`RunResult`; ``correct`` is True when the input has a unique
        majority and every agent outputs it.
    """
    return _run_engine(
        protocol,
        colors,
        criterion if criterion is not None else OutputConsensus(),
        circles_metrics=False,
        scheduler=scheduler,
        max_steps=max_steps,
        seed=seed,
        record_trace=record_trace,
        check_interval=check_interval,
        engine=engine,
        compiled=compiled,
        observers=observers,
    )


def run_circles(
    colors: Sequence[int],
    num_colors: int | None = None,
    scheduler: Scheduler | None = None,
    variant: CirclesVariant | None = None,
    max_steps: int | None = None,
    seed: RngLike = None,
    record_trace: bool = False,
    check_interval: int | None = None,
    engine: str = "agent",
    compiled: bool | None = None,
    observers: Sequence[Observer | str | tuple] | None = None,
) -> RunResult:
    """Run the Circles protocol on an input color assignment.

    :func:`run_protocol` with the Circles defaults: the Circles-specific
    :class:`StableCircles` stopping criterion, plus the number of ket
    exchanges (counted by a
    :class:`~repro.simulation.observers.KetExchangeObserver`, exact on every
    engine) and the initial/final configuration energies.

    Args:
        colors: one input color per agent (at least two agents).
        num_colors: the protocol's ``k``; defaults to ``max(colors) + 1``.
        scheduler: defaults to a seeded :class:`RandomPermutationScheduler`;
            only the ``"agent"`` engine accepts one.
        variant: ablation switches; defaults to the paper's protocol.
        max_steps / seed / record_trace / check_interval / engine / compiled /
            observers: as in :func:`run_protocol`.
    """
    colors = tuple(colors)
    k = num_colors if num_colors is not None else max(colors, default=0) + 1
    return _run_engine(
        CirclesProtocol(k, variant=variant),
        colors,
        StableCircles(),
        circles_metrics=True,
        scheduler=scheduler,
        max_steps=max_steps,
        seed=seed,
        record_trace=record_trace,
        check_interval=check_interval,
        engine=engine,
        compiled=compiled,
        observers=observers,
    )
