"""The batched configuration-level simulation engine.

:class:`~repro.simulation.config_engine.ConfigurationSimulation` already
exploits anonymity to simulate the uniform random scheduler on state *counts*,
but it still pays two ``O(d)`` linear scans plus one transition evaluation per
interaction.  This engine amortizes all of that over *bursts* of interactions,
in the spirit of Gillespie-style aggregation (see
:mod:`repro.chemistry.gillespie`) and of the batched population-protocol
simulators of Berenbrink et al.:

- On the default *compiled* path (see :mod:`repro.compile`) with numpy
  available and ``n >= NUMPY_BURST_THRESHOLD``, the engine delegates to the
  position kernel of :mod:`repro.simulation.vector_kernel`: rounds of up to
  ``DEFAULT_ROUND`` interactions are drawn as unbiased pair codes, applied
  through the protocol's flat δ-table in a handful of vectorized array
  operations, and positions drawn twice in a round are replayed in exact
  sequential order.  The trajectory is a pure function of the engine's
  numpy stream — independent of how the budget is split into rounds — which
  is what lets the ``vector`` replicate engine
  (:mod:`repro.simulation.vector_engine`) reproduce batch runs bit-for-bit
  row by row.  The count vector is kept in sync per round from the kernel's
  corrected pair codes.
- Below ``NUMPY_BURST_THRESHOLD`` (and at any size without numpy, or
  uncompiled), the engine runs *bursts* in the spirit of Gillespie-style
  aggregation: interactions over pairwise-distinct agents commute, the
  number of interactions until an agent is re-drawn depends only on agent
  identities, so a maximal collision-free burst is sampled directly from
  the birthday-process distribution (``Θ(√n)`` interactions), its agents
  popped from a flat pool in ``O(1)`` and applied per ordered pair type,
  and the burst-ending collision interaction is applied exactly — matching
  the conditional distribution of the sequential process.  This is the
  path of every to-convergence run at ``n < 4096``.  On a compiled
  protocol the pool holds state codes and one loop runs all bursts of a
  check window on packed pair codes (:meth:`_run_pool_codes`); the
  uncompiled pool holds states and dispatches through ``transition``.
- Below ``SEQUENTIAL_FALLBACK_THRESHOLD`` agents, interactions are sampled
  one at a time from the pool.

The induced Markov chain over configurations is *identical* to
:class:`ConfigurationSimulation`'s (and to the agent engine's under the
uniform random scheduler) on every path — the kernel path reproduces the
sequential process exactly, interaction by interaction;
``tests/simulation/test_batch_engine.py`` checks the agreement
distributionally and ``tests/integration/test_engine_agreement``
checks that all engines settle in the configuration predicted by Lemma 3.6.
Convergence checks are amortized per burst through the shared
:meth:`~repro.simulation.base.SimulationEngine.run` loop, which makes
E6-scale convergence sweeps tractable at ``n = 10^5``–``10^6``.

Like every stochastic component of the library, Bernoulli and index draws are
resolved through ``random.Random.random()`` (53-bit resolution, the same
convention as :func:`repro.utils.rng.weighted_choice`); the numpy path
additionally derives a ``numpy.random.Generator`` from the engine seed for
its bulk draws.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Hashable, Iterable
from typing import Generic, TypeVar

from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.simulation.base import ConfigurationEngine, TransitionObserver
from repro.utils.multiset import Multiset
from repro.utils.rng import RngLike

try:  # numpy accelerates the compiled burst path; everything works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    _np = None

State = TypeVar("State", bound=Hashable)

#: Below this population size a burst is shorter than its bookkeeping, so the
#: engine samples interactions one at a time (still exactly, still through the
#: pool and the transition table).
SEQUENTIAL_FALLBACK_THRESHOLD = 16

#: Population size from which the vectorized position-kernel path beats the
#: pool path: numpy call overhead is per round, so it amortizes only once
#: rounds are long relative to their chained-position fraction (measured
#: crossover is near n = 4096 for Circles-sized tables).
NUMPY_BURST_THRESHOLD = 4096


class BatchConfigurationSimulation(ConfigurationEngine[State], Generic[State]):
    """Simulate the uniform random scheduler in exact batched bursts."""

    engine_name = "batch"
    #: Batch trajectories are a pure function of the engine seed's streams,
    #: so the vector replicate engine reproduces them bit-for-bit per row.
    supports_replicates = True

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        seed: RngLike = None,
        transition_observer: TransitionObserver | None = None,
        compiled: bool | None = None,
    ) -> None:
        super().__init__(
            protocol, initial, seed, transition_observer=transition_observer, compiled=compiled
        )
        self._transition_cache: dict[tuple[State, State], TransitionResult[State]] = {}
        self._neg_survival: list[float] | None = None
        self._kernel = None
        self._pool: list | None = None
        use_numpy = (
            self._compiled is not None
            and _np is not None
            and self._num_agents >= NUMPY_BURST_THRESHOLD
            and self._compiled.numpy_tables() is not None
        )
        if use_numpy:
            # Position-kernel representation: the kernel owns a (1 × n) state
            # row and the engine keeps the count vector in sync per round, so
            # no agent pool is materialized at all.
            from repro.simulation.vector_kernel import PairCodeKernel

            self._counts = _np.array(self._counts, dtype=_np.int64)
            table_np, _, _ = self._compiled.numpy_tables()
            self._kernel = PairCodeKernel(
                table_np,
                self._compiled.num_states,
                self._num_agents,
                [_np.random.default_rng(self._rng.getrandbits(63))],
                self._counts,
            )
        elif self._compiled is not None:
            #: Flat pool of encoded agent states; random pops are O(1).
            pool: list[int] = []
            for code, count in enumerate(self._counts):
                pool.extend([code] * count)
            self._pool = pool
        else:
            #: Flat pool of agent states; random pops are O(1) via swap-remove.
            self._pool = list(self._configuration.elements())

    # -- transition evaluation ---------------------------------------------------

    def _transition(self, initiator: State, responder: State) -> TransitionResult[State]:
        """Memoized Python-dispatch transition (uncompiled path only)."""
        key = (initiator, responder)
        result = self._transition_cache.get(key)
        if result is None:
            result = self.protocol.transition(initiator, responder)
            self._transition_cache[key] = result
        return result

    def _apply_pair(self, initiator, responder, count: int):
        """Transition one ordered pool pair type, book it, return the results."""
        if self._compiled is not None:
            a, b, changed = self._compiled.transition_codes(initiator, responder)
            if changed:
                self._book_changed_codes(initiator, responder, a, b, count)
            return a, b
        result = self._transition(initiator, responder)
        if result.changed:
            self._apply_changed_transition(initiator, responder, result, count)
        return result.initiator, result.responder

    # -- sampling primitives ------------------------------------------------------

    def _random_index(self, size: int) -> int:
        index = int(self._rng.random() * size)
        return size - 1 if index >= size else index

    def _pop_random(self):
        """Remove and return a uniformly random pool entry in O(1)."""
        pool = self._pool
        index = self._random_index(len(pool))
        last = pool.pop()
        if index < len(pool):
            state = pool[index]
            pool[index] = last
            return state
        return last

    def _sample_burst_length(self, cap: int) -> tuple[int, tuple[bool, bool] | None]:
        """Sample how many interactions precede the burst's first collision.

        Returns ``(length, collision)``: ``length`` non-colliding interactions
        (capped at ``cap``, in which case ``collision`` is None) followed by
        one interaction whose ``(initiator_is_touched, responder_is_touched)``
        pattern is ``collision``.  The pattern depends only on agent
        identities, so it is sampled before any state is drawn: with ``m``
        agents touched, an interaction's ordered slot pair is fresh/fresh,
        fresh/touched, touched/fresh or touched/touched with probabilities
        proportional to ``(n-m)(n-m-1)``, ``(n-m)·m``, ``m·(n-m)`` and
        ``m·(m-1)``.  The length is drawn by inverse transform on the
        birthday-process survival function (one uniform draw per burst); the
        collision pattern by one more draw over the three colliding masses.
        """
        n = self._num_agents
        total_pairs = float(n * (n - 1))
        rng_random = self._rng.random
        if self._neg_survival is None:
            # Precompute the survival function S_t = P(first t interactions
            # touch 2t distinct agents); it depends only on n.  Stored negated
            # so bisect can search the (ascending) sequence.  S_t underflows
            # to exactly 0.0 after O(√(n·log n)) entries, which bounds both
            # the table size and every later lookup.
            negated: list[float] = [-1.0]
            survival = 1.0
            step = 0
            while survival > 0.0:
                fresh = n - 2 * step
                survival *= max(fresh * (fresh - 1), 0) / total_pairs
                negated.append(-survival)
                step += 1
            self._neg_survival = negated
        u = rng_random()
        # The burst length is the largest t with S_t > u (inverse transform).
        length = bisect_left(self._neg_survival, -u) - 1
        if length >= cap:
            return cap, None
        m = 2 * length
        fresh = n - m
        collision_mass = total_pairs - fresh * (fresh - 1)
        target = rng_random() * collision_mass
        if target < fresh * m:
            return length, (False, True)
        target -= fresh * m
        if target < m * fresh:
            return length, (True, False)
        return length, (True, True)

    # -- stepping ------------------------------------------------------------------

    def run_burst(self, max_interactions: int | None = None) -> int:
        """Execute one batch of interactions and return how many it contained.

        On the position-kernel path that is one vectorized round of up to
        :data:`~repro.simulation.vector_kernel.DEFAULT_ROUND` interactions,
        exact in sequential order.  On the pool path it is a maximal run of
        interactions over pairwise-distinct agents, applied in bulk per
        ordered pair type, plus (when the cap allows) the collision
        interaction that ends it.
        """
        if self._kernel is not None:
            return self._run_round_kernel(max_interactions)
        if self._compiled is not None:
            return self._run_pool_codes(max_interactions, one_burst=True)
        return self._run_burst_pool(max_interactions)

    def _run_round_kernel(self, max_interactions: int | None) -> int:
        """One vectorized round through the position kernel (exact, in order)."""
        from repro.simulation.vector_kernel import DEFAULT_ROUND

        cap = self._num_agents if max_interactions is None else max_interactions
        if cap <= 0:
            return 0
        length = min(cap, DEFAULT_ROUND)
        codes = self._kernel.advance((0,), length)[0]
        self._book_round_codes(codes)
        self.steps_taken += length
        return length

    def _book_round_codes(self, codes) -> None:
        """Fold one round of corrected pair codes into counts and bookkeeping.

        The count-vector delta telescopes exactly through chained positions —
        each agent's successive pre-state equals its previous post-state — so
        binning the changed interactions' pre and post codes reproduces the
        kernel's state matrix on the count vector.
        """
        compiled = self._compiled
        d = compiled.num_states
        table_np, changed_np, _ = compiled.numpy_tables()
        packed = table_np[codes]
        moved = codes[packed != codes]
        if moved.size:
            results = table_np[moved]
            counts = self._counts
            delta = _np.bincount(results // d, minlength=d)
            delta += _np.bincount(results % d, minlength=d)
            delta -= _np.bincount(moved // d, minlength=d)
            delta -= _np.bincount(moved % d, minlength=d)
            counts += delta
            tracker = self._active_pairs
            if tracker is not None:
                # The round changed counts wholesale: diff the tracker's
                # classification against the live vector in one vectorized
                # pass and reclassify only the codes whose class actually
                # moved (usually none on a near-quiescent run).
                classes = _np.frombuffer(tracker.classes_view(), dtype=_np.uint8)
                stale = _np.nonzero(_np.minimum(counts, 2) != classes)[0]
                if stale.size:
                    tracker.update_codes(stale.tolist())
        changed_codes = codes[changed_np[codes]]
        if not changed_codes.size:
            return
        if not self._observers:
            self.interactions_changed += int(changed_codes.size)
        else:
            # The observer contract wants one decoded delta per pair type.
            unique, pair_counts = _np.unique(changed_codes, return_counts=True)
            for code, count in zip(unique.tolist(), pair_counts.tolist()):
                p, q = divmod(code, d)
                a, b = divmod(int(table_np[code]), d)
                self._record_changed_codes(p, q, a, b, count)

    def _run_burst_pool(self, max_interactions: int | None) -> int:
        """The uncompiled pool burst: O(1) random pops, pair-type aggregation,
        bulk apply (compiled engines run :meth:`_run_pool_codes` instead)."""
        cap = self._num_agents if max_interactions is None else max_interactions
        if cap <= 0:
            return 0
        length, collision = self._sample_burst_length(cap)

        # Draw the fresh agents' states without replacement.  The pool pops
        # are inlined (swap-remove) — this loop dominates the engine's
        # per-interaction cost — and the drawn ordered pairs are aggregated
        # into per-pair-type counts by Counter's C-level counting loop.
        pool = self._pool
        rng_random = self._rng.random
        pairs: list[tuple] = []
        append_pair = pairs.append
        size = len(pool)
        for _ in range(length):
            index = int(rng_random() * size)
            size -= 1
            last = pool.pop()
            if index < size:
                initiator = pool[index]
                pool[index] = last
            else:
                initiator = last
            index = int(rng_random() * size)
            size -= 1
            last = pool.pop()
            if index < size:
                responder = pool[index]
                pool[index] = last
            else:
                responder = last
            append_pair((initiator, responder))
        pair_counts = Counter(pairs)

        #: Current states of the agents touched by this burst (one entry per
        #: distinct agent, updated as transitions apply).
        touched: list = []
        for (initiator, responder), count in pair_counts.items():
            new_initiator, new_responder = self._apply_pair(initiator, responder, count)
            touched.extend([new_initiator] * count)
            touched.extend([new_responder] * count)

        executed = length
        if collision is not None:
            executed += self._collision_step_pool(touched, collision)
        self._pool.extend(touched)
        self.steps_taken += executed
        return executed

    def _run_pool_codes(self, max_interactions: int | None, one_burst: bool = False) -> int:
        """Compiled pool bursts on int pair codes until the budget is spent.

        The compiled counterpart of :meth:`_run_burst_pool`, with every
        burst of a check window in one loop: pairs are packed ``p·d + q``
        codes, counted per pair type in first-draw order and resolved
        through the flat ``table``/``changed`` maps.  It draws the same
        ``random()`` values in the same order as one :meth:`_run_burst_pool`
        call per burst and leaves the pool in the same order; changed pair
        types are booked through :meth:`_book_changed_codes`.  With
        ``one_burst`` it stops after the first burst (the :meth:`run_burst`
        contract).
        """
        budget = self._num_agents if max_interactions is None else max_interactions
        compiled = self._compiled
        table, changed, d = compiled.table, compiled.changed, compiled.num_states
        book = self._book_changed_codes
        sample = self._sample_burst_length
        pool = self._pool
        pop = pool.pop
        rng_random = self._rng.random
        executed = 0
        while executed < budget:
            length, collision = sample(budget - executed)
            # Draw the fresh agents without replacement (inlined swap-remove
            # pops; this loop is the per-interaction cost).
            pair_counts: dict[int, int] = {}
            size = len(pool)
            for _ in range(length):
                index = int(rng_random() * size)
                size -= 1
                last = pop()
                if index < size:
                    initiator = pool[index]
                    pool[index] = last
                else:
                    initiator = last
                index = int(rng_random() * size)
                size -= 1
                last = pop()
                if index < size:
                    responder = pool[index]
                    pool[index] = last
                else:
                    responder = last
                code = initiator * d + responder
                pair_counts[code] = pair_counts.get(code, 0) + 1
            #: Current states of the agents touched by this burst.
            touched: list[int] = []
            for code, count in pair_counts.items():
                a, b = divmod(table[code], d)
                if changed[code]:
                    book(code // d, code % d, a, b, count)
                touched += [a] * count
                touched += [b] * count
            burst = length
            if collision is not None:
                burst += self._collision_step_pool(touched, collision)
            pool += touched
            self.steps_taken += burst
            executed += burst
            if one_burst:
                break
        return executed

    def _collision_step_pool(self, touched: list, collision: tuple[bool, bool]) -> int:
        """Apply the interaction that ends the burst by re-using an agent.

        A touched slot resolves to a uniformly random already-touched agent
        (its state reflecting the burst's bulk updates); a fresh slot to a
        pool draw — exactly the conditional distribution of the sequential
        process given the sampled collision pattern.
        """
        initiator_touched, responder_touched = collision
        initiator_index: int | None = None
        responder_index: int | None = None
        if initiator_touched:
            initiator_index = self._random_index(len(touched))
            initiator = touched[initiator_index]
        else:
            initiator = self._pop_random()
        if responder_touched:
            if initiator_touched:
                # The responder is any *other* touched agent.
                responder_index = self._random_index(len(touched) - 1)
                if responder_index >= initiator_index:
                    responder_index += 1
            else:
                responder_index = self._random_index(len(touched))
            responder = touched[responder_index]
        else:
            responder = self._pop_random()

        new_initiator, new_responder = self._apply_pair(initiator, responder, 1)
        if initiator_index is not None:
            touched[initiator_index] = new_initiator
        else:
            touched.append(new_initiator)
        if responder_index is not None:
            touched[responder_index] = new_responder
        else:
            touched.append(new_responder)
        return 1

    def _sequential_step(self) -> None:
        """One exact interaction straight from the pool (small-``n`` fallback)."""
        pool = self._pool
        n = self._num_agents
        first = self._random_index(n)
        second = self._random_index(n - 1)
        if second >= first:
            second += 1
        initiator, responder = pool[first], pool[second]
        if self._compiled is not None:
            a, b, changed = self._compiled.transition_codes(initiator, responder)
            if changed:
                pool[first] = a
                pool[second] = b
                self._book_changed_codes(initiator, responder, a, b, 1)
        else:
            result = self._transition(initiator, responder)
            if result.changed:
                pool[first] = result.initiator
                pool[second] = result.responder
                self._apply_changed_transition(initiator, responder, result, 1)
        self.steps_taken += 1

    def _advance(self, max_interactions: int) -> int:
        if self._num_agents < SEQUENTIAL_FALLBACK_THRESHOLD:
            for _ in range(max_interactions):
                self._sequential_step()
            return max_interactions
        if self._kernel is None and self._compiled is not None:
            return self._run_pool_codes(max_interactions)
        return self.run_burst(max_interactions)

    # -- inspection -------------------------------------------------------------------

    def states(self) -> list[State]:
        """The current agent states (anonymous, so order carries no meaning)."""
        if self._pool is None:
            return super().states()
        if self._compiled is not None:
            decode = self._compiled.decode
            return [decode(code) for code in self._pool]
        return list(self._pool)
