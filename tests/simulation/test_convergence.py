"""Tests for the convergence criteria."""

import itertools
import random

import pytest

from repro.compile import compile_from_states, compile_protocol
from repro.core.circles import CirclesProtocol, CirclesVariant, ExchangeRule, OutputRule
from repro.core.state import CirclesState
from repro.protocols.exact_majority import ExactMajorityProtocol, MajorityState
from repro.simulation.convergence import OutputConsensus, SilentConfiguration, StableCircles
from repro.utils.multiset import Multiset


class TestOutputConsensus:
    def test_agreement_detected(self):
        protocol = CirclesProtocol(3)
        states = [CirclesState(0, 1, 2), CirclesState(1, 0, 2)]
        assert OutputConsensus().is_converged(protocol, states)
        assert OutputConsensus(target=2).is_converged(protocol, states)
        assert not OutputConsensus(target=0).is_converged(protocol, states)

    def test_disagreement_detected(self):
        protocol = CirclesProtocol(3)
        states = [CirclesState(0, 1, 2), CirclesState(1, 0, 1)]
        assert not OutputConsensus().is_converged(protocol, states)

    def test_empty_population_is_not_converged(self):
        assert not OutputConsensus().is_converged(CirclesProtocol(2), [])

    def test_configuration_variant(self):
        protocol = CirclesProtocol(3)
        config = Multiset([CirclesState(0, 1, 2), CirclesState(1, 0, 2), CirclesState(1, 0, 2)])
        assert OutputConsensus().is_converged_configuration(protocol, config)
        assert OutputConsensus(target=2).is_converged_configuration(protocol, config)
        assert not OutputConsensus(target=1).is_converged_configuration(protocol, config)


class TestSilentConfiguration:
    def test_silent_exact_majority_configuration(self):
        protocol = ExactMajorityProtocol()
        silent = [MajorityState(0, True), MajorityState(0, False)]
        assert SilentConfiguration().is_converged(protocol, silent)

    def test_noisy_configuration(self):
        protocol = ExactMajorityProtocol()
        noisy = [MajorityState(0, True), MajorityState(1, True)]
        assert not SilentConfiguration().is_converged(protocol, noisy)

    def test_single_copy_of_a_state_does_not_self_interact(self):
        protocol = ExactMajorityProtocol()
        # One strong-0 and one weak-0: strong converts weak but weak is already 0 ... the
        # pair (strong0, weak0) is a no-op, so this two-agent configuration is silent.
        states = [MajorityState(0, True), MajorityState(0, False)]
        assert SilentConfiguration().is_converged(protocol, states)

    def test_circles_stable_is_not_necessarily_silent(self):
        """Circles keeps broadcasting outputs, so stability can precede silence."""
        protocol = CirclesProtocol(2)
        # Stable bra-kets, but one agent has a stale output: a diagonal interaction
        # would still change it, so the configuration is stable yet not silent.
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 1)]
        assert StableCircles().is_converged(protocol, states) is False  # outputs differ
        assert not SilentConfiguration().is_converged(protocol, states)


class TestStableCircles:
    def test_requires_circles_protocol(self):
        with pytest.raises(TypeError):
            StableCircles().is_converged(ExactMajorityProtocol(), [])

    def test_converged_configuration(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        assert StableCircles().is_converged(protocol, states)

    def test_not_converged_when_outputs_lag(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 1)]
        assert not StableCircles().is_converged(protocol, states)

    def test_not_converged_when_exchange_possible(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(1, 1, 1)]
        assert not StableCircles().is_converged(protocol, states)

    def test_agreement_must_match_a_diagonal(self):
        protocol = CirclesProtocol(3)
        # All agree on color 2 but the only diagonal is ⟨0|0⟩: not the paper's stable shape.
        states = [CirclesState(0, 0, 2), CirclesState(1, 2, 2), CirclesState(2, 1, 2)]
        assert not StableCircles().is_converged(protocol, states)

    def test_configuration_variant_matches_list_variant(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        assert StableCircles().is_converged_configuration(protocol, Multiset(states))
        with pytest.raises(TypeError):
            StableCircles().is_converged_configuration(ExactMajorityProtocol(), Multiset())


class TestCountLevelFastPaths:
    """The count-level criterion variants must agree with the multiset ones."""

    def _compiled_counts(self, protocol, states):
        from repro.compile import compile_from_states

        compiled = compile_from_states(protocol, set(states))
        counts = [0] * compiled.num_states
        for state in states:
            counts[compiled.encode(state)] += 1
        return compiled, counts

    def test_output_consensus_on_counts(self):
        protocol = CirclesProtocol(3)
        agreed = [CirclesState(0, 1, 2), CirclesState(1, 0, 2), CirclesState(1, 0, 2)]
        compiled, counts = self._compiled_counts(protocol, agreed)
        assert OutputConsensus().is_converged_counts(protocol, compiled, counts)
        assert OutputConsensus(target=2).is_converged_counts(protocol, compiled, counts)
        assert not OutputConsensus(target=0).is_converged_counts(protocol, compiled, counts)

    def test_output_consensus_on_single_state_population(self):
        protocol = CirclesProtocol(3)
        lone = [CirclesState(1, 1, 1)] * 4
        compiled, counts = self._compiled_counts(protocol, lone)
        assert OutputConsensus().is_converged_counts(protocol, compiled, counts)
        assert OutputConsensus().is_converged(protocol, lone[:1])
        assert OutputConsensus().is_converged_configuration(protocol, Multiset(lone))

    def test_output_consensus_on_all_zero_counts(self):
        protocol = CirclesProtocol(3)
        compiled, counts = self._compiled_counts(protocol, [CirclesState(0, 0, 0)])
        assert not OutputConsensus().is_converged_counts(protocol, compiled, [0] * len(counts))

    def test_stable_circles_on_counts_matches_configuration_variant(self):
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0), CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        compiled, counts = self._compiled_counts(protocol, states)
        assert StableCircles().is_converged_counts(protocol, compiled, counts)
        assert StableCircles().is_converged_configuration(protocol, Multiset(states))

    def test_silent_configuration_has_no_counts_fast_path(self):
        # Silence is answered by the engine's incremental tracker instead;
        # the criterion itself defers so `incremental=False` stays a true
        # from-scratch baseline.
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 0, 0)] * 2
        compiled, counts = self._compiled_counts(protocol, states)
        assert SilentConfiguration().is_converged_counts(protocol, compiled, counts) is None

    def test_base_criterion_default_defers(self):
        assert (
            OutputConsensus.__mro__[1].is_converged_counts(
                OutputConsensus(), CirclesProtocol(2), None, []
            )
            is None
        )


class TestCriterionEdgeCases:
    def test_output_consensus_on_empty_states_and_configuration(self):
        protocol = CirclesProtocol(2)
        assert not OutputConsensus().is_converged(protocol, [])
        assert not OutputConsensus().is_converged_configuration(protocol, Multiset())

    def test_silent_on_empty_and_singleton_configurations(self):
        protocol = CirclesProtocol(2)
        # No present pair can interact: vacuously silent.
        assert SilentConfiguration().is_converged(protocol, [])
        assert SilentConfiguration().is_converged(protocol, [CirclesState(0, 1, 0)])

    def test_stable_circles_on_empty_configuration(self):
        protocol = CirclesProtocol(2)
        assert not StableCircles().is_converged(protocol, [])
        assert not StableCircles().is_converged_configuration(protocol, Multiset())


_VARIANTS = [
    CirclesVariant(exchange_rule, output_rule)
    for exchange_rule, output_rule in itertools.product(ExchangeRule, OutputRule)
]


class TestStableCirclesOnCounts:
    """The pair-mask check equals the configuration-level reference.

    ``_is_converged_support`` decodes the support and evaluates
    ``should_exchange`` pair by pair; the count-level check answers from
    tables derived once per compiled protocol, so the two must agree on
    every count vector, for every exchange and output rule.
    """

    @staticmethod
    def _agrees(protocol, compiled, counts) -> bool:
        support = [compiled.decode(code) for code, count in enumerate(counts) if count]
        expected = StableCircles()._is_converged_support(protocol, support)
        assert StableCircles().is_converged_counts(protocol, compiled, counts) is expected
        return expected

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("variant", _VARIANTS, ids=repr)
    def test_random_count_vectors(self, k, variant):
        protocol = CirclesProtocol(k, variant)
        # Every triple, so the vectors reach bra-kets a run may never visit.
        compiled = compile_from_states(protocol, list(protocol.states()))
        d = compiled.num_states
        rng = random.Random(k * 31 + _VARIANTS.index(variant))
        verdicts = set()
        assert not self._agrees(protocol, compiled, [0] * d)
        for code in range(d):
            single = [0] * d
            single[code] = rng.randint(1, 3)
            verdicts.add(self._agrees(protocol, compiled, single))
        for _ in range(400):
            # Mostly agreeing outputs plus a diagonal of that color, so the
            # verdict usually turns on the exchange partners.
            agreed = rng.randrange(k)
            brakets = [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.8:
                brakets.append((agreed, agreed))
            counts = [0] * d
            for bra, ket in brakets:
                out = agreed if rng.random() < 0.9 else rng.randrange(k)
                counts[compiled.encode(CirclesState(bra, ket, out))] += rng.randint(1, 3)
            verdicts.add(self._agrees(protocol, compiled, counts))
        for _ in range(100):
            counts = [0] * d
            for code in rng.sample(range(d), rng.randint(1, min(d, 6))):
                counts[code] = rng.randint(1, 4)
            verdicts.add(self._agrees(protocol, compiled, counts))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("variant", _VARIANTS, ids=repr)
    def test_configurations_reached_from_inputs(self, k, variant):
        """Supports of the reachable closure, including tied inputs."""
        protocol = CirclesProtocol(k, variant)
        compiled = compile_protocol(protocol)
        d = compiled.num_states
        rng = random.Random(k)
        for _ in range(100):
            counts = [rng.choice((0, 0, 1, 2)) for _ in range(d)]
            self._agrees(protocol, compiled, counts)

    def test_tied_input_without_a_diagonal_never_converges(self):
        # Colors (0, 1) exchange into ⟨0|1⟩, ⟨1|0⟩: stable, no diagonal left.
        protocol = CirclesProtocol(2)
        states = [CirclesState(0, 1, 0), CirclesState(1, 0, 0)]
        compiled = compile_from_states(protocol, states)
        counts = [0] * compiled.num_states
        for state in states:
            counts[compiled.encode(state)] += 1
        assert not self._agrees(protocol, compiled, counts)

    def test_requires_circles_protocol(self):
        protocol = ExactMajorityProtocol()
        compiled = compile_protocol(protocol)
        with pytest.raises(TypeError):
            StableCircles().is_converged_counts(protocol, compiled, [1] * compiled.num_states)
