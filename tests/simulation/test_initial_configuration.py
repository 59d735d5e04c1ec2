"""Counts-in set-up: initial configurations built from color counts.

:func:`repro.simulation.base.initial_configuration` calls ``initial_state``
once per distinct color.  It must equal the per-agent construction as a
multiset *and* in support order: the uncompiled engines expand the multiset
into their agent pool in that order, so a different order would change
their trajectories.
"""

import random
import re

import pytest

from repro.protocols.registry import DEFAULT_REGISTRY, get_protocol
from repro.simulation.base import initial_configuration
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.utils.multiset import Multiset


def _protocols():
    for name in DEFAULT_REGISTRY.names():
        for k in (2, 3):
            try:
                yield name, get_protocol(name, k)
            except ValueError:
                continue


_PROTOCOLS = list(_protocols())
_BY_PROTOCOL = pytest.mark.parametrize(
    "protocol",
    [protocol for _, protocol in _PROTOCOLS],
    ids=[f"{name}-k{protocol.num_colors}" for name, protocol in _PROTOCOLS],
)


def _colorings(k: int):
    rng = random.Random(k)
    yield [0, 1]
    yield [k - 1] * 3 + [0] * 2
    yield list(range(k)) * 2
    yield [rng.randrange(k) for _ in range(40)]


def test_registry_includes_a_non_injective_input_map():
    # Leader election maps every color to one state: per-color counts must
    # accumulate, not overwrite.
    names = {name for name, _ in _PROTOCOLS}
    assert "leader-election" in names
    protocol = get_protocol("leader-election", 3)
    configuration = initial_configuration(protocol, [0, 1, 2, 1])
    assert len(configuration) == 4
    assert len(configuration.support()) == 1


@_BY_PROTOCOL
def test_counted_configuration_equals_per_agent_configuration(protocol):
    for colors in _colorings(protocol.num_colors):
        per_agent = Multiset(protocol.initial_state(color) for color in colors)
        counted = initial_configuration(protocol, colors)
        assert counted == per_agent
        assert list(counted.support()) == list(per_agent.support())
        assert list(counted.items()) == list(per_agent.items())


@_BY_PROTOCOL
def test_uncompiled_pool_order_is_unchanged(protocol):
    colors = [color % protocol.num_colors for color in (2, 0, 1, 1, 0, 2, 2, 1, 0, 0) * 2]
    per_agent = BatchConfigurationSimulation(
        protocol, [protocol.initial_state(color) for color in colors], seed=3, compiled=False
    )
    counted = BatchConfigurationSimulation.from_colors(protocol, colors, seed=3, compiled=False)
    assert counted.states() == per_agent.states()


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_invalid_color_raises_the_same_error(bad):
    protocol = get_protocol("circles", 3)
    colors = [0, 1, bad, 2]
    with pytest.raises(ValueError) as expected:
        [protocol.initial_state(color) for color in colors]
    with pytest.raises(ValueError) as counted:
        initial_configuration(protocol, colors)
    assert str(counted.value) == str(expected.value)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        BatchConfigurationSimulation.from_colors(protocol, colors)
