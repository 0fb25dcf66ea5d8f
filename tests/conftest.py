"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Callable

import pytest

from repro.attacks import OffPathAttacker, SpoofedClientTrigger
from repro.core.rng import DeterministicRNG
from repro.dns.nameserver import NameserverConfig
from repro.netsim.host import Host, HostConfig
from repro.netsim.network import Network
from repro.netsim.packet import Ipv4Packet
from repro.testbed import (
    RESOLVER_IP,
    SERVICE_IP,
    standard_testbed,
)


@pytest.fixture
def rng() -> DeterministicRNG:
    """A fixed-seed RNG."""
    return DeterministicRNG(1234)


@pytest.fixture
def network() -> Network:
    """An empty network with two general-purpose hosts attached."""
    net = Network()
    net.attach(Host("alpha", "10.0.0.1"))
    net.attach(Host("beta", "10.0.0.2"))
    return net


@pytest.fixture
def world():
    """The standard Figure-1/2 testbed."""
    return standard_testbed(seed="pytest-world")


@pytest.fixture
def saddns_world():
    """Testbed tuned for fast, deterministic SadDNS runs.

    The resolver's ephemeral range is narrowed to 1,000 ports so the
    side-channel scan converges in a handful of iterations.
    """
    return standard_testbed(
        seed="pytest-saddns",
        ns_config=NameserverConfig(rrl_enabled=True),
        resolver_host_config=HostConfig(ephemeral_low=30000,
                                        ephemeral_high=30999),
    )


@pytest.fixture
def fragdns_world():
    """Testbed tuned for FragDNS: global IP-ID, tiny-MTU-accepting NS."""
    return standard_testbed(
        seed="pytest-frag",
        ns_host_config=HostConfig(ipid_policy="global",
                                  min_accepted_mtu=68),
    )


@pytest.fixture
def attacker(world) -> OffPathAttacker:
    """An off-path attacker on the standard testbed."""
    return OffPathAttacker(world["attacker"])


def make_trigger(world, attacker: OffPathAttacker) -> SpoofedClientTrigger:
    """A spoofed-client query trigger bound to a testbed."""
    return SpoofedClientTrigger(
        world["attacker"], RESOLVER_IP, SERVICE_IP,
        rng=attacker.rng.derive("trigger"),
    )


def drop_packets(network: Network,
                 predicate: Callable[[Ipv4Packet], bool]) -> None:
    """Lose every packet on ``network`` that ``predicate`` matches.

    An interceptor claims each matching packet into a sink host that no
    network holds and that owns no routed address, so the packet
    reaches no socket.
    """
    sink = Host("sink", "0.0.0.0")
    network.add_interceptor(
        lambda packet, origin: sink if predicate(packet) else None,
        name="loss")
