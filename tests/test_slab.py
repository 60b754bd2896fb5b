"""Slab ownership: every packet handle is freed where its packet ends.

Whoever holds a handle owns it: a pipe frees the handles it drops, the
LB frees misrouted ones, a host frees segments no connection claims, and
a connection frees each segment after ingesting it.  So at any cutoff
the only live handles are the packets still in flight on a pipe.
"""

import pytest

from repro.faults import DelayFault, LossFault, PartitionFault
from repro.harness.config import NetworkParams, PolicyName, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.harness.scenario import build_scenario
from repro.net.addr import Endpoint
from repro.net.packet import FLAG_ACK
from repro.units import MILLISECONDS

from tests.conftest import make_packet

MS = MILLISECONDS


def _config(**overrides):
    defaults = dict(
        seed=3,
        duration=300 * MS,
        n_clients=2,
        n_servers=3,
        policy=PolicyName.FEEDBACK,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _assert_owned(scenario):
    # Whatever is still live at cutoff is exactly the packets in flight
    # on the pipes — nothing dangles.
    pipes = scenario.network.pipes().values()
    assert scenario.network.slab.live == sum(pipe.in_flight for pipe in pipes)


def _pipe_drops(scenario, counter):
    return sum(
        getattr(pipe.stats, counter) for pipe in scenario.network.pipes().values()
    )


class TestSlabOwnership:
    def test_no_slab_records_leak(self):
        config = _config(
            faults=[DelayFault(start=100 * MS, extra=1 * MS, node="server0")]
        )
        _assert_owned(run_scenario(config).scenario)

    @pytest.mark.parametrize(
        "overrides, counter",
        [
            (
                dict(faults=[LossFault(start=50 * MS, node="server0", prob=0.2)]),
                "packets_dropped_loss",
            ),
            (
                dict(
                    faults=[
                        PartitionFault(
                            start=100 * MS, duration=100 * MS, node="server0"
                        )
                    ]
                ),
                "packets_dropped_partition",
            ),
            (
                dict(network=NetworkParams(bandwidth_bps=2_000_000, queue_capacity=2)),
                "packets_dropped_queue",
            ),
        ],
        ids=["loss", "partition", "tail_drop"],
    )
    def test_pipe_drops_free_their_handles(self, overrides, counter):
        scenario = run_scenario(_config(**overrides)).scenario
        assert _pipe_drops(scenario, counter) > 0
        _assert_owned(scenario)

    def test_misrouted_and_unclaimed_packets_are_freed(self):
        config = _config()
        scenario = build_scenario(config)
        network = scenario.network
        slab = network.slab

        def strays():
            # Misrouted: a client packet for a VIP this LB does not own.
            network.send_from(
                "client0",
                make_packet(slab, Endpoint("client0", 1), Endpoint("other-vip", 80)),
            )
            # Stale: a segment for a connection the client never had.
            network.send_from(
                "server0",
                make_packet(
                    slab,
                    Endpoint("vip", config.vip_port),
                    Endpoint("client0", 1),
                    flags=FLAG_ACK,
                ),
            )

        scenario.sim.schedule_fire_at(100 * MS, strays)
        run_scenario(config, scenario=scenario)
        assert scenario.lb.stats.packets_dropped_no_backend == 1
        _assert_owned(scenario)
