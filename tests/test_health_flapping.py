"""Health checking under a flapping probe path (satellite of the
resilience plane).

A periodic total-loss fault on the prober→server pipe makes one
backend go dark and return, repeatedly.  The checker must translate
that into exactly one down/up pair per fault window — no extra flaps —
and the Maglev table must rebuild at most once per transition, not on
every failed probe.  With a breaker board attached, probe outcomes
drive the breaker through open and back to closed.
"""

import random

import pytest

from repro.faults.injector import Injector
from repro.faults.model import LossFault
from repro.faults.schedule import FaultSchedule
from repro.lb.backend import Backend, BackendPool
from repro.lb.health import HealthCheckConfig, HealthChecker
from repro.lb.maglev import MaglevTable
from repro.lb.policies import MaglevPolicy
from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.resilience.breaker import BreakerBoard, BreakerConfig, BreakerState
from repro.transport.endpoint import Host
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS


DURATION = 3 * SECONDS
# Three windows of total probe loss on s0: [0.5s,1s), [1.5s,2s), [2.5s,3s).
FLAP = LossFault(
    start=500 * MILLISECONDS,
    duration=500 * MILLISECONDS,
    period=1 * SECONDS,
    prob=1.0,
    node="s0",
)


@pytest.fixture
def flapping(sim):
    network = Network(sim)
    prober = Host(network, "prober")
    for index in range(2):
        name = "s%d" % index
        host = Host(network, name)
        network.connect_bidirectional("prober", name, prop_delay=50 * MICROSECONDS)
        host.listen(
            7000,
            lambda conn: conn.__setattr__("on_peer_close", lambda c: c.close()),
        )
    pool = BackendPool([Backend("s0"), Backend("s1")])
    policy = MaglevPolicy(pool, table_size=251)
    board = BreakerBoard(BreakerConfig(reset_timeout=200 * MILLISECONDS))
    checker = HealthChecker(
        prober,
        pool,
        {"s0": Endpoint("s0", 7000), "s1": Endpoint("s1", 7000)},
        HealthCheckConfig(
            interval=50 * MILLISECONDS,
            timeout=20 * MILLISECONDS,
            fall=2,
            rise=2,
        ),
        breakers=board,
    )
    injector = Injector(
        sim,
        network,
        server_names=["s0", "s1"],
        lb_name="prober",  # loss faults land on the prober→server pipes
        loss_rng=random.Random(42),
    )
    injector.arm(FaultSchedule([FLAP]), DURATION)
    # Extra settle time past the last window so the final rise lands.
    sim.run_until(DURATION + 400 * MILLISECONDS)
    return pool, policy, board, checker, injector


class TestFlappingProbePath:
    def test_transitions_match_fault_windows(self, flapping):
        pool, policy, board, checker, injector = flapping
        windows = len(injector.armed_windows)
        assert windows == 3
        # One down + one up per window, nothing in between.
        assert checker.stats("s0").transitions == 2 * windows
        assert checker.stats("s1").transitions == 0
        assert pool.get("s0").healthy  # recovered after the last window
        assert pool.get("s1").healthy

    def test_maglev_rebuilds_bounded_by_transitions(self, flapping):
        pool, policy, board, checker, injector = flapping
        windows = len(injector.armed_windows)
        # The table builds lazily, when read, so at most once initially
        # and once per health transition.  Failed probes between
        # transitions must not thrash the table.
        table = policy.table
        assert 1 <= table.builds <= 1 + 2 * windows
        # And the table read is the one an eager rebuild would have made.
        oracle = MaglevTable(table.size)
        oracle.build({b.name: b.weight for b in pool.healthy()})
        assert table.disruption(oracle) == 0.0

    def test_probe_outcomes_drive_the_breaker(self, flapping):
        pool, policy, board, checker, injector = flapping
        states = [t.to_state for t in board.transitions if t.backend == "s0"]
        assert BreakerState.OPEN in states
        assert board.state("s0") is BreakerState.CLOSED  # recovered
        assert all(t.backend == "s0" for t in board.transitions)
