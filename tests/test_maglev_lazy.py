"""Lazy Maglev builds against an eager oracle.

``MaglevPolicy`` builds its table on the first read after a pool
change.  The oracle below rebuilds a table on every change notification
instead.  A full build depends on nothing but the healthy weights, so
every ``select`` must agree with the oracle whatever the interleaving of
pool changes and reads.  Incremental tables patch on every change, so
their policy must still build once per change.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import BalancerError
from repro.lb.backend import Backend, BackendPool
from repro.lb.maglev import MaglevTable
from repro.lb.policies import MaglevPolicy
from repro.net.addr import FlowKey

SIZE = 251
NAMES = ["s%d" % i for i in range(6)]
WEIGHTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.7, 3.0])


def flow(port):
    return FlowKey("client", 40_000 + port, "vip", 80)


class EagerOracle:
    """A table rebuilt on every pool notification, as it happens."""

    def __init__(self, pool, incremental=False):
        self.pool = pool
        self.table = MaglevTable(SIZE, incremental=incremental)
        self.rebuild()
        pool.on_change(self.rebuild)

    def rebuild(self):
        weights = {b.name: b.weight for b in self.pool.healthy()}
        if weights:
            self.table.build(weights)

    def select(self, key, now):
        if not self.pool.healthy():
            raise BalancerError("no healthy backends available")
        return self.table.lookup_flow(str(key))


def answer(policy, key):
    try:
        return policy.select(key, 0)
    except BalancerError:
        return BalancerError


class LazyMatchesEager(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = BackendPool([Backend(name) for name in NAMES[:3]])
        self.lazy = MaglevPolicy(self.pool, table_size=SIZE)
        self.oracle = EagerOracle(self.pool)
        self.patched = MaglevPolicy(self.pool, table_size=SIZE, incremental=True)
        self.patched_oracle = EagerOracle(self.pool, incremental=True)

    def present(self, data):
        names = self.pool.names()
        return data.draw(st.sampled_from(names)) if names else None

    @rule(data=st.data())
    def set_weights(self, data):
        names = self.pool.names()
        if names:
            chosen = data.draw(st.lists(st.sampled_from(names), unique=True))
            self.pool.set_weights({name: data.draw(WEIGHTS) for name in chosen})

    @rule(data=st.data(), weight=WEIGHTS)
    def set_weight(self, data, weight):
        name = self.present(data)
        if name is not None:
            self.pool.set_weight(name, weight)

    @rule(data=st.data(), healthy=st.booleans())
    def set_healthy(self, data, healthy):
        name = self.present(data)
        if name is not None:
            self.pool.set_healthy(name, healthy)

    @rule(name=st.sampled_from(NAMES), weight=WEIGHTS)
    def add(self, name, weight):
        if name not in self.pool:
            self.pool.add(Backend(name, weight))

    @rule(data=st.data())
    def remove(self, data):
        name = self.present(data)
        if name is not None:
            self.pool.remove(name)

    @rule(names=st.lists(st.sampled_from(NAMES), unique=True))
    def add_many(self, names):
        self.pool.add_many([Backend(n) for n in names if n not in self.pool])

    @rule(ports=st.lists(st.integers(0, 999), min_size=1, max_size=5))
    def select(self, ports):
        for port in ports:
            key = flow(port)
            assert answer(self.lazy, key) == answer(self.oracle, key)
            assert answer(self.patched, key) == answer(self.patched_oracle, key)

    @invariant()
    def incremental_builds_on_every_change(self):
        assert self.patched.table.builds == self.patched_oracle.table.builds

    # A rule, not an invariant: reading ``table`` builds it, and several
    # changes must be able to pile up between two reads.
    @rule()
    def read_table(self):
        if self.pool.healthy():
            assert self.lazy.table.disruption(self.oracle.table) == 0.0
            assert self.patched.table.disruption(self.patched_oracle.table) == 0.0


LazyMatchesEager.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestLazyMatchesEager = LazyMatchesEager.TestCase


def make_pool(n=3):
    return BackendPool([Backend("s%d" % i) for i in range(n)])


def test_changes_between_reads_cost_one_build():
    pool = make_pool()
    policy = MaglevPolicy(pool, table_size=SIZE)
    policy.select(flow(0), 0)
    assert policy.table.builds == 1
    for step in range(10):
        pool.set_weight("s0", 1.0 + step)
    pool.add(Backend("s3"))
    policy.select(flow(1), 0)
    assert policy.table.builds == 2


def test_no_build_until_read():
    pool = make_pool()
    policy = MaglevPolicy(pool, table_size=SIZE)
    pool.set_weight("s1", 2.0)
    # Reading the table is what builds it.
    assert policy.table.builds == 1


def test_incremental_policy_builds_once_per_change():
    pool = make_pool()
    policy = MaglevPolicy(pool, table_size=SIZE, incremental=True)
    oracle = EagerOracle(pool, incremental=True)
    changes = [
        lambda: pool.set_weight("s0", 2.0),
        lambda: pool.add(Backend("s3")),
        lambda: pool.set_weights({"s1": 0.5, "s2": 1.5}),
        lambda: pool.add_many([Backend("s4"), Backend("s5")]),
        lambda: pool.remove("s1"),
    ]
    for count, change in enumerate(changes, start=2):
        change()
        assert policy.table.builds == count
    assert policy.table.disruption(oracle.table) == 0.0


@pytest.mark.parametrize("incremental", [False, True])
def test_empty_pool_refuses_then_recovers(incremental):
    pool = make_pool(1)
    policy = MaglevPolicy(pool, table_size=SIZE, incremental=incremental)
    oracle = EagerOracle(pool, incremental=incremental)
    pool.set_healthy("s0", False)
    with pytest.raises(BalancerError):
        policy.select(flow(0), 0)
    pool.add(Backend("s1", 2.0))
    pool.set_healthy("s0", True)
    for port in range(50):
        assert policy.select(flow(port), 0) == oracle.select(flow(port), 0)
