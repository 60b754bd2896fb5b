"""PERF-MAGLEV — dataplane microbenchmarks.

Timing distributions for the pieces on (or near) the per-packet path:
Maglev table construction (control-plane cost of each weight shift a
new flow reads),
lookups, conntrack operations, and the measurement-plane per-packet
work (FIXEDTIMEOUT and the 7-timeout ENSEMBLETIMEOUT).
"""

import random

from repro.core.ensemble import EnsembleTimeout
from repro.core.fixed_timeout import FixedTimeout
from repro.lb.conntrack import ConnTrack
from repro.lb.maglev import MaglevTable
from repro.net.addr import FlowKey
from repro.units import MICROSECONDS


class TestMaglevConstruction:
    def test_build_65537_slots_10_backends(self, benchmark):
        table = MaglevTable(65_537)
        weights = {"backend-%d" % i: 1.0 for i in range(10)}
        benchmark(table.build, weights)
        assert sum(table.slot_counts().values()) == 65_537

    def test_build_65537_slots_100_backends(self, benchmark):
        table = MaglevTable(65_537)
        weights = {"backend-%d" % i: 1.0 + (i % 7) for i in range(100)}
        benchmark(table.build, weights)
        assert sum(table.slot_counts().values()) == 65_537

    def test_rebuild_after_weight_shift_1021(self, benchmark):
        """The controller's actual rebuild cost at the scenario table size."""
        table = MaglevTable(1021)
        weights = {"s0": 1.0, "s1": 1.0}

        def shift_and_rebuild():
            weights["s0"] = 1.8 if weights["s0"] == 1.0 else 1.0
            weights["s1"] = 3.0 - weights["s0"]
            table.build(weights)

        benchmark(shift_and_rebuild)


class TestLookupPath:
    def test_maglev_lookup(self, benchmark):
        table = MaglevTable(65_537)
        table.build({"backend-%d" % i: 1.0 for i in range(10)})
        benchmark(table.lookup, 12_345_678)

    def test_maglev_lookup_flow_string(self, benchmark):
        table = MaglevTable(65_537)
        table.build({"backend-%d" % i: 1.0 for i in range(10)})
        benchmark(table.lookup_flow, "client:48211->vip:11211")

    def test_conntrack_hit(self, benchmark):
        track = ConnTrack()
        flows = [FlowKey("c", 40_000 + i, "vip", 80) for i in range(10_000)]
        for flow in flows:
            track.insert(flow, "s0", now=0)
        benchmark(track.lookup, flows[5_000], 1000)

    def test_conntrack_insert(self, benchmark):
        track = ConnTrack()
        counter = iter(range(100_000_000))

        def insert():
            track.insert(FlowKey("c", next(counter), "vip", 80), "s0", 0)

        benchmark(insert)


class TestMeasurementPath:
    def test_fixed_timeout_observe(self, benchmark):
        ft = FixedTimeout(64 * MICROSECONDS)
        rng = random.Random(1)
        clock = iter(range(0, 10**15, 50 * MICROSECONDS))
        benchmark(lambda: ft.observe(next(clock)))

    def test_ensemble_observe_seven_timeouts(self, benchmark):
        """The full Algorithm 2 per-packet cost (k = 7 FIXEDTIMEOUTs)."""
        ensemble = EnsembleTimeout()
        clock = iter(range(0, 10**15, 50 * MICROSECONDS))
        benchmark(lambda: ensemble.observe(next(clock)))
