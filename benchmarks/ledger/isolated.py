"""Isolated replay arms: one layer's public functions alone, on the LB
arrival stream a traced run recorded.

Dividing a layer's attributed per-packet cost in the full system by the
cost of the same calls here is the attributed version of ROADMAP's
"200x gap": it says how much of each layer's time the layer's own public
operations explain, and how much is everything wrapped around them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.core.ensemble import EnsembleConfig, EnsembleTimeout
from repro.lb.backend import Backend, BackendPool
from repro.lb.conntrack import ConnTrack
from repro.lb.dataplane import LoadBalancer
from repro.lb.policies import MaglevPolicy
from repro.net.addr import Endpoint
from repro.net.packet import FLAG_FIN, FLAG_RST, PacketSlab
from repro.net.pipe import Pipe
from repro.sim.engine import Simulator
from repro.units import MICROSECONDS

_FIN_OR_RST = FLAG_FIN | FLAG_RST


class ArrivalRecorder:
    """``lb.add_tap`` observer: (time, flow id, flow, flags) of every LB packet."""

    def __init__(self) -> None:
        self.times: List[int] = []
        self.fids: List[int] = []
        self.flows: List[object] = []
        self.flags: List[int] = []
        # The slab's fid/flags columns (list objects that live as long
        # as the slab), bound by install().
        self._fid_column: List[int] = []
        self._flags_column: List[int] = []

    def install(self, lb: LoadBalancer) -> None:
        slab = lb.network.slab
        self._fid_column, self._flags_column = slab.fid, slab.flags
        lb.add_tap(self._tap)

    def _tap(self, now: int, flow, backend: str, handle: int) -> None:
        self.times.append(now)
        self.fids.append(self._fid_column[handle])
        self.flows.append(flow)
        self.flags.append(self._flags_column[handle])


def _ns_per(count: int, work: Callable[[], None]) -> float:
    started = time.perf_counter()
    work()
    return (time.perf_counter() - started) * 1e9 / count


def _noop() -> None:
    return None


def sim_arm(recorded: ArrivalRecorder) -> float:
    """``schedule_fire_at`` + drain of no-op callbacks at the recorded times."""
    times = recorded.times

    def work() -> None:
        sim = Simulator()
        schedule = sim.schedule_fire_at
        for at in times:
            schedule(at, _noop)
        sim.run()

    return _ns_per(len(times), work)


def net_arm(recorded: ArrivalRecorder) -> float:
    """Slab ``alloc`` -> ``Pipe.send`` -> pump -> sink ``free`` per recorded
    packet, each sent at its recorded time by one engine event.

    Includes the injection event; :func:`run_arms` takes the sim arm off.
    (Heap events, not a run-lane column: a column re-slices its whole
    remainder every time the heap runs empty, which this stream does.)
    """
    times = recorded.times
    sim = Simulator()
    slab = PacketSlab()
    pipe = Pipe(sim, "replay", 40 * MICROSECONDS, slab=slab)
    pipe.connect(slab.free)
    src_i = slab.intern_endpoint(Endpoint("client0", 1024))
    dst_i = slab.intern_endpoint(Endpoint("vip", 9000))
    fid = slab.intern_flow(src_i, dst_i)
    alloc, send = slab.alloc, pipe.send

    def inject() -> None:
        send(alloc(src_i, dst_i, fid, 0, 0, 0, 512, None, sim.now))

    def work() -> None:
        schedule = sim.schedule_fire_at
        for at in times:
            schedule(at, inject)
        sim.run()

    return _ns_per(len(times), work)


def lb_arm(recorded: ArrivalRecorder) -> float:
    """``ConnTrack.lookup``/``insert`` + ``MaglevPolicy.select`` per packet."""
    pool = BackendPool([Backend("server%d" % i) for i in range(2)])
    policy = MaglevPolicy(pool, table_size=1021)
    conntrack = ConnTrack()
    stream = list(
        zip(recorded.times, recorded.fids, recorded.flows, recorded.flags)
    )

    def work() -> None:
        # Keyed as the dataplane keys it: interned flow id for conntrack,
        # the FlowKey itself for the hash policy.
        lookup, insert = conntrack.lookup, conntrack.insert
        for now, fid, flow, flags in stream:
            if lookup(fid, now) is None:
                insert(fid, policy.select(flow, now), now)
            if flags & _FIN_OR_RST:
                conntrack.mark_closing(fid, now)

    return _ns_per(len(stream), work)


def core_arm(recorded: ArrivalRecorder) -> float:
    """Per-flow ``EnsembleTimeout.observe`` on the recorded timestamps."""
    config = EnsembleConfig()
    stream = list(zip(recorded.times, recorded.fids))

    def work() -> None:
        ensembles: Dict[int, EnsembleTimeout] = {}
        for now, fid in stream:
            tracker = ensembles.get(fid)
            if tracker is None:
                tracker = ensembles[fid] = EnsembleTimeout(config)
            tracker.observe(now)

    return _ns_per(len(stream), work)


def run_arms(recorded: ArrivalRecorder) -> Dict[str, float]:
    """Every arm's ns per operation, by metric name."""
    sim_ns = sim_arm(recorded)
    return {
        "sim.isolated_ns_per_event": sim_ns,
        # The injection events are the engine's cost, not the pipe's.
        "net.isolated_ns_per_pkt": net_arm(recorded) - sim_ns,
        "lb.isolated_ns_per_pkt": lb_arm(recorded),
        "core.isolated_ns_per_observe": core_arm(recorded),
    }
