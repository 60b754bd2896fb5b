"""The load-balancer packet processor.

A :class:`LoadBalancer` is a network node owning a VIP.  For each
client→server packet it:

1. looks the flow up in connection tracking (affinity first — §2.5);
2. otherwise asks the routing policy for a backend (SYN = new flow;
   a non-SYN miss falls back to the policy too, mimicking an LB that
   lost state but still routes consistently via hashing);
3. forwards the packet to the chosen backend over the direct pipe,
   leaving the VIP destination intact (DSR: the backend owns the VIP as
   an alias and answers the client directly);
4. feeds its **taps** — the measurement plane's only input.  A tap sees
   ``(now, flow, backend, packet)`` — exactly the information an XDP
   program would have, and *never* any response traffic.

Per-backend forwarding statistics come for free — the ``lb→backend``
pipes count them — and let experiments verify how traffic actually
shifted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.lb.backend import BackendPool
from repro.lb.conntrack import ConnTrack
from repro.lb.policies import RoutingPolicy
from repro.net.addr import Endpoint, FlowKey
from repro.net.network import Network
from repro.net.packet import FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN
from repro.net.pipe import Pipe

if TYPE_CHECKING:  # pragma: no cover - resilience imports lb submodules
    from repro.resilience.breaker import BreakerBoard

_FIN_OR_RST = FLAG_FIN | FLAG_RST

#: Signature of a measurement tap: ``(now, flow, backend, handle)``.
#: The handle is the packet's slab handle, valid only during the call;
#: the in-repo taps key off ``flow``/``backend`` or read slab columns,
#: and cold-path consumers materialize a snapshot via
#: ``network.slab.materialize(handle)``.
PacketTap = Callable[[int, FlowKey, str, int], None]


@dataclass
class LoadBalancerStats:
    """Forwarding counters."""

    packets_in: int = 0
    packets_forwarded: int = 0
    packets_dropped_no_backend: int = 0
    new_flows: int = 0
    conntrack_fallbacks: int = 0
    draining_packets: int = 0
    #: Packets forwarded to a backend whose circuit breaker was OPEN at
    #: the time (affinity keeps established flows pinned; only new-flow
    #: placement is breaker-gated).
    packets_to_open_backend: int = 0
    per_backend_new_flows: Dict[str, int] = field(default_factory=dict)
    #: Backend -> its ``lb→backend`` pipe, in first-forward order.
    pipes: Dict[str, Pipe] = field(default_factory=dict, repr=False)

    @property
    def per_backend_packets(self) -> Dict[str, int]:
        """Packets forwarded per backend, in first-forward order.

        A view over the ``lb→backend`` pipes' ``packets_sent``: nothing
        else sends on them (health probes have their own pipes).
        """
        return {
            name: pipe.stats.packets_sent for name, pipe in self.pipes.items()
        }


class LoadBalancer:
    """L4 load balancer node with DSR forwarding.

    Parameters
    ----------
    network:
        Fabric to attach to (the LB registers itself as a node).
    name:
        Node name (e.g. ``"lb"``).
    vip:
        The virtual endpoint clients address.
    pool, policy, conntrack:
        Backend set, new-flow routing policy, and affinity table.
    breakers:
        Optional per-backend circuit-breaker board (resilience plane);
        only used for the ``packets_to_open_backend`` statistic — the
        routing decision itself is gated by
        :class:`~repro.lb.policies.BreakerGatedPolicy`.
    """

    def __init__(
        self,
        network: Network,
        name: str,
        vip: Endpoint,
        pool: BackendPool,
        policy: RoutingPolicy,
        conntrack: Optional[ConnTrack] = None,
        breakers: Optional["BreakerBoard"] = None,
    ):
        self.network = network
        self.name = name
        self.vip = vip
        self.pool = pool
        # The pool's name -> backend dict, for the per-packet membership
        # test without a ``__contains__`` call.  The pool mutates this
        # one dict and never replaces it.
        self._members = pool._backends
        self.policy = policy
        # ``is None`` test, not truthiness: an *empty* ConnTrack is falsy
        # (it defines __len__), and the caller-supplied table is always
        # empty at construction time.  ``conntrack or ConnTrack()`` would
        # silently orphan the shared table that routing policies and the
        # fleet plane's autoscaler read their flow counts from.
        self.conntrack = ConnTrack() if conntrack is None else conntrack
        self.breakers = breakers
        self.stats = LoadBalancerStats()
        self._taps: List[PacketTap] = []
        # Packets arrive as slab handles; conntrack keys are interned
        # flow ids (ints) instead of FlowKey tuples, which skips the
        # 4-field tuple hash on every lookup.  Policies and taps still
        # receive the interned FlowKey object (free: a list index).
        self._slab = network.slab
        # Prebound hot-path handles: on_packet runs once per forwarded
        # packet, so skip the network.sim.now property chain.
        self._sim = network.sim
        network.add_node(self)

    def add_tap(self, tap: PacketTap) -> None:
        """Attach a measurement tap (called per forwarded packet)."""
        self._taps.append(tap)

    # ------------------------------------------------------------------
    # Node interface
    # ------------------------------------------------------------------

    def on_packet(self, packet: int) -> None:
        """Process one client→server packet (a slab handle)."""
        stats = self.stats
        stats.packets_in += 1
        slab = self._slab
        if slab.ep_host[slab.dst_i[packet]] != self.vip.host:
            # Not for our VIP: a misrouted packet; drop (and free — the
            # LB owns the handle on delivery).
            stats.packets_dropped_no_backend += 1
            slab.free(packet)
            return
        flags = slab.flags[packet]
        key = slab.fid[packet]
        flow = slab.flows[key]

        now = self._sim._now
        backend = self.conntrack.lookup(key, now)
        if backend is not None and backend not in self._members:
            # The backend left the pool but the flow is pinned: keep
            # draining it (§2.5 — membership churn must not break
            # established connections).  Only new flows avoid it.
            stats.draining_packets += 1
        if backend is None:
            is_new = flags & FLAG_SYN and not flags & FLAG_ACK
            backend = self.policy.select(flow, now)
            self.conntrack.insert(key, backend, now)
            if is_new:
                stats.new_flows += 1
                stats.per_backend_new_flows[backend] = (
                    stats.per_backend_new_flows.get(backend, 0) + 1
                )
            else:
                stats.conntrack_fallbacks += 1

        if flags & _FIN_OR_RST:
            self.conntrack.mark_closing(key, now)

        for tap in self._taps:
            tap(now, flow, backend, packet)

        if self.breakers is not None and self.breakers.is_open(backend, now):
            stats.packets_to_open_backend += 1

        stats.packets_forwarded += 1
        # Each backend's pipe is looked up on its first forward: the
        # fleet adds backends mid-run.
        pipes = stats.pipes
        pipe = pipes.get(backend)
        if pipe is None:
            pipe = pipes[backend] = self.network.pipe(self.name, backend)
        pipe.send(packet)

    def backend_share(self) -> Dict[str, float]:
        """Fraction of forwarded packets per backend (for reports)."""
        counts = self.stats.per_backend_packets
        total = sum(counts.values())
        if total == 0:
            return {}
        return {name: count / total for name, count in sorted(counts.items())}
