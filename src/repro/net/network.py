"""The network fabric: nodes, pipes, and hop-by-hop routing.

Routing is deliberately static and explicit.  Each node has a route
table mapping *destination host* → *next-hop node name*, plus an
optional default route.  That is all the reproduction needs, and it
makes Direct Server Return a first-class configuration rather than a
special case:

* clients route the VIP (and, by default route, everything) to the LB;
* the LB routes each backend host to a direct pipe;
* servers route each client host to a direct pipe — the return path
  never touches the LB.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.node import Node
from repro.net.packet import Packet, PacketSlab
from repro.net.pipe import Pipe
from repro.net.trace import PacketTrace
from repro.sim.engine import Simulator


class Network:
    """Registry of nodes, pipes between them, and per-node routes.

    Packets are integer handles into the network's :class:`PacketSlab`
    (a fresh one unless ``slab`` is given); hosts and the LB address them
    by handle, and network taps receive materialized :class:`Packet`
    snapshots (taps are the cold observation path).

    Routes are fixed once bound: after the first :meth:`route`
    resolution, ``add_route``, ``set_default_route`` and ``add_alias``
    raise, because connections hold the pipe they resolved.  New pipes
    may still be connected; none can change a hop already resolved.
    """

    def __init__(self, sim: Simulator, slab: Optional[PacketSlab] = None):
        self._sim = sim
        #: Slab backing every packet record on this fabric.
        self.slab = PacketSlab() if slab is None else slab
        self._nodes: Dict[str, Node] = {}
        self._pipes: Dict[Tuple[str, str], Pipe] = {}
        self._routes: Dict[str, Dict[str, str]] = {}
        self._default_routes: Dict[str, str] = {}
        self._aliases: Dict[str, str] = {}
        # Shared with every pipe, which runs the taps on each send, so a
        # tap added after a pipe was built (or bound) still sees it.
        self._taps: List[Callable[[str, Packet], None]] = []
        # Memoized (src node, dst host) → outgoing pipe: what route()
        # resolved.  Never invalidated: the route tables freeze with the
        # first entry.
        self._hops: Dict[Tuple[str, str], Pipe] = {}

    @property
    def sim(self) -> Simulator:
        """The simulation engine this network schedules on."""
        return self._sim

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Register a node; names must be unique."""
        if node.name in self._nodes:
            raise NetworkError("duplicate node name %r" % node.name)
        self._nodes[node.name] = node
        self._routes.setdefault(node.name, {})

    def get_node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError("unknown node %r" % name) from None

    def add_alias(self, alias: str, node_name: str) -> None:
        """Make ``alias`` (e.g. a VIP) deliverable to ``node_name``.

        Used for DSR: each backend server owns the VIP as an alias so it
        can receive packets the LB forwards without rewriting their
        destination, and can source responses from the VIP.
        """
        if node_name not in self._nodes:
            raise NetworkError("alias target %r not a node" % node_name)
        self._check_unbound("add_alias")
        self._aliases[alias] = node_name

    def connect(
        self,
        src: str,
        dst: str,
        prop_delay: int,
        bandwidth_bps: Optional[int] = None,
        queue_capacity: int = 1024,
        jitter: Optional[Callable[[], int]] = None,
        name: Optional[str] = None,
    ) -> Pipe:
        """Create a unidirectional pipe ``src → dst``."""
        if src not in self._nodes:
            raise NetworkError("unknown source node %r" % src)
        if dst not in self._nodes:
            raise NetworkError("unknown destination node %r" % dst)
        key = (src, dst)
        if key in self._pipes:
            raise NetworkError("pipe %s->%s already exists" % key)
        pipe = Pipe(
            self._sim,
            name or "%s->%s" % key,
            prop_delay,
            bandwidth_bps,
            queue_capacity,
            jitter,
            slab=self.slab,
            taps=self._taps,
        )
        # Bind the receiver's method directly: delivery is the hottest
        # callback in the simulation, so skip wrapper indirection.
        pipe.connect(self._nodes[dst].on_packet)
        self._pipes[key] = pipe
        return pipe

    def connect_bidirectional(
        self,
        a: str,
        b: str,
        prop_delay: int,
        bandwidth_bps: Optional[int] = None,
        queue_capacity: int = 1024,
    ) -> Tuple[Pipe, Pipe]:
        """Convenience: a symmetric pair of pipes."""
        forward = self.connect(a, b, prop_delay, bandwidth_bps, queue_capacity)
        backward = self.connect(b, a, prop_delay, bandwidth_bps, queue_capacity)
        return forward, backward

    def pipe(self, src: str, dst: str) -> Pipe:
        """Look up the pipe ``src → dst``."""
        try:
            return self._pipes[(src, dst)]
        except KeyError:
            raise NetworkError("no pipe %s->%s" % (src, dst)) from None

    def pipes(self) -> Dict[Tuple[str, str], Pipe]:
        """Snapshot of all pipes, keyed ``(src, dst)`` (for tooling)."""
        return dict(self._pipes)

    def has_pipe(self, src: str, dst: str) -> bool:
        """Whether the pipe ``src → dst`` exists."""
        return (src, dst) in self._pipes

    def add_route(self, node: str, dst_host: str, next_hop: str) -> None:
        """Route traffic from ``node`` toward ``dst_host`` via ``next_hop``."""
        if node not in self._nodes:
            raise NetworkError("unknown node %r" % node)
        self._check_unbound("add_route")
        self._routes[node][dst_host] = next_hop

    def set_default_route(self, node: str, next_hop: str) -> None:
        """Fallback next hop for destinations with no explicit route."""
        if node not in self._nodes:
            raise NetworkError("unknown node %r" % node)
        self._check_unbound("set_default_route")
        self._default_routes[node] = next_hop

    def _check_unbound(self, what: str) -> None:
        if self._hops:
            raise NetworkError(
                "%s after a route was resolved: routes are fixed once bound"
                % what
            )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def route(self, node_name: str, dst_host: str) -> Pipe:
        """The pipe out of ``node_name`` toward ``dst_host``.

        Resolves the next hop (explicit route, then default route, then —
        if the destination resolves to a directly-pipe-connected node —
        that node) once and memoises it; the first resolution fixes the
        route tables.  Connections bind the result at construction.
        """
        key = (node_name, dst_host)
        pipe = self._hops.get(key)
        if pipe is None:
            next_hop = self._resolve_next_hop(node_name, dst_host)
            pipe = self._pipes.get((node_name, next_hop))
            if pipe is None:
                raise NetworkError(
                    "no pipe from %s to next hop %s (for dst %s)"
                    % (node_name, next_hop, dst_host)
                )
            self._hops[key] = pipe
        return pipe

    def send_from(self, node_name: str, packet: int) -> bool:
        """Route slab handle ``packet`` out of ``node_name`` toward its
        destination host; False if the pipe dropped it."""
        slab = self.slab
        return self.route(node_name, slab.ep_host[slab.dst_i[packet]]).send(packet)

    def send_via(self, src_node: str, next_hop: str, packet: int) -> bool:
        """Send over an explicit hop, ignoring route tables."""
        return self.pipe(src_node, next_hop).send(packet)

    def _resolve_next_hop(self, node_name: str, dst_host: str) -> str:
        routes = self._routes.get(node_name, {})
        if dst_host in routes:
            return routes[dst_host]
        resolved = self._aliases.get(dst_host, dst_host)
        if resolved in routes:
            return routes[resolved]
        if node_name in self._default_routes:
            return self._default_routes[node_name]
        if (node_name, resolved) in self._pipes:
            return resolved
        raise NetworkError("node %s has no route to %s" % (node_name, dst_host))

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def add_tap(self, tap: Callable[[str, Packet], None]) -> None:
        """Observe every packet at transmission time (pipe name, packet)."""
        self._taps.append(tap)

    def attach_trace(self, trace: PacketTrace) -> None:
        """Record every transmission into ``trace``."""
        self.add_tap(
            lambda pipe_name, packet: trace.record(
                self._sim.now, pipe_name, packet
            )
        )
