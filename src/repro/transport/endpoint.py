"""Hosts: network nodes that own connections and listeners.

A :class:`Host` is the meeting point of the network and transport
layers.  It demultiplexes inbound packets to connections by their flow
— the (remote endpoint → local endpoint) pair, interned by the network's
packet slab — which naturally supports DSR,
where a server host accepts packets addressed to the VIP alias and
sources responses from it — and hands SYNs for listening ports to the
registered :class:`Listener`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import TransportError
from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.net.packet import FLAG_ACK, FLAG_SYN
from repro.transport.connection import Connection, TransportConfig

_ConnKey = Tuple[str, int, str, int]  # local host, local port, remote host, remote port


class Listener:
    """A passive open on a port: builds server connections on SYN."""

    def __init__(
        self,
        port: int,
        on_connection: Callable[[Connection], None],
        config: Optional[TransportConfig] = None,
    ):
        self.port = port
        self.on_connection = on_connection
        self.config = config


class Host:
    """A transport endpoint attached to the network.

    Parameters
    ----------
    network:
        The fabric this host sends and receives on (must already contain
        a node slot for ``name`` — use :meth:`Host.attach`).
    name:
        Network node name; also the host part of local endpoints.
    default_config:
        Transport parameters used when a connect/listen call does not
        override them.
    """

    def __init__(
        self,
        network: Network,
        name: str,
        default_config: Optional[TransportConfig] = None,
    ):
        self.network = network
        self.name = name
        self.sim = network.sim
        #: The network's PacketSlab; connections allocate from it.
        self.slab = network.slab
        self.default_config = default_config or TransportConfig()
        self._connections: Dict[_ConnKey, Connection] = {}
        # Packet demux: inbound flow id -> Connection, so a delivery costs
        # one slab column read and one int-keyed probe.  ``_connections``
        # keys the same connections by endpoint names for port allocation.
        self._by_flow: Dict[int, Connection] = {}
        self._listeners: Dict[int, Listener] = {}
        self._next_ephemeral = 49_152
        network.add_node(self)

    # ------------------------------------------------------------------
    # Application-facing API
    # ------------------------------------------------------------------

    def listen(
        self,
        port: int,
        on_connection: Callable[[Connection], None],
        config: Optional[TransportConfig] = None,
    ) -> Listener:
        """Accept connections on ``port``; ``on_connection`` fires per SYN."""
        if port in self._listeners:
            raise TransportError("port %d already listening on %s" % (port, self.name))
        listener = Listener(port, on_connection, config)
        self._listeners[port] = listener
        return listener

    def stop_listening(self, port: int) -> None:
        """Remove a listener; new SYNs to the port go unanswered.

        Existing connections are unaffected.  Used to simulate a service
        going dark for health-check and churn experiments.
        """
        self._listeners.pop(port, None)

    def connect(
        self,
        remote: Endpoint,
        config: Optional[TransportConfig] = None,
        local_port: Optional[int] = None,
    ) -> Connection:
        """Active-open a connection to ``remote``; sends the SYN now."""
        if local_port is None:
            local_port = self._allocate_port(remote)
        local = Endpoint(self.name, local_port)
        key = self._key(local, remote)
        if key in self._connections:
            raise TransportError("connection %s -> %s already exists" % (local, remote))
        conn = Connection(
            host=self,
            local=local,
            remote=remote,
            config=config or self.default_config,
            is_client=True,
        )
        self._connections[key] = conn
        self._by_flow[conn.inbound_fid] = conn
        conn.open()
        return conn

    @property
    def connection_count(self) -> int:
        """Live connections currently tracked by this host."""
        return len(self._connections)

    # ------------------------------------------------------------------
    # Node interface
    # ------------------------------------------------------------------

    def on_packet(self, packet: int) -> None:
        """Demux an inbound slab handle on its interned flow id.

        A handle that matches nothing — a stale segment after teardown,
        or an RST for an unknown flow — is dropped and freed here: the
        host owns it on delivery.
        """
        slab = self.slab
        conn = self._by_flow.get(slab.fid[packet])
        if conn is not None:
            conn.handle_packet(packet)
            return
        flags = slab.flags[packet]
        if flags & FLAG_SYN and not flags & FLAG_ACK:
            local = slab.endpoint(slab.dst_i[packet])
            listener = self._listeners.get(local.port)
            if listener is not None:
                remote = slab.endpoint(slab.src_i[packet])
                conn = Connection(
                    host=self,
                    local=local,
                    remote=remote,
                    config=listener.config or self.default_config,
                    is_client=False,
                )
                self._connections[self._key(local, remote)] = conn
                self._by_flow[conn.inbound_fid] = conn
                listener.on_connection(conn)
                conn.handle_packet(packet)
                return
        slab.free(packet)

    def forget_connection(self, conn: Connection) -> None:
        """Remove a closed connection from the demux table."""
        key = self._key(conn.local, conn.remote)
        self._connections.pop(key, None)
        self._by_flow.pop(conn.inbound_fid, None)

    # ------------------------------------------------------------------

    def _allocate_port(self, remote: Endpoint) -> int:
        # Linear probe over the ephemeral range; raises if exhausted.
        for _ in range(16_384):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65_535:
                self._next_ephemeral = 49_152
            key = self._key(Endpoint(self.name, port), remote)
            if key not in self._connections:
                return port
        raise TransportError("ephemeral ports exhausted on %s" % self.name)

    @staticmethod
    def _key(local: Endpoint, remote: Endpoint) -> _ConnKey:
        return (local.host, local.port, remote.host, remote.port)

    def __repr__(self) -> str:
        return "Host(%s, %d conns)" % (self.name, len(self._connections))
