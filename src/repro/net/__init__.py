"""Network model substrate.

A :class:`~repro.net.network.Network` is a fabric of named nodes joined
by unidirectional :class:`~repro.net.pipe.Pipe` links.  Nodes route
hop-by-hop using static per-node route tables, which is how the
asymmetric paths of Direct Server Return are expressed: client→server
traffic routes through the load balancer, server→client traffic takes a
direct pipe that bypasses it.

Pipes model propagation delay, serialization at a configurable bandwidth,
a bounded FIFO queue, and a run-time adjustable *extra delay* — the knob
the Fig 3 experiment turns to inject 1 ms on an LB→server path.
"""

from repro._exports import lazy_exports

__all__ = [
    "Endpoint",
    "FlowKey",
    "Packet",
    "TcpFlags",
    "MessageBoundary",
    "Pipe",
    "PipeStats",
    "Network",
    "Node",
    "PacketTrace",
    "TraceRecord",
]

_EXPORTS = {
    "Endpoint": ".addr",
    "FlowKey": ".addr",
    "Packet": ".packet",
    "TcpFlags": ".packet",
    "MessageBoundary": ".packet",
    "Pipe": ".pipe",
    "PipeStats": ".pipe",
    "Network": ".network",
    "Node": ".node",
    "PacketTrace": ".trace",
    "TraceRecord": ".trace",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
