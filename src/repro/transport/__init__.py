"""TCP-like reliable byte-stream transport.

This package provides the flow-controlled transport whose *packet
timing* the paper's measurement technique exploits: window-limited
senders transmit in bursts, pause when the window fills, and resume when
an ACK (or an application-level response) re-opens their quota — the
causally-triggered transmissions of §3.

Components:

* :class:`~repro.transport.connection.Connection` — handshake, sliding
  window, cumulative ACKs, retransmission, FIN teardown.
* :class:`~repro.transport.connection.TransportConfig` — every knob
  (MSS, window, ACK policy, RTO bounds, pacing).
* :class:`~repro.transport.endpoint.Host` — a network node that demuxes
  packets to connections and listeners.
* ACK policies (immediate / delayed) and pacing model the "general
  packet timing behaviors" of the paper's open question #2.
"""

from repro._exports import lazy_exports

__all__ = [
    "AckPolicy",
    "ImmediateAck",
    "DelayedAck",
    "Connection",
    "ConnectionState",
    "TransportConfig",
    "Host",
    "Listener",
    "Pacer",
    "RttEstimator",
]

_EXPORTS = {
    "AckPolicy": ".ack_policy",
    "DelayedAck": ".ack_policy",
    "ImmediateAck": ".ack_policy",
    "Connection": ".connection",
    "ConnectionState": ".connection",
    "TransportConfig": ".connection",
    "Host": ".endpoint",
    "Listener": ".endpoint",
    "Pacer": ".pacing",
    "RttEstimator": ".retransmit",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
