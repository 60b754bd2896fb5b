"""Acknowledgment generation policies.

The paper's open question #2 calls out delayed ACKs as a timing
behaviour that can violate the "triggered soon after the response"
assumption.  Making the ACK policy pluggable lets experiments quantify
exactly how much estimator accuracy degrades under each policy.

A policy decides, for each received data segment, whether to emit a pure
ACK now, arm a delay timer, or do nothing (the ACK will piggyback on
data the application is about to send).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator, Timer
from repro.units import MILLISECONDS


class AckPolicy:
    """Base policy: acknowledge immediately on every data segment.

    A policy is handed the connection's pure-ACK sender with each
    segment instead of keeping it, so a closed connection is not kept
    alive by a reference cycle through its policy.  A connection whose
    policy keeps this base ``on_data`` sends the ACK itself.
    """

    def attach(self, sim: Simulator) -> None:
        """Bind to a connection's clock."""

    def on_data(self, in_order: bool, send_ack: Callable[[], None]) -> None:
        """Called for every received data segment; ``send_ack()`` emits a
        pure ACK now."""
        send_ack()

    def on_piggyback(self) -> None:
        """Called when an outgoing data segment carried the ACK."""

    def cancel(self) -> None:
        """Tear down any pending timers (connection closing)."""


class ImmediateAck(AckPolicy):
    """Every data segment is acknowledged at once (TCP quickack)."""


class DelayedAck(AckPolicy):
    """RFC 1122-style delayed ACKs.

    ACK every second full segment immediately; otherwise wait up to
    ``timeout`` (default 40 ms, a common Linux value) for either a second
    segment or outgoing data to piggyback on.  Out-of-order segments are
    acknowledged immediately (duplicate ACK), as TCP requires.
    """

    def __init__(self, timeout: int = 40 * MILLISECONDS, every: int = 2):
        if timeout <= 0:
            raise ValueError("delayed-ack timeout must be positive")
        if every < 2:
            raise ValueError("'every' must be >= 2 for a delayed-ack policy")
        self._timeout = timeout
        self._every = every
        self._pending = 0
        # The timer and the connection's ACK sender exist only while
        # armed: the timer's callback is this policy's bound _fire, so a
        # timer kept idle would hold the two in a reference cycle.
        self._timer: Optional[Timer] = None
        self._send_ack: Optional[Callable[[], None]] = None

    def attach(self, sim: Simulator) -> None:
        self._sim = sim

    def on_data(self, in_order: bool, send_ack: Callable[[], None]) -> None:
        if not in_order:
            # Duplicate/out-of-order data: ack immediately so the sender
            # can detect loss.
            self._flush(send_ack)
            return
        self._pending += 1
        if self._pending >= self._every:
            self._flush(send_ack)
        elif self._timer is None:
            self._send_ack = send_ack
            self._timer = Timer(self._sim, self._fire)
            self._timer.start(self._timeout)

    def on_piggyback(self) -> None:
        # The outgoing data segment carried our cumulative ACK.
        self._pending = 0
        self._disarm()

    def cancel(self) -> None:
        self._disarm()
        self._pending = 0

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self._send_ack = None

    def _flush(self, send_ack: Callable[[], None]) -> None:
        self._pending = 0
        self._disarm()
        send_ack()

    def _fire(self) -> None:
        self._timer = None
        self._pending = 0
        send_ack = self._send_ack
        self._send_ack = None
        send_ack()
