"""Algorithm 1 — FIXEDTIMEOUT.

Verbatim from the paper: executed upon each packet of flow *f* arriving
at the LB, with a fixed inter-batch timeout δ.

.. code-block:: none

    T_LB = undef
    if now − f.time_last_pkt > δ:
        T_LB = now − f.time_last_batch       # new batch: record latency
        f.time_last_batch = now
    f.time_last_pkt = now
    return T_LB

The very first packet of a flow initializes both state variables and
produces no sample (there is no previous batch to measure from).

One :class:`FixedTimeout` instance holds the state for **one flow and
one δ**; the ensemble (Algorithm 2) runs *k* of these per flow, and the
LB keeps the ensemble on the flow's conntrack entry.
"""

from __future__ import annotations

from typing import Optional


class FixedTimeout:
    """Per-flow batch tracker with a fixed inter-batch timeout δ."""

    __slots__ = ("delta", "time_last_batch", "time_last_pkt", "samples_produced")

    def __init__(self, delta: int):
        if delta <= 0:
            raise ValueError("timeout delta must be positive, got %r" % delta)
        self.delta = delta
        self.time_last_batch: Optional[int] = None
        self.time_last_pkt: Optional[int] = None
        self.samples_produced = 0

    def observe(self, now: int) -> Optional[int]:
        """Process one packet arrival; returns a ``T_LB`` sample or None.

        ``now`` must be non-decreasing across calls for one flow (packet
        arrivals at the LB are naturally ordered).
        """
        if self.time_last_pkt is None:
            # First packet of the flow: start the first batch.
            self.time_last_batch = now
            self.time_last_pkt = now
            return None

        t_lb: Optional[int] = None
        if now - self.time_last_pkt > self.delta:
            # New batch: the gap between batch heads is the estimate.
            assert self.time_last_batch is not None
            t_lb = now - self.time_last_batch
            self.time_last_batch = now
            self.samples_produced += 1
        self.time_last_pkt = now
        return t_lb

    def __repr__(self) -> str:
        return "FixedTimeout(delta=%d, samples=%d)" % (
            self.delta,
            self.samples_produced,
        )
