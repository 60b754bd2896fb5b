"""Round-trip estimation and retransmission timeout computation.

A trimmed RFC 6298: SRTT/RTTVAR smoothing and exponential back-off on
timeout.  The connection owns the actual timer and applies Karn's rule
(no sample from an ACK that covers a retransmitted segment); this module
owns the arithmetic.
"""

from __future__ import annotations

from typing import Optional

from repro.units import MILLISECONDS, SECONDS


class RttEstimator:
    """SRTT/RTTVAR tracker producing RTO values.

    Parameters are in nanoseconds.  ``rto_min`` defaults to 5 ms — far
    below TCP's traditional 200 ms floor, because the simulated cluster
    RTTs are hundreds of microseconds and a 200 ms floor would make any
    loss pathological rather than merely slow.
    """

    ALPHA = 0.125
    BETA = 0.25

    __slots__ = (
        "_srtt",
        "_rttvar",
        "_rto",
        "_rto_min",
        "_rto_max",
        "_backoff",
        "samples",
    )

    def __init__(
        self,
        initial_rto: int = 100 * MILLISECONDS,
        rto_min: int = 5 * MILLISECONDS,
        rto_max: int = 10 * SECONDS,
    ):
        if not rto_min <= initial_rto <= rto_max:
            raise ValueError("require rto_min <= initial_rto <= rto_max")
        self._srtt: Optional[float] = None
        self._rttvar: Optional[float] = None
        self._rto = initial_rto
        self._rto_min = rto_min
        self._rto_max = rto_max
        self._backoff = 1
        self.samples = 0

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT in ns, or None before the first sample."""
        return self._srtt

    @property
    def rto(self) -> int:
        """Current retransmission timeout (ns), including back-off."""
        return min(self._rto_max, self._rto * self._backoff)

    def sample(self, rtt: int) -> None:
        """Fold in a fresh (non-retransmitted, per Karn) RTT sample."""
        if rtt < 0:
            raise ValueError("negative RTT sample: %d" % rtt)
        self.samples += 1
        if self._srtt is None:
            self._srtt = float(rtt)
            self._rttvar = rtt / 2.0
        else:
            assert self._rttvar is not None
            self._rttvar += self.BETA * (abs(self._srtt - rtt) - self._rttvar)
            self._srtt += self.ALPHA * (rtt - self._srtt)
        raw = self._srtt + 4.0 * self._rttvar
        self._rto = max(self._rto_min, min(self._rto_max, round(raw)))
        self._backoff = 1

    def on_timeout(self) -> None:
        """Exponentially back off after a retransmission timeout."""
        self._backoff = min(self._backoff * 2, 64)

    def reset_backoff(self) -> None:
        """Clear back-off (called when new data is acked)."""
        self._backoff = 1
