"""Connection tracking: flow → backend affinity.

The paper's §2.5 requirements include connection-to-server affinity: a
flow must keep hitting the backend it was first assigned, even as the
routing table changes underneath (otherwise mid-connection re-routing
breaks TCP).  The table also drives least-connections policies via
per-backend active-flow counts.

Expiry: an entry dies when the LB sees the client's FIN or RST (after a
linger so retransmissions still match), or after an idle timeout.  The
sweep is amortized — every ``sweep_every`` operations — so the per-packet
path stays O(1).

As in an XDP dataplane, the entry is also where per-flow measurement
state lives: one lookup serves routing and measurement, and the state
expires with the entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.units import MILLISECONDS, SECONDS

# Keys are opaque to the table: the LB passes the slab's interned integer
# flow ids (int hashing is much cheaper than a 4-field tuple hash on the
# per-packet path).
FlowId = Hashable


class _Entry:
    """Slotted by hand (not a dataclass): one entry per tracked flow on
    the per-packet path, so attribute access and allocation both count.

    ``state`` belongs to the measurement plane (the table's
    ``state_owner``): its per-flow state rides on the entry the
    dataplane already looked up, and dies with it.
    """

    __slots__ = ("backend", "last_seen", "closing_at", "state")

    def __init__(self, backend: str, last_seen: int):
        self.backend = backend
        self.last_seen = last_seen
        self.closing_at: Optional[int] = None  # time FIN/RST observed
        self.state: object = None


@dataclass
class ConnTrackStats:
    """Lifetime counters."""

    inserts: int = 0
    hits: int = 0
    misses: int = 0
    expired_idle: int = 0
    expired_fin: int = 0


class ConnTrack:
    """Flow-affinity table with idle and FIN-driven expiry."""

    def __init__(
        self,
        idle_timeout: int = 10 * SECONDS,
        fin_linger: int = 50 * MILLISECONDS,
        sweep_every: int = 1024,
    ):
        if idle_timeout <= 0 or fin_linger < 0:
            raise ValueError("bad conntrack timeouts")
        self._idle_timeout = idle_timeout
        self._fin_linger = fin_linger
        self._sweep_every = max(1, sweep_every)
        self._entries: Dict[FlowId, _Entry] = {}
        self._flow_counts: Dict[str, int] = {}
        self._ops = 0
        self.stats = ConnTrackStats()
        #: The entry for a flow id, or None: a plain lookup (no expiry
        #: check, no stats), bound once for the measurement plane's tap.
        self.entry = self._entries.get
        #: The one measurement plane whose per-flow state the entries
        #: carry (None until one claims it).
        self.state_owner: object = None

    def __len__(self) -> int:
        return len(self._entries)

    def measured(self) -> int:
        """Entries holding measurement state (O(n) scan)."""
        return sum(1 for entry in self._entries.values() if entry.state is not None)

    def lookup(self, flow: FlowId, now: int) -> Optional[str]:
        """Backend for ``flow``, refreshing its idle clock; None if absent.

        Every ``sweep_every``-th lookup first sweeps expired entries.
        """
        ops = self._ops + 1
        self._ops = ops
        if not ops % self._sweep_every:
            self._sweep(now)
        entry = self._entries.get(flow)
        if entry is None:
            self.stats.misses += 1
            return None
        if now - entry.last_seen > self._idle_timeout:
            self._remove(flow, idle=True)
            self.stats.misses += 1
            return None
        entry.last_seen = now
        self.stats.hits += 1
        return entry.backend

    def insert(self, flow: FlowId, backend: str, now: int) -> None:
        """Pin ``flow`` to ``backend``."""
        old = self._entries.get(flow)
        if old is not None:
            self._decrement(old.backend)
        self._entries[flow] = _Entry(backend=backend, last_seen=now)
        self._flow_counts[backend] = self._flow_counts.get(backend, 0) + 1
        self.stats.inserts += 1

    def mark_closing(self, flow: FlowId, now: int) -> None:
        """Note a FIN/RST from the client; entry lingers briefly."""
        entry = self._entries.get(flow)
        if entry is not None and entry.closing_at is None:
            entry.closing_at = now

    def active_flows(self, backend: str) -> int:
        """Tracked flows currently pinned to ``backend`` (incl. closing)."""
        return self._flow_counts.get(backend, 0)

    def recount(self) -> Dict[str, int]:
        """Per-backend entry recount straight from the table (O(n)).

        An audit seam for the campaign plane's conntrack invariant: the
        amortized ``_flow_counts`` cache must always agree with a fresh
        scan of the entries — PR 7's orphaned-table bug is exactly the
        class of drift this catches.
        """
        counts: Dict[str, int] = {}
        for entry in self._entries.values():
            counts[entry.backend] = counts.get(entry.backend, 0) + 1
        return counts

    def counted(self) -> Dict[str, int]:
        """The amortized per-backend flow counts (the cached view)."""
        return dict(self._flow_counts)

    def live_flows(self, backend: str) -> int:
        """Pinned flows with no FIN/RST observed yet (O(n) scan)."""
        return sum(
            1
            for entry in self._entries.values()
            if entry.backend == backend and entry.closing_at is None
        )

    def _sweep(self, now: int) -> None:
        dead = []
        for flow, entry in self._entries.items():
            if entry.closing_at is not None and now - entry.closing_at > self._fin_linger:
                dead.append((flow, False))
            elif now - entry.last_seen > self._idle_timeout:
                dead.append((flow, True))
        for flow, idle in dead:
            self._remove(flow, idle=idle)

    def _remove(self, flow: FlowId, idle: bool) -> None:
        entry = self._entries.pop(flow, None)
        if entry is None:
            return
        self._decrement(entry.backend)
        if idle:
            self.stats.expired_idle += 1
        else:
            self.stats.expired_fin += 1

    def _decrement(self, backend: str) -> None:
        count = self._flow_counts.get(backend, 0)
        if count <= 1:
            self._flow_counts.pop(backend, None)
        else:
            self._flow_counts[backend] = count - 1
