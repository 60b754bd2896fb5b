"""Maglev consistent hashing (Eisenbud et al., NSDI '16), plus weights.

Each backend gets a permutation of the table slots derived from two
hashes (*offset* and *skip*); backends take turns claiming their next
unclaimed slot until the table fills.  The construction gives near-equal
slot shares and minimal disruption when membership changes.

The **weighted** extension mirrors what Cilium and Google deploy: each
backend's share of slots is made proportional to its weight.  We compute
exact per-backend slot targets by largest-remainder apportionment and
stop a backend's turns once it reaches its target.  The feedback
controller adjusts weights and :class:`~repro.lb.policies.MaglevPolicy`
rebuilds the table when the next new flow reads it; existing
connections are unaffected because the dataplane consults connection
tracking first.  A table object itself builds eagerly, on every
:meth:`MaglevTable.build` call.

The **incremental** mode (``MaglevTable(size, incremental=True)``) is
the fleet plane's membership-churn path: instead of reassigning every
slot from scratch, a rebuild frees exactly the slots whose owner's
target shrank (or who left the pool) and lets under-target backends
claim only those freed slots by continuing their permutation walk.
Slot movement is therefore bounded by the apportionment delta — adding
one backend to *n* remaps ≈ ``size/(n+1)`` slots instead of shuffling
the whole table — which is what keeps a 100 → 1000-backend scale-out
cheap and conntrack-friendly.  Incremental tables satisfy the same
slot-target invariants as full builds but are *not* byte-identical to
them, so the mode is opt-in and default-off.

Hashes are keyed BLAKE2b digests — deterministic across processes (no
``PYTHONHASHSEED`` dependence), which the reproducibility story needs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BalancerError


def is_prime(n: int) -> bool:
    """Trial-division primality (table sizes are small enough)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    while not is_prime(n):
        n += 1
    return n


def _stable_hash(value: str, salt: bytes) -> int:
    digest = hashlib.blake2b(value.encode("utf-8"), key=salt, digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class MaglevTable:
    """A Maglev lookup table over a set of (possibly weighted) backends.

    Parameters
    ----------
    size:
        Table size; must be prime and comfortably larger than the
        backend count (the paper's LB uses Maglev's default 65537; tests
        use small primes).
    incremental:
        When True, rebuilds patch the existing table instead of
        reassigning every slot: only slots whose owner's apportionment
        target changed move.  Off by default (full rebuilds are the
        canonical Maglev construction and what the golden reports pin).
    """

    def __init__(self, size: int = 65_537, incremental: bool = False):
        if not is_prime(size):
            raise BalancerError("Maglev table size must be prime, got %d" % size)
        self._size = size
        self._incremental = incremental
        self._table: List[Optional[str]] = [None] * size
        self._backends: List[str] = []
        self._slot_counts: Dict[str, int] = {}
        #: Per-backend owned slots in claim order (incremental frees
        #: the most recently claimed first) and permutation positions.
        self._owned: Dict[str, List[int]] = {}
        self._next_index: Dict[str, int] = {}
        self._offsets: Dict[str, int] = {}
        self._skips: Dict[str, int] = {}
        self.builds = 0
        #: Slots that changed owner in the last build (incremental mode
        #: tracks this exactly; full rebuilds leave it at None).
        self.last_moved: Optional[int] = None

    @property
    def size(self) -> int:
        """Number of slots."""
        return self._size

    @property
    def backends(self) -> List[str]:
        """Backends in the current table."""
        return list(self._backends)

    def slot_counts(self) -> Dict[str, int]:
        """Slots owned by each backend (proportional to weight)."""
        return dict(self._slot_counts)

    def build(self, weights: Dict[str, float]) -> None:
        """(Re)build the table for ``weights`` (name → weight > 0).

        Zero-weight backends are excluded entirely (but a feedback
        controller normally keeps a weight floor so every backend keeps
        receiving probe traffic).
        """
        active = {name: w for name, w in weights.items() if w > 0}
        if not active:
            raise BalancerError("cannot build Maglev table with no backends")
        if len(active) > self._size:
            raise BalancerError(
                "more backends (%d) than table slots (%d)"
                % (len(active), self._size)
            )

        names = sorted(active)  # stable order, independent of dict order
        targets = self._apportion(names, active)
        if self._incremental and self._backends:
            self._patch(names, targets)
        else:
            self._build_full(names, targets)
        self._backends = names
        self._slot_counts = {name: len(self._owned[name]) for name in names}
        self.builds += 1

    def _perm(self, name: str) -> Tuple[int, int]:
        """Cached (offset, skip) of ``name``'s slot permutation."""
        offset = self._offsets.get(name)
        if offset is None:
            offset = _stable_hash(name, b"maglev-offset") % self._size
            self._offsets[name] = offset
            self._skips[name] = (
                _stable_hash(name, b"maglev-skip") % (self._size - 1) + 1
            )
        return offset, self._skips[name]

    def _build_full(self, names: Sequence[str], targets: Dict[str, int]) -> None:
        """The canonical construction: reassign every slot from scratch.

        Round-robin turns in name order, one claim per turn; a backend
        stops once it hits its slot target.  Targets sum to the table
        size, so round ``r`` is exactly the backends whose target
        exceeds ``r`` and the table is full when the last one stops.
        Each backend's walk is a cursor stepped by its skip, with the
        probes counted for ``_next_index`` (where ``_patch`` resumes).
        """
        size = self._size
        table: List[Optional[str]] = [None] * size
        perms = [self._perm(name) for name in names]
        cursors = [offset for offset, _skip in perms]
        skips = [skip for _offset, skip in perms]
        probes = [0] * len(names)
        owned: List[List[int]] = [[] for _ in names]
        quotas = [targets[name] for name in names]
        claimed = 0
        for quota in sorted(set(quotas)):
            turn = [i for i, q in enumerate(quotas) if q >= quota]
            for _ in range(quota - claimed):
                for i in turn:
                    slot = cursors[i]
                    skip = skips[i]
                    taken = 1
                    while table[slot] is not None:
                        slot += skip
                        if slot >= size:
                            slot -= size
                        taken += 1
                    table[slot] = names[i]
                    owned[i].append(slot)
                    slot += skip
                    cursors[i] = slot if slot < size else slot - size
                    probes[i] += taken
            claimed = quota

        self._table = table
        self._owned = dict(zip(names, owned))
        self._next_index = dict(zip(names, probes))
        self.last_moved = None

    def _patch(self, names: Sequence[str], targets: Dict[str, int]) -> None:
        """Incremental rebuild: move only slots whose target changed.

        Phase 1 frees slots from backends over their new target (most
        recently claimed first) and from backends that left; phase 2
        lets under-target backends claim exactly those freed slots by
        continuing their permutation walk (round-robin turns, mirroring
        the full build's fairness).  Targets sum to the table size, so
        frees and claims balance and the table ends full.
        """
        table = self._table
        freed = 0
        for name in list(self._owned):
            target = targets.get(name, 0)
            mine = self._owned[name]
            while len(mine) > target:
                table[mine.pop()] = None
                freed += 1
            if target == 0:
                del self._owned[name]
                self._next_index.pop(name, None)

        self.last_moved = freed
        remaining = freed
        while remaining > 0:
            progressed = False
            for name in names:
                mine = self._owned.get(name)
                if mine is None:
                    mine = self._owned[name] = []
                if len(mine) >= targets[name]:
                    continue
                progressed = True
                offset, skip = self._perm(name)
                j = self._next_index.get(name, 0)
                while True:
                    slot = (offset + j * skip) % self._size
                    j += 1
                    if table[slot] is None:
                        table[slot] = name
                        mine.append(slot)
                        remaining -= 1
                        break
                self._next_index[name] = j
                if remaining == 0:
                    break
            if not progressed:  # pragma: no cover - frees always balance claims
                break

    def _apportion(
        self, names: Sequence[str], weights: Dict[str, float]
    ) -> Dict[str, int]:
        """Largest-remainder apportionment of slots to weights.

        Every active backend is guaranteed at least one slot, so a
        low-weight backend never silently vanishes from the table.
        """
        total = sum(weights[name] for name in names)
        raw = {name: self._size * weights[name] / total for name in names}
        floors = {name: max(1, int(raw[name])) for name in names}
        allocated = sum(floors.values())
        remainder = self._size - allocated
        if remainder > 0:
            by_frac = sorted(
                names, key=lambda n: (raw[n] - int(raw[n]), n), reverse=True
            )
            for name in (by_frac * (remainder // len(names) + 1))[:remainder]:
                floors[name] += 1
        elif remainder < 0:
            # Over-allocation can only come from the >=1 guarantee; take
            # slots back from the largest holders.
            by_size = sorted(names, key=lambda n: (floors[n], n), reverse=True)
            index = 0
            while remainder < 0:
                name = by_size[index % len(by_size)]
                if floors[name] > 1:
                    floors[name] -= 1
                    remainder += 1
                index += 1
        return floors

    def lookup(self, flow_hash: int) -> str:
        """Map a flow hash to a backend name."""
        if not self._backends:
            raise BalancerError("Maglev table not built")
        backend = self._table[flow_hash % self._size]
        assert backend is not None  # build() fills every slot
        return backend

    def lookup_flow(self, flow_str: str) -> str:
        """Hash an opaque flow identity string and look it up."""
        return self.lookup(_stable_hash(flow_str, b"maglev-flow"))

    def disruption(self, other: "MaglevTable") -> float:
        """Fraction of slots mapped differently vs ``other`` (same size)."""
        if other.size != self._size:
            raise BalancerError("cannot compare tables of different sizes")
        changed = sum(
            1 for a, b in zip(self._table, other._table) if a != b
        )
        return changed / self._size
