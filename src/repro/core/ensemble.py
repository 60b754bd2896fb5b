"""Algorithm 2 — ENSEMBLETIMEOUT.

Runs *k* FIXEDTIMEOUT instances with exponentially spaced timeouts
(paper default: δ₁ = 64 µs, δ₂ = 128 µs, …, δ₇ = 4 ms) on every packet
of a flow.  Over each epoch *E* (paper default 64 ms) it counts how many
samples each timeout produced (``N_i``).  At the first packet of a new
epoch it finds the **sample cliff** — the largest drop in sample count
between adjacent timeouts, ``m = argmaxᵢ (Nᵢ / Nᵢ₊₁)`` — and uses δₘ as
the reporting timeout for the next epoch.

Intuition (paper §3): a too-small δ chops true batches apart and floods
low samples; a too-large δ merges batches and produces few, inflated
samples.  The count-vs-δ curve therefore falls off a cliff right past
the ideal timeout, and the cliff's left edge is a good δ.

Implementation notes beyond the pseudocode (documented choices, see
DESIGN.md §5):

* ``Nᵢ₊₁ = 0`` — the ratio uses ``max(Nᵢ₊₁, 1)`` so a zero count does
  not divide by zero; a timeout that produced nothing while its
  neighbour produced plenty is exactly a cliff.
* All-zero epochs (an idle flow) keep the previous δₑ.
* The first epoch has no cliff information yet; the initial reporting
  timeout is the *smallest* δ (configurable) — matching the paper's
  observation that low timeouts at least keep producing samples.

Fused fast path
---------------

``observe`` is called for **every** packet the LB forwards, which makes
it the hottest Python in the reproduction.  The naive implementation
walks all *k* FIXEDTIMEOUT instances per packet, but the ensemble's
structure makes most of that work redundant: the δ ladder is sorted
ascending, so for an inter-packet gap *g*,

    ``g > δᵢ  ⇒  g > δⱼ``  for every *j ≤ i*.

Exactly the instances with ``δᵢ < g`` start a new batch; they form a
prefix of the ladder whose length is one :func:`bisect.bisect_left`
(O(log k)), and only those ``rolled`` instances need their batch state
touched.  A mid-batch packet (``g ≤ δ₁``, the overwhelmingly common
case) is O(1): nothing rolls.  Since every instance shares the same
``time_last_pkt``, the fused path keeps one shared last-packet stamp
plus flat per-instance arrays instead of *k* objects.

``tests/test_ensemble.py`` keeps the literal k-instance loop as the
oracle the fused path must match: same samples, counts, and cliff
choices.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.fixed_timeout import FixedTimeout
from repro.errors import ConfigError
from repro.units import MICROSECONDS, MILLISECONDS


def detect_cliff_index(counts: Sequence[int]) -> int:
    """``argmaxᵢ Nᵢ / max(Nᵢ₊₁, 1)``; ties resolve to the lowest index."""
    best_index = 0
    best_ratio = -1.0
    for i in range(len(counts) - 1):
        ratio = counts[i] / max(counts[i + 1], 1)
        if ratio > best_ratio:
            best_ratio = ratio
            best_index = i
    return best_index


def default_timeouts() -> List[int]:
    """The paper's ensemble: 64 µs, 128 µs, …, 4 ms (k = 7)."""
    return [64 * MICROSECONDS * (2 ** i) for i in range(7)]


@dataclass
class EnsembleConfig:
    """ENSEMBLETIMEOUT parameters (paper defaults)."""

    timeouts: Sequence[int] = field(default_factory=default_timeouts)
    epoch: int = 64 * MILLISECONDS
    initial_index: int = 0

    def validate(self) -> None:
        """Raise ConfigError on malformed parameters."""
        if len(self.timeouts) < 2:
            raise ConfigError("ensemble needs at least two timeouts")
        if list(self.timeouts) != sorted(self.timeouts):
            raise ConfigError("timeouts must be sorted ascending")
        if len(set(self.timeouts)) != len(self.timeouts):
            raise ConfigError("timeouts must be distinct")
        if any(t <= 0 for t in self.timeouts):
            raise ConfigError("timeouts must be positive")
        if self.epoch <= 0:
            raise ConfigError("epoch must be positive")
        if not 0 <= self.initial_index < len(self.timeouts):
            raise ConfigError("initial_index out of range")


class EnsembleTimeout:
    """Per-flow ensemble estimator (one instance per tracked flow).

    ``observe(now)`` is called for every packet of the flow arriving at
    the LB and returns a ``T_LB`` sample when the *currently selected*
    timeout's FIXEDTIMEOUT instance produced one, else None, using the
    O(log k) prefix-roll path documented in the module docstring.
    """

    __slots__ = (
        "config",
        "_deltas",
        "_last_batch",
        "_last_pkt",
        "_samples_produced",
        "_epoch_len",
        "_counts",
        "_epoch_start",
        "_current",
        "epochs_completed",
        "cliff_history",
    )

    def __init__(
        self,
        config: Optional[EnsembleConfig] = None,
        cliff_history: Optional[List[Tuple[int, int]]] = None,
    ):
        self.config = config or EnsembleConfig()
        self.config.validate()
        self._deltas = list(self.config.timeouts)
        # Cached once: observe() reads the epoch length per packet and
        # the config is immutable after validate().
        self._epoch_len = self.config.epoch
        k = len(self._deltas)
        self._last_batch: List[int] = [0] * k
        self._last_pkt: Optional[int] = None
        self._samples_produced = [0] * k
        self._counts = [0] * k
        self._epoch_start: Optional[int] = None
        self._current = self.config.initial_index
        self.epochs_completed = 0
        #: (epoch_end_time, chosen_index) per completed epoch: this flow's
        #: own list, or a passed-in epoch log that many flows share.
        self.cliff_history: List[Tuple[int, int]] = (
            [] if cliff_history is None else cliff_history
        )

    @property
    def current_timeout(self) -> int:
        """The δₑ in use for the current epoch (ns)."""
        return self._deltas[self._current]

    @property
    def current_index(self) -> int:
        """Index of δₑ in the ensemble."""
        return self._current

    @property
    def instances(self) -> List[FixedTimeout]:
        """Per-timeout FIXEDTIMEOUT state, as snapshot views.

        Equivalent Algorithm 1 instances are materialized on demand, so
        introspection and oracle tests can compare state without slowing
        the hot path.
        """
        views = []
        for i, delta in enumerate(self._deltas):
            view = FixedTimeout(delta)
            if self._last_pkt is not None:
                view.time_last_batch = self._last_batch[i]
                view.time_last_pkt = self._last_pkt
            view.samples_produced = self._samples_produced[i]
            views.append(view)
        return views

    def sample_counts(self) -> List[int]:
        """This epoch's per-timeout sample counts so far (N_i)."""
        return list(self._counts)

    def observe(self, now: int) -> Optional[int]:
        """Feed one packet arrival; maybe emit a ``T_LB`` sample.

        Epoch boundaries are detected *before* processing the packet, as
        in the pseudocode ("if current packet is the first of a new
        epoch"), so the packet that opens an epoch is measured with the
        freshly chosen timeout.
        """
        epoch_start = self._epoch_start
        if epoch_start is None:
            self._epoch_start = now
        elif now - epoch_start >= self._epoch_len:
            self._end_epoch(now)

        last_pkt = self._last_pkt
        self._last_pkt = now
        if last_pkt is None:
            # First packet of the flow: start every instance's first batch.
            self._last_batch = [now] * len(self._deltas)
            return None

        gap = now - last_pkt
        deltas = self._deltas
        if gap <= deltas[0]:
            return None  # mid-batch for every δ: the O(1) common case

        # Instances with δᵢ < gap — a prefix of the sorted ladder — roll.
        if gap > deltas[-1]:
            rolled = len(deltas)
        else:
            rolled = bisect_left(deltas, gap)

        current = self._current
        last_batch = self._last_batch
        result = now - last_batch[current] if current < rolled else None
        counts = self._counts
        samples = self._samples_produced
        for i in range(rolled):
            counts[i] += 1
            samples[i] += 1
            last_batch[i] = now
        return result

    def _end_epoch(self, now: int) -> None:
        chosen = self._detect_cliff()
        if chosen is not None:
            self._current = chosen
        self.cliff_history.append((now, self._current))
        self._counts = [0] * len(self._deltas)
        # Advance the epoch window to contain `now` (idle gaps may span
        # several epochs; counters reset either way).
        assert self._epoch_start is not None
        span = now - self._epoch_start
        self._epoch_start += (span // self._epoch_len) * self._epoch_len
        self.epochs_completed += 1

    def _detect_cliff(self) -> Optional[int]:
        """``argmaxᵢ Nᵢ / Nᵢ₊₁`` over adjacent timeout pairs.

        Returns None when no timeout produced any sample (idle epoch).
        """
        if not any(self._counts):
            return None
        return detect_cliff_index(self._counts)
