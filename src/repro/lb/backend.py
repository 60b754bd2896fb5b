"""Backend descriptors and the backend pool.

A backend is a server node reachable from the LB; its ``weight`` is the
knob the feedback controller turns.  The pool preserves insertion order
(determinism) and fires a change listener so dependents (the Maglev
table) can rebuild when weights or membership change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import BalancerError


@dataclass
class Backend:
    """One server behind the VIP."""

    name: str
    weight: float = 1.0
    healthy: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise BalancerError("backend needs a name")
        if self.weight < 0:
            raise BalancerError("backend weight must be >= 0")


class BackendPool:
    """Ordered collection of backends with weight management."""

    def __init__(self, backends: Optional[List[Backend]] = None):
        # Mutated in place, never replaced: a LoadBalancer binds it for
        # its per-packet membership test.
        self._backends: Dict[str, Backend] = {}
        self._listeners: List[Callable[[], None]] = []
        for backend in backends or []:
            self.add(backend)

    def __len__(self) -> int:
        return len(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def add(self, backend: Backend) -> None:
        """Add a backend; duplicate names are rejected."""
        if backend.name in self._backends:
            raise BalancerError("duplicate backend %r" % backend.name)
        self._backends[backend.name] = backend
        self._notify()

    def add_many(self, backends: List[Backend]) -> None:
        """Add several backends atomically (one listener notification).

        The fleet plane scales out in batches; notifying per backend
        would trigger one Maglev rebuild per addition.
        """
        for backend in backends:
            if backend.name in self._backends:
                raise BalancerError("duplicate backend %r" % backend.name)
        for backend in backends:
            self._backends[backend.name] = backend
        if backends:
            self._notify()

    def remove(self, name: str) -> None:
        """Remove a backend (e.g. churn experiments)."""
        if name not in self._backends:
            raise BalancerError("unknown backend %r" % name)
        del self._backends[name]
        self._notify()

    def remove_many(self, names: List[str]) -> None:
        """Remove several backends atomically (one notification)."""
        for name in names:
            if name not in self._backends:
                raise BalancerError("unknown backend %r" % name)
        for name in names:
            del self._backends[name]
        if names:
            self._notify()

    def get(self, name: str) -> Backend:
        """Look up a backend by name."""
        try:
            return self._backends[name]
        except KeyError:
            raise BalancerError("unknown backend %r" % name) from None

    def names(self) -> List[str]:
        """Backend names in insertion order."""
        return list(self._backends)

    def healthy(self) -> List[Backend]:
        """Healthy backends with positive weight, insertion order."""
        return [
            b for b in self._backends.values() if b.healthy and b.weight > 0
        ]

    def weights(self) -> Dict[str, float]:
        """Snapshot of name → weight."""
        return {name: b.weight for name, b in self._backends.items()}

    def set_weight(self, name: str, weight: float) -> None:
        """Set one backend's weight and notify listeners."""
        if weight < 0:
            raise BalancerError("weight must be >= 0, got %r" % weight)
        self.get(name).weight = weight
        self._notify()

    def set_weights(self, weights: Dict[str, float]) -> None:
        """Set several weights atomically (one listener notification)."""
        for name, weight in weights.items():
            if weight < 0:
                raise BalancerError("weight must be >= 0, got %r" % weight)
            self.get(name).weight = weight
        self._notify()

    def set_healthy(self, name: str, healthy: bool) -> None:
        """Mark a backend up or down."""
        self.get(name).healthy = healthy
        self._notify()

    def on_change(self, listener: Callable[[], None]) -> None:
        """Register a membership/weight change listener."""
        self._listeners.append(listener)

    def _notify(self) -> None:
        for listener in self._listeners:
            listener()
