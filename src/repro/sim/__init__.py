"""Discrete-event simulation substrate.

The engine (:class:`~repro.sim.engine.Simulator`) maintains an integer
nanosecond clock and a priority queue of callbacks.  All other packages
(network, transport, applications, the load balancer) schedule their work
through it, which makes every experiment fully deterministic given a seed.
"""

from repro._exports import lazy_exports

__all__ = ["Simulator", "Timer", "RandomStreams"]

_EXPORTS = {
    "Simulator": ".engine",
    "Timer": ".engine",
    "RandomStreams": ".random",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
