"""Discrete-event simulation substrate.

The engine (:class:`~repro.sim.engine.Simulator`) maintains an integer
nanosecond clock and a priority queue of callbacks.  All other packages
(network, transport, applications, the load balancer) schedule their work
through it, which makes every experiment fully deterministic given a seed.
"""

from repro.sim.engine import Simulator, Timer
from repro.sim.random import RandomStreams

__all__ = ["Simulator", "Timer", "RandomStreams"]
