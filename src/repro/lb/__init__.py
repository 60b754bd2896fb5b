"""Load-balancer dataplane substrate.

Reproduces the dataplane the paper built on: a Maglev-hashing L4 load
balancer with connection tracking and Direct Server Return.  The
dataplane sees **only client→server packets**; responses take the
server→client pipes and never traverse it.  Measurement and control
(``repro.core``) attach via packet taps.

* :mod:`~repro.lb.maglev` — Maglev lookup table (NSDI '16), including
  the weighted variant the feedback controller drives.
* :mod:`~repro.lb.backend` — backend descriptors and the pool.
* :mod:`~repro.lb.conntrack` — flow→backend affinity with idle expiry.
* :mod:`~repro.lb.policies` — baseline routing policies (round-robin,
  random, weighted-random, least-connections, power-of-two-choices).
* :mod:`~repro.lb.dataplane` — the VIP packet processor.
"""

from repro._exports import lazy_exports

__all__ = [
    "Backend",
    "BackendPool",
    "ConnTrack",
    "HealthChecker",
    "HealthCheckConfig",
    "LoadBalancer",
    "MaglevTable",
    "next_prime",
    "RoutingPolicy",
    "MaglevPolicy",
    "RoundRobin",
    "RandomPolicy",
    "WeightedRandom",
    "LeastConnections",
    "PowerOfTwoChoices",
]

# repro.lb.oracle is not re-exported: it depends on repro.core,
# a layer above this package; import it as
# `from repro.lb.oracle import OracleFeedback`.
_EXPORTS = {
    "Backend": ".backend",
    "BackendPool": ".backend",
    "ConnTrack": ".conntrack",
    "LoadBalancer": ".dataplane",
    "HealthCheckConfig": ".health",
    "HealthChecker": ".health",
    "MaglevTable": ".maglev",
    "next_prime": ".maglev",
    "LeastConnections": ".policies",
    "MaglevPolicy": ".policies",
    "PowerOfTwoChoices": ".policies",
    "RandomPolicy": ".policies",
    "RoundRobin": ".policies",
    "RoutingPolicy": ".policies",
    "WeightedRandom": ".policies",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
