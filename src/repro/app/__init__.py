"""Application layer: a memcached-like service and a memtier-like client.

The paper's evaluation drives a two-pod memcached cluster with
memtier_benchmark (50-50 GET/SET, pipelined connections that close and
reopen periodically).  This package reproduces that workload:

* :mod:`~repro.app.protocol` — GET/SET request/response messages and
  their wire sizes.
* :mod:`~repro.app.kvstore` — the in-memory store (with LRU eviction).
* :mod:`~repro.app.servicetime` — service-time distributions.
* :mod:`~repro.app.variability` — the §2.2 latency-variability injectors
  (step inflation, GC pauses, preemption bursts).
* :mod:`~repro.app.server` — the server application (request queue,
  limited worker concurrency, response sizing).
* :mod:`~repro.app.client` — closed-loop clients: the memtier-like
  request generator and a backlogged bulk sender for Fig 2.
* :mod:`~repro.app.workload` — key popularity, op mix, value sizes.
"""

from repro._exports import lazy_exports

__all__ = [
    "Op",
    "Request",
    "Response",
    "KeyValueStore",
    "ServiceTimeModel",
    "Deterministic",
    "Exponential",
    "LogNormal",
    "Bimodal",
    "PerOp",
    "LatencyInjector",
    "NullInjector",
    "StepInjector",
    "GcPauseInjector",
    "PreemptionInjector",
    "CompositeInjector",
    "ServerApp",
    "ServerConfig",
    "SinkApp",
    "MemtierClient",
    "MemtierConfig",
    "BacklogClient",
    "RequestRecord",
    "KeyGenerator",
    "OpMixer",
    "ValueSizer",
    "WorkloadModel",
]

_EXPORTS = {
    "Op": ".protocol",
    "Request": ".protocol",
    "Response": ".protocol",
    "KeyValueStore": ".kvstore",
    "Bimodal": ".servicetime",
    "Deterministic": ".servicetime",
    "Exponential": ".servicetime",
    "LogNormal": ".servicetime",
    "PerOp": ".servicetime",
    "ServiceTimeModel": ".servicetime",
    "CompositeInjector": ".variability",
    "GcPauseInjector": ".variability",
    "LatencyInjector": ".variability",
    "NullInjector": ".variability",
    "PreemptionInjector": ".variability",
    "StepInjector": ".variability",
    "ServerApp": ".server",
    "ServerConfig": ".server",
    "SinkApp": ".server",
    "BacklogClient": ".client",
    "MemtierClient": ".client",
    "MemtierConfig": ".client",
    "RequestRecord": ".client",
    "KeyGenerator": ".workload",
    "OpMixer": ".workload",
    "ValueSizer": ".workload",
    "WorkloadModel": ".workload",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
