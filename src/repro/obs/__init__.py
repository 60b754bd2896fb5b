"""repro.obs — the unified observability plane.

Three pillars, all disabled by default and byte-identical when off:

1. **Metrics registry** (:mod:`repro.obs.metrics`) — labeled
   ``Counter`` / ``Gauge`` / ``HistogramMetric`` instruments in a
   per-scenario :class:`Registry`, exportable as JSON and Prometheus
   text exposition format.
2. **Causal trace spans** (:mod:`repro.obs.trace`) — request-scoped
   spans following one request id from client send through the LB's
   routing decision and the server's service to the emitted ``T_LB``
   sample and the shift it contributed to.
3. **Engine profiling** (:mod:`repro.obs.profiler`) — per-site
   wall-time accounting of every simulator callback.

Enable via ``ScenarioConfig.obs``::

    from repro.obs import ObsConfig
    config = ScenarioConfig(obs=ObsConfig(enabled=True))
    result = run_scenario(config)
    print(result.scenario.obs.registry.to_prometheus())
"""

from repro.obs.config import ObsConfig
from repro.obs.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricError,
    Registry,
    parse_prometheus_text,
)
from repro.obs.plane import ObsPlane
from repro.obs.profiler import EngineProfiler, SiteStats, site_name
from repro.obs.trace import (
    CausalTracer,
    ResponseSpan,
    RouteSpan,
    SendSpan,
    render_request_tree,
    render_shift_attribution,
    render_shift_list,
)

__all__ = [
    "CausalTracer",
    "Counter",
    "EngineProfiler",
    "Gauge",
    "HistogramMetric",
    "MetricError",
    "ObsConfig",
    "ObsPlane",
    "Registry",
    "ResponseSpan",
    "RouteSpan",
    "SendSpan",
    "SiteStats",
    "parse_prometheus_text",
    "render_request_tree",
    "render_shift_attribution",
    "render_shift_list",
    "site_name",
]
