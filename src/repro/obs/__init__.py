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

from repro._exports import lazy_exports

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

_EXPORTS = {
    "ObsConfig": ".config",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "HistogramMetric": ".metrics",
    "MetricError": ".metrics",
    "Registry": ".metrics",
    "parse_prometheus_text": ".metrics",
    "ObsPlane": ".plane",
    "EngineProfiler": ".profiler",
    "SiteStats": ".profiler",
    "site_name": ".profiler",
    "CausalTracer": ".trace",
    "ResponseSpan": ".trace",
    "RouteSpan": ".trace",
    "SendSpan": ".trace",
    "render_request_tree": ".trace",
    "render_shift_attribution": ".trace",
    "render_shift_list": ".trace",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
