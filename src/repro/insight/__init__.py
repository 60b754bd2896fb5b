"""repro.insight — flight recorder, SLO burn-rate monitor, causal explain.

The insight plane records an epoch-paced timeline of controller state
(weights, estimates, grades, modes, breakers, lifecycle, flows, fault
windows) through the same passive ``attach_*`` seams the obs plane
uses, evaluates a declarative latency SLO with multi-window burn-rate
alerting over it, and answers *why* questions after the fact:
``repro explain`` walks the timeline backwards from a shift or alert
into a causal chain, and ``repro diff`` aligns two recorded runs and
reports divergence points.  Off by default; byte-identical on/off.
"""

from repro._exports import lazy_exports

__all__ = [
    "Annotation",
    "DEFAULT_LOOKBACK",
    "Divergence",
    "FlightRecorder",
    "InsightConfig",
    "InsightPlane",
    "SLOAlert",
    "SLOConfig",
    "SLOMonitor",
    "Timeline",
    "TimelineFrame",
    "describe_frame",
    "diff_timelines",
    "explain_alert",
    "explain_overview",
    "explain_shift",
    "load_timeline",
    "loads",
    "render_diff",
]

_EXPORTS = {
    "InsightConfig": ".config",
    "SLOConfig": ".config",
    "Divergence": ".diff",
    "diff_timelines": ".diff",
    "render_diff": ".diff",
    "DEFAULT_LOOKBACK": ".explain",
    "explain_alert": ".explain",
    "explain_overview": ".explain",
    "explain_shift": ".explain",
    "InsightPlane": ".plane",
    "FlightRecorder": ".recorder",
    "describe_frame": ".recorder",
    "SLOAlert": ".slo",
    "SLOMonitor": ".slo",
    "Annotation": ".timeline",
    "Timeline": ".timeline",
    "TimelineFrame": ".timeline",
    "load_timeline": ".timeline",
    "loads": ".timeline",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
