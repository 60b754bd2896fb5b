"""Insight-plane assembly: wire the flight recorder onto a scenario.

Mirrors ``repro.obs.plane``: :meth:`InsightPlane.install` is called once
by ``build_scenario`` when ``config.insight.enabled``, after the obs
plane, so the recorder's LB tap observes post-update dataplane state.
Components stay unaware of the plane and carry no hook for it: the
recorder reads them through the pure accessors and append-only logs
the obs plane reads (the feedback loop's ``epochs`` log among them);
its only seam is the LB packet tap that paces frames.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.insight.config import InsightConfig
from repro.insight.recorder import FlightRecorder
from repro.insight.slo import SLOMonitor
from repro.insight.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.harness.scenario import Scenario


class InsightPlane:
    """The assembled flight-recorder plane for one scenario."""

    def __init__(
        self,
        config: InsightConfig,
        timeline: Timeline,
        slo: SLOMonitor,
        recorder: FlightRecorder,
    ):
        self.config = config
        self.timeline = timeline
        self.slo = slo
        self.recorder = recorder

    @classmethod
    def install(cls, scenario: "Scenario") -> "InsightPlane":
        """Build the plane and hook it onto an already-built scenario."""
        config = scenario.config.insight
        timeline = Timeline(max_frames=config.max_frames)
        timeline.meta = {
            "policy": scenario.config.policy.value,
            "strategy": scenario.config.feedback.strategy,
            "seed": scenario.config.seed,
            "duration": scenario.config.duration,
            "frame_interval": config.frame_interval,
        }
        slo = SLOMonitor(config.slo)
        recorder = FlightRecorder(scenario, timeline, slo, config)
        # Added after the obs plane's taps, so frames see post-update
        # state for the packet that paced them.
        scenario.lb.add_tap(recorder.on_packet_tap)
        return cls(config, timeline, slo, recorder)

    def finalize(self, now: int) -> None:
        """Capture the closing frame once the run is over."""
        self.recorder.finalize(now)

    # ------------------------------------------------------------------
    # Artifact access
    # ------------------------------------------------------------------

    def dumps(self, meta: Optional[Dict[str, Any]] = None) -> str:
        """The timeline artifact as a JSONL string."""
        return self.timeline.dumps(meta)

    def export(self, path: str, meta: Optional[Dict[str, Any]] = None) -> str:
        """Write the timeline artifact to ``path``; returns the path."""
        return self.timeline.export_jsonl(path, meta)

    def summary(self) -> str:
        """One-paragraph report section (frames, alerts, SLO verdict)."""
        timeline = self.timeline
        lines = [
            "insight: %d frames recorded (%d dropped), %d annotations"
            % (len(timeline), timeline.dropped, len(timeline.annotations))
        ]
        alerts = timeline.alerts()
        if alerts:
            lines.append("insight: %d SLO alert(s) fired" % len(alerts))
            for annotation in alerts:
                lines.append("  " + annotation.label)
        elif self.slo.observed:
            lines.append(
                "insight: SLO healthy (%d of %d requests over target)"
                % (self.slo.bad_observed, self.slo.observed)
            )
        return "\n".join(lines)
