"""The flight recorder: epoch-paced, pull-only state capture.

:class:`FlightRecorder` is the insight plane's only moving part.  It is
driven from exactly one seam: the LB's packet tap paces frame capture
(``on_packet_tap``) — at most one frame per ``frame_interval`` of
simulated time, taken while handling a packet the dataplane was
forwarding anyway.

Everything else is a *pull*: at capture time the recorder reads pool
weights, the feedback loop's epoch log (epoch rolls and the latest
cliff pick), estimator state, signal grades, breaker/lifecycle/conntrack
state, the ladder mode, and active fault windows through their pure
accessors, and diff-scans the append-only event lists (shifts, mode
transitions, breaker transitions, fleet decisions) for annotations.
It never schedules simulator events and never draws randomness, so a
recorded run is byte-identical to an unrecorded one — the same
guarantee the obs plane makes, proven by the same kind of test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.insight.config import InsightConfig
from repro.insight.slo import SLOMonitor
from repro.insight.timeline import Annotation, Timeline, TimelineFrame
from repro.units import to_micros, to_millis

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.harness.scenario import Scenario


class FlightRecorder:
    """Samples a built scenario into a :class:`Timeline`."""

    def __init__(
        self,
        scenario: "Scenario",
        timeline: Timeline,
        slo: SLOMonitor,
        config: Optional[InsightConfig] = None,
    ):
        self.config = config or InsightConfig()
        self.timeline = timeline
        self.slo = slo
        self._pool = scenario.pool
        self._feedback = scenario.feedback
        self._breakers = scenario.breakers
        self._fleet = scenario.fleet
        self._injector = scenario.injector
        self._conntrack = scenario.lb.conntrack
        self._clients = list(scenario.clients)
        #: Per-client count of records already folded into the SLO.
        self._consumed: List[int] = [0] * len(self._clients)
        self._next_frame = 0
        #: High-water marks for the event lists we diff-scan.
        self._seen_shifts = 0
        self._seen_modes = 0
        self._seen_breaks = 0
        self._seen_scales = 0

    # ------------------------------------------------------------------
    # Seams (wired by InsightPlane.install)
    # ------------------------------------------------------------------

    def on_packet_tap(self, now: int, flow, backend: str, packet) -> None:
        """LB tap: capture a frame when the pacing interval elapsed."""
        if now >= self._next_frame:
            self.capture(now)
            self._next_frame = now + self.config.frame_interval

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def capture(self, now: int) -> TimelineFrame:
        """Pull-read every plane into one frame; annotate new events."""
        self._consume_records()
        alert = self.slo.evaluate(now)
        if alert is not None:
            self.timeline.annotate(
                Annotation(
                    time=alert.time,
                    kind="slo_alert",
                    label=alert.describe(),
                    data={
                        "burn_short": alert.burn_short,
                        "burn_long": alert.burn_long,
                        "bad": alert.bad,
                        "total": alert.total,
                    },
                )
            )
        self._annotate_new_events()

        frame = TimelineFrame(
            time=now,
            weights=dict(self._pool.weights()),
            flows=self._conntrack.counted(),
            slo=self.slo.snapshot(now),
        )
        feedback = self._feedback
        if feedback is not None:
            epochs = feedback.epochs
            if epochs:
                _time, index = epochs[-1]
                frame.epoch_rolls = len(epochs)
                frame.cliff_pick = feedback.config.ensemble.timeouts[index]
            estimator = feedback.estimator
            frame.sample_total = estimator.total_samples
            frame.samples = estimator.sample_counts()
            for name in self._pool.names():
                estimate = estimator.estimate(name)
                if estimate is not None:
                    frame.estimates[name] = round(estimate, 3)
            if feedback.quality is not None:
                frame.grades = {
                    name: feedback.quality.grade(name, now).value
                    for name in self._pool.names()
                }
            if feedback.ladder is not None:
                frame.ladder_mode = feedback.ladder.mode.name
        if self._breakers is not None:
            frame.breakers = {
                name: state.value
                for name, state in self._breakers.states().items()
            }
        if self._fleet is not None:
            frame.lifecycle = {
                name: state.value
                for name, state in sorted(self._fleet.lifecycle.states.items())
            }
        if self._injector is not None:
            frame.faults = [
                [
                    armed.window.fault.kind,
                    list(armed.targets),
                    armed.window.start,
                    armed.window.end,
                ]
                for armed in self._injector.active_at(now)
            ]
        self.timeline.append(frame)
        return frame

    def finalize(self, now: int) -> None:
        """One last capture after the run (the tail the tap never saw)."""
        self.capture(now)

    # ------------------------------------------------------------------

    def _consume_records(self) -> None:
        """Fold newly completed requests into the SLO monitor."""
        for index, client in enumerate(self._clients):
            records = client.records
            start = self._consumed[index]
            if start == len(records):
                continue
            for record in records[start:]:
                self.slo.observe(record.completed_at, record.latency)
            self._consumed[index] = len(records)

    def _annotate_new_events(self) -> None:
        """Diff-scan append-only event lists into annotations."""
        feedback = self._feedback
        if feedback is not None:
            shifts = feedback.shift_events()
            for shift in shifts[self._seen_shifts:]:
                if shift.from_backend is not None:
                    label = "weight shift %s -> %s (%s)" % (
                        shift.from_backend,
                        shift.best_backend or "pool",
                        shift.reason,
                    )
                else:
                    label = "weight update"
                self.timeline.annotate(
                    Annotation(
                        time=shift.time,
                        kind="shift",
                        label=label,
                        data={
                            "from": shift.from_backend,
                            "to": shift.best_backend,
                            "reason": shift.reason,
                        },
                    )
                )
            self._seen_shifts = len(shifts)
            transitions = feedback.mode_transitions()
            for transition in transitions[self._seen_modes:]:
                self.timeline.annotate(
                    Annotation(
                        time=transition.time,
                        kind="mode",
                        label="ladder %s -> %s (%s)"
                        % (
                            transition.from_mode.name,
                            transition.to_mode.name,
                            transition.reason,
                        ),
                        data={
                            "from": transition.from_mode.name,
                            "to": transition.to_mode.name,
                            "reason": transition.reason,
                        },
                    )
                )
            self._seen_modes = len(transitions)
        if self._breakers is not None:
            transitions = self._breakers.transitions
            for transition in transitions[self._seen_breaks:]:
                self.timeline.annotate(
                    Annotation(
                        time=transition.time,
                        kind="breaker",
                        label="breaker %s: %s -> %s (%s)"
                        % (
                            transition.backend,
                            transition.from_state.name,
                            transition.to_state.name,
                            transition.reason,
                        ),
                        data={
                            "backend": transition.backend,
                            "from": transition.from_state.name,
                            "to": transition.to_state.name,
                            "reason": transition.reason,
                        },
                    )
                )
            self._seen_breaks = len(transitions)
        if self._fleet is not None:
            decisions = self._fleet.decisions
            for decision in decisions[self._seen_scales:]:
                self.timeline.annotate(
                    Annotation(
                        time=decision.time,
                        kind="scale",
                        label="fleet %s %s: %d -> %d"
                        % (
                            decision.policy,
                            decision.direction,
                            decision.before,
                            decision.after,
                        ),
                        data={
                            "policy": decision.policy,
                            "direction": decision.direction,
                            "before": decision.before,
                            "after": decision.after,
                        },
                    )
                )
            self._seen_scales = len(decisions)


def describe_frame(frame: TimelineFrame) -> str:
    """One-paragraph rendering of a frame (the explain verb's unit)."""
    lines = [
        "frame at %.3fms: weights %s"
        % (
            to_millis(frame.time),
            " ".join(
                "%s=%.3f" % (name, value)
                for name, value in sorted(frame.weights.items())
            )
            or "(empty pool)",
        )
    ]
    if frame.estimates:
        lines.append(
            "  estimates: "
            + " ".join(
                "%s=%.1fus" % (name, to_micros(value))
                for name, value in sorted(frame.estimates.items())
            )
        )
    if frame.samples:
        lines.append(
            "  samples: "
            + " ".join(
                "%s=%d" % (name, count)
                for name, count in sorted(frame.samples.items())
            )
            + " (total %d, epochs %d%s)"
            % (
                frame.sample_total,
                frame.epoch_rolls,
                ""
                if frame.cliff_pick is None
                else ", cliff pick %dus" % (frame.cliff_pick // 1000),
            )
        )
    if frame.grades:
        lines.append(
            "  signal: "
            + " ".join(
                "%s=%s" % (name, grade)
                for name, grade in sorted(frame.grades.items())
            )
            + ("" if frame.ladder_mode is None else "  mode=%s" % frame.ladder_mode)
        )
    open_breakers = {
        name: state
        for name, state in frame.breakers.items()
        if state != "closed"
    }
    if open_breakers:
        lines.append(
            "  breakers: "
            + " ".join(
                "%s=%s" % (name, state)
                for name, state in sorted(open_breakers.items())
            )
        )
    if frame.faults:
        lines.append(
            "  active faults: "
            + "; ".join(
                "%s on %s" % (kind, ", ".join(targets))
                for kind, targets, _start, _end in frame.faults
            )
        )
    if frame.slo is not None:
        lines.append(
            "  slo: %s (burn short=%.2fx long=%.2fx, %d/%d bad in window)"
            % (
                frame.slo["state"],
                frame.slo["burn_short"],
                frame.slo["burn_long"],
                frame.slo["window_bad"],
                frame.slo["window_total"],
            )
        )
    return "\n".join(lines)
