"""Causal chains: walk the timeline backwards from a shift or alert.

``repro explain --shift N`` answers *why did the controller move
weight* — not just when.  The chain walks four layers upstream of the
decision:

1. the **triggering sample** — the last ``T_LB`` sample the feedback
   plane folded in for the demoted backend before the shift;
2. the **estimator snapshot** — the recorded frame at or before the
   shift (per-backend estimates, sample counts, signal grades);
3. the **controller inputs** — worst/best estimates and the hysteresis
   verdict straight off the :class:`~repro.core.controller.ShiftEvent`;
4. **fault windows** overlapping the lookback, scored for relevance so
   the report can name a *dominant upstream cause* (or fall back to
   breaker trips, ladder degradation, or organic load imbalance).

``--alert N`` does the same walk from an SLO alert firing.  Everything
reads the already-recorded timeline and scenario telemetry — explain
never re-runs anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.insight.recorder import describe_frame
from repro.insight.timeline import Timeline
from repro.units import MILLISECONDS, to_micros, to_millis

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.harness.runner import ScenarioResult

#: Default causal lookback behind the event being explained (ns).
DEFAULT_LOOKBACK = 250 * MILLISECONDS

#: ``(kind, targets, start, end)`` — the runner's fault_windows shape.
FaultTuple = Tuple[str, Sequence[str], int, Optional[int]]


def _require_timeline(result: "ScenarioResult") -> Timeline:
    insight = result.scenario.insight
    if insight is None:
        raise ValueError(
            "scenario ran without the insight plane; enable "
            "config.insight to record a timeline"
        )
    return insight.timeline


def _describe_window(window: FaultTuple) -> str:
    kind, targets, start, end = window
    end_text = "end" if end is None else "%.3fms" % to_millis(end)
    return "%s fault on %s @%.3fms..%s" % (
        kind,
        ", ".join(targets) or "(all)",
        to_millis(start),
        end_text,
    )


def _score_window(
    window: FaultTuple,
    backend: Optional[str],
    event_time: int,
    lookback_start: int,
) -> int:
    """Relevance of a fault window to an event on ``backend``.

    Targeting the demoted backend (or everything) outranks bystander
    faults; starting inside the lookback outranks long-running ones;
    still being active at the event outranks already-ended ones.
    """
    kind, targets, start, end = window
    score = 0
    if backend is None or backend in targets or not targets:
        score += 2
    if start >= lookback_start:
        score += 1
    if start <= event_time and (end is None or event_time < end):
        score += 1
    return score


def _overlapping_windows(
    windows: Sequence[FaultTuple], start: int, end: int
) -> List[FaultTuple]:
    """Fault windows intersecting ``[start, end]``."""
    hits = []
    for window in windows:
        w_start, w_end = window[2], window[3]
        if w_start <= end and (w_end is None or w_end >= start):
            hits.append(window)
    return hits


def _dominant_cause(
    result: "ScenarioResult",
    timeline: Timeline,
    backend: Optional[str],
    event_time: int,
    lookback: int,
) -> Tuple[str, List[str]]:
    """Pick the dominant upstream cause and the supporting evidence.

    Precedence: best-scoring overlapping fault window, then a breaker
    trip on the backend, then ladder degradation, then organic load
    imbalance (the null explanation).
    """
    lookback_start = max(0, event_time - lookback)
    evidence: List[str] = []
    windows = _overlapping_windows(
        result.fault_windows(), lookback_start, event_time
    )
    if windows:
        scored = sorted(
            windows,
            key=lambda w: (
                _score_window(w, backend, event_time, lookback_start),
                w[2],
            ),
        )
        for window in scored:
            evidence.append(
                "  fault in lookback: %s (relevance %d)"
                % (
                    _describe_window(window),
                    _score_window(window, backend, event_time, lookback_start),
                )
            )
        best = scored[-1]
        if _score_window(best, backend, event_time, lookback_start) > 0:
            return _describe_window(best), evidence
    trips = [
        a
        for a in timeline.annotations_between(
            lookback_start, event_time, kind="breaker"
        )
        if backend is None or a.data.get("backend") == backend
    ]
    if trips:
        return trips[-1].label, evidence
    degradations = timeline.annotations_between(
        lookback_start, event_time, kind="mode"
    )
    if degradations:
        return degradations[-1].label, evidence
    return "organic load imbalance (no fault, breaker, or mode change in lookback)", evidence


def _render_annotations(
    timeline: Timeline, start: int, end: int
) -> List[str]:
    annotations = timeline.annotations_between(start, end)
    if not annotations:
        return []
    lines = ["timeline annotations in lookback:"]
    for annotation in sorted(annotations, key=lambda a: a.time):
        lines.append(
            "  [%.3fms] %s: %s"
            % (to_millis(annotation.time), annotation.kind, annotation.label)
        )
    return lines


def explain_shift(
    result: "ScenarioResult",
    index: int,
    lookback: int = DEFAULT_LOOKBACK,
) -> str:
    """The causal chain behind weight shift ``index`` (0-based)."""
    timeline = _require_timeline(result)
    shifts = result.scenario.feedback.shift_events() if result.scenario.feedback else []
    if not shifts:
        raise IndexError("no weight shifts recorded")
    if not 0 <= index < len(shifts):
        raise IndexError(
            "shift %d out of range (have %d)" % (index, len(shifts))
        )
    shift = shifts[index]
    from_backend = shift.from_backend
    lookback_start = max(0, shift.time - lookback)

    lines = [
        "explain shift #%d at %.3fms" % (index, to_millis(shift.time)),
        "=" * 48,
    ]
    if from_backend is not None:
        lines.append(
            "decision: demote %s toward %s (%s)"
            % (
                from_backend,
                shift.best_backend or "rest of pool",
                shift.reason,
            )
        )
    else:
        lines.append("decision: weight update (controller records no demotee)")

    # 1. Triggering sample: the last T_LB sample on the demoted backend
    #    that the feedback plane saw before deciding.
    feedback = result.scenario.feedback
    trigger = None
    if feedback is not None and from_backend is not None:
        for sample in reversed(feedback.samples):
            if sample.time <= shift.time and sample.backend == from_backend:
                trigger = sample
                break
    if trigger is not None:
        lines.append(
            "triggering sample: T_LB=%.1fus on %s at %.3fms (flow %s)"
            % (
                to_micros(trigger.t_lb),
                trigger.backend,
                to_millis(trigger.time),
                trigger.flow,
            )
        )
    else:
        lines.append("triggering sample: none recorded for the demoted backend")

    # 2. Estimator snapshot from the nearest recorded frame.
    frame = timeline.frame_at_or_before(shift.time)
    if frame is not None:
        lines.append("estimator snapshot (nearest recorded frame):")
        lines.append(describe_frame(frame))
    else:
        lines.append("estimator snapshot: no frame recorded before the shift")

    # 3. Controller inputs straight off the shift event.
    worst = shift.worst_estimate
    best = shift.best_estimate
    if worst is not None and best is not None:
        lines.append(
            "controller inputs: worst=%.1fus best=%.1fus ratio=%.2f (%s)"
            % (
                to_micros(worst),
                to_micros(best),
                (worst / best) if best else float("inf"),
                shift.reason,
            )
        )

    # 4. Lookback window: annotations and fault attribution.
    lines.extend(_render_annotations(timeline, lookback_start, shift.time))
    cause, evidence = _dominant_cause(
        result, timeline, from_backend, shift.time, lookback
    )
    lines.extend(evidence)
    lines.append("dominant upstream cause: %s" % cause)
    return "\n".join(lines)


def explain_alert(
    result: "ScenarioResult",
    index: int,
    lookback: int = DEFAULT_LOOKBACK,
) -> str:
    """The causal chain behind SLO alert ``index`` (0-based)."""
    timeline = _require_timeline(result)
    alerts = timeline.alerts()
    if not alerts:
        raise IndexError("no SLO alerts fired")
    if not 0 <= index < len(alerts):
        raise IndexError(
            "alert %d out of range (have %d)" % (index, len(alerts))
        )
    alert = alerts[index]
    lookback_start = max(0, alert.time - lookback)
    lines = [
        "explain SLO alert #%d at %.3fms" % (index, to_millis(alert.time)),
        "=" * 48,
        alert.label,
    ]
    frame = timeline.frame_at_or_before(alert.time)
    if frame is not None:
        lines.append("state at firing (nearest recorded frame):")
        lines.append(describe_frame(frame))
    lines.extend(_render_annotations(timeline, lookback_start, alert.time))
    cause, evidence = _dominant_cause(
        result, timeline, None, alert.time, lookback
    )
    lines.extend(evidence)
    lines.append("dominant upstream cause: %s" % cause)
    return "\n".join(lines)


def explain_overview(result: "ScenarioResult") -> str:
    """Summary of what the timeline holds: shifts and alerts by index."""
    timeline = _require_timeline(result)
    shifts = result.scenario.feedback.shift_events() if result.scenario.feedback else []
    lines = [
        "timeline: %d frames, %d annotations, %d dropped"
        % (len(timeline), len(timeline.annotations), timeline.dropped)
    ]
    if shifts:
        lines.append("shifts (use --shift N):")
        for i, shift in enumerate(shifts):
            lines.append(
                "  #%d at %.3fms%s"
                % (
                    i,
                    to_millis(shift.time),
                    ""
                    if shift.from_backend is None
                    else " (demotes %s)" % shift.from_backend,
                )
            )
    else:
        lines.append("shifts: none recorded")
    alerts = timeline.alerts()
    if alerts:
        lines.append("SLO alerts (use --alert N):")
        for i, annotation in enumerate(alerts):
            lines.append("  #%d %s" % (i, annotation.label))
    else:
        lines.append("SLO alerts: none fired")
    return "\n".join(lines)
