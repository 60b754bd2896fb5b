"""Causal trace spans: from a client send to the shift it caused.

The paper's core claim is causal — a response *triggers* the client's
next packet, whose arrival gap at the LB becomes a ``T_LB`` sample,
which moves weights.  :class:`CausalTracer` records each link of that
chain as a span:

* :class:`SendSpan` — a client handed a request to its connection;
* :class:`RouteSpan` — the LB's routing decision for the flow's first
  packet (later packets follow conntrack affinity);
* :class:`ResponseSpan` — the server's reply arrived back at the
  client, with the server-side queue/service split.

The emitted ``T_LB`` samples it reads in place from the feedback loop's
sample log (:class:`~repro.core.feedback.SampleRecord`, whose batch
boundary is ``time - t_lb``), and the shifts from the controller's
``shifts`` list.  Attribution is computed on demand:
:meth:`CausalTracer.contributing_samples` answers "which samples could
the estimator have been looking at when this shift fired" (the last
``window`` samples per involved backend, the estimator's own memory).

Everything here is passive: the tracer only appends to lists, so a
traced run's simulation results are identical to an untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.addr import FlowKey
from repro.units import to_micros, to_millis

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.feedback import SampleRecord


@dataclass
class SendSpan:
    """A client handed one request (or a retry of it) to the wire."""

    __slots__ = ("time", "request_id", "client", "port", "retry")

    time: int
    request_id: int
    client: str
    port: int
    retry: bool


@dataclass
class RouteSpan:
    """The LB's routing decision for a flow's first observed packet."""

    __slots__ = ("time", "flow", "backend")

    time: int
    flow: FlowKey
    backend: str


@dataclass
class ResponseSpan:
    """A response completed at the client (DSR: it bypassed the LB)."""

    __slots__ = (
        "time",
        "request_id",
        "server",
        "queue_delay",
        "service_time",
        "latency",
    )

    time: int
    request_id: int
    server: Optional[str]
    queue_delay: int
    service_time: int
    latency: int


#: A fault window as the runner reports it: (kind, targets, start, end).
FaultWindow = Tuple[str, Tuple[str, ...], int, Optional[int]]


class CausalTracer:
    """Request-scoped span recorder for the measurement-attribution chain.

    ``samples`` is the time-ordered ``T_LB`` sample log the attribution
    queries read: the feedback loop's ``samples`` list, in place.
    ``max_events`` bounds the memory of the spans the tracer stores
    itself — sends, routes and responses: past it, new spans are
    counted in ``dropped`` rather than stored (never silently lost).
    """

    def __init__(
        self, max_events: int = 200_000, samples: Sequence[SampleRecord] = ()
    ):
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.samples = samples
        self.sends: List[SendSpan] = []
        self.responses: Dict[int, ResponseSpan] = {}
        self.routes: Dict[FlowKey, RouteSpan] = {}
        self.dropped = 0
        self._events = 0
        self._sends_by_id: Dict[int, List[SendSpan]] = {}

    def __len__(self) -> int:
        return self._events

    def _admit(self) -> bool:
        if self._events >= self.max_events:
            self.dropped += 1
            return False
        self._events += 1
        return True

    # ------------------------------------------------------------------
    # Recording hooks (wired by the obs plane)
    # ------------------------------------------------------------------

    def on_send(
        self, now: int, request_id: int, client: str, port: int, retry: bool
    ) -> None:
        """A client issued a request on connection-local ``port``."""
        if not self._admit():
            return
        span = SendSpan(now, request_id, client, port, retry)
        self.sends.append(span)
        self._sends_by_id.setdefault(request_id, []).append(span)

    def on_route(self, now: int, flow: FlowKey, backend: str) -> None:
        """The LB forwarded a packet of ``flow`` (first packet kept)."""
        if flow in self.routes:
            return
        if not self._admit():
            return
        self.routes[flow] = RouteSpan(now, flow, backend)

    def on_response(
        self,
        now: int,
        request_id: int,
        server: Optional[str],
        queue_delay: int,
        service_time: int,
        latency: int,
    ) -> None:
        """A request completed at its client."""
        if not self._admit():
            return
        self.responses[request_id] = ResponseSpan(
            now, request_id, server, queue_delay, service_time, latency
        )

    # ------------------------------------------------------------------
    # Attribution queries
    # ------------------------------------------------------------------

    def sends_for(self, request_id: int) -> List[SendSpan]:
        """Every send attempt of one request (retries included)."""
        return list(self._sends_by_id.get(request_id, []))

    def samples_for_flow(self, flow: FlowKey) -> List[SampleRecord]:
        """All samples emitted on one flow, in time order."""
        return [s for s in self.samples if s.flow == flow]

    def contributing_samples(self, shift, window: int) -> List[SampleRecord]:
        """Samples the estimator could have weighed when ``shift`` fired.

        The estimator keeps a sliding window of ``window`` samples per
        backend, so the causal set is the last ``window`` samples at or
        before the shift for each backend the decision compared — the
        shifted-from (worst) backend and, when recorded, the best one.
        A ``from_backend`` of ``"*"`` (the resilience ladder's uniform
        relax) or None (a zoo law's recompute) involves the whole pool.
        """
        backends: Optional[Set[str]] = None
        if shift.from_backend not in (None, "*"):
            backends = {shift.from_backend}
            if shift.best_backend:
                backends.add(shift.best_backend)
        per_backend: Dict[str, List[SampleRecord]] = {}
        for sample in self.samples:
            if sample.time > shift.time:
                break  # samples arrive in time order
            if backends is not None and sample.backend not in backends:
                continue
            per_backend.setdefault(sample.backend, []).append(sample)
        chosen: List[SampleRecord] = []
        for name in sorted(per_backend):
            chosen.extend(per_backend[name][-window:])
        chosen.sort(key=lambda s: (s.time, s.backend))
        return chosen

    def first_shift_containing(
        self, sample: SampleRecord, shifts: Sequence, window: int
    ) -> Optional[int]:
        """Index of the first shift whose causal set includes ``sample``."""
        for index, shift in enumerate(shifts):
            if shift.time < sample.time:
                continue
            if sample in self.contributing_samples(shift, window):
                return index
        return None


# ======================================================================
# Rendering (the `repro trace` CLI verb)
# ======================================================================


def _describe_shift(index: int, shift) -> str:
    head = "shift #%d at %.3fms: %s -> %s" % (
        index,
        to_millis(shift.time),
        shift.from_backend or "*",
        shift.best_backend or "pool",
    )
    if shift.worst_estimate is None:
        return "%s  (%s)" % (head, shift.reason)
    return "%s  (worst=%.1fus best=%.1fus, %s)" % (
        head,
        to_micros(shift.worst_estimate),
        to_micros(shift.best_estimate),
        shift.reason,
    )


def render_shift_list(tracer: CausalTracer, shifts: Sequence, window: int) -> str:
    """One line per shift with its contributing-sample count."""
    lines = []
    for index, shift in enumerate(shifts):
        count = len(tracer.contributing_samples(shift, window))
        lines.append(
            "%s  [%d contributing samples]" % (_describe_shift(index, shift), count)
        )
    lines.append(
        "run `repro trace --shift N` to list a shift's contributing "
        "T_LB samples with their batch boundaries"
    )
    return "\n".join(lines)


def render_shift_attribution(
    tracer: CausalTracer,
    shifts: Sequence,
    index: int,
    window: int,
    scales: Sequence = (),
    events: Sequence = (),
) -> str:
    """Which ``T_LB`` samples caused shift ``index``, with batch bounds.

    ``scales`` (the fleet's ``ScalingDecision`` log) and ``events``
    (campaign violation events) that fall inside the attribution window
    — from the earliest contributing sample's batch start to the shift —
    are rendered as extra cross-plane sections, so a shift provoked by a
    scale-in or coincident with a dark-routing violation says so.
    """
    shift = shifts[index]
    samples = tracer.contributing_samples(shift, window)
    lines = [
        _describe_shift(index, shift),
        "contributing T_LB samples (estimator window: last %d per backend):"
        % window,
        "  %11s  %-10s %10s %9s  %-23s %s"
        % ("t(ms)", "backend", "T_LB(us)", "delta(us)", "batch window (ms)", "flow"),
    ]
    for sample in samples:
        lines.append(
            "  %11.3f  %-10s %10.1f %9d  %11.3f -> %8.3f  %s"
            % (
                to_millis(sample.time),
                sample.backend,
                to_micros(sample.t_lb),
                sample.delta // 1000,
                to_millis(sample.batch_start),
                to_millis(sample.time),
                sample.flow,
            )
        )
    if not samples:
        lines.append("  (none recorded before this shift)")
    window_start = (
        min(s.batch_start for s in samples) if samples else shift.time
    )
    in_window_scales = [
        s for s in scales if window_start <= s.time <= shift.time
    ]
    if in_window_scales:
        lines.append("fleet scaling decisions in attribution window:")
        for span in in_window_scales:
            lines.append(
                "  %11.3f  %s %s: %d -> %d  (%s)"
                % (
                    to_millis(span.time),
                    span.policy,
                    span.direction,
                    span.before,
                    span.after,
                    span.reason,
                )
            )
    in_window_events = [
        e for e in events if window_start <= e.time <= shift.time
    ]
    if in_window_events:
        lines.append("invariant violations in attribution window:")
        for event in in_window_events:
            lines.append("  %11.3f  [%s] %s" % (
                to_millis(event.time), event.invariant, event.message,
            ))
    return "\n".join(lines)


def render_request_tree(
    tracer: CausalTracer,
    request_id: int,
    shifts: Sequence,
    window: int,
    fault_windows: Sequence[FaultWindow] = (),
    vip: Optional[object] = None,
) -> str:
    """The span tree for one request id, client send → shift."""
    sends = tracer.sends_for(request_id)
    if not sends:
        return "request %d: no trace spans recorded" % request_id
    response = tracer.responses.get(request_id)
    lines = ["request %d" % request_id]

    flow: Optional[FlowKey] = None
    for send in sends:
        attempt = "retry" if send.retry else "first attempt"
        lines.append(
            "|- sent at %.3fms from %s:%d (%s)"
            % (to_millis(send.time), send.client, send.port, attempt)
        )
        if vip is not None:
            flow = FlowKey(send.client, send.port, vip.host, vip.port)
            route = tracer.routes.get(flow)
            if route is not None:
                lines.append(
                    "|  |- LB routed flow %s -> %s at %.3fms"
                    % (route.flow, route.backend, to_millis(route.time))
                )

    backend = response.server if response is not None else None
    start = sends[0].time
    end = response.time if response is not None else None
    crossed = [
        (kind, targets, w_start, w_end)
        for kind, targets, w_start, w_end in fault_windows
        if (end is None or w_start <= end)
        and (w_end is None or w_end >= start)
        and (backend is None or backend in targets or not targets)
    ]
    for kind, targets, w_start, w_end in crossed:
        span = (
            "%.3fms -> end of run" % to_millis(w_start)
            if w_end is None
            else "%.3fms -> %.3fms" % (to_millis(w_start), to_millis(w_end))
        )
        lines.append(
            "|- fault window crossed: %s on %s [%s]"
            % (kind, ", ".join(targets), span)
        )

    if response is not None:
        if response.server is not None:
            lines.append(
                "|- %s served: queue %.1fus + service %.1fus"
                % (
                    response.server,
                    to_micros(response.queue_delay),
                    to_micros(response.service_time),
                )
            )
        lines.append(
            "|- response completed at %.3fms (latency %.3fms, DSR: "
            "bypassed the LB)"
            % (to_millis(response.time), to_millis(response.latency))
        )
    else:
        lines.append("|- no response recorded (in flight or lost)")

    flow_samples = tracer.samples_for_flow(flow) if flow is not None else []
    if flow_samples:
        lines.append("`- T_LB samples on this flow:")
        for sample in flow_samples:
            lines.append(
                "   |- t=%.3fms T_LB=%.1fus delta=%dus batch %.3f -> %.3fms"
                % (
                    to_millis(sample.time),
                    to_micros(sample.t_lb),
                    sample.delta // 1000,
                    to_millis(sample.batch_start),
                    to_millis(sample.time),
                )
            )
            shift_index = tracer.first_shift_containing(sample, shifts, window)
            if shift_index is not None:
                lines.append(
                    "   |  `- contributed to %s"
                    % _describe_shift(shift_index, shifts[shift_index])
                )
    else:
        lines.append("`- no T_LB samples emitted on this flow")
    return "\n".join(lines)
