"""Scenario execution and result collection."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.app.client import MemtierClient, RequestRecord
from repro.app.protocol import Op
from repro.harness.config import ScenarioConfig
from repro.harness.report import format_series
from repro.harness.scenario import Scenario, build_scenario
from repro.sim.engine import Simulator
from repro.telemetry.columns import merge_logs
from repro.telemetry.summary import DistributionSummary, summarize
from repro.telemetry.timeseries import BucketedSeries
from repro.units import MILLISECONDS, to_millis

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.insight.plane import InsightPlane


@dataclass
class ScenarioResult:
    """Everything measured during one scenario run."""

    config: ScenarioConfig
    scenario: Scenario
    #: Every client's completed requests, by completion time (equal
    #: times in client order); a column log of :class:`RequestRecord` rows.
    records: Sequence[RequestRecord]
    wall_events: int
    #: Wall-clock seconds the run took (drives the events/sec footer).
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Request-latency views
    # ------------------------------------------------------------------

    def latencies(
        self,
        op: Optional[Op] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[int]:
        """Latencies (ns) filtered by op and completion-time window."""
        if op is None and start is None and end is None:
            return [r.latency for r in self.records]
        lo = start if start is not None else 0
        if end is None:
            # No upper bound: skip the per-record float("inf") compare.
            return [
                r.latency
                for r in self.records
                if (op is None or r.op is op) and lo <= r.completed_at
            ]
        return [
            r.latency
            for r in self.records
            if (op is None or r.op is op) and lo <= r.completed_at < end
        ]

    def summary(
        self,
        op: Optional[Op] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> Optional[DistributionSummary]:
        """Distribution summary over a window; None if empty."""
        values = self.latencies(op, start, end)
        if not values:
            return None
        return summarize(values)

    def latency_series(
        self, bucket: int = 250 * MILLISECONDS, op: Optional[Op] = Op.GET, q: float = 0.95
    ) -> List[Tuple[int, float]]:
        """Per-bucket ``q``-quantile latency over time (the Fig 3 line)."""
        series = BucketedSeries(bucket)
        for record in self.records:
            if op is None or record.op is op:
                series.append(record.completed_at, record.latency)
        return series.quantile_series(q)

    def per_server_counts(self) -> Dict[str, int]:
        """Completed requests per responding server."""
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.server is not None:
                counts[record.server] = counts.get(record.server, 0) + 1
        return counts

    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        duration_s = self.config.duration / 1e9
        return len(self.records) / duration_s if duration_s > 0 else 0.0

    # ------------------------------------------------------------------
    # Control-plane views
    # ------------------------------------------------------------------

    def shift_times(self) -> List[int]:
        """Times of executed weight shifts (in-band or oracle)."""
        if self.scenario.feedback is not None:
            return [e.time for e in self.scenario.feedback.shift_events()]
        if self.scenario.oracle is not None and self.scenario.oracle.controller:
            return [e.time for e in self.scenario.oracle.controller.updates]
        return []

    def first_shift_after(self, time: int) -> Optional[int]:
        """First weight shift at or after ``time`` (reaction latency)."""
        for t in self.shift_times():
            if t >= time:
                return t
        return None

    # ------------------------------------------------------------------
    # Resilience-plane views
    # ------------------------------------------------------------------

    def mode_transitions(self) -> List:
        """The degradation ladder's telemetry (empty without resilience)."""
        if self.scenario.feedback is None:
            return []
        return self.scenario.feedback.mode_transitions()

    def first_mode_entry(self, mode_name: str, after: int = 0) -> Optional[int]:
        """Time the ladder first entered ``mode_name`` at/after ``after``."""
        for transition in self.mode_transitions():
            if transition.to_mode.name == mode_name and transition.time >= after:
                return transition.time
        return None

    def breaker_transitions(self) -> List:
        """Circuit-breaker state changes (empty without resilience)."""
        if self.scenario.breakers is None:
            return []
        return self.scenario.breakers.transitions

    def retry_stats(self) -> Optional[object]:
        """Aggregated client retry counters (None without a retry plane)."""
        from repro.resilience.retry import RetryStats

        if not any(c.retry is not None for c in self.scenario.clients):
            return None
        total = RetryStats()
        for client in self.scenario.clients:
            stats = client.retry_stats
            total.first_attempts += stats.first_attempts
            total.retries += stats.retries
            total.deadline_expiries += stats.deadline_expiries
            total.budget_denied += stats.budget_denied
            total.attempts_exhausted += stats.attempts_exhausted
            total.aborted_connections += stats.aborted_connections
        return total

    # ------------------------------------------------------------------
    # Chaos-plane views
    # ------------------------------------------------------------------

    def fault_windows(self) -> List[Tuple[str, Tuple[str, ...], int, Optional[int]]]:
        """Armed fault windows as ``(kind, targets, start, end)`` tuples."""
        injector = self.scenario.injector
        if injector is None:
            return []
        return [
            (a.window.fault.kind, a.targets, a.window.start, a.window.end)
            for a in injector.armed_windows
        ]

    def drop_counts(self) -> Tuple[int, int]:
        """Network-wide ``(queue_drops, loss_drops)`` across all pipes."""
        queue = loss = 0
        for pipe in self.scenario.network.pipes().values():
            queue += pipe.stats.packets_dropped_queue
            loss += pipe.stats.packets_dropped_loss
        return queue, loss

    def partition_drops(self) -> int:
        """Network-wide packets discarded by partition faults."""
        return sum(
            pipe.stats.packets_dropped_partition
            for pipe in self.scenario.network.pipes().values()
        )

    def _bucket_marks(self, rows: List[Tuple[int, float]], bucket: int) -> List[str]:
        """Per-bucket fault annotation: kinds active during each bucket."""
        marks = []
        for t, _v in rows:
            bucket_start = (t // bucket) * bucket
            bucket_end = bucket_start + bucket
            kinds = []
            for kind, _targets, start, end in self.fault_windows():
                overlaps = start < bucket_end and (end is None or end > bucket_start)
                if overlaps and kind not in kinds:
                    kinds.append(kind)
            marks.append("+".join(kinds))
        return marks

    def timeline(self):
        """The insight plane's recorded timeline (None when disabled)."""
        insight = self.scenario.insight
        if insight is None:
            return None
        return insight.timeline

    def report(self, deterministic: bool = False) -> str:
        """Multi-line human-readable run summary.

        With ``deterministic=True`` wall-clock-derived fragments (the
        events/sec engine-footer rate) are omitted, so regenerated
        golden reports never drift across machines.
        """
        lines = [
            "scenario: policy=%s servers=%d clients=%d duration=%.1fs seed=%d"
            % (
                self.config.policy.value,
                self.config.n_servers,
                self.config.n_clients,
                self.config.duration / 1e9,
                self.config.seed,
            ),
            "completed requests: %d (%.0f req/s)"
            % (len(self.records), self.throughput_rps()),
        ]
        overall = self.summary(start=self.config.warmup)
        if overall is not None:
            lines.append("latency (all ops): " + overall.format(scale=1e6, unit="ms"))
        gets = self.summary(op=Op.GET, start=self.config.warmup)
        if gets is not None:
            lines.append("latency (GET):     " + gets.format(scale=1e6, unit="ms"))
        share = self.scenario.lb.backend_share()
        if share:
            lines.append(
                "backend packet share: "
                + ", ".join("%s=%.1f%%" % (k, 100 * v) for k, v in share.items())
            )
        shifts = self.shift_times()
        if shifts:
            lines.append(
                "weight shifts: %d (first %.3fms, last %.3fms)"
                % (len(shifts), to_millis(shifts[0]), to_millis(shifts[-1]))
            )
        windows = self.fault_windows()
        if windows:
            lines.append("fault windows:")
            for kind, targets, start, end in windows:
                span = (
                    "start=%.3fms until end of run" % to_millis(start)
                    if end is None
                    else "start=%.3fms duration=%.3fms"
                    % (to_millis(start), to_millis(end - start))
                )
                lines.append(
                    "  %-9s %s on %s" % (kind, span, ", ".join(targets))
                )
            queue_drops, loss_drops = self.drop_counts()
            drops = "packet drops: queue=%d loss=%d" % (queue_drops, loss_drops)
            partition_drops = self.partition_drops()
            if partition_drops:
                drops += " partition=%d" % partition_drops
            lines.append(drops)
        transitions = self.mode_transitions()
        if transitions:
            lines.append("controller mode transitions:")
            for t in transitions:
                lines.append(
                    "  %10.3fms  %s -> %s  (%s)"
                    % (
                        to_millis(t.time),
                        t.from_mode.name,
                        t.to_mode.name,
                        t.reason,
                    )
                )
        breaker_events = self.breaker_transitions()
        if breaker_events:
            lines.append("circuit breakers:")
            for b in breaker_events:
                lines.append(
                    "  %10.3fms  %s: %s -> %s  (%s)"
                    % (
                        to_millis(b.time),
                        b.backend,
                        b.from_state.name,
                        b.to_state.name,
                        b.reason,
                    )
                )
        verdicts = self.scenario.extras.get("invariants")
        if verdicts:
            violated = sum(1 for v in verdicts if not v.passed)
            lines.append(
                "invariants: %d checked, %d violated"
                % (len(verdicts), violated)
            )
            for v in verdicts:
                status = (
                    "ok"
                    if v.passed
                    else "VIOLATED (%d)" % len(v.violations)
                )
                lines.append("  %-22s %-8s %s" % (v.name, v.kind, status))
                for message in v.violations[:3]:
                    lines.append("    %s" % message)
        retry = self.retry_stats()
        if retry is not None:
            lines.append(
                "retries: %d of %d first attempts "
                "(deadline expiries=%d, budget denied=%d, exhausted=%d, "
                "aborted conns=%d)"
                % (
                    retry.retries,
                    retry.first_attempts,
                    retry.deadline_expiries,
                    retry.budget_denied,
                    retry.attempts_exhausted,
                    retry.aborted_connections,
                )
            )
        bucket = 250 * MILLISECONDS
        series = self.latency_series(bucket=bucket)
        rows = [(to_millis(t), to_millis(v)) for t, v in series]
        if rows:
            lines.append("p95 GET latency per 250ms bucket:")
            marks = self._bucket_marks(series, bucket) if windows else None
            lines.append(
                format_series(rows, "t(ms)", "p95(ms)", marks=marks)
            )
        trace = self.scenario.trace
        if trace is not None:
            captured = len(trace)
            if trace.dropped:
                lines.append(
                    "packet trace: %d records captured, %d dropped past "
                    "limit=%s" % (captured, trace.dropped, trace.limit)
                )
            else:
                lines.append("packet trace: %d records captured" % captured)
        insight = self.scenario.insight
        if insight is not None:
            lines.append(insight.summary())
        engine = "engine: %d events processed" % self.wall_events
        if self.wall_seconds > 0 and not deterministic:
            engine += ", %.0f events/sec wall-clock" % (
                self.wall_events / self.wall_seconds
            )
        sim = self.scenario.sim
        engine += ", peak queue depth %d" % sim.peak_queue_depth
        engine += ", %d live / %d pending at end" % (
            sim.live_events,
            sim.pending_events,
        )
        lines.append(engine)
        obs = self.scenario.obs
        if obs is not None and obs.profiler is not None and obs.profiler.events:
            lines.extend(obs.profiler.report_lines())
        return "\n".join(lines)


def drive_clients(
    sim: Simulator,
    clients: Sequence[MemtierClient],
    duration: int,
    windows: Optional[Sequence[Tuple[int, int]]] = None,
    insight: Optional["InsightPlane"] = None,
) -> float:
    """The one run loop: start clients, run to ``duration``, stop them.

    Every client starts at t=0 unless ``windows`` gives each one its own
    ``(start, stop)`` slot.  The simulator runs once, every client is
    then stopped, and ``insight`` (if any) records its closing frame —
    purely observational, after the simulator has drained.  Returns the
    wall-clock seconds spent simulating.
    """
    for index, client in enumerate(clients):
        start, stop = (0, duration) if windows is None else windows[index]
        if start > 0:
            sim.schedule_fire_at(start, client.start)
        else:
            client.start()
        if stop < duration:
            sim.schedule_fire_at(stop, client.stop)
    started = time.perf_counter()
    sim.run_until(duration)
    wall_seconds = time.perf_counter() - started
    for client in clients:
        client.stop()
    if insight is not None:
        insight.finalize(duration)
    return wall_seconds


def run_scenario(
    config: ScenarioConfig,
    scenario: Optional[Scenario] = None,
    windows: Optional[Sequence[Tuple[int, int]]] = None,
) -> ScenarioResult:
    """Build (unless given) and run a scenario to its configured duration.

    ``windows`` gives each client a ``(start, stop)`` slot (see
    :func:`drive_clients`); by default every client runs the whole time.
    """
    if scenario is None:
        scenario = build_scenario(config)
    wall_seconds = drive_clients(
        scenario.sim,
        scenario.clients,
        config.duration,
        windows=windows,
        insight=scenario.insight,
    )

    return ScenarioResult(
        config=config,
        scenario=scenario,
        records=merge_logs(
            [client.records for client in scenario.clients], "completed_at"
        ),
        wall_events=scenario.sim.events_processed,
        wall_seconds=wall_seconds,
    )
