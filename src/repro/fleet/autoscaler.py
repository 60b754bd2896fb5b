"""Metric-driven autoscaling over a live scenario.

:class:`AutoscalingGroup` is the fleet plane's engine.  It owns the
:class:`~repro.fleet.lifecycle.FleetLifecycle` for a fixed universe of
provisioned server names, evaluates the configured policies on a
periodic tick, and turns decisions into pool mutations that the LB,
resilience, and measurement planes can live with:

* **scale-out** batches: one provisioning timer per decision, one
  ``pool.add_many`` per boot batch (one Maglev rebuild, incremental
  when :attr:`FleetConfig.incremental_maglev` is on);
* **warm-up ramps**: new backends enter at a fraction of full weight
  and climb to 1.0 in discrete steps, so a cold cache never takes a
  full traffic share on its first packet;
* **graceful drain**: scale-in removes victims from the pool (new
  flows stop immediately; conntrack keeps routing established flows —
  the churn harness's affinity mechanics) and polls until their pinned
  flows hit zero before declaring them TERMINATED;
* **measurement hygiene**: the feedback plane's
  ``on_backend_added`` / ``on_backend_removed`` seams reset estimator,
  breaker, and signal-quality state across terminate/relaunch cycles,
  and each :class:`ScalingDecision` snapshots the pool's FRESH / STALE
  / INVALID grade counts — the signal-quality dynamics the elastic
  experiment reports.

Determinism: everything runs on the scenario's simulator clock; name
reuse pops from a LIFO free list; per-name generation counters void
timers that outlive a cancel or relaunch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FleetError
from repro.fleet.config import FleetConfig
from repro.fleet.lifecycle import (
    BackendState,
    FleetLifecycle,
    LifecycleEvent,
)
from repro.lb.backend import Backend, BackendPool
from repro.telemetry.timeseries import TimeSeries


@dataclass
class ScalingDecision:
    """Telemetry record: one executed scaling decision."""

    time: int
    policy: str           # "target-tracking" | "step" | "scheduled"
    direction: str        # "out" | "in"
    reason: str
    metric: Optional[float]
    before: int           # fleet capacity before
    after: int            # fleet capacity after
    #: Signal-quality census at decision time: grade name → backends.
    grades: Dict[str, int] = field(default_factory=dict)


class AutoscalingGroup:
    """Grows and shrinks the in-service backend set under policy.

    Parameters
    ----------
    sim:
        The scenario's simulator (timers, clock).
    pool:
        The LB's backend pool; must already hold the initial
        in-service backends.
    conntrack:
        The LB's connection-tracking table (drain progress, the
        ``flows_per_backend`` metric).
    config:
        Validated :class:`FleetConfig` with ``enabled=True``.
    all_names:
        The provisioned server universe in topology order; every name
        not initially in the pool starts on the free list.
    feedback:
        The scenario's ``InbandFeedback`` (or None): supplies the
        ``p95_ms`` metric, the per-decision grade census, and the
        add/remove reset seams.
    """

    def __init__(
        self,
        sim,
        pool: BackendPool,
        conntrack,
        config: FleetConfig,
        all_names: List[str],
        feedback=None,
    ):
        if not config.enabled:
            raise FleetError("AutoscalingGroup needs FleetConfig.enabled")
        config.validate()
        self.sim = sim
        self.pool = pool
        self.conntrack = conntrack
        self.config = config
        self.feedback = feedback
        self.lifecycle = FleetLifecycle()
        self.decisions: List[ScalingDecision] = []
        #: (time, capacity) after every capacity change.
        self.capacity_series = TimeSeries(name="fleet_capacity")
        #: Extra metric sources: name → () -> Optional[float].
        self.metric_sources: Dict[str, Callable[[], Optional[float]]] = {}
        self._all_names = list(all_names)
        initial = [n for n in all_names if n in pool]
        # LIFO free list, reversed so the lowest-index spare pops first.
        self._free = [n for n in reversed(all_names) if n not in pool]
        self._gen: Dict[str, int] = {n: 0 for n in all_names}
        self._warming_since: Dict[str, int] = {}
        self._drain_started: Dict[str, int] = {}
        #: Launch order (newest last) — scale-in victims pop from here.
        self._launch_order: List[str] = list(initial)
        self._last_out: Optional[int] = None
        self._last_in: Optional[int] = None
        self._pending_schedule = sorted(
            config.schedule, key=lambda a: (a.at, a.desired)
        )
        self._ramp_running = False
        self._started = False
        now = sim.now
        for name in initial:
            self.lifecycle.transition(
                now, name, BackendState.IN_SERVICE, "initial pool"
            )
        self.capacity_series.append(now, float(self.lifecycle.capacity()))

    # ------------------------------------------------------------------
    # Introspection

    def capacity(self) -> int:
        """Current fleet capacity (provisioning + warming + in service)."""
        return self.lifecycle.capacity()

    def oscillations(self) -> int:
        """Adjacent opposite-direction decisions within the window."""
        window = self.config.oscillation_window
        count = 0
        for prev, cur in zip(self.decisions, self.decisions[1:]):
            if (
                cur.direction != prev.direction
                and cur.time - prev.time <= window
            ):
                count += 1
        return count

    def time_to_stable(self, since: int = 0) -> Optional[int]:
        """Time of the last scaling decision at/after ``since``.

        "Time to stable fleet" after an event at ``since`` is this
        minus ``since``; None means no decision fired after it.
        """
        times = [d.time for d in self.decisions if d.time >= since]
        return max(times) if times else None

    def grade_census(self, now: int) -> Dict[str, int]:
        """FRESH/STALE/INVALID counts across the current pool."""
        quality = getattr(self.feedback, "quality", None)
        if quality is None:
            return {}
        census: Dict[str, int] = {}
        for name in self.pool.names():
            grade = quality.grade(name, now).value
            census[grade] = census.get(grade, 0) + 1
        return census

    # ------------------------------------------------------------------
    # The evaluation loop

    def start(self) -> None:
        """Begin the periodic policy-evaluation tick."""
        if self._started:
            return
        self._started = True
        self.sim.schedule_fire(self.config.evaluate_interval, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        self._evaluate(now)
        self.sim.schedule_fire(self.config.evaluate_interval, self._tick)

    def _evaluate(self, now: int) -> None:
        desired, policy, reason, metric = self._desired(now)
        if desired is None:
            return
        desired = max(
            self.config.min_in_service,
            min(self.config.max_backends, desired),
        )
        current = self.lifecycle.capacity()
        scheduled = policy == "scheduled"
        if desired > current:
            if not scheduled and not self._cooled(now, "out"):
                return
            self._scale_out(now, desired - current, policy, reason, metric)
        elif desired < current:
            if not scheduled and not self._cooled(now, "in"):
                return
            self._scale_in(now, current - desired, policy, reason, metric)

    def _cooled(self, now: int, direction: str) -> bool:
        last = self._last_out if direction == "out" else self._last_in
        cooldown = (
            self.config.scale_out_cooldown
            if direction == "out"
            else self.config.scale_in_cooldown
        )
        return last is None or now - last >= cooldown

    def _desired(
        self, now: int
    ) -> Tuple[Optional[int], str, str, Optional[float]]:
        """The policy verdict: (desired, policy kind, reason, metric)."""
        due = [a for a in self._pending_schedule if a.at <= now]
        if due:
            self._pending_schedule = [
                a for a in self._pending_schedule if a.at > now
            ]
            action = due[-1]  # latest due action wins
            return (
                action.desired,
                "scheduled",
                "scheduled desired=%d" % action.desired,
                None,
            )
        current = self.lifecycle.capacity()
        outs: List[Tuple[int, str, str, float]] = []
        ins: List[Tuple[int, str, str, float]] = []
        tt = self.config.target_tracking
        if tt is not None:
            value = self._metric(tt.metric)
            if value is not None:
                high = tt.target * (1.0 + tt.band)
                low = tt.target * (1.0 - tt.band)
                # Solve for the size that restores the setpoint; the
                # ceiling keeps the metric at or under target.
                proposed = math.ceil(current * value / tt.target)
                reason = "%s=%.2f target=%.2f" % (tt.metric, value, tt.target)
                if value > high:
                    proposed = min(proposed, current + tt.max_step)
                    outs.append((proposed, "target-tracking", reason, value))
                elif value < low:
                    proposed = max(proposed, current - tt.max_step)
                    ins.append((proposed, "target-tracking", reason, value))
        for policy in self.config.steps:
            value = self._metric(policy.metric)
            if value is None:
                continue
            if policy.upper is not None and value >= policy.upper:
                reason = "%s=%.2f >= %.2f" % (policy.metric, value, policy.upper)
                outs.append((current + policy.step, "step", reason, value))
            elif policy.lower is not None and value <= policy.lower:
                reason = "%s=%.2f <= %.2f" % (policy.metric, value, policy.lower)
                ins.append((current - policy.step, "step", reason, value))
        if outs:
            # Most aggressive scale-out wins (capacity safety first).
            desired, kind, reason, value = max(outs)
            return desired, kind, reason, value
        if ins:
            # Most conservative scale-in wins (remove the least).
            desired, kind, reason, value = max(ins)
            return desired, kind, reason, value
        return None, "", "", None

    def _metric(self, name: str) -> Optional[float]:
        if name == "flows_per_backend":
            serving = self.lifecycle.in_state(
                BackendState.WARMING, BackendState.IN_SERVICE
            )
            if not serving:
                return None
            flows = sum(self.conntrack.active_flows(n) for n in serving)
            return flows / len(serving)
        if name == "p95_ms":
            estimator = getattr(self.feedback, "estimator", None)
            if estimator is None:
                return None
            estimates = [
                v
                for v in (
                    estimator.estimate(n)
                    for n in self.lifecycle.in_state(BackendState.IN_SERVICE)
                )
                if v is not None
            ]
            if not estimates:
                return None
            return sum(estimates) / len(estimates) / 1e6  # ns → ms
        source = self.metric_sources.get(name)
        if source is None:
            raise FleetError("unknown fleet metric %r" % name)
        return source()

    # ------------------------------------------------------------------
    # Scale-out: PROVISIONING → WARMING → IN_SERVICE

    def _scale_out(
        self,
        now: int,
        count: int,
        policy: str,
        reason: str,
        metric: Optional[float],
    ) -> None:
        count = min(count, len(self._free))
        if count == 0:
            return
        before = self.lifecycle.capacity()
        batch = [self._free.pop() for _ in range(count)]
        for name in batch:
            self.lifecycle.transition(
                now, name, BackendState.PROVISIONING, reason
            )
            self._launch_order.append(name)
        gens = [(name, self._gen[name]) for name in batch]
        self.sim.schedule_fire(
            self.config.provision_delay, lambda: self._enter_warming(gens)
        )
        self._last_out = now
        self._record_decision(
            now, policy, "out", reason, metric, before
        )

    def _enter_warming(self, gens: List[Tuple[str, int]]) -> None:
        now = self.sim.now
        batch = [
            name
            for name, gen in gens
            if self._gen[name] == gen
            and self.lifecycle.state(name) is BackendState.PROVISIONING
        ]
        if not batch:
            return
        for name in batch:
            # Reset seams *before* the pool add: the first packet to the
            # new backend must not land on last-incarnation state.
            if self.feedback is not None:
                self.feedback.on_backend_added(name, now)
            self._warming_since[name] = now
        self.pool.add_many(
            [
                Backend(name, weight=self.config.warmup_initial_weight)
                for name in batch
            ]
        )
        for name in batch:
            self.lifecycle.transition(
                now, name, BackendState.WARMING, "boot complete"
            )
        if not self._ramp_running:
            self._ramp_running = True
            self.sim.schedule_fire(self._ramp_interval(), self._ramp_tick)

    def _ramp_interval(self) -> int:
        return max(1, self.config.warmup_duration // self.config.warmup_steps)

    def _ramp_tick(self) -> None:
        now = self.sim.now
        warming = self.lifecycle.in_state(BackendState.WARMING)
        if not warming:
            self._ramp_running = False
            return
        initial = self.config.warmup_initial_weight
        updates: Dict[str, float] = {}
        graduated: List[str] = []
        for name in warming:
            if name not in self.pool:
                continue  # drained mid-ramp
            frac = (now - self._warming_since[name]) / self.config.warmup_duration
            if frac >= 1.0:
                updates[name] = 1.0
                graduated.append(name)
            else:
                updates[name] = initial + (1.0 - initial) * frac
        if updates:
            self.pool.set_weights(updates)  # one rebuild per ramp step
        for name in graduated:
            self.lifecycle.transition(
                now, name, BackendState.IN_SERVICE, "warm-up complete"
            )
            self._warming_since.pop(name, None)
        self.sim.schedule_fire(self._ramp_interval(), self._ramp_tick)

    # ------------------------------------------------------------------
    # Scale-in: DRAINING → TERMINATED (or cancel a PROVISIONING boot)

    def _scale_in(
        self,
        now: int,
        count: int,
        policy: str,
        reason: str,
        metric: Optional[float],
    ) -> None:
        victims = self._pick_victims(count)
        if not victims:
            return
        before = self.lifecycle.capacity()
        draining: List[str] = []
        for name in victims:
            state = self.lifecycle.state(name)
            if state is BackendState.PROVISIONING:
                # Not booted yet: cancel outright, nothing to drain.
                self.lifecycle.transition(
                    now, name, BackendState.TERMINATED, "launch cancelled"
                )
                self._release(name)
                continue
            # Forget the signal first so the ladder never HOLDs on a
            # backend we are deliberately removing.
            if self.feedback is not None:
                self.feedback.on_backend_removed(name, now)
            self.lifecycle.transition(now, name, BackendState.DRAINING, reason)
            self._warming_since.pop(name, None)
            self._drain_started[name] = now
            draining.append(name)
        if draining:
            # One pool notification: new flows stop landing on the
            # victims now; conntrack keeps their established flows home.
            self.pool.remove_many(draining)
            for name in draining:
                self._schedule_drain_poll(name, self._gen[name])
        self._last_in = now
        self._record_decision(now, policy, "in", reason, metric, before)

    def _pick_victims(self, count: int) -> List[str]:
        """Newest launches die first; never below ``min_in_service``."""
        victims: List[str] = []
        in_service_left = self.lifecycle.count(
            BackendState.WARMING, BackendState.IN_SERVICE
        )
        for name in reversed(self._launch_order):
            if len(victims) >= count:
                break
            state = self.lifecycle.state(name)
            if state is BackendState.PROVISIONING:
                victims.append(name)
            elif state in (BackendState.WARMING, BackendState.IN_SERVICE):
                if in_service_left <= self.config.min_in_service:
                    continue
                in_service_left -= 1
                victims.append(name)
        return victims

    def _schedule_drain_poll(self, name: str, gen: int) -> None:
        self.sim.schedule_fire(
            self.config.drain_poll, lambda: self._drain_poll(name, gen)
        )

    def _drain_poll(self, name: str, gen: int) -> None:
        if (
            self._gen[name] != gen
            or self.lifecycle.state(name) is not BackendState.DRAINING
        ):
            return
        now = self.sim.now
        pinned = self.conntrack.active_flows(name)
        timed_out = now - self._drain_started[name] >= self.config.drain_timeout
        if pinned > 0 and not timed_out:
            self._schedule_drain_poll(name, gen)
            return
        reason = (
            "drained (%d flows cut at timeout)" % pinned
            if pinned
            else "drained clean"
        )
        self.lifecycle.transition(now, name, BackendState.TERMINATED, reason)
        self._drain_started.pop(name, None)
        self._release(name)

    def _release(self, name: str) -> None:
        """Return a terminated name to the free list for reuse."""
        self._gen[name] += 1
        self._launch_order.remove(name)
        self._free.append(name)

    # ------------------------------------------------------------------

    def _record_decision(
        self,
        now: int,
        policy: str,
        direction: str,
        reason: str,
        metric: Optional[float],
        before: int,
    ) -> None:
        after = self.lifecycle.capacity()
        self.decisions.append(
            ScalingDecision(
                time=now,
                policy=policy,
                direction=direction,
                reason=reason,
                metric=metric,
                before=before,
                after=after,
                grades=self.grade_census(now),
            )
        )
        self.capacity_series.append(now, float(after))
