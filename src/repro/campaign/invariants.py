"""The builtin invariant roster: what must hold on *every* run.

Each invariant is a pure check over a finished run — the
:class:`CampaignContext` bundles the :class:`ScenarioResult`, the
in-flight :class:`~repro.campaign.audit.CampaignAudit`, and the
campaign's liveness bound.  Checks return violation *messages*: a
campaign verdict is actionable only if it says which flow, backend, or
transition broke the rule and when.

Safety invariants (must hold at every instant):

* ``weight-conservation`` — controller updates conserve the pool's
  total weight and respect the configured floor (fixed-membership runs).
* ``no-dark-routing`` — no *new* flow lands on an unhealthy, DRAINING,
  or TERMINATED backend.
* ``conntrack-consistent`` — the amortized per-backend flow counts
  agree with a fresh table scan (no orphaned entries, no count drift).
* ``ladder-legal`` — mode transitions chain correctly from the initial
  HOLD and upgrades wait out ``reentry_hold``.
* ``breaker-legal`` — per-backend breaker transitions follow the legal
  CLOSED→OPEN→HALF_OPEN edges.
* ``hold-freeze`` — no controller-driven weight update fires while the
  ladder holds the loop in HOLD or FALLBACK (stale signal must actually
  freeze actuation).
* ``affinity-preserved`` — no established flow is ever re-routed, under
  weight shifts, faults, and scale events alike.

Liveness:

* ``recovery-bound`` — tail latency re-enters the pre-fault band within
  ``recovery_bound`` of the last fault window closing (judged only when
  the run leaves enough fault-free runway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.app.protocol import Op
from repro.campaign.registry import available, get_spec, register
from repro.harness.recovery import fault_window, time_to_recovery
from repro.resilience.ladder import ControllerMode
from repro.units import to_millis

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign.audit import CampaignAudit
    from repro.harness.runner import ScenarioResult

#: Messages kept per invariant; the rest collapse into a "+N more".
MAX_MESSAGES = 8

#: Mode severity (mirrors the ladder's ordering): an *upgrade* moves
#: toward FEEDBACK and must wait out ``reentry_hold``.
_SEVERITY = {
    ControllerMode.FEEDBACK: 0,
    ControllerMode.HOLD: 1,
    ControllerMode.FALLBACK: 2,
}

#: Breaker edges the state machine may take (see resilience/breaker.py).
_LEGAL_BREAKER_EDGES = {
    ("CLOSED", "OPEN"),
    ("OPEN", "HALF_OPEN"),
    ("HALF_OPEN", "CLOSED"),
    ("HALF_OPEN", "OPEN"),
}


@dataclass
class CampaignContext:
    """Everything one invariant check may look at."""

    result: "ScenarioResult"
    audit: "CampaignAudit"
    #: Liveness bound for ``recovery-bound`` (ns after last fault end).
    recovery_bound: int

    @property
    def config(self):
        return self.result.config

    @property
    def scenario(self):
        return self.result.scenario

    def controller_updates(self) -> List[object]:
        """The run's controller-driven weight update log (may be [])."""
        feedback = self.scenario.feedback
        if feedback is None or feedback.controller is None:
            return []
        return list(feedback.controller.updates)


@dataclass
class InvariantVerdict:
    """One invariant's outcome on one run."""

    name: str
    kind: str
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def evaluate(
    context: CampaignContext, names: Optional[Sequence[str]] = None
) -> List[InvariantVerdict]:
    """Run the selected invariants (default: all) over one finished run.

    Verdicts are stored into ``scenario.extras["invariants"]`` so the
    runner report can render them, and — when the run's obs plane is on
    — counted into ``repro_invariant_checks_total`` /
    ``repro_invariant_violations_total`` (labelled by invariant name).
    """
    roster = [get_spec(n) for n in (names if names is not None else available())]
    verdicts = [
        InvariantVerdict(
            name=spec.name, kind=spec.kind, violations=_cap(spec.check(context))
        )
        for spec in roster
    ]
    scenario = context.scenario
    scenario.extras["invariants"] = verdicts
    obs = scenario.obs
    if obs is not None and obs.registry is not None:
        checks = obs.registry.counter(
            "repro_invariant_checks_total",
            "Invariant evaluations, by invariant name.",
            labels=("invariant",),
        )
        violations = obs.registry.counter(
            "repro_invariant_violations_total",
            "Invariant violations found, by invariant name.",
            labels=("invariant",),
        )
        for verdict in verdicts:
            checks.labels(invariant=verdict.name).inc()
            if verdict.violations:
                violations.labels(invariant=verdict.name).inc(
                    len(verdict.violations)
                )
    return verdicts


def _cap(messages: List[str]) -> List[str]:
    if len(messages) <= MAX_MESSAGES:
        return messages
    extra = len(messages) - MAX_MESSAGES
    return messages[:MAX_MESSAGES] + ["... +%d more" % extra]


# ----------------------------------------------------------------------
# Safety invariants
# ----------------------------------------------------------------------


@register(
    "weight-conservation",
    summary="controller updates conserve total weight and respect the floor",
)
def _weight_conservation(ctx: CampaignContext) -> List[str]:
    """Every control law redistributes — it must not mint or destroy
    weight, and no backend may be starved below the configured floor.

    Judged only on fixed-membership runs: with the fleet plane armed,
    pool adds/drains legitimately change the total between updates.
    """
    updates = ctx.controller_updates()
    if not updates:
        return []
    total = sum(ctx.audit.initial_weights.values())
    floor = _weight_floor(ctx.config) * total
    fixed_membership = ctx.scenario.fleet is None
    out: List[str] = []
    for update in updates:
        weights = update.weights_after
        for name, weight in sorted(weights.items()):
            if weight < -1e-9:
                out.append(
                    "t=%.3fms %s weight went negative (%g)"
                    % (to_millis(update.time), name, weight)
                )
            elif fixed_membership and weight < floor - 1e-9:
                out.append(
                    "t=%.3fms %s weight %g below floor %g"
                    % (to_millis(update.time), name, weight, floor)
                )
        if fixed_membership:
            got = sum(weights.values())
            if abs(got - total) > 1e-6 * max(1.0, total):
                out.append(
                    "t=%.3fms total weight %g != initial %g"
                    % (to_millis(update.time), got, total)
                )
    return out


@register(
    "no-dark-routing",
    summary="no new flow is routed to an unhealthy/DRAINING/TERMINATED backend",
)
def _no_dark_routing(ctx: CampaignContext) -> List[str]:
    """Established flows may drain into a dark backend (that is affinity
    working); the *first* packet of a flow must never land on one."""
    return list(ctx.audit.routing.violations)


@register(
    "conntrack-consistent",
    summary="amortized conntrack flow counts match a fresh table scan",
)
def _conntrack_consistent(ctx: CampaignContext) -> List[str]:
    """The per-backend count cache is maintained incrementally on every
    insert/expire; any drift from a fresh recount means an orphaned or
    double-counted entry (the PR 7 bug class)."""
    conntrack = ctx.scenario.lb.conntrack
    fresh = conntrack.recount()
    cached = conntrack.counted()
    if fresh == cached:
        return []
    out = []
    for backend in sorted(set(fresh) | set(cached)):
        have, want = cached.get(backend, 0), fresh.get(backend, 0)
        if have != want:
            out.append(
                "%s: cached count %d, table holds %d" % (backend, have, want)
            )
    return out


@register(
    "ladder-legal",
    summary="mode transitions chain from HOLD and upgrades wait out reentry_hold",
)
def _ladder_legal(ctx: CampaignContext) -> List[str]:
    transitions = ctx.result.mode_transitions()
    if not transitions:
        return []
    reentry_hold = ctx.config.resilience.ladder.reentry_hold
    out: List[str] = []
    previous = None
    for t in transitions:
        if t.from_mode is t.to_mode:
            out.append(
                "t=%.3fms self-loop transition %s -> %s"
                % (to_millis(t.time), t.from_mode.name, t.to_mode.name)
            )
        expected = ControllerMode.HOLD if previous is None else previous.to_mode
        if t.from_mode is not expected:
            out.append(
                "t=%.3fms transition from %s but ladder was in %s"
                % (to_millis(t.time), t.from_mode.name, expected.name)
            )
        if _SEVERITY[t.to_mode] < _SEVERITY[t.from_mode]:
            # Upgrade: the candidate timer resets on every transition,
            # so at least reentry_hold must separate this from the
            # previous transition (or from t=0 for the first).
            since = t.time - (previous.time if previous is not None else 0)
            if since < reentry_hold:
                out.append(
                    "t=%.3fms upgrade %s -> %s only %.3fms after previous "
                    "transition (reentry_hold %.3fms)"
                    % (
                        to_millis(t.time),
                        t.from_mode.name,
                        t.to_mode.name,
                        to_millis(since),
                        to_millis(reentry_hold),
                    )
                )
        previous = t
    return out


@register(
    "breaker-legal",
    summary="per-backend breaker transitions follow the legal state edges",
)
def _breaker_legal(ctx: CampaignContext) -> List[str]:
    transitions = ctx.result.breaker_transitions()
    if not transitions:
        return []
    fleet = ctx.scenario.fleet is not None
    out: List[str] = []
    last: dict = {}
    for t in transitions:
        edge = (t.from_state.name, t.to_state.name)
        if edge not in _LEGAL_BREAKER_EDGES:
            out.append(
                "t=%.3fms %s illegal edge %s -> %s"
                % (to_millis(t.time), t.backend, edge[0], edge[1])
            )
        previous = last.get(t.backend)
        if previous is None:
            if t.from_state.name != "CLOSED":
                out.append(
                    "t=%.3fms %s first transition leaves %s, not CLOSED"
                    % (to_millis(t.time), t.backend, t.from_state.name)
                )
        elif t.from_state is not previous.to_state:
            # A fresh CLOSED chain is legal when the fleet relaunches a
            # terminated name (BreakerBoard.reset drops the breaker).
            if not (fleet and t.from_state.name == "CLOSED"):
                out.append(
                    "t=%.3fms %s transition from %s but breaker was %s"
                    % (
                        to_millis(t.time),
                        t.backend,
                        t.from_state.name,
                        previous.to_state.name,
                    )
                )
        last[t.backend] = t
    return out


@register(
    "hold-freeze",
    summary="no controller-driven weight update fires in HOLD/FALLBACK",
)
def _hold_freeze(ctx: CampaignContext) -> List[str]:
    """Stale-signal holds must actually hold: while the ladder is off
    FEEDBACK, the only legal weight change is the ladder's own
    mode-change relax.  Updates at a transition's exact timestamp are
    allowed — a shift and a downgrade can legally share an instant."""
    feedback = ctx.scenario.feedback
    if feedback is None or feedback.ladder is None:
        return []
    transitions = ctx.result.mode_transitions()
    updates = ctx.controller_updates()
    out: List[str] = []
    for update in updates:
        if update.reason == "mode-change":
            continue  # the ladder's own relax-to-uniform
        t = update.time
        mode = ControllerMode.HOLD
        boundary = False
        for transition in transitions:
            if transition.time < t:
                mode = transition.to_mode
            elif transition.time == t:
                boundary = True
        if mode is not ControllerMode.FEEDBACK and not boundary:
            out.append(
                "t=%.3fms controller update (%s) while ladder in %s"
                % (
                    to_millis(t),
                    update.reason,
                    mode.name,
                )
            )
    return out


@register(
    "affinity-preserved",
    summary="no established flow is re-routed across shifts or scale events",
)
def _affinity_preserved(ctx: CampaignContext) -> List[str]:
    return [
        "flow %s moved %s -> %s" % (flow, previous, backend)
        for flow, previous, backend in ctx.audit.affinity.violations
    ]


# ----------------------------------------------------------------------
# Liveness invariants
# ----------------------------------------------------------------------


@register(
    "recovery-bound",
    summary="tail latency re-enters the pre-fault band soon after the last fault",
    kind="liveness",
)
def _recovery_bound(ctx: CampaignContext) -> List[str]:
    """Judged only when judgeable: the schedule must be finite and
    one-shot, the run must leave at least ``recovery_bound`` of
    fault-free runway, and there must be pre-fault baseline traffic."""
    config = ctx.config
    window = fault_window(config)
    if window is None:
        return []
    onset, end = window
    if end is None or any(f.period is not None for f in config.all_faults()):
        return []  # open-ended or recurring: no well-defined "last fault"
    runway = config.duration - end
    if runway < ctx.recovery_bound:
        return []
    baseline = ctx.result.latencies(
        op=Op.GET, start=config.warmup or None, end=onset
    )
    if not baseline:
        return []
    recovery = time_to_recovery(ctx.result, window)
    bound = ctx.recovery_bound
    if recovery is None:
        return [
            "tail latency degraded and never re-entered the pre-fault band "
            "(last fault ended t=%.3fms, bound %.3fms, run end t=%.3fms)"
            % (to_millis(end), to_millis(bound), to_millis(config.duration))
        ]
    recovered_at = onset + recovery
    if recovered_at > end + bound:
        return [
            "tail latency recovered t=%.3fms, %.3fms after the last fault "
            "ended (bound %.3fms)"
            % (
                to_millis(recovered_at),
                to_millis(recovered_at - end),
                to_millis(bound),
            )
        ]
    return []


def _weight_floor(config) -> float:
    """The active law's weight-floor fraction (alpha keeps its tunables
    in the ``controller`` sub-config, the zoo laws in their own)."""
    sub = getattr(config.feedback, config.feedback.strategy, None)
    floor = getattr(sub, "weight_floor", None) if sub is not None else None
    if floor is None:
        floor = config.feedback.controller.weight_floor
    return floor
