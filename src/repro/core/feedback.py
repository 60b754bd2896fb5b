"""The in-band feedback loop: taps → measurement → estimation → control.

:class:`InbandFeedback` is the paper's system glued together.  Attached
to a :class:`~repro.lb.dataplane.LoadBalancer` it:

1. receives every client→server packet via the LB's tap (never a
   response — DSR);
2. runs ENSEMBLETIMEOUT on the flow's per-flow state, which lives on
   the flow's conntrack entry (created on first sight, dropped at
   FIN/RST, and gone when conntrack expires the entry);
3. attributes each emitted ``T_LB`` sample to the backend the flow is
   pinned to;
4. folds the sample into the per-backend estimator; and
5. lets the α-shift controller adjust pool weights; the weighted Maglev
   table is rebuilt when the next *new* flow reads it (affinity keeps
   existing flows in place).

Observers read the loop's two append-only logs in place: ``samples``
(a :class:`SampleRecord` per ``T_LB`` sample, kept as a column log) and
``epochs`` (a ``(time, chosen index)`` per ENSEMBLETIMEOUT epoch end,
all flows).

Set ``control=False`` for measurement-only operation (Fig 2 runs the
estimator against a static Maglev table).  A load balancer's conntrack
entries carry one measurement state each, so at most one
:class:`InbandFeedback` attaches to a load balancer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.controller import AlphaShiftController, ControllerConfig
from repro.core.ensemble import EnsembleConfig, EnsembleTimeout
from repro.controllers.aimd import AimdConfig
from repro.controllers.gradient import GradientConfig
from repro.controllers.knapsack import KnapsackConfig
from repro.controllers.morpheus import MorpheusConfig
from repro.controllers.proportional import ProportionalConfig
from repro.controllers.registry import create as create_controller
from repro.core.estimator import BackendLatencyEstimator, EstimatorConfig
from repro.errors import ConfigError
from repro.lb.conntrack import ConnTrack
from repro.lb.dataplane import LoadBalancer
from repro.net.addr import FlowKey
from repro.net.packet import FLAG_FIN, FLAG_RST, FLAG_SYN
from repro.telemetry.columns import ColumnLog

_FIN_OR_RST = FLAG_FIN | FLAG_RST
_SYN_OR_FIN = FLAG_SYN | FLAG_FIN

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.resilience.breaker import BreakerBoard
    from repro.resilience.config import ResilienceConfig
    from repro.resilience.ladder import ModeTransition


@dataclass
class FeedbackConfig:
    """Configuration of the full loop.

    ``strategy`` selects the control law by its registry name (see
    :mod:`repro.controllers`): ``"alpha"`` is the paper's α-shift rule;
    ``"proportional"``, ``"aimd"``, ``"knapsack"``, ``"gradient"`` and
    ``"morpheus"`` are the zoo's alternatives, each reading its own
    tunables sub-config below.  Unknown names raise
    :class:`~repro.errors.ConfigError` listing the registered laws.
    """

    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    strategy: str = "alpha"
    proportional: ProportionalConfig = field(default_factory=ProportionalConfig)
    aimd: AimdConfig = field(default_factory=AimdConfig)
    knapsack: KnapsackConfig = field(default_factory=KnapsackConfig)
    gradient: GradientConfig = field(default_factory=GradientConfig)
    morpheus: MorpheusConfig = field(default_factory=MorpheusConfig)
    control: bool = True
    #: Censor T_LB samples from flows that just retransmitted.  A
    #: retransmission is detectable purely in-band (a data segment whose
    #: sequence range was already seen), and the batch gap it creates is
    #: RTO-scale — loss-recovery noise, not server latency.  Off by
    #: default (the paper's algorithms are verbatim without it); see
    #: EXPERIMENTS.md "Robustness under packet loss".
    censor_retransmissions: bool = False

    def validate(self) -> None:
        """Raise ConfigError on a malformed ensemble, estimator or controller."""
        self.ensemble.validate()
        self.estimator.validate()
        self.controller.validate()


@dataclass
class SampleRecord:
    """One ``T_LB`` sample, with the reporting timeout δₑ that emitted it."""

    __slots__ = ("time", "flow", "backend", "t_lb", "delta")

    time: int
    flow: FlowKey
    backend: str
    t_lb: int
    delta: int

    @property
    def batch_start(self) -> int:
        """Start of the batch gap this sample measured (ns)."""
        return self.time - self.t_lb


class _FlowState:
    """Per-flow measurement state: the ensemble plus retransmission
    tracking (highest data sequence seen; a segment at or below it is a
    retransmission and taints the next sample)."""

    __slots__ = ("ensemble", "max_end_seq", "tainted")

    def __init__(self, ensemble: EnsembleTimeout):
        self.ensemble = ensemble
        self.max_end_seq = 0
        self.tainted = False

    def observe_seq_fields(self, flags: int, seq: int, payload_len: int) -> None:
        """Track sequence progress; flag retransmissions."""
        if payload_len == 0 and not flags & FLAG_SYN:
            return  # pure ACKs carry no new sequence range
        end_seq = seq + payload_len
        if flags & _SYN_OR_FIN:
            end_seq += 1
        if end_seq <= self.max_end_seq:
            self.tainted = True
        else:
            self.max_end_seq = end_seq


@dataclass
class _FlowStats:
    """Lifetime counters."""

    #: Per-flow states created (a flow seen again after FIN counts again).
    created: int = 0


class _FlowStates:
    """Read-only view of the per-flow states on the LB's conntrack entries."""

    __slots__ = ("_conntrack", "stats")

    def __init__(self, conntrack: ConnTrack):
        self._conntrack = conntrack
        self.stats = _FlowStats()

    def __len__(self) -> int:
        return self._conntrack.measured()


class InbandFeedback:
    """Wires measurement and control onto a load balancer.

    With a :class:`~repro.resilience.config.ResilienceConfig` (enabled)
    the loop grows its guardrails: every backend's sample stream is
    graded by a signal-quality tracker, a degradation ladder gates the
    controller (weights only move in ``FEEDBACK`` mode), a periodic
    check catches starved signals that produce no packets, and passive
    samples feed the LB's circuit breakers as success evidence.
    """

    def __init__(
        self,
        lb: LoadBalancer,
        config: Optional[FeedbackConfig] = None,
        resilience: Optional["ResilienceConfig"] = None,
        breakers: Optional["BreakerBoard"] = None,
    ):
        conntrack = lb.conntrack
        if conntrack.state_owner is not None:
            raise ConfigError(
                "load balancer %r already has an InbandFeedback: its "
                "conntrack entries carry one measurement state each" % lb.name
            )
        self.lb = lb
        self.config = config or FeedbackConfig()
        #: Resilience plane (None unless enabled).
        self.quality = None
        self.ladder = None
        self.breakers = breakers
        if resilience is not None and resilience.enabled:
            # Imported lazily: repro.core loads before repro.resilience
            # can finish initializing.
            from repro.resilience.quality import SignalQualityTracker

            self.quality = SignalQualityTracker(resilience.signal)
        self.estimator = BackendLatencyEstimator(
            self.config.estimator, quality=self.quality
        )
        self.controller = None
        if self.config.control:
            # Registry dispatch: any law in repro.controllers, by name.
            # Unknown names raise ConfigError listing the registered set.
            self.controller = create_controller(
                self.config.strategy, lb.pool, self.estimator, self.config
            )
        #: Per-flow measurement state, kept on the conntrack entries.
        self.flows = _FlowStates(conntrack)
        #: Every T_LB sample folded into the estimator, in time order.
        self.samples = ColumnLog(SampleRecord, "qooqq")
        #: (epoch_end_time, chosen index) per epoch end, all flows.
        self.epochs: List[Tuple[int, int]] = []
        self.censored_samples = 0
        # Hot-path flags and methods, hoisted once: _on_packet runs per
        # forwarded packet and these do not change after construction
        # (the conntrack table and estimator are never reassigned).
        self._censor = self.config.censor_retransmissions
        self._ensemble_config = self.config.ensemble
        self._entry = conntrack.entry
        self._est_observe = self.estimator.observe
        self._sample_appends = tuple(column.append for column in self.samples.columns)
        self._was_invalid: Dict[str, bool] = {}
        # Sample-driven ladder-evaluation throttle (see
        # DegradationConfig.min_evaluate_gap); the periodic check always
        # evaluates regardless.
        self._eval_gap = 0
        self._last_eval = -1
        #: The network's PacketSlab; the tap reads packet fields straight
        #: from its columns.
        self._slab = lb.network.slab
        if self.quality is not None:
            self._wire_resilience(resilience)
        conntrack.state_owner = self
        lb.add_tap(self._on_packet)

    @property
    def sample_count(self) -> int:
        """Total ``T_LB`` samples produced."""
        return self.estimator.total_samples

    def shift_events(self) -> list:
        """Executed weight updates (empty in measurement-only mode)."""
        if self.controller is None:
            return []
        return self.controller.updates

    def mode_transitions(self) -> List["ModeTransition"]:
        """The ladder's telemetry events (empty without resilience)."""
        if self.ladder is None:
            return []
        return self.ladder.transitions

    # ------------------------------------------------------------------

    def _wire_resilience(self, resilience: "ResilienceConfig") -> None:
        # Imported lazily: repro.core loads before repro.resilience can
        # finish initializing (resilience.ladder imports the controller).
        from repro.resilience.ladder import ControllerMode, DegradationLadder
        from repro.resilience.quality import SignalGrade

        self._feedback_mode = ControllerMode.FEEDBACK
        self._invalid_grade = SignalGrade.INVALID
        sim = self.lb.network.sim
        for name in self.lb.pool.names():
            self.quality.register(name, sim.now)
        controller = (
            self.controller
            if isinstance(self.controller, AlphaShiftController)
            else None
        )
        self.ladder = DegradationLadder(
            self.lb.pool, self.quality, resilience.ladder, controller=controller
        )
        self._eval_gap = resilience.ladder.min_evaluate_gap
        interval = resilience.ladder.check_interval

        def tick() -> None:
            self._evaluate(sim.now)
            sim.schedule_fire(interval, tick)

        sim.schedule_fire(interval, tick)

    def on_backend_added(self, name: str, now: int) -> None:
        """Reset measurement state for a backend entering the pool.

        The fleet plane reuses backend names across terminate/provision
        cycles; stale estimates, breaker history, or signal-quality state
        from the previous incarnation must not grade the new one.
        """
        self.estimator.forget(name)
        self._was_invalid.pop(name, None)
        if self.breakers is not None:
            self.breakers.reset(name)
        if self.quality is not None:
            # Re-anchor the age clock: register() is a no-op for known
            # names, so drop the old tracker state first.
            self.quality.forget(name)
            self.quality.register(name, now)

    def on_backend_removed(self, name: str, now: int) -> None:
        """Drop measurement state for a backend leaving the pool.

        Called *before* the pool removal when a drain starts, so the
        ladder never sees the draining backend's decaying signal as a
        reason to HOLD.
        """
        self.estimator.forget(name)  # drops the quality tracker's state too
        self._was_invalid.pop(name, None)

    def _evaluate(self, now: int) -> None:
        """Walk the ladder and feed invalidation edges to the breakers."""
        self._last_eval = now
        self.ladder.evaluate(now)
        if self.breakers is None or self.quality is None:
            return
        for name in self.lb.pool.names():
            invalid = self.quality.grade(name, now) is self._invalid_grade
            if invalid and not self._was_invalid.get(name, False):
                # One failure per invalidation episode: the signal died.
                self.breakers.record_failure(name, now)
            self._was_invalid[name] = invalid

    def _on_packet(
        self, now: int, flow: FlowKey, backend: str, packet: int
    ) -> None:
        # Only the handle's flow id, flags (and, when censoring, its
        # sequence range) are read.  The LB looked the flow up, or
        # inserted it, just before calling its taps: the entry exists.
        slab = self._slab
        entry = self._entry(slab.fid[packet])
        state = entry.state
        if state is None:
            state = entry.state = _FlowState(
                EnsembleTimeout(self._ensemble_config, self.epochs)
            )
            self.flows.stats.created += 1
        flags = slab.flags[packet]
        if self._censor:
            state.observe_seq_fields(
                flags, slab.seq[packet], slab.payload_len[packet]
            )
        ensemble = state.ensemble
        t_lb = ensemble.observe(now)

        if flags & _FIN_OR_RST:
            # The flow is ending; its measurement state is no longer useful.
            entry.state = None

        if t_lb is None:
            return

        if self._censor and state.tainted:
            # This batch gap straddles a loss-recovery stall; drop it.
            state.tainted = False
            self.censored_samples += 1
            return

        self._est_observe(backend, now, t_lb)
        log_time, log_flow, log_backend, log_t_lb, log_delta = self._sample_appends
        log_time(now)
        log_flow(flow)
        log_backend(backend)
        log_t_lb(t_lb)
        log_delta(ensemble.current_timeout)

        if self.breakers is not None:
            # A T_LB sample is live-traffic evidence the backend answers.
            self.breakers.record_success(backend, now)
        if self.ladder is not None:
            # _feedback_mode was cached by _wire_resilience; no per-packet
            # import of the resilience plane.
            if self._eval_gap == 0 or now - self._last_eval >= self._eval_gap:
                self._evaluate(now)
            if self.ladder.mode is not self._feedback_mode:
                return  # weights frozen: the signal is not trusted
        if self.controller is not None:
            self.controller.maybe_update(now)
