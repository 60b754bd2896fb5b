"""The paper's experiments, as runnable definitions and their reports.

Each function builds, runs, and distills one of the paper's figures (or
quantified claims) into a result object whose fields are the same series
the paper plots, and each result renders its one report: the CLI verb,
the bench and the example all print it.  EXPERIMENTS.md records the
outcomes.

* :func:`run_fig2` — one backlogged flow across an RTT step: panel (a)
  is FIXEDTIMEOUT at fixed δ = 64 µs / 1024 µs, panel (b) the shipped
  :class:`~repro.core.feedback.InbandFeedback` loop running
  ENSEMBLETIMEOUT, both against ground truth (Fig 2).
* :func:`run_fig3`  — p95 GET latency over time, plain Maglev vs the
  latency-aware LB, 1 ms injection mid-run (Fig 3).
* :func:`run_reaction` — reaction-time decomposition of the §1/§4 claim
  ("adapts to a 1 ms inflation ... in milliseconds").
* :func:`run_error_decomposition` — the §3 error identity
  ``T_LB − T_client = O3 − O1 + T_trigger``; :func:`error_table`
  renders one row per think time.

The Fig 2 scenario rides on a *backlogged* flow through the LB toward a
sink server.  Client-side jitter (scheduling noise before the LB) is
what makes too-small timeouts produce false batch splits, reproducing
the figure's "too many low estimates" band; it defaults to a 0–96 µs
uniform jitter on the client→LB pipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.app.client import BacklogClient, MemtierConfig
from repro.app.protocol import Op
from repro.app.server import SinkApp
from repro.core.ensemble import EnsembleConfig
from repro.core.feedback import FeedbackConfig, InbandFeedback
from repro.core.fixed_timeout import FixedTimeout
from repro.errors import ConfigError
from repro.faults.model import DelayFault
from repro.harness.config import (
    NetworkParams,
    PolicyName,
    ScenarioConfig,
)
from repro.insight.config import InsightConfig
from repro.obs.config import ObsConfig
from repro.harness.report import format_table
from repro.harness.runner import ScenarioResult, run_scenario
from repro.harness.scenario import VIP_HOST, wire_dsr
from repro.lb.backend import Backend, BackendPool
from repro.lb.dataplane import LoadBalancer
from repro.lb.policies import MaglevPolicy
from repro.net.addr import Endpoint, FlowKey
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.telemetry.quantiles import exact_quantile
from repro.telemetry.timeseries import TimeSeries
from repro.transport.ack_policy import DelayedAck
from repro.transport.connection import TransportConfig
from repro.transport.endpoint import Host
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS, to_micros, to_millis

VIP_PORT = 9000


# ======================================================================
# Fig 2 substrate: one backlogged flow through the LB
# ======================================================================


@dataclass
class BacklogConfig:
    """The Fig 2 single-flow scenario."""

    seed: int = 7
    duration: int = 6 * SECONDS
    #: RTT step (paper Fig 2: true RTT increases at t = 3 s).
    step_at: int = 3 * SECONDS
    #: Extra one-way delay injected on the LB→server pipe at the step.
    step_extra: int = 750 * MICROSECONDS
    #: Max uniform client-side jitter before the LB (scheduling noise);
    #: the source of false batch splits at small δ.
    jitter_max: int = 96 * MICROSECONDS
    #: Rare long client-side stalls (OS preemption, §2.2): with
    #: probability ``spike_prob`` a packet is delayed by
    #: uniform(spike_min, spike_max) instead.  These produce the "small
    #: number of erroneously large outputs" of too-large fixed timeouts.
    spike_prob: float = 0.002
    spike_min: int = 1100 * MICROSECONDS
    spike_max: int = 2 * MILLISECONDS
    #: Flow-control window: small enough to stay window-limited (bursty).
    window: int = 16 * 1024
    mss: int = 1448
    #: The ENSEMBLETIMEOUT parameters Fig 2(b)'s loop tracks with.
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        self.ensemble.validate()


@dataclass
class BacklogRun:
    """A built backlog scenario plus its probes."""

    config: BacklogConfig
    sim: Simulator
    lb: LoadBalancer
    client: BacklogClient
    ground_truth: TimeSeries  # (t, true RTT) from the client's transport


def build_backlog(config: BacklogConfig) -> BacklogRun:
    """Assemble the single-flow Fig 2 scenario (no probes attached yet)."""
    sim = Simulator()
    network = Network(sim)
    streams = RandomStreams(config.seed)
    jitter_rng = streams.get("net.jitter")

    client_host = Host(network, "client0")
    server_host = Host(network, "server0")
    pool = BackendPool([Backend("server0")])
    vip = Endpoint(VIP_HOST, VIP_PORT)
    lb = LoadBalancer(network, "lb", vip, pool, MaglevPolicy(pool, table_size=251))

    jitter = None
    if config.jitter_max > 0:

        def jitter() -> int:
            if config.spike_prob > 0 and jitter_rng.random() < config.spike_prob:
                return jitter_rng.randint(config.spike_min, config.spike_max)
            return jitter_rng.randrange(config.jitter_max)

    wire_dsr(
        network, "lb", ["server0"], ["client0"], NetworkParams(), client_jitter=jitter
    )

    SinkApp(server_host, VIP_PORT)
    transport = TransportConfig(window=config.window, mss=config.mss)
    client = BacklogClient(client_host, vip, transport=transport)

    # The RTT step, expressed as a chaos-plane fault.
    from repro.faults.injector import Injector
    from repro.faults.schedule import FaultSchedule

    injector = Injector(
        sim, network, server_names=["server0"], client_names=["client0"]
    )
    injector.arm(
        FaultSchedule(
            [DelayFault(start=config.step_at, extra=config.step_extra, node="server0")]
        ),
        config.duration,
    )

    return BacklogRun(
        config=config,
        sim=sim,
        lb=lb,
        client=client,
        ground_truth=client.rtt_samples,
    )


# ======================================================================
# Fig 2: one backlog run, both panels
# ======================================================================

#: Panel (a)'s fixed timeouts: one below the batch pause, one above it.
FIG2A_DELTAS = (64 * MICROSECONDS, 1024 * MICROSECONDS)


@dataclass
class Fig2Result:
    """Both panels of Fig 2 from one backlog run, split at the RTT step.

    Panel (a) is FIXEDTIMEOUT at each δ of :data:`FIG2A_DELTAS`; panel
    (b) is the shipped loop, :class:`~repro.core.feedback.InbandFeedback`
    in measurement-only mode, running ENSEMBLETIMEOUT.
    """

    config: BacklogConfig
    ground_truth: TimeSeries                   # (t, true RTT)
    fixed: Dict[int, TimeSeries]               # panel (a): δ → (t, T_LB)
    estimates: TimeSeries                      # panel (b): (t, T_LB)
    chosen_timeouts: TimeSeries                # panel (b): (t, δₘ) per epoch

    @property
    def epochs(self) -> int:
        """Epochs the loop completed."""
        return len(self.chosen_timeouts)

    def window(self, series: TimeSeries, after_step: bool) -> List[float]:
        """The series' values before or after the RTT step."""
        cut = self.config.step_at
        return [v for t, v in series.items() if (t >= cut) == after_step]

    def median(self, series: TimeSeries, after_step: bool) -> Optional[float]:
        """Median of the series before or after the step (None if empty)."""
        values = self.window(series, after_step)
        return exact_quantile(values, 0.5) if values else None

    def tracking_error(self, after_step: bool) -> Optional[float]:
        """|median(T_LB) − median(T_client)| / median(T_client), panel (b)."""
        est = self.median(self.estimates, after_step)
        truth = self.median(self.ground_truth, after_step)
        if est is None or truth is None or truth == 0:
            return None
        return abs(est - truth) / truth

    def panel_a(self) -> str:
        """Sample counts and medians per fixed δ and for the truth."""
        series = [
            ("T_LB @ delta=%dus" % (delta // MICROSECONDS), estimates)
            for delta, estimates in self.fixed.items()
        ]
        series.append(("T_client (ground truth)", self.ground_truth))
        rows = [
            (
                label,
                len(self.window(values, False)),
                _cell("%.0f", self.median(values, False), MICROSECONDS),
                len(self.window(values, True)),
                _cell("%.0f", self.median(values, True), MICROSECONDS),
            )
            for label, values in series
        ]
        headers = ("#pre-step", "median pre (us)", "#post-step", "median post (us)")
        return format_table(("series",) + headers, rows)

    def panel_b(self) -> str:
        """Median T_LB against the truth per window, then δₘ per epoch."""
        summary = format_table(
            ("window", "median T_LB (us)", "median T_client (us)", "rel.err"),
            [
                (
                    label,
                    _cell("%.0f", self.median(self.estimates, after), MICROSECONDS),
                    _cell("%.0f", self.median(self.ground_truth, after), MICROSECONDS),
                    _cell("%.3f", self.tracking_error(after)),
                )
                for label, after in (("before step", False), ("after step", True))
            ],
        )
        timeline = format_table(
            ("t (ms)", "chosen delta_m (us)"),
            [
                ("%.0f" % to_millis(t), "%.0f" % to_micros(v))
                for t, v in self.chosen_timeouts.items()
            ],
        )
        return summary + "\n\nchosen timeout per epoch:\n" + timeline


def run_fig2(config: BacklogConfig) -> Fig2Result:
    """Fig 2(a) and 2(b) on one backlog run across an RTT step."""
    run = build_backlog(config)
    feedback = InbandFeedback(
        run.lb, FeedbackConfig(ensemble=config.ensemble, control=False)
    )

    # Panel (a): FIXEDTIMEOUT per flow at each fixed δ.
    trackers: Dict[Tuple[int, FlowKey], FixedTimeout] = {}
    fixed: Dict[int, TimeSeries] = {
        d: TimeSeries(name="T_LB@%dus" % (d // MICROSECONDS)) for d in FIG2A_DELTAS
    }

    def probe(now: int, flow: FlowKey, backend: str, packet: int) -> None:
        for delta, series in fixed.items():
            tracker = trackers.get((delta, flow))
            if tracker is None:
                tracker = trackers[delta, flow] = FixedTimeout(delta)
            t_lb = tracker.observe(now)
            if t_lb is not None:
                series.append(now, float(t_lb))

    run.lb.add_tap(probe)
    run.sim.run_until(config.duration)

    estimates = TimeSeries(name="T_LB_ensemble")
    for sample in feedback.samples:
        estimates.append(sample.time, float(sample.t_lb))
    timeouts = config.ensemble.timeouts
    chosen = TimeSeries(name="delta_m")
    for time, index in feedback.epochs:
        chosen.append(time, float(timeouts[index]))
    return Fig2Result(
        config=config,
        ground_truth=run.ground_truth,
        fixed=fixed,
        estimates=estimates,
        chosen_timeouts=chosen,
    )


# ======================================================================
# Fig 3: the end-to-end tail-latency experiment
# ======================================================================


@dataclass
class Fig3Config:
    """Scaled-down Fig 3: two memcached-like servers, mid-run injection.

    The paper ran 200 s with injection at t = 100 s; simulation runs a
    shorter window with the same structure (injection at the midpoint).
    """

    seed: int = 11
    duration: int = 4 * SECONDS
    injection_extra: int = 1 * MILLISECONDS
    injected_server: str = "server0"
    n_servers: int = 2
    bucket: int = 100 * MILLISECONDS
    memtier: MemtierConfig = field(default_factory=MemtierConfig)
    #: Observability plane for each arm (None keeps it off).
    obs: Optional[ObsConfig] = None
    #: Insight plane for each arm (None keeps it off).
    insight: Optional[InsightConfig] = None

    @property
    def injection_at(self) -> int:
        """Injection fires at the midpoint of the run."""
        return self.duration // 2

    def validate(self) -> None:
        """Raise ConfigError on malformed values."""
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        self.memtier.validate()


@dataclass
class Fig3Result:
    """Both arms of Fig 3 plus the headline numbers."""

    config: Fig3Config
    results: Dict[str, ScenarioResult]         # policy value → result

    def p95_series(self, policy: str) -> List[Tuple[int, float]]:
        """(bucket start ns, p95 GET ns) series for one arm."""
        return self.results[policy].latency_series(
            bucket=self.config.bucket, op=Op.GET, q=0.95
        )

    def p95_window(
        self, policy: str, start: int, end: int
    ) -> Optional[float]:
        """p95 GET latency over a completion-time window."""
        values = self.results[policy].latencies(Op.GET, start, end)
        if not values:
            return None
        return exact_quantile(values, 0.95)

    def steady_state_p95(self, policy: str) -> Optional[float]:
        """p95 before the injection (after 10% warmup)."""
        return self.p95_window(
            policy, self.config.duration // 10, self.config.injection_at
        )

    def post_injection_p95(self, policy: str, settle: int = 0) -> Optional[float]:
        """p95 after the injection (+optional settle time)."""
        return self.p95_window(
            policy, self.config.injection_at + settle, self.config.duration
        )

    def report(self) -> str:
        """Both arms' p95 per bucket, then their p95 before and after
        the fault (the latter from ``duration // 8`` after it)."""
        maglev = dict(self.p95_series("maglev"))
        feedback = dict(self.p95_series("feedback"))
        rows = [
            (
                "%.0f" % to_millis(bucket),
                _cell("%.3f", maglev.get(bucket), MILLISECONDS),
                _cell("%.3f", feedback.get(bucket), MILLISECONDS),
                "<- 1ms injected" if bucket == self.config.injection_at else "",
            )
            for bucket in sorted(set(maglev) | set(feedback))
        ]
        table = format_table(
            ("t (ms)", "maglev p95 (ms)", "feedback p95 (ms)", ""), rows
        )
        settle = self.config.duration // 8
        summary = format_table(
            ("arm", "pre-fault p95 (ms)", "post-fault p95 (ms)"),
            [
                (
                    policy,
                    _cell("%.3f", self.steady_state_p95(policy), MILLISECONDS),
                    _cell(
                        "%.3f", self.post_injection_p95(policy, settle), MILLISECONDS
                    ),
                )
                for policy in ("maglev", "feedback")
            ],
        )
        return table + "\n\n" + summary


def run_fig3(
    config: Optional[Fig3Config] = None,
    policies: Sequence[PolicyName] = (PolicyName.MAGLEV, PolicyName.FEEDBACK),
) -> Fig3Result:
    """Run the Fig 3 experiment for each policy arm (identical seeds)."""
    config = config or Fig3Config()
    results: Dict[str, ScenarioResult] = {}
    for policy in policies:
        scenario_config = ScenarioConfig(
            seed=config.seed,
            duration=config.duration,
            n_servers=config.n_servers,
            policy=policy,
            memtier=config.memtier,
            faults=[
                DelayFault(
                    start=config.injection_at,
                    node=config.injected_server,
                    extra=config.injection_extra,
                )
            ],
            obs=config.obs or ObsConfig(),
            insight=config.insight or InsightConfig(),
            warmup=config.duration // 10,
        )
        results[policy.value] = run_scenario(scenario_config)
    return Fig3Result(config=config, results=results)


def fig3_robustness_point(config: Fig3Config) -> Dict[str, object]:
    """Both Fig 3 arms for one seed, distilled into a flat sweep row.

    Values are raw nanoseconds so downstream assertions (e.g. the
    seed-robustness bench) stay exact; ``settle`` matches the bench's
    ``duration // 8`` post-injection settling window.
    """
    result = run_fig3(config)
    settle = config.duration // 8
    return {
        "seed": config.seed,
        "maglev_pre_p95_ns": result.steady_state_p95("maglev"),
        "maglev_post_p95_ns": result.post_injection_p95("maglev", settle),
        "feedback_pre_p95_ns": result.steady_state_p95("feedback"),
        "feedback_post_p95_ns": result.post_injection_p95("feedback", settle),
    }


# ======================================================================
# Reaction-time claim (§1, §4)
# ======================================================================


@dataclass
class ReactionResult:
    """How fast the feedback loop responded to the injection."""

    injection_at: int
    first_shift_after: Optional[int]
    injected_weight_floor_at: Optional[int]
    shifts_total: int

    @property
    def reaction_ns(self) -> Optional[int]:
        """Injection → first weight shift."""
        if self.first_shift_after is None:
            return None
        return self.first_shift_after - self.injection_at

    def report(self) -> str:
        """The injection time and the lags to the first shift and the floor."""
        floor_lag = None
        if self.injected_weight_floor_at is not None:
            floor_lag = self.injected_weight_floor_at - self.injection_at
        lag = "+%.2f ms"
        rows = [
            ("injection at", "%.1f ms" % to_millis(self.injection_at)),
            ("first shift after injection", _cell(lag, self.reaction_ns, MILLISECONDS)),
            ("injected server at weight floor", _cell(lag, floor_lag, MILLISECONDS)),
            ("total shifts in run", self.shifts_total),
        ]
        return format_table(("metric", "value"), rows)


def run_reaction(config: Optional[Fig3Config] = None) -> ReactionResult:
    """Measure the §4 claim: traffic shifts within milliseconds."""
    config = config or Fig3Config()
    fig3 = run_fig3(config, policies=(PolicyName.FEEDBACK,))
    result = fig3.results[PolicyName.FEEDBACK.value]
    injection = config.injection_at

    first_shift = result.first_shift_after(injection)
    feedback = result.scenario.feedback
    assert feedback is not None and feedback.controller is not None

    # When did the injected server's weight reach the floor?
    floor_time: Optional[int] = None
    floor = feedback.controller.config.weight_floor
    for event in feedback.controller.updates:
        weights = event.weights_after
        total = sum(weights.values())
        injected = weights.get(config.injected_server, 0.0)
        if event.time >= injection and injected <= floor * total * 1.01:
            floor_time = event.time
            break

    return ReactionResult(
        injection_at=injection,
        first_shift_after=first_shift,
        injected_weight_floor_at=floor_time,
        shifts_total=len(feedback.controller.updates),
    )


# ======================================================================
# Error-model claim (§3): T_LB − T_client = O3 − O1 + T_trigger
# ======================================================================


#: CLAIM-ERR's think times, i.e. the T_trigger values it checks.
ERROR_THINK_TIMES = (0, 100 * MICROSECONDS, 500 * MICROSECONDS, 2 * MILLISECONDS)


@dataclass
class ErrorDecompositionResult:
    """Measured error of the proxy latency vs the paper's identity.

    The medians are None when the run produced no sample of their kind
    (a run too short for one request or one ``T_LB`` sample).
    """

    think_time: int
    median_t_lb: Optional[float]
    median_t_client: Optional[float]
    #: O3 − O1 is 0 by construction (symmetric client↔LB path, no jitter).
    predicted_error: float

    @property
    def measured_error(self) -> Optional[float]:
        """median(T_LB) − median(T_client) (ns)."""
        if self.median_t_lb is None or self.median_t_client is None:
            return None
        return self.median_t_lb - self.median_t_client

    @property
    def identity_gap(self) -> Optional[float]:
        """|measured − predicted| (ns); small gap validates the model."""
        measured = self.measured_error
        if measured is None:
            return None
        return abs(measured - self.predicted_error)


def error_table(results: Sequence[ErrorDecompositionResult]) -> str:
    """One row per think time: both medians, the error and the identity."""
    rows = [
        (
            "%.0f" % to_micros(result.think_time),
            _cell("%.1f", result.median_t_client, MICROSECONDS),
            _cell("%.1f", result.median_t_lb, MICROSECONDS),
            _cell("%.1f", result.measured_error, MICROSECONDS),
            _cell("%.1f", result.predicted_error, MICROSECONDS),
            _cell("%.1f", result.identity_gap, MICROSECONDS),
        )
        for result in results
    ]
    return format_table(
        (
            "T_trigger=think (us)",
            "median T_client (us)",
            "median T_LB (us)",
            "measured err (us)",
            "predicted err (us)",
            "identity gap (us)",
        ),
        rows,
    )


def run_error_decomposition(
    think_time: int = 0,
    duration: int = 1 * SECONDS,
    seed: int = 3,
) -> ErrorDecompositionResult:
    """Single serialized client: each response triggers the next request.

    With pipeline = 1 the next request *is* the causally-triggered
    packet, so ``T_trigger = think_time`` exactly; with a symmetric,
    jitter-free client↔LB path, ``O3 − O1 = 0``.  The paper's identity
    then predicts ``median(T_LB) − median(T_client) = think_time``.

    The client uses delayed ACKs so its cumulative ACK piggybacks on the
    next request.  With immediate ACKs the pure ACK for the response —
    itself a causally-triggered packet with ``T_trigger ≈ 0`` — would
    reach the LB first and split the batch early; that regime is also
    interesting (it *reduces* the error) and is exercised by the
    ack-policy ablation instead.
    """
    memtier = MemtierConfig(
        connections=1,
        pipeline=1,
        requests_per_connection=1_000_000,  # one long-lived connection
        think_time=think_time,
        transport=TransportConfig(ack_policy_factory=DelayedAck),
    )
    config = ScenarioConfig(
        seed=seed,
        duration=duration,
        n_servers=1,
        policy=PolicyName.FEEDBACK,
        memtier=memtier,
        warmup=duration // 10,
    )
    config.feedback.control = False  # measurement only
    result = run_scenario(config)

    feedback = result.scenario.feedback
    assert feedback is not None
    t_lb_values = [float(s.t_lb) for s in feedback.samples]
    t_client_values = [
        float(r.latency)
        for r in result.records
        if r.completed_at >= config.warmup
    ]
    return ErrorDecompositionResult(
        think_time=think_time,
        median_t_lb=exact_quantile(t_lb_values, 0.5) if t_lb_values else None,
        median_t_client=(
            exact_quantile(t_client_values, 0.5) if t_client_values else None
        ),
        predicted_error=float(think_time),
    )


def _cell(fmt: str, value: Optional[float], unit: int = 1) -> str:
    """``fmt % (value / unit)``, or ``-`` for a missing value."""
    return "-" if value is None else fmt % (value / unit)
