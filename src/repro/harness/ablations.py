"""Parameter sweeps around the paper's design choices (DESIGN.md §5).

Every ablation is data: a :class:`~repro.sweep.spec.SweepSpec` (a base
config plus the one knob it varies, every point on the base seed) and a
row function that reads the swept value, and the fault
(``config.faults[0]``), from the config it runs.  :data:`ABLATIONS` maps
each ``repro ablation`` name to that pair; :func:`run_ablation` runs it
through :func:`~repro.sweep.points.run_sweep`, so ``jobs=`` and
``store=`` work as for any sweep.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from repro.app.protocol import Op
from repro.core.feedback import FeedbackConfig
from repro.faults.model import DelayFault
from repro.harness.churn import ChurnConfig, churn_point
from repro.harness.config import NetworkParams, PolicyName, ScenarioConfig
from repro.harness.figures import BacklogConfig, run_fig2
from repro.harness.multilb import MultiLbConfig, multilb_point
from repro.harness.runner import ScenarioResult, run_scenario
from repro.sweep.points import run_sweep
from repro.sweep.spec import SweepSpec
from repro.telemetry.quantiles import exact_quantile
from repro.transport.ack_policy import DelayedAck, ImmediateAck
from repro.transport.connection import TransportConfig
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS, to_micros, to_millis

Row = Dict[str, object]

#: ABL-ENSEMBLE's variants: report label → timeout ladder.
ENSEMBLES: Dict[str, List[int]] = {
    "narrow-3 (64..256us)": [64 * MICROSECONDS * (2 ** i) for i in range(3)],
    "paper-7 (64us..4ms)": [64 * MICROSECONDS * (2 ** i) for i in range(7)],
    "wide-9 (16us..4ms)": [16 * MICROSECONDS * (2 ** i) for i in range(9)],
    "coarse-4 (64us..4ms x4)": [64 * MICROSECONDS * (4 ** i) for i in range(4)],
}

#: ABL-ACK's packet-timing variants: report label → transport.
TRANSPORTS: Dict[str, TransportConfig] = {
    "immediate-acks": TransportConfig(ack_policy_factory=ImmediateAck),
    "delayed-acks": TransportConfig(ack_policy_factory=DelayedAck),
    "paced-1gbps": TransportConfig(pacing_rate_bps=1_000_000_000),
}


def epoch_row(config: BacklogConfig) -> Row:
    """ABL-EPOCH: short epochs adapt fast on few samples, long ones go stale."""
    result = run_fig2(config)
    return {
        "epoch_ms": config.ensemble.epoch // MILLISECONDS,
        "epochs": result.epochs,
        "err_pre": _fmt_ratio(result.tracking_error(False)),
        "err_post": _fmt_ratio(result.tracking_error(True)),
        "est_post_us": _fmt_us(result.median(result.estimates, True)),
        "truth_post_us": _fmt_us(result.median(result.ground_truth, True)),
    }


def ensemble_row(config: BacklogConfig) -> Row:
    """ABL-ENSEMBLE: a too-narrow ensemble cannot bracket the stepped RTT."""
    result = run_fig2(config)
    timeouts = config.ensemble.timeouts
    return {
        "ensemble": _name_of(ENSEMBLES, timeouts),
        "k": len(timeouts),
        "err_pre": _fmt_ratio(result.tracking_error(False)),
        "err_post": _fmt_ratio(result.tracking_error(True)),
        "est_post_us": _fmt_us(result.median(result.estimates, True)),
    }


def alpha_row(config: ScenarioConfig) -> Row:
    """ABL-ALPHA: small α drains the slow server in many shifts, large in few."""
    result = run_scenario(config)
    injection = config.faults[0].start
    first = result.first_shift_after(injection)
    post = result.latencies(Op.GET, injection + config.duration // 8, None)
    return {
        "alpha": config.feedback.controller.alpha,
        "shifts": len(result.shift_times()),
        "react_ms": _fmt_ms(None if first is None else first - injection),
        "post_p95_ms": _fmt_ms(exact_quantile(post, 0.95) if post else None),
        "slow_server_share": "%.3f" % _injected_share(result, config),
    }


def hysteresis_row(config: ScenarioConfig) -> Row:
    """ABL-HYST: at ratio 1.0 (the paper's verbatim rule) noise drives shifts."""
    result = run_scenario(config)
    injection = config.faults[0].start
    shifts = result.shift_times()
    first = result.first_shift_after(injection)
    return {
        "hysteresis": config.feedback.controller.hysteresis_ratio,
        "pre_injection_shifts": sum(1 for t in shifts if t < injection),
        "post_injection_shifts": sum(1 for t in shifts if t >= injection),
        "react_ms": _fmt_ms(None if first is None else first - injection),
    }


def policy_row(config: ScenarioConfig) -> Row:
    """ABL-POLICY: latency-oblivious policies keep feeding the slow server."""
    result = run_scenario(config)
    injection = config.faults[0].start
    duration = config.duration
    pre = result.latencies(Op.GET, duration // 10, injection)
    post = result.latencies(Op.GET, injection + duration // 8, duration)
    return {
        "policy": config.policy.value,
        "pre_p95_ms": _fmt_ms(exact_quantile(pre, 0.95) if pre else None),
        "post_p95_ms": _fmt_ms(exact_quantile(post, 0.95) if post else None),
        "slow_server_share": "%.3f" % _injected_share(result, config),
        "requests": len(result.records),
    }


def far_clients_row(config: ScenarioConfig) -> Row:
    """EXT-FAR: far clients inflate every estimate, not the injected gap."""
    result = run_scenario(config)
    feedback = result.scenario.feedback
    network = config.network
    est0 = feedback.estimator.estimate("server0")
    est1 = feedback.estimator.estimate("server1")
    gap = None if est0 is None or est1 is None else est0 - est1
    extra = network.client_lb_delay_overrides[0] - network.client_lb_delay
    return {
        "client_extra_us": extra // MICROSECONDS,
        "est_injected_us": _fmt_us(est0),
        "est_healthy_us": _fmt_us(est1),
        "gap_us": _fmt_us(gap),
        "samples": feedback.sample_count,
    }


def pipeline_row(config: ScenarioConfig) -> Row:
    """ABL-PIPELINE: deeper pipelines shorten the pauses samples need."""
    result, samples, med_lb, med_truth = _measurement(config)
    return {
        "pipeline": config.memtier.pipeline,
        "requests": len(result.records),
        "t_lb_samples": samples,
        "med_t_lb_us": _fmt_us(med_lb),
        "med_t_client_us": _fmt_us(med_truth),
    }


def ack_pacing_row(config: ScenarioConfig) -> Row:
    """ABL-ACK: delayed ACKs and pacing move the median T_LB off T_client."""
    _result, samples, med_lb, med_truth = _measurement(config)
    error = None
    if med_lb is not None and med_truth:
        error = abs(med_lb - med_truth) / med_truth
    return {
        "transport": _name_of(TRANSPORTS, config.memtier.transport),
        "t_lb_samples": samples,
        "med_t_lb_us": _fmt_us(med_lb),
        "med_t_client_us": _fmt_us(med_truth),
        "rel_error": _fmt_ratio(error),
    }


#: Fig 3's stimulus: server0 gains 1 ms at the midpoint of a 2 s run.
_SLOW_SERVER0 = DelayFault(start=1 * SECONDS, node="server0", extra=1 * MILLISECONDS)
_BACKLOG = BacklogConfig(duration=2 * SECONDS, step_at=1 * SECONDS)


def _two_seconds(seed: int, control: bool = True, faults=(_SLOW_SERVER0,)):
    """A 2 s feedback run; ``control=False`` isolates the measurement."""
    return ScenarioConfig(
        seed=seed,
        duration=2 * SECONDS,
        policy=PolicyName.FEEDBACK,
        feedback=FeedbackConfig(control=control),
        faults=list(faults),
        warmup=200 * MILLISECONDS,
    )


def _ablation(name: str, base: object, row: Callable, **axes) -> Tuple[str, tuple]:
    return name, (SweepSpec(base=base, name=name, derive_seeds=False, **axes), row)


_EPOCHS = [ms * MILLISECONDS for ms in (8, 16, 32, 64, 128, 256)]
_NEAR = NetworkParams().client_lb_delay
_FAR = [[_NEAR + us * MICROSECONDS] for us in (0, 100, 500, 2000)]
_POLICIES = [
    "maglev", "feedback", "oracle", "round_robin", "least_connections", "power_of_two"
]

#: ``repro ablation`` name → (spec, row function).
ABLATIONS: Dict[str, Tuple[SweepSpec, Callable[[object], Row]]] = dict(
    [
        _ablation("epoch", _BACKLOG, epoch_row, grid={"ensemble.epoch": _EPOCHS}),
        _ablation(
            "ensemble",
            _BACKLOG,
            ensemble_row,
            points=[{"ensemble.timeouts": t} for t in ENSEMBLES.values()],
        ),
        _ablation(
            "alpha",
            _two_seconds(11),
            alpha_row,
            grid={"feedback.controller.alpha": [0.02, 0.05, 0.10, 0.20, 0.40]},
        ),
        _ablation(
            "hysteresis",
            _two_seconds(11),
            hysteresis_row,
            grid={"feedback.controller.hysteresis_ratio": [1.0, 1.1, 1.2, 1.5, 2.0]},
        ),
        _ablation("policies", _two_seconds(11), policy_row, grid={"policy": _POLICIES}),
        _ablation(
            "far-clients",
            _two_seconds(5, control=False),
            far_clients_row,
            grid={"network.client_lb_delay_overrides": _FAR},
        ),
        _ablation(
            "pipeline",
            _two_seconds(9, control=False, faults=()),
            pipeline_row,
            grid={"memtier.pipeline": [1, 2, 4, 8]},
        ),
        _ablation(
            "ack-pacing",
            _two_seconds(13, control=False, faults=()),
            ack_pacing_row,
            points=[{"memtier.transport": t} for t in TRANSPORTS.values()],
        ),
        _ablation("multilb", MultiLbConfig(), multilb_point, grid={"n_lbs": [1, 2, 4]}),
        _ablation("churn", ChurnConfig(), churn_point, seeds=[29, 31, 37]),
    ]
)


def run_ablation(name: str, jobs: int = 1, store=None) -> List[Row]:
    """Run the ablation ``name`` (a key of :data:`ABLATIONS`); its rows."""
    spec, row = ABLATIONS[name]
    return run_sweep(spec, jobs=jobs, store=store, runner=row).rows


def _measurement(config: ScenarioConfig) -> tuple:
    """Run ``config``: (result, T_LB sample count, median T_LB, median T_client)."""
    result = run_scenario(config)
    feedback = result.scenario.feedback
    t_lbs = [float(s.t_lb) for s in feedback.samples]
    truth = [float(v) for v in result.latencies(start=config.warmup)]
    return result, feedback.sample_count, _median(t_lbs), _median(truth)


def _median(values: List[float]):
    return exact_quantile(values, 0.5) if values else None


def _name_of(variants: Mapping[str, object], value: object) -> str:
    """The report label whose variant equals ``value``."""
    return next(name for name, variant in variants.items() if variant == value)


def _injected_share(result: ScenarioResult, config: ScenarioConfig) -> float:
    """Fraction of post-injection requests served by the slow server."""
    fault = config.faults[0]
    start = fault.start + config.duration // 8
    served = [r.server for r in result.records if r.completed_at >= start]
    return served.count(fault.node) / len(served) if served else 0.0


def _fmt_us(value) -> str:
    return "-" if value is None else "%.1f" % to_micros(round(value))


def _fmt_ms(value) -> str:
    return "-" if value is None else "%.3f" % to_millis(round(value))


def _fmt_ratio(value) -> str:
    return "-" if value is None else "%.3f" % value
