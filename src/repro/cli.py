"""Command-line interface: ``python -m repro <command>``.

Runs the paper's experiments and the ablation sweeps from a terminal,
printing the same reports the benchmarks persist.  Intended for quick
exploration; the benchmark suite remains the canonical reproduction.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import units
from repro.controllers import available as available_controllers
from repro.errors import ConfigError
from repro.faults import PRESETS, parse_faults
from repro.harness.ablations import ABLATIONS, run_ablation
from repro.harness.compare import RACE_PRESETS, run_compare
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.figures import (
    ERROR_THINK_TIMES,
    BacklogConfig,
    Fig3Config,
    error_table,
    run_error_decomposition,
    run_fig2,
    run_fig3,
    run_reaction,
)
from repro.harness.recovery import fault_window, time_to_recovery
from repro.harness.report import format_cell, format_rows, format_table
from repro.harness.runner import run_scenario
from repro.insight import (
    InsightConfig,
    explain_alert,
    explain_overview,
    explain_shift,
    load_timeline,
    render_diff,
)
from repro.obs import (
    ObsConfig,
    render_request_tree,
    render_shift_attribution,
    render_shift_list,
)
from repro.resilience import ResilienceConfig
from repro.sweep import (
    ResultStore,
    SweepSpec,
    load_spec,
    parse_axis,
    print_progress,
    run_sweep,
)
from repro.units import to_millis


#: Options several verbs share, each declared once.  A verb opts in with
#: :func:`_add_options`, which may override the default.
_SHARED_OPTIONS = {
    "--jobs": dict(
        type=int, default=1, help="worker processes (default %(default)s)"
    ),
    "--store": dict(
        default=".sweep-store",
        metavar="DIR",
        help="result store directory (default %(default)s)",
    ),
    "--no-cache": dict(
        action="store_true",
        help="re-simulate every point even when the store has its result",
    ),
    "--timeline": dict(
        metavar="FILE",
        default=None,
        help="arm the insight plane and write its timeline artifact "
        "(JSONL) to FILE",
    ),
    "--timelines": dict(
        metavar="DIR",
        default=None,
        help="arm the insight plane and write each run's timeline "
        "artifact into DIR",
    ),
    "--servers": dict(
        type=int, default=2, help="backend servers (default %(default)s)"
    ),
    "--clients": dict(
        type=int, default=1, help="client hosts (default %(default)s)"
    ),
    "--fault": dict(
        action="append",
        default=[],
        metavar="SPEC",
        help="chaos-plane fault: a preset name (%s) or an inline spec "
        "like 'delay:node=server0,start=1s,extra=1ms'; repeatable"
        % ", ".join(sorted(PRESETS)),
    ),
}


def _add_options(cmd: argparse.ArgumentParser, *flags: str, **defaults) -> None:
    """Add shared options to ``cmd``; ``defaults`` overrides by dest."""
    for flag in flags:
        spec = dict(_SHARED_OPTIONS[flag])
        dest = flag[2:].replace("-", "_")
        if dest in defaults:
            spec["default"] = defaults[dest]
        cmd.add_argument(flag, **spec)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-band feedback control for load balancers (HotNets '22) "
        "— reproduction experiments",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="scenario seed (default 1)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=2.0,
        help="simulated seconds (default 2.0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one scenario and print its report")
    run_cmd.add_argument(
        "--policy",
        choices=[p.value for p in PolicyName],
        default=PolicyName.FEEDBACK.value,
    )
    run_cmd.add_argument(
        "--strategy",
        choices=available_controllers(),
        default="alpha",
        help="control law for the feedback policy (default alpha)",
    )
    _add_options(run_cmd, "--servers", "--clients", "--fault", "--timeline")

    metrics_cmd = sub.add_parser(
        "metrics",
        help="run one scenario with the obs plane on and dump its metrics",
        description="Runs a scenario with the observability plane's "
        "metrics registry enabled and prints every instrument — per-"
        "backend routed packets, T_LB samples per reporting timeout, "
        "weight shifts, epoch rolls, engine stats — in Prometheus text "
        "exposition format (default) or JSON.",
    )
    metrics_cmd.add_argument(
        "--policy",
        choices=[p.value for p in PolicyName],
        default=PolicyName.FEEDBACK.value,
    )
    _add_options(metrics_cmd, "--servers", "--clients", "--fault")
    metrics_cmd.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format (default prom)",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="causal tracing on the Fig 3 feedback arm: which T_LB "
        "samples caused which weight shift",
        description="Runs the Fig 3 feedback arm with causal tracing "
        "enabled.  With no flags, lists every executed weight shift "
        "with its contributing-sample count.  --shift N prints the "
        "T_LB samples (with batch boundaries) the estimator weighed "
        "when shift N fired; --request ID prints one request's span "
        "tree from client send to the shift it contributed to.",
    )
    trace_cmd.add_argument(
        "--shift",
        type=int,
        default=None,
        metavar="N",
        help="print the contributing samples of shift N (0-based)",
    )
    trace_cmd.add_argument(
        "--request",
        type=int,
        default=None,
        metavar="ID",
        help="print the span tree of one request id",
    )

    explain_cmd = sub.add_parser(
        "explain",
        help="causal chains from the flight recorder: why did the "
        "controller shift weight, why did the SLO alert fire",
        description="Runs the Fig 3 feedback arm with the insight "
        "plane recording.  With no flags, lists the recorded shifts "
        "and SLO alerts by index.  --shift N walks the timeline "
        "backwards from weight shift N and prints the causal chain "
        "(triggering sample, estimator snapshot, controller inputs, "
        "fault windows in the lookback, dominant upstream cause); "
        "--alert N does the same from SLO alert N.",
    )
    explain_cmd.add_argument(
        "--shift",
        type=int,
        default=None,
        metavar="N",
        help="explain weight shift N (0-based)",
    )
    explain_cmd.add_argument(
        "--alert",
        type=int,
        default=None,
        metavar="N",
        help="explain SLO alert N (0-based)",
    )
    explain_cmd.add_argument(
        "--lookback",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="causal lookback behind the event (default 0.25s)",
    )
    explain_cmd.add_argument(
        "--export",
        metavar="FILE",
        default=None,
        help="also write the run's timeline artifact (JSONL) to FILE",
    )

    diff_cmd = sub.add_parser(
        "diff",
        help="align two timeline artifacts and report divergence "
        "points in weights, modes, and SLO state",
        description="Loads two JSONL timeline artifacts (written by "
        "run --timeline, explain --export, fleet --timeline, or the "
        "chaos/compare --timelines directories), aligns their frames "
        "into frame-interval buckets, and reports where the runs "
        "diverge.  Always exits 0: divergence is a finding, not a "
        "failure.",
    )
    diff_cmd.add_argument("run_a", metavar="RUN_A", help="first artifact")
    diff_cmd.add_argument("run_b", metavar="RUN_B", help="second artifact")
    diff_cmd.add_argument(
        "--eps",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="normalized per-backend weight divergence threshold "
        "(default 0.05)",
    )

    res_cmd = sub.add_parser(
        "resilience",
        help="run a fault preset with the resilience plane on and report "
        "degradation/recovery timing",
        description="Runs the FEEDBACK policy with the full resilience "
        "plane enabled (signal grading, degradation ladder, circuit "
        "breakers, health checks, client retries) against a chaos "
        "preset, then prints the scenario report plus time-to-FALLBACK "
        "and time-to-recovery.",
    )
    res_cmd.add_argument(
        "--fault",
        choices=("crash", "lossy_path", "flapping_server"),
        default="crash",
        help="chaos preset to run against (default crash)",
    )
    _add_options(res_cmd, "--servers", "--clients")

    compare_cmd = sub.add_parser(
        "compare",
        help="race the controller zoo across chaos presets and print a "
        "leaderboard",
        description="Runs every selected control law against every "
        "selected fault preset — identical seed, topology, and stimulus "
        "per lane — through the cached parallel sweep executor, then "
        "prints a per-preset leaderboard (p95/p99, time-to-recovery, "
        "shift count, weight churn, stale holds) plus overall mean-rank "
        "standings.  Re-running an unchanged race is served entirely "
        "from the result store.",
    )
    compare_cmd.add_argument(
        "--preset",
        action="append",
        default=[],
        choices=sorted(PRESETS),
        help="fault preset to race on; repeatable (default race card: %s)"
        % ", ".join(RACE_PRESETS),
    )
    compare_cmd.add_argument(
        "--controllers",
        metavar="C1,C2",
        help="comma list of control laws (default: every registered law: %s)"
        % ", ".join(available_controllers()),
    )
    _add_options(
        compare_cmd,
        "--servers",
        "--clients",
        "--jobs",
        "--store",
        "--no-cache",
        "--timelines",
        servers=3,
    )

    chaos_cmd = sub.add_parser(
        "chaos",
        help="randomized chaos campaign: generated fault schedules judged "
        "against the invariant registry",
        description="Generates seeded fault schedules from the full chaos "
        "vocabulary under an intensity budget, runs them across the "
        "selected control laws through the cached sweep executor, and "
        "judges every run against the registered safety/liveness "
        "invariants.  Violating runs are delta-debugged down to minimal "
        "replayable reproducer artifacts.  'repro chaos replay FILE' "
        "re-runs one artifact and reports whether it still violates.",
    )
    chaos_cmd.add_argument(
        "action",
        nargs="?",
        default="campaign",
        choices=("campaign", "replay"),
        help="campaign (default) or replay a reproducer artifact",
    )
    chaos_cmd.add_argument(
        "artifact",
        nargs="?",
        help="reproducer artifact path (replay only)",
    )
    chaos_cmd.add_argument(
        "--runs", type=int, default=10, help="campaign runs (default 10)"
    )
    chaos_cmd.add_argument(
        "--controllers",
        metavar="C1,C2",
        default="alpha",
        help="comma list of control laws cycled across runs, or 'all' "
        "(default alpha; registered: %s)" % ", ".join(available_controllers()),
    )
    _add_options(chaos_cmd, "--servers", "--clients", servers=3)
    chaos_cmd.add_argument(
        "--invariants",
        metavar="I1,I2",
        help="comma list of invariants to judge (default: all registered)",
    )
    chaos_cmd.add_argument(
        "--max-faults",
        type=int,
        default=4,
        help="faults per generated schedule (default 4)",
    )
    chaos_cmd.add_argument(
        "--budget",
        type=float,
        default=4.0,
        help="schedule intensity budget (default 4.0)",
    )
    chaos_cmd.add_argument(
        "--fleet-every",
        type=int,
        default=4,
        help="arm the fleet plane every Nth run (0 disables; default 4)",
    )
    chaos_cmd.add_argument(
        "--artifacts",
        default=".campaign-artifacts",
        metavar="DIR",
        help="where shrunk reproducers are written (default "
        ".campaign-artifacts)",
    )
    _add_options(chaos_cmd, "--jobs", "--store", "--no-cache", "--timelines")

    fleet_cmd = sub.add_parser(
        "fleet",
        help="elastic fleet: autoscale to 1000+ backends under diurnal load",
        description="Runs the fleet plane's elastic scenario: the pool "
        "starts small, target tracking plus a scheduled ramp grow it to "
        "peak capacity under staggered diurnal client load (with a "
        "correlated burst landing mid-scale-out), and the report prints "
        "the scaling timeline, oscillation count, affinity-violation "
        "audit, and the FRESH/STALE signal-quality census each decision "
        "saw.  With --controllers, races the zoo through the same "
        "scenario and prints a fleet leaderboard instead.",
    )
    fleet_cmd.add_argument(
        "--strategy",
        choices=available_controllers(),
        default="alpha",
        help="control law for the single-run report (default alpha)",
    )
    fleet_cmd.add_argument(
        "--controllers",
        metavar="C1,C2",
        help="race mode: comma list of control laws (or 'all'); prints "
        "the fleet leaderboard instead of one report",
    )
    fleet_cmd.add_argument(
        "--initial", type=int, default=100, help="starting backends (default 100)"
    )
    fleet_cmd.add_argument(
        "--max",
        dest="max_backends",
        type=int,
        default=1024,
        help="provisioned backend universe / peak capacity (default 1024)",
    )
    _add_options(fleet_cmd, "--clients", clients=4)
    fleet_cmd.add_argument(
        "--connections",
        type=int,
        default=128,
        help="connections per client (default 128)",
    )
    fleet_cmd.add_argument(
        "--no-burst",
        action="store_true",
        help="drop the correlated burst that lands during the scale-out",
    )
    _add_options(fleet_cmd, "--jobs", "--store", "--timeline")

    sub.add_parser("fig2a", help="paper Fig 2(a): fixed timeouts vs truth")
    sub.add_parser("fig2b", help="paper Fig 2(b): the ensemble tracks truth")
    sub.add_parser("fig3", help="paper Fig 3: Maglev vs latency-aware LB")
    sub.add_parser("reaction", help="reaction-time claim (§1/§4)")
    sub.add_parser("error", help="error-model identity (§3)")

    ablation = sub.add_parser("ablation", help="run a parameter sweep")
    ablation.add_argument("sweep", choices=sorted(ABLATIONS))
    _add_options(ablation, "--jobs")

    sweep_cmd = sub.add_parser(
        "sweep",
        help="declarative scenario sweep: JSON spec file or inline axes",
        description="Expand a sweep spec into scenario points, run them "
        "through the parallel executor, and print one summary row per "
        "point.  Results are cached by content in the store directory: "
        "rerunning an unchanged sweep simulates nothing, and an "
        "interrupted sweep resumes where it stopped.",
    )
    sweep_cmd.add_argument(
        "spec",
        nargs="?",
        help="JSON sweep spec file (mutually exclusive with inline axes)",
    )
    sweep_cmd.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="PATH=V1,V2",
        help="cartesian-product axis over a dotted config path "
        "(e.g. 'feedback.controller.alpha=0.05,0.1'); repeatable",
    )
    sweep_cmd.add_argument(
        "--zip",
        action="append",
        default=[],
        dest="zip_axes",
        metavar="PATH=V1,V2",
        help="lockstep axis (all --zip axes advance together); repeatable",
    )
    sweep_cmd.add_argument(
        "--seeds",
        metavar="S1,S2",
        help="replicate every point once per seed",
    )
    sweep_cmd.add_argument(
        "--strategy",
        metavar="S1,S2",
        help="comma list of control laws swept as a grid axis over "
        "feedback.strategy (registered: %s)"
        % ", ".join(available_controllers()),
    )
    sweep_cmd.add_argument(
        "--policy",
        choices=[p.value for p in PolicyName],
        help="base routing policy (default: feedback)",
    )
    sweep_cmd.add_argument("--name", default="sweep", help="sweep name")
    _add_options(sweep_cmd, "--fault", "--jobs", "--store", "--no-cache")
    sweep_cmd.add_argument(
        "--resume",
        action="store_true",
        help="require an existing store (guard against resuming into an "
        "empty directory by mistake)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code (2 on a ``ConfigError``)."""
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args, units.seconds(args.duration))
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace, duration: int) -> int:
    """Run the verb ``args.command`` names."""
    if args.command == "run":
        faults = _parse_fault_args(args.fault, duration)
        config = ScenarioConfig(
            seed=args.seed,
            duration=duration,
            n_clients=args.clients,
            n_servers=args.servers,
            policy=PolicyName(args.policy),
            faults=faults,
            insight=InsightConfig(enabled=args.timeline is not None),
            warmup=duration // 10,
        )
        config.feedback.strategy = args.strategy
        result = run_scenario(config)
        print(result.report())
        if args.timeline is not None:
            result.scenario.insight.export(args.timeline)
            print("timeline written: %s" % args.timeline)
        return 0

    if args.command == "metrics":
        faults = _parse_fault_args(args.fault, duration)
        config = ScenarioConfig(
            seed=args.seed,
            duration=duration,
            n_clients=args.clients,
            n_servers=args.servers,
            policy=PolicyName(args.policy),
            faults=faults,
            obs=ObsConfig(enabled=True, tracing=False, profiling=False),
            warmup=duration // 10,
        )
        result = run_scenario(config)
        registry = result.scenario.obs.registry
        assert registry is not None
        if args.format == "json":
            import json

            print(json.dumps(registry.to_json(), indent=2, sort_keys=True))
        else:
            print(registry.to_prometheus(), end="")
        return 0

    if args.command == "trace":
        fig3 = run_fig3(
            Fig3Config(
                seed=args.seed,
                duration=duration,
                obs=ObsConfig(enabled=True, profiling=False),
            ),
            policies=(PolicyName.FEEDBACK,),
        )
        result = fig3.results[PolicyName.FEEDBACK.value]
        scenario = result.scenario
        assert scenario.obs is not None and scenario.obs.tracer is not None
        assert scenario.feedback is not None
        tracer = scenario.obs.tracer
        shifts = scenario.feedback.shift_events()
        window = scenario.feedback.estimator.config.window
        if args.request is not None:
            print(
                render_request_tree(
                    tracer,
                    args.request,
                    shifts,
                    window,
                    fault_windows=result.fault_windows(),
                    vip=scenario.vip,
                )
            )
            return 0
        if not shifts:
            print("no weight shifts executed in this run")
            return 1
        if args.shift is None:
            print(render_shift_list(tracer, shifts, window))
            return 0
        if not 0 <= args.shift < len(shifts):
            print(
                "shift index %d out of range (%d shifts recorded)"
                % (args.shift, len(shifts)),
                file=sys.stderr,
            )
            return 2
        # The Fig 3 arm runs no fleet, so there are no scalings to show.
        print(render_shift_attribution(tracer, shifts, args.shift, window))
        return 0

    if args.command == "explain":
        fig3 = run_fig3(
            Fig3Config(
                seed=args.seed,
                duration=duration,
                insight=InsightConfig(enabled=True),
            ),
            policies=(PolicyName.FEEDBACK,),
        )
        result = fig3.results[PolicyName.FEEDBACK.value]
        assert result.scenario.insight is not None
        if args.export is not None:
            result.scenario.insight.export(args.export)
            print("timeline written: %s" % args.export)
        lookback = units.seconds(args.lookback)
        if args.shift is not None and args.alert is not None:
            print("give --shift or --alert, not both", file=sys.stderr)
            return 2
        try:
            if args.shift is not None:
                print(explain_shift(result, args.shift, lookback))
            elif args.alert is not None:
                print(explain_alert(result, args.alert, lookback))
            else:
                print(explain_overview(result))
        except IndexError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        return 0

    if args.command == "diff":
        try:
            timeline_a = load_timeline(args.run_a)
            timeline_b = load_timeline(args.run_b)
        except (OSError, ValueError) as exc:
            print("cannot load timeline: %s" % exc, file=sys.stderr)
            return 2
        print(render_diff(timeline_a, timeline_b, weight_eps=args.eps))
        return 0

    if args.command == "resilience":
        faults = parse_faults(args.fault, duration)
        config = ScenarioConfig(
            seed=args.seed,
            duration=duration,
            n_clients=args.clients,
            n_servers=args.servers,
            policy=PolicyName.FEEDBACK,
            faults=faults,
            resilience=ResilienceConfig(enabled=True, health_checks=True),
            warmup=duration // 10,
        )
        result = run_scenario(config)
        print(result.report())
        onset = min(f.start for f in faults)
        fallback_at = result.first_mode_entry("FALLBACK", after=onset)
        if fallback_at is None:
            print("ladder never entered FALLBACK (fault=%s)" % args.fault)
        else:
            print(
                "time to FALLBACK after fault onset: %.3f ms"
                % to_millis(fallback_at - onset)
            )
            recovery_at = result.first_mode_entry("FEEDBACK", after=fallback_at)
            if recovery_at is None:
                print("no FEEDBACK recovery observed before the run ended")
            else:
                print(
                    "time to FEEDBACK recovery: %.3f ms after FALLBACK entry"
                    % to_millis(recovery_at - fallback_at)
                )
        latency_recovery = time_to_recovery(result, fault_window(config))
        if latency_recovery is None:
            print("tail latency never re-entered the pre-fault band")
        else:
            print(
                "time to tail-latency recovery: %.3f ms after fault onset"
                % to_millis(latency_recovery)
            )
        return 0

    if args.command in ("fig2a", "fig2b"):
        fig2 = run_fig2(
            BacklogConfig(seed=args.seed, duration=duration, step_at=duration // 2)
        )
        print(fig2.panel_a() if args.command == "fig2a" else fig2.panel_b())
        return 0

    if args.command == "fig3":
        print(run_fig3(Fig3Config(seed=args.seed, duration=duration)).report())
        return 0

    if args.command == "reaction":
        result = run_reaction(Fig3Config(seed=args.seed, duration=duration))
        print(result.report())
        if result.reaction_ns is None:
            print("no shift observed after the injection")
            return 1
        return 0

    if args.command == "error":
        print(
            error_table(
                [
                    run_error_decomposition(think, duration=duration, seed=args.seed)
                    for think in ERROR_THINK_TIMES
                ]
            )
        )
        return 0

    if args.command == "ablation":
        print(format_rows(run_ablation(args.sweep, jobs=args.jobs)))
        return 0

    # argparse enforces the command set: the rest are these four.
    return {
        "fleet": _fleet_command,
        "compare": _compare_command,
        "chaos": _chaos_command,
        "sweep": _sweep_command,
    }[args.command](args, duration)


def _fleet_command(args: argparse.Namespace, duration: int) -> int:
    """The ``repro fleet`` verb: the elastic scale experiment."""
    from repro.harness.elastic import (
        ElasticConfig,
        race_table,
        run_elastic,
        run_elastic_race,
    )

    base = ElasticConfig(
        seed=args.seed,
        duration=duration,
        strategy=args.strategy,
        initial_backends=args.initial,
        max_backends=args.max_backends,
        clients=args.clients,
        connections=args.connections,
        burst=not args.no_burst,
        insight=args.timeline is not None,
    )
    if args.controllers:
        rows = run_elastic_race(
            _controller_list(args.controllers),
            base=base,
            jobs=args.jobs,
            store=ResultStore(args.store),
        )
        print(race_table(rows))
        return 0
    elastic = run_elastic(base)
    print(elastic.report())
    if args.timeline is not None:
        elastic.scenario.insight.export(args.timeline)
        print("timeline written: %s" % args.timeline)
    return 0


def _chaos_command(args: argparse.Namespace, duration: int) -> int:
    """The ``repro chaos`` verb: campaign or artifact replay."""
    from repro.campaign import (
        CampaignConfig,
        GeneratorConfig,
        load_violations,
        replay_artifact,
        run_campaign,
    )

    store = ResultStore(args.store)
    use_cache = not args.no_cache

    if args.action == "replay":
        if not args.artifact:
            raise ConfigError("replay needs an artifact path")
        point, row = replay_artifact(
            args.artifact, store=store, use_cache=use_cache
        )
        recorded = load_violations(args.artifact)
        print(
            "replayed run %d (%s, seed %d): %d faults, %d invariant "
            "checks, %d violations"
            % (
                point.run,
                point.strategy,
                point.seed,
                len(point.faults),
                row["checks"],
                row["violations"],
            )
        )
        for name in row["violated"]:
            for message in row["details"][name]:
                print("  %s: %s" % (name, message))
        if sorted(row["violated"]) == sorted(recorded):
            print("verdict matches the artifact (recorded: %s)"
                  % (", ".join(sorted(recorded)) or "none"))
        else:
            print(
                "verdict CHANGED: artifact recorded %s"
                % (", ".join(sorted(recorded)) or "none")
            )
        return 1 if row["violations"] else 0

    invariants = None
    if args.invariants:
        invariants = tuple(
            part.strip() for part in args.invariants.split(",") if part.strip()
        )
    config = CampaignConfig(
        seed=args.seed,
        runs=args.runs,
        duration=duration,
        n_servers=args.servers,
        n_clients=args.clients,
        controllers=tuple(_controller_list(args.controllers)),
        generator=GeneratorConfig(
            max_faults=args.max_faults, intensity_budget=args.budget
        ),
        invariants=invariants,
        fleet_every=args.fleet_every,
        insight=args.timelines is not None,
    )
    campaign = run_campaign(
        config,
        jobs=args.jobs,
        store=store,
        use_cache=use_cache,
        progress=print_progress,
        artifact_dir=args.artifacts,
        timeline_dir=args.timelines,
    )
    print(campaign.table())
    print(campaign.summary())
    for path in campaign.timelines:
        print("timeline written: %s" % path)
    violating = campaign.violating()
    if violating:
        for path in campaign.artifacts:
            print("reproducer written: %s" % path)
        print(
            "%d of %d runs violated invariants"
            % (len(violating), len(campaign.points)),
            file=sys.stderr,
        )
        return 1
    return 0


def _compare_command(args: argparse.Namespace, duration: int) -> int:
    """The ``repro compare`` verb: race the zoo, print the leaderboard."""
    presets = args.preset or list(RACE_PRESETS)
    compare = run_compare(
        presets,
        _controller_list(args.controllers),
        seed=args.seed,
        duration=duration,
        n_servers=args.servers,
        n_clients=args.clients,
        jobs=args.jobs,
        store=ResultStore(args.store),
        use_cache=not args.no_cache,
        progress=print_progress,
        insight=args.timelines is not None,
    )
    print(compare.leaderboard())
    print(compare.summary())
    if args.timelines is not None:
        for path in compare.write_timelines(args.timelines):
            print("timeline written: %s" % path)
    return 0


def _sweep_command(args: argparse.Namespace, duration: int) -> int:
    """The ``repro sweep`` verb: build the spec, run it, print rows."""
    import os

    inline_axes = (
        args.grid or args.zip_axes or args.seeds or args.fault or args.strategy
    )
    if args.spec and inline_axes:
        raise ConfigError("give either a spec file or inline axes, not both")

    if args.spec:
        spec = load_spec(args.spec)
    else:
        faults = _parse_fault_args(args.fault, duration)
        policy = PolicyName(args.policy) if args.policy else PolicyName.FEEDBACK
        base = ScenarioConfig(
            seed=args.seed,
            duration=duration,
            policy=policy,
            faults=faults,
            warmup=duration // 10,
        )
        seeds = None
        if args.seeds:
            try:
                seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
            except ValueError:
                raise ConfigError("--seeds must be a comma list of integers") from None
        grid = dict(parse_axis(text) for text in args.grid)
        if args.strategy:
            grid["feedback.strategy"] = _controller_list(args.strategy)
        spec = SweepSpec(
            base=base,
            grid=grid,
            zipped=dict(parse_axis(text) for text in args.zip_axes),
            seeds=seeds,
            name=args.name,
        )

    if args.resume and not os.path.isdir(args.store):
        raise ConfigError(
            "--resume: store %r does not exist (nothing to resume)" % args.store
        )
    store = ResultStore(args.store)

    report = run_sweep(
        spec,
        jobs=args.jobs,
        store=store,
        use_cache=not args.no_cache,
        progress=print_progress,
    )

    headers: List[str] = []
    for row in report.rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    table_rows = [
        [outcome.label] + [format_cell(outcome.row.get(h)) for h in headers]
        for outcome in report.outcomes
    ]
    if table_rows:
        print(format_table(["point"] + headers, table_rows))
    print(report.summary(spec.name))
    return 0


def _controller_list(text: Optional[str]) -> List[str]:
    """Control laws from a comma list; empty or ``all`` means every one.

    Raises ConfigError on a name the controller registry does not know.
    """
    registered = available_controllers()
    if not text or text.strip() == "all":
        return registered
    names = [part.strip() for part in text.split(",") if part.strip()]
    for name in names:
        if name not in registered:
            raise ConfigError(
                "unknown control strategy %r (registered: %s)"
                % (name, ", ".join(registered))
            )
    return names


def _parse_fault_args(specs: List[str], duration: int) -> list:
    """Every ``--fault`` spec (preset name or inline), parsed in order."""
    faults = []
    for spec in specs:
        faults.extend(parse_faults(spec, duration))
    return faults


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
