"""The cost ledger's one command.

Two ways in:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload once and prints, as its last line, the JSON result object
  BENCHMARK.json's contract describes: end-to-end metrics with
  ``--trace 0``, per-layer metrics (one untraced and one traced run,
  digests compared) with ``--trace 1``.
* ``run.py [--seed N] [--repeats 3] [--quick] [--out FILE]`` is the
  ledger: every workload in turn, each repeat and each traced run in a
  fresh subprocess of the first form (never two at once: the box has two
  cores), medians and spreads, digest checks, and one JSON document for
  ``compare.py``.

A timed run repeats the workload's simulation — same seed, so the same
work and the same outputs every round — until ``--seconds`` of timed
region have been measured (three rounds at least), and reports the
fastest round: on a shared two-core box interference only ever adds time,
in bursts of seconds, so the minimum is the steady figure.  The rounds
must agree on ``sim_digest``.  ``--scale`` (tests only) shrinks the
simulated duration; the inputs depend on ``--seed`` and ``--scale`` only.
"""

from __future__ import annotations

import time

_ENTERED_AT = time.perf_counter()  # before repro is imported: setup_s starts here

import argparse
import cProfile
import gc
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
#: Rounds a timed run measures at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Fresh-process set-ups per timed run (this process's own included).
SETUP_SAMPLES = 5


def _import_repro(workload: str):
    """Put ``src/`` on the path and import the measuring modules."""
    source = os.path.join(REPO_ROOT, "src")
    sys.path.insert(0, source)
    try:
        import isolated
        import measure
        import trace  # this directory's trace.py: the script's directory leads sys.path
    except ImportError as error:
        sys.exit("the ledger measures the repro package under %s: %s" % (source, error))
    if workload not in measure.workloads.WORKLOADS:
        sys.exit(
            "unknown workload %r (have: %s)"
            % (workload, ", ".join(measure.workloads.WORKLOADS))
        )
    return measure, trace, isolated


def _child(arguments: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + arguments,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )


# ----------------------------------------------------------------------
# One workload, once
# ----------------------------------------------------------------------


def setup_only(args) -> None:
    """Build up to the timed region in this fresh process; print seconds."""
    measure, _trace, _isolated = _import_repro(args.workload)
    imported_at = time.perf_counter()
    build_s = measure.setup_pass(args.workload, args.seed, args.scale)
    print(repr(imported_at - _ENTERED_AT + build_s))


def timed_run(args) -> Dict[str, object]:
    """``--trace 0``: the end-to-end metrics, fastest of the rounds."""
    measure, _trace, _isolated = _import_repro(args.workload)
    import_s = time.perf_counter() - _ENTERED_AT
    # Set-up is sampled in fresh processes, imports and all, because that
    # is what a user pays; this process's first round is the last sample.
    setup_only_arguments = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", repr(args.scale),
        "--setup-only",
    ]
    setups = [
        float(_child(setup_only_arguments).stdout) for _ in range(SETUP_SAMPLES - 1)
    ]
    rounds: List[dict] = []
    measured = 0.0
    while len(rounds) < MIN_ROUNDS or measured < args.seconds:
        rounds.append(measure.run_once(args.workload, args.seed, args.scale))
        measured += rounds[-1]["run_s"]
        gc.collect()  # the finished deployment is cyclic garbage
    setups.append(import_s + rounds[0]["build_s"])
    first = rounds[0]
    run_s = min(r["run_s"] for r in rounds)
    broken = list(first["broken"])
    failed = first["failed"]
    if any(r["digest"] != first["digest"] for r in rounds):
        broken.append("rounds of one seed disagree on sim_digest")
        failed += 1
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "run_cpu_s": min(r["run_cpu_s"] for r in rounds),
        "packets_per_s": first["counts"]["net.packets_delivered"] / run_s,
        "peak_rss_mb": measure.peak_rss_mb(),
        "completed_share": first["completed_share"],
        "sim_mean_ms": first["sim_mean_ms"],
    }
    print("rounds %d, timed region measured for %.3f s" % (len(rounds), measured))
    return {
        "metrics": metrics,
        "units": {name: unit for name, unit, _better in measure.END_TO_END},
        "digest": first["digest"],
        "attempted": first["attempted"],
        "failed": failed,
        "broken": broken,
    }


class _GcWatch:
    """``gc.callbacks`` observer: collections and seconds inside a window."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.spans.append((self._started, time.perf_counter()))

    def inside(self, window: tuple) -> List[float]:
        lo, hi = window
        return [stop - start for start, stop in self.spans if lo <= start and stop <= hi]


def traced_run(args) -> Dict[str, object]:
    """``--trace 1``: an untraced run, then the same run under the tracer."""
    measure, trace, isolated = _import_repro(args.workload)
    scale = args.scale
    plain = measure.run_once(args.workload, args.seed, scale)

    profiler = cProfile.Profile()  # enabled by the timed region only
    recorder = isolated.ArrivalRecorder()
    gc_watch = _GcWatch()
    gc.callbacks.append(gc_watch)
    try:
        traced = measure.run_once(
            args.workload, args.seed, scale, profiler=profiler, observe=recorder.install
        )
    finally:
        gc.callbacks.remove(gc_watch)
    table = trace.table_of(profiler)
    buckets = trace.aggregate(table)
    span_table = trace.spans(table)

    counts = plain["counts"]
    metrics: Dict[str, float] = dict(counts)
    trace_run_s = traced["run_s"]
    attributed = 0.0
    for layer in measure.LAYERS:
        bucket = buckets.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[layer + ".self_s"] = bucket["self_s"]
        metrics[layer + ".share"] = bucket["self_s"] / trace_run_s
        metrics[layer + ".calls"] = bucket["calls"]
        attributed += bucket["self_s"]

    def per_unit(layer: str, units: float) -> float:
        """The layer's share of the *untraced* run, in ns per unit of work,
        so that layer costs x counts add up to ``run_s`` x coverage."""
        return metrics[layer + ".share"] * plain["run_s"] * 1e9 / units if units else 0.0

    def calls(suffix: str, function: str) -> int:
        span = span_table.get("%s:%s" % (suffix, function))
        return span["calls"] if span else 0

    lb_packets = counts["lb.packets_in"]
    metrics["transport.segments"] = calls("transport/connection.py", "handle_packet")
    metrics["transport.messages"] = calls("transport/connection.py", "send_message")
    metrics["transport.connections"] = calls("transport/endpoint.py", "connect")
    metrics["transport.retransmissions"] = calls("transport/retransmit.py", "on_timeout")
    metrics["core.observes"] = calls("core/ensemble.py", "observe")
    metrics["sim.self_ns_per_event"] = per_unit("sim", counts["sim.events"])
    metrics["net.self_ns_per_pkt"] = per_unit("net", counts["net.packets_delivered"])
    metrics["transport.self_ns_per_segment"] = per_unit(
        "transport", metrics["transport.segments"]
    )
    metrics["lb.self_ns_per_pkt"] = per_unit("lb", lb_packets)
    metrics["core.self_ns_per_pkt"] = per_unit("core", lb_packets)
    metrics["app.self_ns_per_request"] = per_unit("app", counts["app.requests_completed"])
    metrics["harness.collect_s"] = plain["collect_s"]
    pauses = gc_watch.inside(traced["region"])
    metrics["runtime.gc_s"] = sum(pauses)
    metrics["runtime.gc_collections"] = len(pauses)
    metrics["trace.run_s"] = trace_run_s
    metrics["trace.overhead_ratio"] = trace_run_s / plain["run_s"]
    metrics["trace.coverage"] = attributed / trace_run_s
    metrics["trace.unattributed_s"] = trace_run_s - attributed

    # fleet_scaleout_1k cannot be tapped: nothing recorded, arms read 0.
    arms = isolated.run_arms(recorder) if recorder.times else {}
    for layer, isolated_name, self_name in (
        ("sim", "sim.isolated_ns_per_event", "sim.self_ns_per_event"),
        ("net", "net.isolated_ns_per_pkt", "net.self_ns_per_pkt"),
        ("lb", "lb.isolated_ns_per_pkt", "lb.self_ns_per_pkt"),
        ("core", "core.isolated_ns_per_observe", "core.self_ns_per_pkt"),
    ):
        alone = arms.get(isolated_name, 0.0)
        metrics[isolated_name] = alone
        metrics[layer + ".isolated_ratio"] = metrics[self_name] / alone if alone else 0.0

    broken = list(plain["broken"])
    failed = plain["failed"]
    if traced["digest"] != plain["digest"]:
        broken.append(
            "traced digest %s != untraced %s: the tracer changed behaviour"
            % (traced["digest"], plain["digest"])
        )
        failed += 1
    return {
        "metrics": metrics,
        "units": {name: unit for name, unit, _better in measure.PER_LAYER},
        "digest": plain["digest"],
        "attempted": plain["attempted"],
        "failed": failed,
        "broken": broken,
        "layers": buckets,
        "spans": span_table,
        "functions": list(trace.functions(table))[:200],
    }


def single(args) -> int:
    """Measure one workload once; last stdout line is the result object."""
    result = traced_run(args) if args.trace else timed_run(args)
    units = result["units"]
    for name, value in result["metrics"].items():
        print("%-34s %18.6f %s" % (name, value, units[name]))
    print("sim_digest %s" % result["digest"])
    for message in result["broken"]:
        print("BROKEN: %s" % message)
    document = {
        "correct": not result["broken"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                dict(
                    document,
                    workload=args.workload,
                    seed=args.seed,
                    seconds=args.seconds,
                    scale=args.scale,
                    trace=args.trace,
                    digest=result["digest"],
                    broken=result["broken"],
                    layers=result.get("layers"),
                    spans=result.get("spans"),
                    functions=result.get("functions"),
                ),
                handle,
                indent=1,
            )
    print(json.dumps(document))
    return 0


# ----------------------------------------------------------------------
# The ledger: every workload, repeated
# ----------------------------------------------------------------------


def _spread(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }


def ledger(args) -> int:
    """Run every workload ``--repeats`` times plus one traced run each."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    out_path = os.path.abspath(args.out)
    out_dir = os.path.dirname(out_path)
    os.makedirs(out_dir, exist_ok=True)
    repeats = 1 if args.quick else args.repeats
    problems: List[str] = []
    report: Dict[str, object] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "repeats": repeats,
        "workloads": {},
    }

    def measure_once(name: str, trace: int, label: str) -> dict:
        path = os.path.join(out_dir, "%s.%s.json" % (name, label))
        _child(
            [
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--scale", repr(args.scale),
                "--trace", str(trace),
                "--out", path,
            ]
        )
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [measure_once(name, 0, "r%d" % i) for i in range(repeats)]
        entry: Dict[str, object] = {"end_to_end": {}, "digest": runs[0]["digest"]}
        print("== %s  (%s)" % (name, workload["why"]))
        for metric in spec["end_to_end"]:
            metric_name = metric["name"]
            stats = _spread([r["metrics"][metric_name]["value"] for r in runs])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][metric_name] = stats
            print(
                "  %-18s median %14.6f  min %14.6f  max %14.6f  n=%d  %s"
                % (metric_name, stats["median"], stats["min"], stats["max"],
                   stats["n"], metric["unit"])
            )
            if stats["max"] - stats["min"] > 0.1 * abs(stats["median"]):
                problems.append(
                    "%s %s: max-min exceeds a tenth of the median (a defect "
                    "of the workload, not noise to average away)" % (name, metric_name)
                )
        print("  sim_digest         %s" % entry["digest"])
        for run in runs:
            problems.extend("%s: %s" % (name, m) for m in run["broken"])
            if run["digest"] != entry["digest"]:
                problems.append("%s: repeats disagree on sim_digest" % name)
        if not args.quick:
            traced = measure_once(name, 1, "trace")
            problems.extend("%s (traced): %s" % (name, m) for m in traced["broken"])
            if traced["digest"] != entry["digest"]:
                problems.append("%s: traced run's sim_digest differs" % name)
            entry["per_layer"] = traced["metrics"]
            for metric_name, cell in traced["metrics"].items():
                print("  %-34s %18.6f %s" % (metric_name, cell["value"], cell["unit"]))
            if traced["metrics"]["trace.coverage"]["value"] < 0.85:
                problems.append("%s: trace.coverage below 0.85: a layer is missing" % name)
        report["workloads"][name] = entry

    report["problems"] = problems
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    for problem in problems:
        print("PROBLEM: %s" % problem)
    print("ledger written to %s" % os.path.relpath(out_path))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload once")
    parser.add_argument("--seed", type=int, default=0, help="added to each base seed")
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="timed-region seconds a run measures (three rounds at least)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=3, help="timed repeats per workload")
    parser.add_argument("--quick", action="store_true", help="one repeat, no traced run")
    parser.add_argument("--out", help="write the full result as JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or args.repeats < 1:
        parser.error("--seconds, --scale and --repeats must be positive")
    if args.workload is None:
        args.out = args.out or os.path.join(".ledger-out", "ledger.json")
        return ledger(args)
    if args.setup_only:
        setup_only(args)
        return 0
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
