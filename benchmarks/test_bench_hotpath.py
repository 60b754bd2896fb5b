"""PERF-HOTPATH — the three per-packet layers, isolated.

Microbenches for the fused ENSEMBLETIMEOUT observe (O(log k) prefix
roll), the pipe's send → deliver cycle (one engine event per packet)
and the LB control path (per-sample ranking, per-shift Maglev rebuild).
Writes ``reports/hotpath.txt`` with the measured ratios and records
throughputs into ``BENCH_engine.json`` for the CI perf gate.
"""

from conftest import record_perf, write_report
from hotpath_cases import (
    make_gap_trace,
    run_ensemble_observe,
    run_lb_control_path,
    run_pipe_stream,
)


def _best_of(runs, runner, *args, **kwargs):
    results = [runner(*args, **kwargs) for _ in range(runs)]
    return min(results, key=lambda r: r[1] / r[0])


class TestEnsembleObserve:
    def test_fused_observe_100k_packets(self, benchmark):
        trace = make_gap_trace()

        def run():
            return run_ensemble_observe(trace)[0]

        assert benchmark(run) == len(trace)


class TestPipeSend:
    def test_pipe_stream_10x1k_packets(self, benchmark):
        def run():
            return run_pipe_stream()[0]

        assert benchmark(run) == 10_000


def test_hotpath_report():
    """Record ensemble, pipe and control-path throughput; render the report."""
    trace = make_gap_trace()
    fused_n, fused_s = _best_of(5, run_ensemble_observe, trace)
    pipe_n, pipe_s, pipe_peak = _best_of(5, run_pipe_stream)
    control = [run_lb_control_path() for _ in range(5)]
    sample_n, _, rebuild_n, _ = control[0]
    sample_s = min(run[1] for run in control)
    rebuild_s = min(run[3] for run in control)

    fused = record_perf("ensemble_observe_fused_100k", fused_n, fused_s)
    pipe = record_perf(
        "pipe_stream_10x1k", pipe_n, pipe_s, peak_queue_depth=pipe_peak
    )
    record_perf("lb_control_sample_40k", sample_n, sample_s)
    record_perf("lb_control_rebuild_100", rebuild_n, rebuild_s)

    lines = [
        "hot-path microbenchmarks (best-of-N wall clock)",
        "",
        "ensemble observe, 100k packets, paper ladder (k=7):",
        "  fused (O(log k) prefix roll): %12.0f obs/sec" % fused["events_per_sec"],
        "",
        "pipe send+deliver, 10 waves x 1k slab packets, 10 Gb/s wire:",
        "  one event per packet:         %12.0f pkts/sec" % pipe["events_per_sec"],
        "  engine peak queue depth:      %12d (one event per packet in flight)"
        % pipe["peak_queue_depth"],
        "",
        "LB control path, 16 backends (estimator observe + maybe_update;",
        "full Maglev build at 4099 slots):",
        "  per T_LB sample:              %12.0f ns" % (sample_s / sample_n * 1e9),
        "  per weighted rebuild:         %12.3f ms" % (rebuild_s / rebuild_n * 1e3),
    ]
    write_report("hotpath", "\n".join(lines))
    # One heap entry per packet of a 1k wave, nothing per pipe on top.
    assert pipe["peak_queue_depth"] == 1_000
