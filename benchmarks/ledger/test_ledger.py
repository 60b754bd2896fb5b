"""Self-tests of the cost ledger.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``; tier-1
(``testpaths = tests``) does not collect this file.  Workloads run at a
twentieth of their benchmark size here.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import compare
import measure
import trace as ledger_trace
import workloads

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SMALL = 0.05  # scale: 1/20 of the benchmark size

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run_cli(*arguments: str) -> dict:
    """Run ``run.py`` as the driver does; the parsed last stdout line."""
    completed = subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "run.py"), *arguments],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        cwd=REPO_ROOT,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_is_deterministic_per_seed(name):
    first = measure.run_once(name, 0, SMALL)
    again = measure.run_once(name, 0, SMALL)
    other = measure.run_once(name, 1, SMALL)
    assert first["broken"] == [] and first["failed"] == 0
    assert first["digest"] == again["digest"]
    assert first["counts"] == again["counts"]
    assert first["digest"] != other["digest"]
    assert set(first["counts"]) == {n for n, _u, _b in measure.COUNTERS}
    for metric in ("run_s", "run_cpu_s", "completed_share", "sim_mean_ms"):
        assert first[metric] > 0
    assert first["attempted"] >= 1


def test_timed_region_is_restored_and_setup_pass_stops_before_it():
    from repro.sim.engine import Simulator

    before = (Simulator.run_until, Simulator.run)
    seconds = measure.setup_pass("fig2b_backlog", 0, SMALL)
    assert seconds > 0
    assert (Simulator.run_until, Simulator.run) == before


def test_cli_prints_every_end_to_end_metric():
    document = _run_cli(
        "--workload", "fig2b_backlog", "--seed", "0", "--seconds", "0.5",
        "--scale", str(SMALL), "--trace", "0",
    )
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True and document["failed"] == 0
    assert list(document["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        cell = document["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"] and cell["value"] > 0


def test_cli_traced_run_prints_every_per_layer_metric():
    document = _run_cli(
        "--workload", "lb_replay", "--seed", "0", "--seconds", "0.5",
        "--scale", str(SMALL), "--trace", "1",
    )
    assert document["correct"] is True  # includes traced digest == untraced
    metrics = document["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    value = lambda name: metrics[name]["value"]
    # The dataplane alone: no transport, no app, and the tracer explains it.
    assert value("transport.share") + value("app.share") < 0.01
    assert value("lb.share") + value("core.share") > 0.4  # > 0.5 at full size
    assert value("trace.coverage") >= 0.85
    assert value("trace.overhead_ratio") > 1.0
    assert value("lb.isolated_ns_per_pkt") > 0


def test_cli_rejects_unknown_workload():
    completed = subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "run.py"), "--workload", "nope"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert completed.returncode != 0 and completed.stdout == ""


def test_aggregator_charges_builtins_to_the_callers_layer():
    net_send = ("/x/src/repro/net/pipe.py", 10, "send")
    lb_packet = ("/x/src/repro/lb/dataplane.py", 20, "on_packet")
    units = ("/x/src/repro/units.py", 5, "to_millis")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    randrange = ("/usr/lib/python3/random.py", 30, "randrange")
    getrandbits = ("~", 0, "<method 'getrandbits' of '_random.Random' objects>")
    orphan = ("~", 0, "<built-in method builtins.exec>")
    # pstats rows: (cc, nc, tt, ct, callers); caller edges: (nc, cc, tt, ct).
    table = {
        lb_packet: (4, 4, 1.0, 4.0, {}),
        net_send: (4, 4, 2.0, 3.0, {lb_packet: (4, 4, 2.0, 3.0)}),
        units: (1, 1, 0.25, 0.25, {lb_packet: (1, 1, 0.25, 0.25)}),
        heappush: (
            8, 8, 0.5, 0.5,
            {net_send: (6, 6, 0.4, 0.4), lb_packet: (2, 2, 0.1, 0.1)},
        ),
        randrange: (2, 2, 0.3, 0.6, {net_send: (2, 2, 0.3, 0.6)}),
        getrandbits: (2, 2, 0.3, 0.3, {randrange: (2, 2, 0.3, 0.3)}),
        orphan: (1, 1, 0.125, 0.125, {}),
    }
    buckets = ledger_trace.aggregate(table)
    assert buckets["net"]["self_s"] == pytest.approx(2.0 + 0.4 + 0.3 + 0.3)
    assert buckets["lb"]["self_s"] == pytest.approx(1.0 + 0.1)
    assert buckets["net"]["calls"] == 4 and buckets["lb"]["calls"] == 4
    assert buckets["other"]["self_s"] == pytest.approx(0.25)
    assert buckets["unowned"]["self_s"] == pytest.approx(0.125)
    total = sum(row[2] for row in table.values())
    assert sum(b["self_s"] for b in buckets.values()) == pytest.approx(total)


def test_layer_of():
    assert ledger_trace.layer_of("/r/src/repro/sim/engine.py") == "sim"
    assert ledger_trace.layer_of("/r/src/repro/controllers/base.py") == "other"
    assert ledger_trace.layer_of(os.path.join(LEDGER_DIR, "workloads.py")) == "bench"
    assert ledger_trace.layer_of("~") is None


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert declared == list(measure.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == list(measure.PER_LAYER)
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


def _ledger(run_s: float, completed: float = 0.999, spread: float = 0.0) -> dict:
    def cell(median: float) -> dict:
        return {
            "median": median,
            "q1": median * (1 - spread / 2),
            "q3": median * (1 + spread / 2),
        }

    values = {
        "setup_s": 0.4, "run_s": run_s, "run_cpu_s": run_s,
        "packets_per_s": 500_000 / run_s, "peak_rss_mb": 80.0,
        "completed_share": completed, "sim_mean_ms": 0.8,
    }
    entry = {"end_to_end": {k: cell(v) for k, v in values.items()}, "digest": "d"}
    return {"workloads": {name: entry for name in workloads.WORKLOADS}}


def test_compare_marks_regressions_and_unresolved_rows():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["run_s"]
    same = compare.compare(_ledger(8.0), _ledger(8.0), SPEC)
    assert all(row["verdict"] == "" for row in same)
    assert len(same) == len(workloads.WORKLOADS) * len(SPEC["end_to_end"])

    slower = compare.compare(_ledger(8.0), _ledger(8.0 * (1 + 2 * bound)), SPEC)
    flagged = {row["metric"] for row in slower if row["verdict"].startswith("REGRESSION")}
    assert flagged == {"run_s", "run_cpu_s", "packets_per_s"}

    noisy = compare.compare(_ledger(8.0, spread=2 * bound), _ledger(7.0), SPEC)
    assert all(
        row["verdict"].startswith("unresolved")
        for row in noisy
        if row["metric"] == "run_s"
    )

    lossy = compare.compare(_ledger(8.0), _ledger(6.0, completed=0.998), SPEC)
    assert any(
        row["metric"] == "completed_share" and row["verdict"].startswith("REGRESSION")
        for row in lossy
    )
    assert "averages over workloads" in compare.render(slower)
