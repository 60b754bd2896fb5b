"""CSV export helpers."""

import csv

from repro.app.client import RequestRecord
from repro.app.protocol import Op
from repro.controllers.base import ShiftEvent
from repro.harness.export import (
    export_latency_series,
    export_records,
    export_shift_events,
    export_timeseries,
    write_csv,
)
from repro.telemetry.timeseries import TimeSeries


class TestWriteCsv:
    def test_headers_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        count = write_csv(path, ("a", "b"), [(1, 2), (3, 4)])
        assert count == 2
        rows = list(csv.reader(path.open()))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.csv"
        write_csv(path, ("x",), [(1,)])
        assert path.exists()


class TestExporters:
    def test_timeseries(self, tmp_path):
        series = TimeSeries(name="t_lb")
        series.append(10, 1.5)
        series.append(20, 2.5)
        path = tmp_path / "series.csv"
        assert export_timeseries(path, series) == 2
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["time_ns", "t_lb"]
        assert rows[1] == ["10", "1.5"]

    def test_latency_series(self, tmp_path):
        path = tmp_path / "p95.csv"
        assert export_latency_series(path, [(0, 100.0), (1000, 200.0)]) == 2
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["bucket_start_ns", "p95_ns"]

    def test_records(self, tmp_path):
        record = RequestRecord(
            request_id=7,
            op=Op.GET,
            sent_at=100,
            completed_at=300,
            latency=200,
            server="server1",
            local_port=50_000,
        )
        path = tmp_path / "records.csv"
        assert export_records(path, [record]) == 1
        rows = list(csv.reader(path.open()))
        assert rows[1] == ["7", "get", "100", "300", "200", "server1", "50000"]

    def test_shift_events_include_reason(self, tmp_path):
        events = [
            ShiftEvent(
                time=500,
                from_backend="server0",
                worst_estimate=900.0,
                best_estimate=100.0,
                weights_after={"server1": 1.2, "server0": 0.8},
            ),
            ShiftEvent(
                time=900,
                from_backend="*",
                worst_estimate=0.0,
                best_estimate=0.0,
                weights_after={"server0": 1.0, "server1": 1.0},
                reason="mode-change",
            ),
        ]
        path = tmp_path / "shifts.csv"
        assert export_shift_events(path, events) == 2
        rows = list(csv.reader(path.open()))
        assert rows[0] == [
            "time_ns",
            "from_backend",
            "worst_estimate_ns",
            "best_estimate_ns",
            "reason",
            "weights_after",
        ]
        assert rows[1][4] == "hysteresis-pass"  # the default
        assert rows[2][4] == "mode-change"
        assert rows[2][5] == "server0=1;server1=1"  # sorted by name

    def test_records_without_server(self, tmp_path):
        record = RequestRecord(
            request_id=1,
            op=Op.SET,
            sent_at=0,
            completed_at=1,
            latency=1,
            server=None,
            local_port=1,
        )
        path = tmp_path / "records.csv"
        export_records(path, [record])
        rows = list(csv.reader(path.open()))
        assert rows[1][5] == ""


class TestObsExporters:
    def make_registry(self):
        from repro.obs import Registry

        registry = Registry()
        counter = registry.counter(
            "repro_samples_total", "samples", labels=("backend",)
        )
        counter.labels(backend="server0").inc(4)
        registry.gauge("repro_mode", "mode").set(1)
        hist = registry.histogram("repro_latency_ns", "latency")
        hist.observe(100.0)
        return registry

    def test_metrics_round_trip(self, tmp_path):
        from repro.harness.export import export_metrics

        path = tmp_path / "metrics.csv"
        count = export_metrics(path, self.make_registry())
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["metric", "type", "labels", "value"]
        assert count == len(rows) - 1
        by_metric = {row[0]: row for row in rows[1:]}
        assert by_metric["repro_samples_total"] == [
            "repro_samples_total", "counter", "backend=server0", "4.0",
        ]
        assert by_metric["repro_mode"][3] == "1.0"
        assert by_metric["repro_latency_ns_count"][3] == "1"
        assert float(by_metric["repro_latency_ns_sum"][3]) == 100.0

    def test_trace_events_round_trip(self, tmp_path):
        from repro.core.feedback import SampleRecord
        from repro.harness.export import export_trace_events
        from repro.net.addr import FlowKey
        from repro.obs import CausalTracer

        flow = FlowKey("client0", 40000, "vip", 11211)
        tracer = CausalTracer(
            samples=[SampleRecord(200, flow, "server0", 90, 64_000)]
        )
        tracer.on_send(100, 1, "client0", 40000, False)
        tracer.on_route(110, flow, "server0")
        tracer.on_response(500, 1, "server0", 10, 50, 400)

        path = tmp_path / "trace.csv"
        assert export_trace_events(path, tracer) == 4
        rows = list(csv.reader(path.open()))
        kinds = [row[0] for row in rows[1:]]
        assert kinds == ["send", "route", "sample", "response"]  # time order
        times = [int(row[1]) for row in rows[1:]]
        assert times == sorted(times)
        sample_row = rows[3]
        assert sample_row[7] == "server0"
        assert sample_row[9] == "90" and sample_row[10] == "64000"
