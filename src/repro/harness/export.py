"""Exporting experiment series to CSV (for external plotting).

The benches print ASCII; anyone regenerating the paper's figures in a
plotting tool wants the raw series.  These helpers write the standard
result objects to simple headered CSV files with no third-party
dependencies.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Iterable, Sequence, Tuple, Union

from repro.telemetry.timeseries import TimeSeries

PathLike = Union[str, pathlib.Path]


def write_csv(
    path: PathLike, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> int:
    """Write a headered CSV; returns the number of data rows written."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def export_timeseries(path: PathLike, series: TimeSeries) -> int:
    """Write a :class:`TimeSeries` as ``time_ns,value`` rows."""
    return write_csv(path, ("time_ns", series.name or "value"), series.items())


def export_latency_series(
    path: PathLike, series: Sequence[Tuple[int, float]], label: str = "p95_ns"
) -> int:
    """Write a bucketed latency series (e.g. Fig 3's p95 line)."""
    return write_csv(path, ("bucket_start_ns", label), series)


def export_shift_events(path: PathLike, events) -> int:
    """Write controller :class:`~repro.controllers.base.ShiftEvent` rows.

    Includes each shift's ``reason`` (hysteresis-pass vs the resilience
    ladder's mode-change / post-fallback-rebalance vs a zoo law's
    recompute) so exported traces distinguish normal control activity
    from recovery choreography.  A recompute moves the whole pool, so
    its ``from_backend`` is written as ``*`` like the ladder's relax,
    and its estimates (it ranks nothing) as empty cells.
    """

    def estimate(value) -> str:
        return "" if value is None else "%.6g" % value

    rows = (
        (
            e.time,
            e.from_backend or "*",
            estimate(e.worst_estimate),
            estimate(e.best_estimate),
            e.reason,
            ";".join(
                "%s=%.6g" % (name, weight)
                for name, weight in sorted(e.weights_after.items())
            ),
        )
        for e in events
    )
    return write_csv(
        path,
        (
            "time_ns",
            "from_backend",
            "worst_estimate_ns",
            "best_estimate_ns",
            "reason",
            "weights_after",
        ),
        rows,
    )


def export_metrics(path: PathLike, registry) -> int:
    """Write a :class:`~repro.obs.metrics.Registry` as flat CSV rows.

    Counters and gauges become one row each; histograms become two
    (``<name>_count`` and ``<name>_sum``), keeping the file a plain
    metric/value table.  Labels are ``;``-joined sorted ``k=v`` pairs.
    """

    def rows():
        for name, family in registry.to_json().items():
            kind = family["type"]
            for sample in family["samples"]:
                labels = ";".join(
                    "%s=%s" % (k, v)
                    for k, v in sorted(sample["labels"].items())
                )
                if kind == "histogram":
                    yield (name + "_count", kind, labels, sample["count"])
                    yield (name + "_sum", kind, labels, "%.6g" % sample["sum"])
                else:
                    yield (name, kind, labels, sample["value"])

    return write_csv(path, ("metric", "type", "labels", "value"), rows())


def export_trace_events(path: PathLike, tracer) -> int:
    """Write a :class:`~repro.obs.trace.CausalTracer` as one flat CSV.

    All span kinds share one schema (``kind`` column discriminates);
    cells that do not apply to a kind are left empty.  Rows are sorted
    by time so the file reads as a causal timeline.
    """
    headers = (
        "kind",
        "time_ns",
        "request_id",
        "client",
        "port",
        "retry",
        "flow",
        "backend",
        "server",
        "t_lb_ns",
        "delta_ns",
        "latency_ns",
    )
    rows = []
    for span in tracer.sends:
        rows.append(
            (
                "send",
                span.time,
                span.request_id,
                span.client,
                span.port,
                int(span.retry),
                "", "", "", "", "", "",
            )
        )
    for flow, span in tracer.routes.items():
        rows.append(
            (
                "route",
                span.time,
                "", "", "", "",
                str(flow),
                span.backend,
                "", "", "", "",
            )
        )
    for span in tracer.responses.values():
        rows.append(
            (
                "response",
                span.time,
                span.request_id,
                "", "", "", "", "",
                span.server,
                "", "",
                span.latency,
            )
        )
    for span in tracer.samples:
        rows.append(
            (
                "sample",
                span.time,
                "", "", "", "",
                str(span.flow),
                span.backend,
                "",
                span.t_lb,
                span.delta,
                "",
            )
        )
    rows.sort(key=lambda row: row[1])
    return write_csv(path, headers, rows)


def export_records(path: PathLike, records) -> int:
    """Write client RequestRecords (the full ground-truth request log)."""
    rows = (
        (
            r.request_id,
            r.op.value,
            r.sent_at,
            r.completed_at,
            r.latency,
            r.server or "",
            r.local_port,
        )
        for r in records
    )
    return write_csv(
        path,
        (
            "request_id",
            "op",
            "sent_at_ns",
            "completed_at_ns",
            "latency_ns",
            "server",
            "local_port",
        ),
        rows,
    )
