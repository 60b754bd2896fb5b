"""The column log against a plain list of row objects.

A :class:`ColumnLog` stores each field of its rows in a typed column and
builds the row on every read, so every read must give what a list of
the same rows gives.  ``merge_logs`` must order rows as concatenating
the logs and stably sorting by the key does.
"""

import random
from collections.abc import Sequence
from itertools import chain

import pytest

from repro.app.client import RequestRecord
from repro.app.protocol import Op
from repro.core.feedback import SampleRecord
from repro.harness.config import NetworkParams, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.telemetry.columns import ColumnLog, merge_logs
from repro.units import MILLISECONDS

BACKENDS = ["server0", "server1", "server2"]
FLOWS = [("client0", port) for port in range(5)]


def sample_rows(rng, count, start=10**12):
    """``count`` sample rows at non-decreasing ns times past 2**32."""
    rows = []
    time = start
    for _ in range(count):
        time += rng.choice((0, 1, 37_000))
        rows.append(
            SampleRecord(
                time,
                rng.choice(FLOWS),
                rng.choice(BACKENDS),
                rng.randrange(1, 10**7),
                rng.choice((5_000, 50_000)),
            )
        )
    return rows


def logged(rows):
    log = ColumnLog(SampleRecord, "qooqq")
    for row in rows:
        log.append(row.time, row.flow, row.backend, row.t_lb, row.delta)
    return log


@pytest.mark.parametrize("count", [0, 1, 2, 7, 64])
def test_reads_match_a_list_of_rows(count):
    rows = sample_rows(random.Random(count), count)
    log = logged(rows)
    assert isinstance(log, Sequence)
    assert len(log) == len(rows)
    assert list(log) == rows
    assert list(reversed(log)) == rows[::-1]
    for index in range(-count, count):
        assert log[index] == rows[index]
    for index in (count, -count - 1):
        with pytest.raises(IndexError):
            log[index]
    for k in range(count + 2):
        assert log[k:] == rows[k:]  # obs fold's high-water-mark read
    for start, stop, step in [(None, None, 2), (-3, None, None), (1, -1, 3), (None, None, -1)]:
        assert log[start:stop:step] == rows[start:stop:step]


def test_rows_appended_mid_iteration_are_seen_as_a_list_sees_them():
    rows = sample_rows(random.Random(1), 3)
    log = logged(rows)
    seen = []
    for row in log:
        seen.append(row)
        if len(log) < 5:
            log.append(row.time, row.flow, row.backend, row.t_lb, row.delta)
    assert len(seen) == 5


def test_columns_are_typed_and_object_fields_shared():
    rows = sample_rows(random.Random(2), 10)
    log = logged(rows)
    time, flow, backend, t_lb, delta = log.columns
    assert time.typecode == t_lb.typecode == delta.typecode == "q"
    assert isinstance(flow, list) and isinstance(backend, list)
    assert all(row.flow is shared for row, shared in zip(log, flow))
    assert log[4].batch_start == rows[4].batch_start


def request_log(rows):
    log = ColumnLog(RequestRecord, "qoqqqoq")
    for row in rows:
        log.append(
            row.request_id,
            row.op,
            row.sent_at,
            row.completed_at,
            row.latency,
            row.server,
            row.local_port,
        )
    return log


def request_rows(rng, count, base):
    rows = []
    done = 10**9
    for request_id in range(base, base + count):
        done += rng.choice((0, 0, 1, 500))
        sent = done - rng.randrange(1, 10**6)
        rows.append(
            RequestRecord(
                request_id,
                rng.choice((Op.GET, Op.SET)),
                sent,
                done,
                done - sent,
                rng.choice(BACKENDS + [None]),
                rng.randrange(1024, 65536),
            )
        )
    return rows


@pytest.mark.parametrize("seed", range(5))
def test_merge_is_concatenate_then_stable_sort(seed):
    rng = random.Random(seed)
    per_client = [request_rows(rng, rng.randrange(0, 40), 1000 * i) for i in range(4)]
    merged = merge_logs([request_log(rows) for rows in per_client], "completed_at")
    expected = list(chain.from_iterable(per_client))
    expected.sort(key=lambda r: r.completed_at)
    assert list(merged) == expected


def test_merging_one_log_copies_it():
    rows = request_rows(random.Random(9), 20, 0)
    log = request_log(rows)
    merged = merge_logs([log], "completed_at")
    assert merged is not log and list(merged) == rows
    # The copy does not grow with the log it was merged from.
    log.append(*[getattr(rows[0], name) for name in RequestRecord.__slots__])
    assert len(merged) == 20


def test_scenario_records_merge_clients_as_extend_then_sort():
    config = ScenarioConfig(
        seed=3,
        duration=30 * MILLISECONDS,
        n_clients=3,
        n_servers=3,
        network=NetworkParams(bandwidth_bps=None),
    )
    result = run_scenario(config)
    expected = []
    for client in result.scenario.clients:
        expected.extend(client.records)
    expected.sort(key=lambda r: r.completed_at)
    assert list(result.records) == expected
    # Completions from different clients land on the same ns, so the
    # tie order is exercised.
    first, second, third = [
        {r.completed_at for r in client.records} for client in result.scenario.clients
    ]
    assert first & second and (first | second) & third
    assert result.latencies() == [r.latency for r in expected]
    assert result.latencies(op=Op.GET, start=10 * MILLISECONDS) == [
        r.latency for r in expected if r.op is Op.GET and r.completed_at >= 10 * MILLISECONDS
    ]
