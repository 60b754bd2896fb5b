"""Every ledger workload still simulates exactly what the golden recorded.

A small seed-0 run of each of the five ledger workloads is compared with
``tests/golden/ledger_digests.json``: the digest, every exact counter and
the mean simulated latency.  A change that moves any simulated event
(tie order, a timeout, a drop) fails here.  See ``ledger_digests.py`` for
how the golden is regenerated after an intentional change.
"""

from __future__ import annotations

import pytest

from tests import ledger_digests

GOLDEN = ledger_digests.load_golden()


def test_golden_covers_every_workload():
    assert sorted(GOLDEN) == sorted(ledger_digests.workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(ledger_digests.workloads.WORKLOADS))
def test_workload_matches_golden(name):
    got = ledger_digests.snapshot(name)
    expected = GOLDEN[name]
    assert got["counts"] == expected["counts"]
    assert got["sim_mean_ms"] == expected["sim_mean_ms"]
    assert got["digest"] == expected["digest"]
