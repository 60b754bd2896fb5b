"""Digest goldens of the cost ledger's five workloads.

Each workload in ``benchmarks/ledger/workloads.py`` is run once at a
twentieth of its benchmark size, seed 0, through the ledger's own
``measure.run_once``; its ``sim_digest`` (every exact counter, hashed), the
counters themselves and ``sim_mean_ms`` are pinned in
``tests/golden/ledger_digests.json`` by ``test_ledger_digests.py``.  The
ledger is loaded from its files by path and is not edited.

Regenerate (only after an intentional behaviour change; review the diff)::

    PYTHONPATH=src python tests/ledger_digests.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from typing import Dict

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
LEDGER_DIR = os.path.join(os.path.dirname(TESTS_DIR), "benchmarks", "ledger")
GOLDEN = os.path.join(TESTS_DIR, "golden", "ledger_digests.json")
SEED = 0
SCALE = 0.05


def _load(name: str):
    """Import ``benchmarks/ledger/<name>.py`` under its own module name.

    ``measure`` does ``import workloads``; registering each module in
    ``sys.modules`` lets that resolve without putting the ledger directory
    (whose ``trace.py`` shadows the standard library's) on ``sys.path``.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(LEDGER_DIR, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
measure = _load("measure")


def snapshot(name: str) -> Dict[str, object]:
    """One small run of workload ``name``, as the golden records it."""
    result = measure.run_once(name, SEED, SCALE)
    assert result["broken"] == [] and result["failed"] == 0, result["broken"]
    return {
        "digest": result["digest"],
        "sim_mean_ms": repr(result["sim_mean_ms"]),
        "counts": {k: repr(v) for k, v in sorted(result["counts"].items())},
    }


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> None:
    golden = {name: snapshot(name) for name in workloads.WORKLOADS}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d workloads)" % (GOLDEN, len(golden)))


if __name__ == "__main__":
    main()
