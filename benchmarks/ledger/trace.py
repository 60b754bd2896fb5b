"""The traced run: host time per layer, from the interpreter's profile hook.

The layers call each other synchronously and ``Pipe._pump`` advances the
engine inline, so spans around a few public methods would charge every
engine-dispatched private callback (pump, RTO, think time) to ``sim``.
``cProfile`` times every call into every function instead, and — unlike
``Simulator.set_profiler`` — leaves the pipes' bulk-drain path armed.

A function belongs to the layer whose ``src/repro/<layer>/`` directory
holds its file.  Time in builtins and the standard library is charged to
the layer of the function that called it, through the profile's caller
table.  What is left (this benchmark's own callbacks, repro packages that
are not a layer) is ``trace.unattributed_s``.

Known distortion: the hook costs the same per call whatever the callee
does, so layers made of many small functions read larger than they are.
"""

from __future__ import annotations

import cProfile
import os
from typing import Dict, Iterable, Optional, Tuple

from measure import LAYERS

#: pstats key and row: (file, line, name) -> (cc, nc, tt, ct, callers).
Key = Tuple[str, int, str]

_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))

#: Public entry points of each layer, as (layer, file suffix, function):
#: the boundary spans.  Reported with calls and cumulative seconds.
SPANS = (
    ("sim", "sim/engine.py", "run_until"),
    ("sim", "sim/engine.py", "run"),
    ("net", "net/pipe.py", "send"),
    ("net", "net/pipe.py", "send_batch"),
    ("net", "net/network.py", "send_from"),
    ("net", "net/network.py", "send_via"),
    ("transport", "transport/endpoint.py", "on_packet"),
    ("transport", "transport/endpoint.py", "connect"),
    ("transport", "transport/connection.py", "handle_packet"),
    ("transport", "transport/connection.py", "send_message"),
    ("transport", "transport/retransmit.py", "on_timeout"),
    ("lb", "lb/dataplane.py", "on_packet"),
    ("lb", "lb/conntrack.py", "lookup"),
    ("lb", "lb/conntrack.py", "insert"),
    ("lb", "lb/maglev.py", "build"),
    ("lb", "lb/maglev.py", "lookup_flow"),
    ("core", "core/ensemble.py", "observe"),
    ("core", "core/estimator.py", "observe"),
    ("core", "core/estimator.py", "snapshot"),
    ("core", "core/controller.py", "maybe_update"),
    ("app", "app/server.py", "_on_request"),
    ("app", "app/client.py", "_on_response"),
)


def layer_of(filename: str) -> Optional[str]:
    """Layer owning ``filename``; "bench"/"other" for code that is not a
    layer; None for builtins and the standard library."""
    path = filename.replace(os.sep, "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        package = path[marker + len("/repro/"):].split("/", 1)[0]
        return package if package in LAYERS else "other"
    if os.path.abspath(filename).startswith(_LEDGER_DIR):
        return "bench"
    return None


def aggregate(stats: Dict[Key, tuple]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` over a pstats table.

    Every second of ``tt`` in the table lands in exactly one bucket: a
    layer, "bench", "other", or "unowned" (foreign code nothing called).
    """
    buckets: Dict[str, Dict[str, float]] = {}

    def charge(layer: str, seconds: float, calls: int = 0) -> None:
        bucket = buckets.setdefault(layer, {"self_s": 0.0, "calls": 0})
        bucket["self_s"] += seconds
        bucket["calls"] += calls

    owners: Dict[Key, Dict[str, float]] = {}

    def owner(key: Key, path: Tuple[Key, ...]) -> Dict[str, float]:
        """Layer fractions a foreign function's time is charged by."""
        layer = layer_of(key[0])
        if layer is not None:
            return {layer: 1.0}
        if key in owners:
            return owners[key]
        shares: Dict[str, float] = {}
        callers = stats[key][4] if key in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if key not in path and total > 0:
            for caller, edge in callers.items():
                for name, fraction in owner(caller, path + (key,)).items():
                    shares[name] = shares.get(name, 0.0) + fraction * edge[3] / total
        owners[key] = shares
        return shares

    for key, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(key[0])
        if layer is not None:
            charge(layer, tt, nc)
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for name, fraction in owner(caller, (key,)).items():
                charge(name, edge[2] * fraction)
                charged += edge[2] * fraction
        charge("unowned", tt - charged)
    return buckets


def spans(stats: Dict[Key, tuple]) -> Dict[str, Dict[str, object]]:
    """Layer, calls and cumulative seconds of every boundary span that ran,
    keyed ``"<file suffix>:<function>"``."""
    out: Dict[str, Dict[str, object]] = {}
    for (filename, _line, name), (_cc, nc, _tt, ct, _callers) in stats.items():
        path = filename.replace(os.sep, "/")
        for layer, suffix, function in SPANS:
            if name == function and path.endswith("/repro/" + suffix):
                span = out.setdefault(
                    "%s:%s" % (suffix, function),
                    {"layer": layer, "calls": 0, "cum_s": 0.0},
                )
                span["calls"] += nc
                span["cum_s"] += ct
    return out


def functions(stats: Dict[Key, tuple]) -> Iterable[dict]:
    """Per-function rows for trace.json, heaviest self time first."""
    rows = (
        {
            "function": "%s:%d(%s)" % key,
            "calls": nc,
            "self_ns": int(tt * 1e9),
            "cum_ns": int(ct * 1e9),
        }
        for key, (_cc, nc, tt, ct, _callers) in stats.items()
    )
    return sorted(rows, key=lambda row: -row["self_ns"])


def table_of(profiler: cProfile.Profile) -> Dict[Key, tuple]:
    """The finished profiler's pstats table."""
    profiler.create_stats()
    return profiler.stats
