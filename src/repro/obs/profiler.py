"""Opt-in engine profiler: where does simulated time cost wall time?

The :class:`repro.sim.engine.Simulator` dispatches every event through
one dispatch point, so profiling is a single seam: when a profiler is
installed (``sim.set_profiler``), each callback runs under
:meth:`EngineProfiler.run`, which aggregates wall-clock nanoseconds by
*site* — the callback's ``module.qualname``.  Bound methods and
``functools.partial`` wrappers are unwrapped so ``_ConnLoop._send_one``
shows up once, not once per connection object.

The profiler observes only; it never touches the event queue or the
virtual clock, so profiled runs stay byte-identical in simulation
results (they are merely slower in wall time).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List


def site_name(callback: Callable[[], None]) -> str:
    """Stable aggregation key for a callback: ``module.qualname``."""
    fn = callback
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)  # unwrap bound methods
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    return "%s.%s" % (module, qualname)


@dataclass
class SiteStats:
    """Aggregate cost of one callback site."""

    site: str
    calls: int = 0
    wall_ns: int = 0

    @property
    def mean_ns(self) -> float:
        """Average wall nanoseconds per call."""
        return self.wall_ns / self.calls if self.calls else 0.0


class EngineProfiler:
    """Aggregates per-site wall time for every dispatched event."""

    def __init__(self) -> None:
        self._sites: Dict[str, SiteStats] = {}
        self.events = 0
        self.wall_ns = 0

    def run(self, fn: Callable, *args) -> None:
        """Execute ``fn(*args)``, charging its wall time to ``fn``'s site.

        The engine calls this once per event: ``fn`` is the event's
        callback, or a pipe's arrival receiver with the packet handle.
        """
        start = time.perf_counter_ns()
        try:
            fn(*args)
        finally:
            elapsed = time.perf_counter_ns() - start
            site = site_name(fn)
            stats = self._sites.get(site)
            if stats is None:
                stats = SiteStats(site=site)
                self._sites[site] = stats
            stats.calls += 1
            stats.wall_ns += elapsed
            self.events += 1
            self.wall_ns += elapsed

    def top_sites(self, n: int = 10) -> List[SiteStats]:
        """The ``n`` most expensive sites by total wall time."""
        ranked = sorted(
            self._sites.values(), key=lambda s: s.wall_ns, reverse=True
        )
        return ranked[:n]

    def events_per_second(self) -> float:
        """Dispatched events per wall-clock second inside callbacks."""
        if self.wall_ns == 0:
            return 0.0
        return self.events / (self.wall_ns / 1e9)

    def report_lines(self, n: int = 8) -> List[str]:
        """Human-readable summary for ``ScenarioResult.report()``."""
        lines = [
            "profile: %d events, %.1f ms in callbacks, %.0f events/sec"
            % (self.events, self.wall_ns / 1e6, self.events_per_second())
        ]
        for stats in self.top_sites(n):
            lines.append(
                "  %-56s %9d calls %10.3f ms %8.0f ns/call"
                % (
                    stats.site,
                    stats.calls,
                    stats.wall_ns / 1e6,
                    stats.mean_ns,
                )
            )
        return lines
