#!/usr/bin/env python3
"""The paper's Fig 3 story: a 1 ms fault, two load balancers.

Mid-run, 1 ms of delay is injected on the LB→server0 path.  A plain
Maglev LB keeps sending half the connections into the slow path and its
p95 GET latency stays inflated; the latency-aware LB (in-band feedback)
notices within milliseconds — from client→server packets alone — and
shifts traffic away.

Run:  python examples/latency_inflation.py
"""

from repro import units
from repro.harness import Fig3Config, run_fig3
from repro.units import to_millis


def main() -> None:
    config = Fig3Config(duration=units.seconds(3))
    print(
        "running Fig 3 scenario: 2 servers, 1 ms injected on %s at t=%.1fs ..."
        % (config.injected_server, to_millis(config.injection_at) / 1000)
    )
    result = run_fig3(config)
    print()
    print(result.report())

    shifts = result.results["feedback"].shift_times()
    after = [t for t in shifts if t >= config.injection_at]
    if after:
        print(
            "feedback LB reacted %.1f ms after the injection (%d total shifts)"
            % (to_millis(after[0] - config.injection_at), len(shifts))
        )


if __name__ == "__main__":
    main()
