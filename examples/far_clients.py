#!/usr/bin/env python3
"""Open question #1: what do far clients do to the in-band signal?

The LB controls only the LB→server leg; the client↔LB legs are baked
into every ``T_LB`` sample.  This example moves the client further away
and shows (a) the absolute estimates inflate, but (b) the *difference*
between a slow and a healthy backend — the quantity the controller acts
on — stays pinned to the injected 1 ms.

Run:  python examples/far_clients.py
"""

from repro.harness.ablations import run_ablation
from repro.harness.report import format_rows


def main() -> None:
    rows = run_ablation("far-clients")
    print("1 ms injected on server0 mid-run; measurement only (no control)")
    print()
    print(format_rows(rows))
    print()
    print(
        "Reading: est_injected - est_healthy (gap_us) stays ~1000 us even as\n"
        "the client moves 2 ms away, so ranking-based control still works —\n"
        "but the absolute estimates no longer describe the controllable path."
    )


if __name__ == "__main__":
    main()
