#!/usr/bin/env python3
"""The paper's Fig 2 story: why the timeout must be learned.

One backlogged TCP flow crosses the LB; its true RTT steps up mid-run.
FIXEDTIMEOUT with a too-small δ floods erroneously low estimates; with a
too-large δ it returns a trickle of inflated ones.  ENSEMBLETIMEOUT,
run by the in-band feedback loop itself, finds the sample cliff each
epoch and tracks the truth through the step.

Run:  python examples/ensemble_vs_fixed.py
"""

from repro.harness import BacklogConfig, run_fig2
from repro.units import SECONDS


def main() -> None:
    fig2 = run_fig2(BacklogConfig(duration=3 * SECONDS, step_at=3 * SECONDS // 2))
    print("Fig 2(a): FIXEDTIMEOUT with fixed timeouts")
    print(fig2.panel_a())
    print()
    print("Fig 2(b): ENSEMBLETIMEOUT finds the cliff")
    print(fig2.panel_b())


if __name__ == "__main__":
    main()
