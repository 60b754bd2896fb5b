"""Paired A/B runs of one ledger workload: parent tree against change tree.

    python3 benchmarks/ab.py PARENT CHANGE --workload W --pairs N --seconds S [--seed S]

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Each pair
runs ``benchmarks/ledger/run.py --trace 0`` once from each tree, in a
fresh process, one at a time; even pairs run the parent first, odd pairs
the change, so drift on a shared box falls on both sides alike.

For every end-to-end metric the report gives each side's median and
quartiles, the change's wins (ties count for neither side) and whether
the gain rule holds: the change wins at least nine tenths of the pairs,
and the medians differ by more than the parent's interquartile range.
The metrics' directions come from the change tree's ``BENCHMARK.json``.

Exits 1 if the two trees disagree on ``sim_digest`` (the change altered
what is simulated) or a run reports itself broken; 0 otherwise, whether
or not a gain holds.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: The share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values``; a single value is its own spread."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0], ordered[0], ordered[0]
    q1, median, q3 = statistics.quantiles(ordered, n=4)
    return q1, median, q3


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs where the change is strictly better; ties count for neither."""
    if better == "lower":
        return sum(1 for p, c in zip(parent, change) if c < p)
    return sum(1 for p, c in zip(parent, change) if c > p)


def gain_holds(parent: Sequence[float], change: Sequence[float], better: str) -> bool:
    """Whether the change's gain on one metric is claimable.

    At least ``WIN_SHARE`` of the pairs are wins, and the medians differ,
    in the better direction, by more than the parent's interquartile
    range.
    """
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    if better == "lower":
        gap = parent_median - change_median
    else:
        gap = change_median - parent_median
    return wins(parent, change, better) >= WIN_SHARE * len(parent) and gap > q3 - q1


def run_once(
    tree: str, workload: str, seed: int, seconds: float
) -> Tuple[Dict[str, float], str, List[str]]:
    """One ``--trace 0`` run from ``tree``: (metrics, sim_digest, broken)."""
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(tree, "benchmarks", "ledger", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", repr(seconds),
            "--trace", "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    lines = completed.stdout.splitlines()
    digest = ""
    broken = []
    for line in lines:
        if line.startswith("sim_digest "):
            digest = line.split()[1]
        elif line.startswith("BROKEN: "):
            broken.append(line[len("BROKEN: "):])
    document = json.loads(lines[-1])
    metrics = {name: cell["value"] for name, cell in document["metrics"].items()}
    return metrics, digest, broken


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    trees = {"parent": args.parent, "change": args.change}
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    problems: List[str] = []
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            metrics, digests[side], broken = run_once(
                trees[side], args.workload, args.seed, args.seconds
            )
            runs[side].append(metrics)
            problems.extend(
                "pair %d %s: %s" % (index, side, message) for message in broken
            )
        if digests["parent"] != digests["change"]:
            problems.append(
                "pair %d: sim_digest parent %s != change %s"
                % (index, digests["parent"], digests["change"])
            )
        print(
            "pair %d (%s first): sim_digest %s  run_s parent %.4f change %.4f"
            % (index, order[0], digests["change"], runs["parent"][-1]["run_s"],
               runs["change"][-1]["run_s"]),
            flush=True,
        )

    print(
        "\n%s, seed %d, %d pairs of %g s runs"
        % (args.workload, args.seed, args.pairs, args.seconds)
    )
    print(
        "%-16s %-6s %12s %12s %12s | %12s %12s %12s | %7s %5s  %s"
        % ("metric", "better", "parent q1", "median", "q3",
           "change q1", "median", "q3", "ratio", "wins", "gain holds")
    )
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        print(
            "%-16s %-6s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %7.3f %2d/%-2d  %s"
            % (name, better, p1, pm, p3, c1, cm, c3,
               cm / pm if pm else float("nan"),
               wins(parent, change, better), len(parent),
               "yes" if gain_holds(parent, change, better) else "no")
        )
    for problem in problems:
        print("PROBLEM: %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
