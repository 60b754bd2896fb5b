"""Parent-versus-change table over two ledger files.

``compare.py A.json B.json`` prints one row per workload x end-to-end
metric — orig, new, diff-% — and an averages row per metric, marks rows
worse than the metric's bound in BENCHMARK.json, reports a metric as
*unresolved* (not as unchanged) when either side's own spread exceeds
that bound, and exits non-zero on any regression or any fall in
``completed_share``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _spread(cell: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    return (cell["q3"] - cell["q1"]) / abs(cell["median"]) if cell["median"] else 0.0


def compare(orig: dict, new: dict, spec: dict) -> List[dict]:
    """One row per workload x end-to-end metric present on both sides."""
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in orig["workloads"] or name not in new["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            a = orig["workloads"][name]["end_to_end"][metric["name"]]
            b = new["workloads"][name]["end_to_end"][metric["name"]]
            change = (b["median"] - a["median"]) / abs(a["median"])
            worse = change if metric["better"] == "lower" else -change
            spread = max(_spread(a), _spread(b))
            if metric["name"] == "completed_share" and b["median"] < a["median"]:
                verdict = "REGRESSION (more operations failed)"
            elif spread > metric["bound"]:
                verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
            elif worse > metric["bound"]:
                verdict = "REGRESSION (bound %.0f%%)" % (100 * metric["bound"])
            else:
                verdict = ""
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "orig": a["median"],
                    "new": b["median"],
                    "diff_pct": 100 * change,
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: List[dict]) -> str:
    """The rows as a fixed-width table with an averages section."""
    header = "| %-18s | %-16s | %14s | %14s | %9s | %s" % (
        "workload", "metric", "orig", "new", "diff", "verdict"
    )
    rule = "-" * len(header)
    lines = [rule, header, rule]
    previous: Optional[str] = None
    for row in rows:
        if previous is not None and row["workload"] != previous:
            lines.append(rule)
        previous = row["workload"]
        lines.append(
            "| %-18s | %-16s | %14.6f | %14.6f | %+8.2f%% | %s"
            % (row["workload"], row["metric"], row["orig"], row["new"],
               row["diff_pct"], row["verdict"])
        )
    lines += [rule, "| averages over workloads", rule]
    by_metric: Dict[str, List[dict]] = {}
    for row in rows:
        by_metric.setdefault(row["metric"], []).append(row)
    for metric, group in by_metric.items():
        count = len(group)
        lines.append(
            "| %-18s | %-16s | %14.6f | %14.6f | %+8.2f%% |"
            % (
                "(%d workloads)" % count,
                metric,
                sum(r["orig"] for r in group) / count,
                sum(r["new"] for r in group) / count,
                sum(r["diff_pct"] for r in group) / count,
            )
        )
    lines.append(rule)
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py ORIG.json NEW.json", file=sys.stderr)
        return 2
    orig, new = _load(argv[0]), _load(argv[1])
    spec = _load(os.path.join(REPO_ROOT, "BENCHMARK.json"))
    rows = compare(orig, new, spec)
    print(render(rows))
    for name in orig["workloads"]:
        a = orig["workloads"][name].get("digest")
        b = new["workloads"].get(name, {}).get("digest")
        if a != b:
            print("sim_digest differs on %s: %s -> %s (simulated behaviour moved)" % (name, a, b))
    regressions = [row for row in rows if row["verdict"].startswith("REGRESSION")]
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
