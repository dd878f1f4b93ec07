#!/usr/bin/env python3
"""Summarise or compare runs recorded with `run.py --record FILE`.

    python3 perfbench/compare.py RUNS.jsonl                 # spread per metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl       # NEW against BASE
    python3 perfbench/compare.py RUNS.jsonl --baseline OUT  # write medians

Spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) over the median, per workload and
metric; it is flagged when it exceeds a third of the metric's bound in
BENCHMARK.json. A comparison flags a median that worsened by more than the
bound. Runs made with different kernel backends are never compared: the
script exits with status 2 instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def backends(records) -> set:
    return {r["env"]["backend"] for r in records}


def by_metric(records, trace: int) -> dict:
    """(workload, metric) -> values, in record order."""
    out = defaultdict(list)
    for r in records:
        if r["trace"] == trace:
            for name, m in r["result"]["metrics"].items():
                out[(r["env"]["workload"], name)].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="+", help="one or two record files")
    ap.add_argument("--baseline", metavar="OUT",
                    help="write per-workload quartiles of every metric")
    args = ap.parse_args(argv)
    if len(args.runs) > 2:
        ap.error("give one or two record files")
    sets = [load(p) for p in args.runs]
    found = set().union(*(backends(s) for s in sets))
    if len(found) != 1:
        print(f"refusing to compare runs of different backends: "
              f"{sorted(found)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    if args.baseline:
        env = {k: v for k, v in sets[0][0]["env"].items()
               if k not in ("workload", "seed", "workers")}
        doc = {"env": env, "runs": len(sets[0]), "metrics": {}}
        for trace in (0, 1):
            for (w, name), vals in sorted(by_metric(sets[0], trace).items()):
                q1, _, q3 = quartiles(vals)
                doc["metrics"].setdefault(w, {})[name] = {
                    "median": statistics.median(vals), "q1": q1, "q3": q3,
                    "n": len(vals)}
        Path(args.baseline).write_text(json.dumps(doc, indent=1) + "\n",
                                       encoding="utf-8")

    status = 0
    base = by_metric(sets[0], 0)
    new = by_metric(sets[-1], 0)
    for (w, name), vals in sorted(base.items()):
        m = bounds[name]
        line = (f"{w:<12} {name:<20} n={len(vals):<3} "
                f"median={statistics.median(vals):<12.6g} "
                f"spread={spread(vals):.4f} (bound {m['bound']})")
        if spread(vals) > m["bound"] / 3 and name != "setup_s":
            line += "  WIDE"
        if len(sets) == 2:
            b, n = statistics.median(vals), statistics.median(new[(w, name)])
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            line += (f"  new={n:<12.6g} worse_by={worse:+.4f} "
                     f"new_spread={spread(new[(w, name)]):.4f}")
            if worse > m["bound"]:
                line += "  REGRESSED"
                status = 1
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
