#!/usr/bin/env python3
"""Compare two sets of benchmark runs (parent and change, or A/A).

    python3 bench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the run records bench/run.py writes (its
bench/results/).  For every (workload, end-to-end metric) pair one row
gives each side's median and quartiles, the share of pairs the change
wins and a verdict under the bounds in BENCHMARK.json:

  better      the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread;
  worse       the change's median is worse than the parent's by more
              than the bound;
  unresolved  otherwise, when the parent's runs spread wider than the
              bound and not every change run reads better than every
              parent run;
  unchanged   otherwise.

Runs pair up by seed where both sides ran the same seeds, else in file
order.  Per-layer metrics from traced runs follow: counts are compared
exactly, times are given as medians.  Last comes the tracing overhead
(traced minus untraced wall_s, measured within each traced run).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """{(workload, trace): [record, ...]} sorted by seed."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("tiny"):
            continue
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a_recs, b_recs, metric):
    a = {r["seed"]: r["metrics"][metric]["value"] for r in a_recs}
    b = {r["seed"]: r["metrics"][metric]["value"] for r in b_recs}
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s], b[s]) for s in common]
    return list(zip(a.values(), b.values()))


def verdict(a_vals, b_vals, paired, better, bound):
    sign = 1.0 if better == "lower" else -1.0  # positive: the change is worse
    a_q1, a_med, a_q3 = quartiles(a_vals)
    _, b_med, _ = quartiles(b_vals)
    wins = sum(1 for a, b in paired if sign * (b - a) < 0)
    spread = a_q3 - a_q1
    if paired and wins >= 0.9 * len(paired) and sign * (b_med - a_med) < 0 \
            and abs(b_med - a_med) > spread:
        return "better", wins
    if sign * (b_med - a_med) > bound * abs(a_med):
        return "worse", wins
    all_better = all(sign * (b - a) < 0 for a in a_vals for b in b_vals)
    if spread > bound * abs(a_med) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change})

    print("%-15s %-12s %-30s %-30s %-7s %s"
          % ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
             "wins", "verdict"))
    for w in workloads:
        a_recs, b_recs = parent.get((w, 0), []), change.get((w, 0), [])
        if not a_recs or not b_recs:
            print("%-15s (untraced runs missing on one side)" % w)
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            a_vals = [r["metrics"][name]["value"] for r in a_recs]
            b_vals = [r["metrics"][name]["value"] for r in b_recs]
            paired = pairs(a_recs, b_recs, name)
            result, wins = verdict(a_vals, b_vals, paired, m["better"], m["bound"])
            print("%-15s %-12s %-30s %-30s %-7s %s" % (
                w, name, "%.5g [%.5g, %.5g] %s" % (*(quartiles(a_vals)[i] for i in (1, 0, 2)),
                                                   m["unit"]),
                "%.5g [%.5g, %.5g] %s" % (*(quartiles(b_vals)[i] for i in (1, 0, 2)),
                                          m["unit"]),
                "%d/%d" % (wins, len(paired)), result))

    print("\nper-layer (traced runs): counts compared exactly, times as medians")
    for w in workloads:
        a_recs, b_recs = parent.get((w, 1), []), change.get((w, 1), [])
        if not a_recs or not b_recs:
            print("%-15s (traced runs missing on one side)" % w)
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            if m["unit"] == "count":
                same = all(a == b for a, b in pairs(a_recs, b_recs, name))
                a_vals = sorted({r["metrics"][name]["value"] for r in a_recs})
                b_vals = sorted({r["metrics"][name]["value"] for r in b_recs})
                print("%-15s %-46s %s -> %s %s" % (w, name, a_vals, b_vals,
                                                    "same" if same else "DIFFERS"))
            else:
                a_med = statistics.median(r["metrics"][name]["value"] for r in a_recs)
                b_med = statistics.median(r["metrics"][name]["value"] for r in b_recs)
                print("%-15s %-46s %.5g -> %.5g %s" % (w, name, a_med, b_med, m["unit"]))
        for side, recs in (("parent", a_recs), ("change", b_recs)):
            over = statistics.median(r["metrics"]["trace.overhead_s"]["value"] for r in recs)
            print("%-15s tracing overhead (%s): %.4g s" % (w, side, over))
    return 0


if __name__ == "__main__":
    sys.exit(main())
