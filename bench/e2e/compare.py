#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs: a parent and a change.

    python3 bench/e2e/compare.py PARENT/results.jsonl CHANGE/results.jsonl

Each file holds the records run.py --repeat writes, one run per line.  Runs
are paired by (workload, seed, trace); run the two sides alternately, at
least ten pairs, with identical settings.  For every workload and metric it
prints each side's median and quartiles and one label:

  better      the change wins at least 90% of the pairs (ties count for
              neither side), at least ten pairs were run, and the medians
              differ by more than the parent's quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (end-to-end metrics only);
  unresolved  not worse, but a side's quartile spread exceeds the bound,
              unless every change run beats every parent run;
  unchanged   none of the above;
  mismatch    a count (unit "count") differs within a pair: counts must
              repeat exactly for the same seed.

Per-layer metrics have no bound and are only ever labelled better, worse
(the gain rule with the sides swapped) or unchanged; they explain an
end-to-end result and do not decide it.  The exit status is 1 when any
end-to-end metric is worse or any count mismatches.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt_quartiles(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def _gain(sign, base, other):
    """True when `other` beats `base` by the gain rule (direction `sign`)."""
    n = len(base)
    wins = sum(1 for b, o in zip(base, other) if sign * (o - b) > 0)
    q1, med_b, q3 = quartiles(base)
    _, med_o, _ = quartiles(other)
    return n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * (med_o - med_b) > q3 - q1


def label(metric, parent, change):
    """Label one metric from paired parent/change values (same order)."""
    if metric["unit"] == "count":
        return "unchanged" if parent == change else "mismatch"
    sign = 1 if metric["better"] == "higher" else -1
    if _gain(sign, parent, change):
        return "better"
    bound = metric.get("bound")
    if bound is None:
        return "worse" if _gain(-sign, change, parent) else "unchanged"
    _, med_p, _ = quartiles(parent)
    _, med_c, _ = quartiles(change)
    if sign * (med_c - med_p) < -bound * abs(med_p):
        return "worse"
    spread = max((q3 - q1) / abs(m) if m else float("inf")
                 for q1, m, q3 in (quartiles(parent), quartiles(change)))
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(bench, parent_records, change_records):
    """Rows of (workload, trace, metric, pairs, parent q1/med/q3, change q1/med/q3, label)."""
    index = {}
    for side, records in (("p", parent_records), ("c", change_records)):
        for r in records:
            index.setdefault((r["workload"], r["trace"]), {}).setdefault(r["seed"], {})[side] = r
    rows = []
    for (workload, trace), by_seed in sorted(index.items()):
        pairs = [v for _, v in sorted(by_seed.items()) if "p" in v and "c" in v]
        if not pairs:
            continue
        metrics = bench["per_layer"] if trace else bench["end_to_end"]
        for m in metrics:
            p = [v["p"]["result"]["metrics"][m["name"]]["value"] for v in pairs]
            c = [v["c"]["result"]["metrics"][m["name"]]["value"] for v in pairs]
            rows.append({"workload": workload, "trace": trace, "metric": m["name"],
                         "unit": m["unit"], "pairs": len(pairs), "parent": quartiles(p),
                         "change": quartiles(c), "label": label(m, p, c)})
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(Path(__file__).resolve().parents[2] /
                                               "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    rows = compare(bench, load(args.parent), load(args.change))
    if not rows:
        print("compare.py: no (workload, seed, trace) pairs in common")
        return 1
    current = None
    for r in rows:
        if (r["workload"], r["trace"]) != current:
            current = (r["workload"], r["trace"])
            note = "" if r["pairs"] >= MIN_PAIRS else f"  (fewer than {MIN_PAIRS}: no gain can be claimed)"
            print(f"\n{r['workload']} trace={r['trace']}: {r['pairs']} pairs{note}")
            print(f"  {'metric':44} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}  label")
        print(f"  {r['metric']:44} {fmt_quartiles(r['parent']):>36} "
              f"{fmt_quartiles(r['change']):>36}  {r['label']}")
    labels = [r["label"] for r in rows]
    print("\nsummary: " + ", ".join(f"{k} {labels.count(k)}" for k in
                                    ("better", "unchanged", "unresolved", "worse", "mismatch")))
    failing = [r for r in rows if r["label"] == "mismatch" or
               (r["label"] == "worse" and not r["trace"])]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
