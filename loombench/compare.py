#!/usr/bin/env python3
"""Compare two result sets of the Loom benchmark.

    python3 loombench/compare.py BASE.jsonl HEAD.jsonl [--bench BENCHMARK.json]

A result set is the JSON-lines file `sweep.py` writes: one record per
run, holding the workload, seed, trace flag, the run's facts and its
result line. For every workload and metric this prints both sides'
median and quartiles, the paired win share (runs paired by seed, or in
run order when the two sets share no seed), and a verdict:

  improved    the head wins at least 9 in 10 pairs and the medians differ
              by more than the base's interquartile range, or every head
              run beats every base run;
  regressed   the head median is worse than the base median by more than
              the metric's bound;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound (and the head does not beat every
              base run);
  unchanged   otherwise.

Per-layer metrics have no bound; they get `changed` (the improved rule
in either direction) or `same`.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load_bench(path):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    """Maps (workload, trace) to the list of run records in `path`."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("result") is not None:
                runs[(rec["workload"], int(rec["trace"]))].append(rec)
    return runs


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def metric_values(runs, name):
    """{seed: value} of metric `name` over `runs`."""
    out = {}
    for rec in runs:
        m = rec["result"]["metrics"].get(name)
        if m is not None and m.get("value") is not None:
            out[rec["seed"]] = float(m["value"])
    return out


def verdict(base, head, better, bound):
    """Verdict and paired win share for one metric; `base` and `head` map
    seed to value."""
    b, h = list(base.values()), list(head.values())
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(base[s], head[s]) for s in base if s in head]
    if not pairs:
        # Different seeds on each side: pair the runs in the order they ran.
        pairs = list(zip(b, h))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs) if pairs else float("nan")
    mb, mh = statistics.median(b), statistics.median(h)
    q1b, _, q3b = quartiles(b)
    beats_all = min(h) > max(b) if better == "higher" else max(h) < min(b)
    clear = share >= 0.9 and abs(mh - mb) > (q3b - q1b)
    if bound is None:
        return ("changed" if clear or beats_all else "same"), share
    if beats_all or (clear and sign * (mh - mb) > 0):
        return "improved", share
    if max(spread(b), spread(h)) > bound:
        return "unresolved", share
    worse = -sign * (mh - mb) / mb if mb else 0.0
    if worse > bound:
        return "regressed", share
    return "unchanged", share


def fmt(v):
    if v == 0 or (abs(v) >= 0.01 and abs(v) < 1e6):
        return f"{v:.4g}"
    return f"{v:.3e}"


def compare(base_runs, head_runs, bench, out=sys.stdout):
    catalogs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    worst = 0
    for key in sorted(set(base_runs) & set(head_runs)):
        workload, trace = key
        print(f"\n== {workload} ({'traced' if trace else 'plain'}; "
              f"{len(base_runs[key])} base runs, {len(head_runs[key])} head runs)", file=out)
        print(f"{'metric':40} {'unit':10} {'base q1/med/q3':>32} {'head q1/med/q3':>32} "
              f"{'wins':>5}  verdict", file=out)
        for m in catalogs[trace]:
            base = metric_values(base_runs[key], m["name"])
            head = metric_values(head_runs[key], m["name"])
            if not base or not head:
                continue
            v, share = verdict(base, head, m["better"], m.get("bound"))
            if v in ("regressed", "unresolved"):
                worst = max(worst, 1)
            qb = "/".join(fmt(x) for x in quartiles(list(base.values())))
            qh = "/".join(fmt(x) for x in quartiles(list(head.values())))
            print(f"{m['name']:40} {m['unit']:10} {qb:>32} {qh:>32} {share:5.2f}  {v}", file=out)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    bench = load_bench(args.bench)
    compare(load_runs(args.base), load_runs(args.head), bench)


if __name__ == "__main__":
    main()
