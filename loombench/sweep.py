#!/usr/bin/env python3
"""Run the Loom benchmark over several seeds, interleaving workloads, and
report each end-to-end metric's spread against its bound.

    python3 loombench/sweep.py --out runs.jsonl [--seeds 10] [--first-seed 1]
        [--workloads ingest_local,query_hot] [--seconds N] [--trace 0|1]

Run it from the repository root. Every run appends one JSON line to
`--out` with the workload, seed, trace flag, exit code, wall time, the
run's facts and its result line; `compare.py` reads two such files. The
spread of a metric is the distance between the first and third quartile
of its values, as `statistics.quantiles(values, n=4)` gives them, as a
share of their median. A spread below a third of the bound is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

from compare import load_bench, load_runs, metric_values, spread


def parse_output(stdout):
    """The facts and result objects from a run's standard output."""
    facts, result = None, None
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "facts" in obj:
            facts = obj["facts"]
        elif isinstance(obj, dict) and "metrics" in obj:
            result = obj
    return facts, result


def report_spreads(path, bench, out=sys.stdout):
    runs = load_runs(path)
    for (workload, trace), recs in sorted(runs.items()):
        if trace:
            continue
        print(f"\n== {workload}: {len(recs)} runs, "
              f"failed runs: {sum(1 for r in recs if not r['result']['correct'])}", file=out)
        for m in bench["end_to_end"]:
            values = list(metric_values(recs, m["name"]).values())
            if len(values) < 2:
                continue
            s = spread(values)
            bound = m["bound"]
            state = "steady" if s < bound / 3 else ("within" if s <= bound else "WIDE")
            print(f"  {m['name']:28} median {statistics.median(values):<14.6g} "
                  f"spread {s:6.3f}  bound {bound:.2f}  {state}", file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    bench = load_bench(args.bench)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for workload in workloads:
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(args.trace)]
                start = time.monotonic()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.monotonic() - start
                facts, result = parse_output(proc.stdout)
                rec = {"workload": workload, "seed": seed, "trace": args.trace,
                       "exit": proc.returncode, "wall_s": round(wall, 3),
                       "facts": facts, "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                status = (f"correct={result['correct']} failed={result['failed']}"
                          if result else "no result")
                print(f"{workload} seed={seed} exit={proc.returncode} {wall:.1f}s {status}",
                      file=sys.stderr)
                if proc.returncode != 0 or not result or not result["correct"]:
                    sys.stderr.write(proc.stderr[-2000:])
    if args.trace == 0:
        report_spreads(args.out, bench)


if __name__ == "__main__":
    main()
