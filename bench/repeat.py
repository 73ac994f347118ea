"""Run bench/run.py over several seeds and report the spread of each metric.

    python3 bench/repeat.py --seeds 1-10 [--trace] \
        [--out bench/results/BENCH_<label>.json] \
        [--against bench/results/BENCH_baseline.json]

It runs every workload of BENCHMARK.json for its run_seconds, once per seed.
For every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the interquartile distance as a share
of the median, and flags a spread that is not below a third of the metric's
bound from BENCHMARK.json.
With --trace it also makes one traced run per workload (first seed) and
keeps its per-layer metrics.  With --against it compares each median with
that of an earlier record and flags a change worse than the metric's bound.
Runs alternate workloads within each seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(": ", 1)[1])
    return json.loads(lines[-1]), env, lines[1:-1]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--against", help="earlier record written by --out")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    runs = {w: [] for w in names}
    env = None
    for seed in seeds:
        for w in names:
            result, env, report = run_once(w, seed, seconds, 0)
            runs[w].append({"seed": seed, "report": report, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"]})
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w:16s} seed {seed:4d}  failed {result['failed']}/{result['attempted']}  "
                  + "  ".join(f"{m} {values[w][m][-1]:.4g}" for m in bounds), flush=True)

    summary = {}
    steady = True
    print(f"\n{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for w in names:
        summary[w] = {}
        for m, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med
            ok = spread < bounds[m] / 3
            steady &= ok
            summary[w][m] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                             "spread": spread}
            print(f"{w:16s} {m:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} "
                  f"{bounds[m] / 3:8.3f} {'' if ok else 'WIDE'}")
    failed = sum(r["failed"] for w in names for r in runs[w])
    print(f"\nfailed operations: {failed}; every spread below a third of its bound: {steady}")
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)["end_to_end"]
        for w in names:
            for m in bounds:
                change = summary[w][m]["median"] / before[w][m]["median"] - 1.0
                print(f"{w:16s} {m:12s} median {change:+8.3%} against {args.against}"
                      f"{'  WORSE THAN BOUND' if change > bounds[m] else ''}")

    traced = {}
    if args.trace:
        for w in names:
            result, _, report = run_once(w, seeds[0], seconds, 1)
            traced[w] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "report": report}
    if args.out:
        record = {"env": env, "seeds": seeds, "run_seconds": seconds,
                  "end_to_end": summary, "runs": runs, "per_layer": traced}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
