#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs `bash tkperf/run.sh` once per seed on each workload (untraced), and
prints, per workload and end-to-end metric, the first quartile, median
and third quartile of the runs (Python's statistics.quantiles, n=4) and
the spread: (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 tkperf/steadiness.py --seeds 1-10 [--workloads sweep,serve]
        [--json set.json] [--against earlier-set.json]

--json saves the medians; --against reads medians saved by an earlier set
and prints, per metric, the share by which this set's median is worse
(negative: better). It exits 1 if any run fails its output checks.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--json", help="save the medians to this file")
    ap.add_argument("--against", help="medians saved by an earlier set")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.load(open(args.against)) if args.against else {}
    medians = {}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            t0 = time.time()
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            ok = ok and p.returncode == 0 and res["correct"]
            print(f"# {wl} seed {seed}: exit {p.returncode}, {time.time() - t0:.1f} s, "
                  f"attempted {res['attempted']}, failed {res['failed']}", file=sys.stderr, flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{wl} (seeds {args.seeds})\n")
        print("| metric | Q1 | median | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name in sorted(values):
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            medians.setdefault(wl, {})[name] = med
            print(f"| {name} | {q1:.4g} | {med:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} | {bounds[name]} |")
        if wl in earlier:
            print("\n| metric | earlier median | median | worse by | bound |")
            print("|---|---|---|---|---|")
            for name in sorted(values):
                before, now = earlier[wl][name], medians[wl][name]
                worse = (now - before) / before if better[name] == "lower" else (before - now) / before
                print(f"| {name} | {before:.4g} | {now:.4g} | {worse:+.3f} | {bounds[name]} |")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(medians, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
