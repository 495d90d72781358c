#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median
and spread (inter-quartile range as a share of the median), next to the
bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--trace 0|1]

Runs are sequential; each takes BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", seed,
                                  "--seconds", str(seconds), "--trace", args.trace]
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        elapsed = time.monotonic() - start
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.stderr.write("seed %s: exit %d\n%s\n" % (seed, out.returncode, out.stdout))
            return 1
        res = json.loads(last)
        if not res["correct"] or res["failed"]:
            sys.stderr.write("seed %s: incorrect or failed ops: %s\n" % (seed, last))
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s (%.1f s): %s" % (seed, elapsed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
    print("%-32s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
        print("%-32s %14.6g %8.2f%% %7s%s" % (
            name, med, 100 * spread, "" if bound is None else "%g" % bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
