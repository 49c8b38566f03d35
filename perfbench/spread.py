#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workloads fig8-local,monitor50 --seeds 1,1009,2,3

For each workload it runs perfbench/run.py once per seed (untraced,
with BENCHMARK.json's run_seconds) and prints, per end-to-end metric,
the median, the quartiles and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. A spread above the metric's bound is marked FAIL, and one above
a third of the bound is marked "wide". setup_s is exempt from the
spread rule. With --json, the raw values go to that file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,1009,2,3,4,5,6,7,8,9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    raw = {}
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for seed in seeds:
            start = time.time()
            cmd = ["python3", "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if r.returncode != 0:
                print(f"{w} seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}", flush=True)
                ok = False
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            print(f"{w} seed {seed}: {time.time() - start:.1f} s, "
                  f"{res['attempted']} replays, {res['failed']} failed", flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[w] = values
        for name in bounds:
            v = values.get(name, [])
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            mark = ""
            if name != "setup_s":
                if spread > bounds[name]:
                    mark, ok = "FAIL", False
                elif spread > bounds[name] / 3:
                    mark = "wide"
            print(f"  {name:22s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} (bound {bounds[name]}) {mark}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seeds": seeds, "seconds": args.seconds, "values": raw}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
