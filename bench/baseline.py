"""Repeat the benchmark over seeds, twice, and record medians and spreads.

    python3 bench/baseline.py [--seeds 1-10] [--workload NAME ...] [--out bench/baseline.json]

Runs `bench/run.py --trace 0` once per seed and workload, for
BENCHMARK.json's run_seconds, and then does it all again: two sets of
the same code.  Per set, workload and end-to-end metric it reports the
median and the spread (distance between the first and third quartile as
statistics.quantiles(n=4) gives them, as a share of the median) next to
the metric's bound, and per metric the change of the second set's median
against the first.  Then one traced run per workload at the default seed
records the per-layer metrics.  The result, with the Python version and
CPU count, goes to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values, bounds):
    out = {}
    for metric, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[metric] = {"median": med, "spread": (q3 - q1) / med,
                       "bound": bounds.get(metric), "values": vals}
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    names = args.workload or names

    out = {"python": platform.python_version(), "cpus": os.cpu_count(),
           "seconds": seconds, "seeds": args.seeds,
           "workloads": {name: {"sets": []} for name in names}}
    for set_no in range(1, SETS + 1):
        for name in names:
            values = {}
            runs = []
            for seed in args.seeds:
                res = run(name, seed, seconds, 0)
                runs.append({"seed": seed, "correct": res["correct"],
                             "attempted": res["attempted"], "failed": res["failed"]})
                for metric, v in res["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
                print(f"set {set_no}", name, seed, res["correct"], res["failed"],
                      {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                      flush=True)
            summary = summarise(values, bounds)
            for metric, s in summary.items():
                print(f"  {metric:16s} median {s['median']:12.5g} spread "
                      f"{s['spread']:.4f} bound {s['bound']}", flush=True)
            out["workloads"][name]["sets"].append({"runs": runs, "end_to_end": summary})

    for name in names:
        entry = out["workloads"][name]
        first, last = entry["sets"][0]["end_to_end"], entry["sets"][-1]["end_to_end"]
        entry["median_change"] = {m: last[m]["median"] / first[m]["median"] - 1
                                  for m in first}
        print(name, "median change", {m: round(v, 4)
                                      for m, v in entry["median_change"].items()},
              flush=True)
        traced = run(name, DEFAULT_SEED, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_correct"] = traced["correct"]
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
