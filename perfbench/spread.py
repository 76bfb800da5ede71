#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

Runs ``run.py`` once per seed (sequentially, one process at a time) for
each workload and prints, per metric, the median and the interquartile
distance as a share of the median, next to a third of the metric's
bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workloads serve_churn --seeds 1-5
"""

import argparse
import json
import os
import subprocess
import sys

from measure import median, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads \
        else [w["name"] for w in bench["workloads"]]
    steady = True
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT correct "
                      f"({result['failed']} failed)")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in sorted(values.items()):
            spread = quartile_spread(vals)
            limit = bounds[name] / 3.0
            flag = "" if spread < limit else "  WIDE"
            steady = steady and (flag == "")
            print(f"{workload:12s} {name:16s} median "
                  f"{median(vals):10.4g}  spread "
                  f"{spread:6.3f}  (bound/3 {limit:.3f}){flag}  "
                  f"{[round(v, 4) for v in vals]}")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
