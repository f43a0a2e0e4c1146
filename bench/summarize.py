"""Run one workload under several seeds and summarize the spread.

    python3 bench/summarize.py --workload NAME --seeds 0-9 [--trace 0|1]
                               [--out FILE [--key KEY]]

Each run is a separate ``bench/run.py`` process started from the checkout
root. For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median. With ``--out`` the runs and the summary are
merged into a JSON file under ``<workload>/<KEY>`` (default
``trace0`` or ``trace1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--key")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = json.loads(lines[0][len("env "):])
        detail = json.loads(lines[1][len("detail "):])
        result.update(seed=seed, wall_s=time.perf_counter() - t0,
                      loadavg_1m=env["loadavg_1m"],
                      setup_samples=detail["setup_samples"],
                      iteration_job_s=[it["job_s"] for it in detail["iterations"]])
        runs.append(result)
        print(f"seed {seed}: {result['wall_s']:.1f} s wall, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    table = summary(runs)
    for name, row in table.items():
        print(f"{name:36s} {row['median']:.6g} {row['unit']}  "
              f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.2%}")
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        data.setdefault(args.workload, {})[args.key or f"trace{args.trace}"] = {
            "seeds": args.seeds, "env": env, "summary": table, "runs": runs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
