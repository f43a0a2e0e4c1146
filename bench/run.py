"""tibt benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout; workloads, metrics and bounds are listed
in BENCHMARK.json and explained in bench/README.md. The last line of
standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. The lines before it record the run environment (``env``) and
every per-iteration value (``detail``).

This process imports neither numpy nor tibt. It fixes the BLAS thread count
in the environment of the processes it starts, times set-up in several
fresh processes, and runs the measured loop in one more fresh process, so
that peak RSS belongs to a single run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# 1 vs 2 OpenBLAS threads moves lyap_rod_1m by ~20 %; one thread keeps the
# numbers comparable across machines and makes cpu_s track job_s.
BLAS_THREADS = 1
# Fresh processes that only set up; the measuring process adds one sample.
SETUP_PROBES = 8
# Every run must end well inside three minutes.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_child(argv, deadline):
    """Start a worker; return (seconds until its ``ready`` line, its
    ``result`` payload or None). Kills it at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("@@bench ready "):
                ready = time.perf_counter() - t0
            elif line.startswith("@@bench result "):
                result = json.loads(line[len("@@bench result "):])
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return ready, result


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_1m": os.getloadavg()[0]}


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    env = {**machine(), "blas_threads": BLAS_THREADS}
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale, "--workdir", workdir]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                ready, _ = run_child([*common, "--seconds", "0", "--setup-only"],
                                     deadline)
                setups.append(ready)
        ready, res = run_child([*common, "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res is None:
        raise BenchError("worker printed no result")
    setups.append(ready)

    iters = res["iterations"]
    jobs = res["jobs"] * len(iters)
    failed = sum(it["failed"] for it in iters)
    env.update(res["env"])
    print("env " + json.dumps(env, default=str))
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "iterations": iters, "setup_samples": setups,
        "fail_frac": failed / jobs}))
    if args.trace:
        metrics = {name: {"value": value, "unit": res["layer_units"][name]}
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "job_s": {"value": statistics.median(it["job_s"] for it in iters), "unit": "s"},
            "cpu_s": {"value": statistics.median(it["cpu_s"] for it in iters), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": jobs,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one tibt benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: small inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_child kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
