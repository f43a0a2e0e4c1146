"""One benchmark process: stage a workload, run it in a closed loop for the
given time, check every job's output, and report on stdout.

Started by ``run.py`` with the BLAS thread count already fixed in its
environment. Protocol: each report line starts with ``@@bench``; a ``ready``
line marks the end of set-up, and a final ``result`` line carries the
measurements. With ``--setup-only`` the process exits after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def emit(kind, payload):
    print(f"@@bench {kind} {json.dumps(payload, default=str)}", flush=True)


def import_tibt():
    """Import tibt from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tibt", "__init__.py")):
        raise SystemExit(f"bench: no tibt sources under {SRC}")
    sys.path.insert(0, SRC)
    import tibt
    if os.path.dirname(os.path.dirname(os.path.abspath(tibt.__file__))) != SRC:
        raise SystemExit(f"bench: tibt imported from {tibt.__file__}, not {SRC}")
    return tibt


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_config": numpy.show_config(mode="dicts"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(workload, refs, seconds, tracer=None):
    """Closed loop: run iterations until ``seconds`` have passed (at least
    one). Returns one record per iteration."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        workload.prepare()
        if tracer is not None:
            tracer.run = len(records)
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            outputs = workload.run()
            error = None
        except Exception:  # a job that raises counts as failed; keep measuring
            outputs = None
            error = traceback.format_exc()
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        if tracer is not None:
            tracer.run = None
        if error is None:
            try:
                observed = workload.observe(outputs)
                problems = [workload.check(obs, ref) for obs, ref in zip(observed, refs)]
            except (OSError, KeyError, ValueError):  # missing or malformed output
                error = traceback.format_exc()
        if error is not None:
            print(error, file=sys.stderr)
            problems = [[error.strip().splitlines()[-1]]] * workload.jobs
        records.append({"job_s": t1 - t0, "cpu_s": c1 - c0,
                        "failed": sum(1 for p in problems if p),
                        "problems": [p for p in problems if p]})
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_tibt()
    sys.path.insert(0, HERE)
    from tracing import LAYER_METRICS, Tracer, span_cost
    from workloads import WORKLOADS, job_references

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        raise SystemExit("bench: --seed must be >= 0")
    workload = WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    refs = job_references(workload, args.scale)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.run = "setup"
    workload.stage()
    if tracer is not None:
        tracer.run = None
    emit("ready", {})
    if args.setup_only:
        return 0

    records = measure(workload, refs, args.seconds, tracer)
    result = {"iterations": records, "jobs": workload.jobs,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        cost = span_cost()
        per_iter = []
        for idx, rec in enumerate(records):
            layers = tracer.layer_metrics({"setup", idx}, cost)
            layers["trace.job_s"] = rec["job_s"]
            per_iter.append(layers)
        result["layers"] = {key: statistics.median(it[key] for it in per_iter)
                            for key in per_iter[0]}
        result["layer_units"] = LAYER_METRICS
    emit("result", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
