"""Self-tests of the benchmark (toy sizes, no timing asserts).

    python3 -m pytest -q bench/selftest.py

Kept out of the repository's test suite on purpose: the file name does not
match pytest's ``test_*.py`` pattern and ``testpaths`` names only ``tests``.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import import_tibt, measure  # noqa: E402

tibt = import_tibt()

import tibt.cli  # noqa: E402
from tracing import LAYER_METRICS, Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, job_references  # noqa: E402


@pytest.fixture
def workdir():
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as path:
        yield path


def _toy(name, workdir, seed=0):
    wl = WORKLOADS[name](seed, "toy", workdir)
    wl.stage()
    return wl, job_references(wl, "toy")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_toy_workload_passes_its_checks(name, seed, workdir):
    wl, refs = _toy(name, workdir, seed)
    (rec,) = measure(wl, refs, seconds=0)
    assert rec["failed"] == 0, rec["problems"]


def _perturb(name, obs):
    if name == "compare_c5":
        for o in obs:
            o["atia"] = 20.0 * o["bt"]
    else:
        obs[0]["top" if name == "lyap_rod_1m" else "hsv"][0] *= 1 + 1e-4


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_output_is_counted_as_failed(name, workdir):
    wl, refs = _toy(name, workdir)
    observe = wl.observe

    def perturbed(outputs):
        obs = observe(outputs)
        _perturb(name, obs)
        return obs

    wl.observe = perturbed
    (rec,) = measure(wl, refs, seconds=0)
    assert rec["failed"] == wl.jobs
    assert len(rec["problems"]) == wl.jobs


def test_raising_job_is_counted_as_failed(workdir):
    wl, refs = _toy("compare_c5", workdir)

    def broken():
        raise ValueError("boom")

    wl.run = broken
    (rec,) = measure(wl, refs, seconds=0)
    assert rec["failed"] == 2


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = []
    for name, start, end, parent in [("root", 0, 10, None), ("a", 1, 4, 0),
                                     ("b", 5, 9, 0), ("c", 6, 8, 2)]:
        sp = Span(name, float(start), parent, 0)
        sp.end = float(end)
        spans.append(sp)
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    tracer = Tracer()
    tracer.spans = spans
    for sp in spans:
        sp.name = {"root": "cli.main", "a": "linalg.orth", "b": "cli.run_task",
                   "c": "metrics.hinf"}[sp.name]
    spans[1].extra.update(cols_in=4, cols_kept=3, mb_in=1.0)
    layers = tracer.layer_metrics({0})
    assert layers["cli.self_s"] == 3.0 + 2.0
    assert layers["cli.run_task.s"] == 4.0
    assert layers["metrics.hinf.self_s"] == 2.0
    assert layers["linalg.orth.cols_kept"] == 3
    assert layers["trace.spans"] == 4


def _tibt_modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == "tibt" or name.startswith("tibt."))]


def test_no_module_keeps_an_unwrapped_function():
    tracer = Tracer()
    with tracer:
        for mod in _tibt_modules():
            for attr, value in vars(mod).items():
                assert not any(value is fn for fn in tracer.originals), \
                    f"{mod.__name__}.{attr} is unwrapped"
        for cls in (tibt.TridiagonalOperator, tibt.DenseOperator):
            for meth in ("apply", "apply_transpose", "shifted_solve"):
                assert getattr(vars(cls)[meth], "bench_traced", False)
        assert getattr(tibt.FreqGrid.default_for, "bench_traced", False)
        assert getattr(tibt.cli.main, "bench_traced", False)
    # uninstalling restores the originals everywhere
    assert not getattr(tibt.alrs_lyap, "bench_traced", False)
    assert not getattr(tibt.alrs.lowrank_lyapunov_residual, "bench_traced", False)
    assert not getattr(vars(tibt.DenseOperator)["shifted_solve"], "bench_traced", False)
    assert not getattr(tibt.FreqGrid.default_for, "bench_traced", False)


@pytest.mark.parametrize("name", ["bt_rod_100k", "compare_c5"])
def test_tracing_leaves_cli_csvs_byte_identical(name, workdir):
    outs = []
    for traced in (False, True):
        wl, _ = _toy(name, os.path.join(workdir, str(traced)))
        wl.prepare()
        if traced:
            with Tracer() as tracer:
                tracer.run = 0
                codes = wl.run()
            assert tracer.spans
        else:
            codes = wl.run()
        assert all(code == 0 for _, _, code in codes)
        outs.append([out for _, out, _ in codes])
    for plain, traced in zip(*outs):
        csvs = sorted(f for f in os.listdir(plain) if f.endswith(".csv"))
        assert csvs
        match, mismatch, errors = filecmp.cmpfiles(plain, traced, csvs, shallow=False)
        assert not mismatch and not errors


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(trace):
    proc = _run_bench(ROOT, "--workload", "compare_c5", "--seed", "2", "--seconds", "0",
                      "--trace", trace, "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "1":
        assert {m["name"] for m in listed} == set(LAYER_METRICS)


def test_run_fails_without_the_program(workdir):
    shutil.copytree(HERE, os.path.join(workdir, "bench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    proc = _run_bench(workdir, "--workload", "compare_c5", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
