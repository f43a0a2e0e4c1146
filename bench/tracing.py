"""Span tracing of tibt from the outside, for the benchmark's traced runs.

Inside ``with Tracer():`` a fixed set of tibt public functions and
operator methods is replaced by timing wrappers. Modules bind names with
``from .linalg import ...``, so every module attribute (``tibt.__init__``
and ``tibt.cli`` included) that refers to a wrapped function object is
replaced, and everything is restored on exit. Spans stay in memory; the
per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

# Per-layer metrics reported by a traced run, with their units. Every name
# here is listed under ``per_layer`` in BENCHMARK.json.
LAYER_METRICS = {
    "linalg.solve.tri_real.calls": "count",
    "linalg.solve.tri_real.s": "s",
    "linalg.solve.tri_complex.calls": "count",
    "linalg.solve.tri_complex.s": "s",
    "linalg.solve.dense_real.calls": "count",
    "linalg.solve.dense_real.s": "s",
    "linalg.solve.dense_complex.calls": "count",
    "linalg.solve.dense_complex.s": "s",
    "linalg.apply.calls": "count",
    "linalg.apply.cols": "count",
    "linalg.apply.s": "s",
    "linalg.sylvester.calls": "count",
    "linalg.sylvester.s": "s",
    "linalg.sylvester.self_s": "s",
    "linalg.orth.calls": "count",
    "linalg.orth.s": "s",
    "linalg.orth.cols_in": "count",
    "linalg.orth.cols_kept": "count",
    "linalg.orth.mb_in": "MB-computed",
    "linalg.lyap_dense.calls": "count",
    "linalg.lyap_dense.s": "s",
    "linalg.lyap_dense.n_max": "count",
    "linalg.small_dense.s": "s",
    "system.gramians.calls": "count",
    "system.gramians.s": "s",
    "system.eval.calls": "count",
    "system.eval.s": "s",
    "reducers.bt.calls": "count",
    "reducers.bt.self_s": "s",
    "reducers.reflect.calls": "count",
    "reducers.reflect.reflected": "count",
    "alrs.s": "s",
    "alrs.self_s": "s",
    "alrs.residual_s": "s",
    "alrs.sweep_s.p50": "s",
    "alrs.sweep_s.max": "s",
    "alrs.sweeps": "count",
    "alrs.rank": "count",
    "atia.s": "s",
    "atia.self_s": "s",
    "atia.sweeps": "count",
    "atia.order": "count",
    "metrics.hinf.calls": "count",
    "metrics.hinf.s": "s",
    "metrics.hinf.self_s": "s",
    "metrics.hinf.evals_per_call": "evals/call",
    "metrics.grid.s": "s",
    "benchmarks.build.s": "s",
    "cli.run_task.s": "s",
    "cli.self_s": "s",
    "trace.job_s": "s",
    "trace.spans": "count",
    "trace.overhead_est_s": "s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "extra")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.extra = {}

    @property
    def dur(self):
        return self.end - self.start


def self_times(spans):
    """Self time of every span: its duration minus the time covered by its
    direct children (children of one thread never overlap)."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.dur
    return [sp.dur - c for sp, c in zip(spans, covered)]


def _has_ancestor(spans, idx, name):
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _is_complex_shift(s, b):
    # the same real/complex split the operators make
    return complex(s).imag != 0.0 or np.iscomplexobj(b)


def _orth_extra(args, kwargs, out):
    m = args[0] if args else kwargs["m"]
    n, k = m.shape
    return {"cols_in": k, "cols_kept": out.shape[1], "mb_in": n * k * 8 / 1e6}


def _lyap_extra(args, kwargs, out):
    a = args[0] if args else kwargs["a"]
    return {"n": len(a)}


def _reflect_extra(args, kwargs, out):
    ar = args[0] if args else kwargs["ar"]
    return {"reflected": out is not ar}


def _atia_extra(args, kwargs, out):
    return {"sweeps": len(out.history), "order": out.rom.r}


def _apply_extra(args, kwargs, out):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return {"cols": x.shape[1] if x.ndim == 2 else 1}


# (module, attribute, span name, extra-count function)
_FUNCTIONS = [
    ("tibt.linalg", "solve_sylvester_skinny", "linalg.sylvester", None),
    ("tibt.linalg", "orthonormalize", "linalg.orth", _orth_extra),
    ("tibt.linalg", "solve_lyapunov_dense", "linalg.lyap_dense", _lyap_extra),
    ("tibt.linalg", "psd_factor", "linalg.small_dense", None),
    ("tibt.linalg", "ordered_svd", "linalg.small_dense", None),
    ("tibt.system", "eval_transfer", "system.eval", None),
    ("tibt.system", "gramians_dense", "system.gramians", None),
    ("tibt.reducers", "bt_square_root", "reducers.bt", None),
    ("tibt.reducers", "reflect_spectrum", "reducers.reflect", _reflect_extra),
    ("tibt.alrs", "alrs_lyap", "alrs", None),  # see Tracer._wrap_alrs
    ("tibt.alrs", "lowrank_lyapunov_residual", "alrs.residual", None),
    ("tibt.atia", "atia_bt", "atia", _atia_extra),
    ("tibt.metrics", "hinf_rel_error", "metrics.hinf", None),
    ("tibt.benchmarks", "heat_rod", "benchmarks.build", None),
    ("tibt.benchmarks", "random_stable", "benchmarks.build", None),
    ("tibt.cli", "run_task", "cli.run_task", None),
    ("tibt.cli", "main", "cli.main", None),
]

# (class, method, span-name prefix); shifted solves are split by shift kind
_METHODS = [
    ("TridiagonalOperator", "shifted_solve", "linalg.solve.tri"),
    ("DenseOperator", "shifted_solve", "linalg.solve.dense"),
    ("TridiagonalOperator", "apply", "linalg.apply"),
    ("TridiagonalOperator", "apply_transpose", "linalg.apply"),
    ("DenseOperator", "apply", "linalg.apply"),
    ("DenseOperator", "apply_transpose", "linalg.apply"),
]


def span_cost(calls=20000):
    """Measured cost of one span (wrapped minus bare call), seconds."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


class Tracer:
    """In-memory span recorder; ``run`` labels the spans of one job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.originals: set = set()

    # -- recording -------------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.run))
        self._stack.append(idx)
        return self.spans[idx]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, extra=None):
        """Timing wrapper around ``fn``; ``name`` is a string or a function
        of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if extra is not None:
                span.extra.update(extra(args, kwargs, out))
            return out

        traced.bench_traced = True
        return traced

    def _wrap_alrs(self, fn):
        # inject an on_iteration hook that timestamps every sweep, chaining
        # any hook the caller passed
        tracer = self

        @functools.wraps(fn)
        def traced(a, b, cfg, on_iteration=None):
            stamps = []

            def hook(*hook_args):
                stamps.append(time.perf_counter())
                if on_iteration is not None:
                    on_iteration(*hook_args)

            span = tracer._open("alrs")
            try:
                out = fn(a, b, cfg, on_iteration=hook)
            finally:
                tracer._close(span)
            edges = [span.start] + stamps
            span.extra.update(
                sweeps=len(out.singular_history), rank=out.factor.rank,
                sweep_s=[t1 - t0 for t0, t1 in zip(edges, edges[1:])])
            return out

        traced.bench_traced = True
        return traced

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap the traced functions and methods in every loaded tibt module."""
        import tibt  # noqa: F401  (loads every submodule)
        import tibt.cli
        from tibt import linalg, metrics

        replace = {}
        for mod_name, attr, name, extra in _FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            self.originals.add(fn)
            if name == "alrs":
                replace[id(fn)] = (fn, self._wrap_alrs(fn))
            else:
                replace[id(fn)] = (fn, self.wrap(fn, name, extra))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tibt" or mod_name.startswith("tibt.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

        for cls_name, meth, prefix in _METHODS:
            cls = getattr(linalg, cls_name)
            fn = cls.__dict__[meth]
            self.originals.add(fn)
            if meth == "shifted_solve":
                def name(args, kwargs, prefix=prefix):
                    b = args[2] if len(args) > 2 else kwargs["b"]
                    s = args[1] if len(args) > 1 else kwargs["s"]
                    return prefix + ("_complex" if _is_complex_shift(s, b) else "_real")
                wrapped = self.wrap(fn, name)
            else:
                wrapped = self.wrap(fn, prefix, _apply_extra)
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, wrapped)

        grid = metrics.FreqGrid.__dict__["default_for"]
        self.originals.add(grid.__func__)
        self._restore.append((metrics.FreqGrid, "default_for", grid))
        metrics.FreqGrid.default_for = classmethod(
            self.wrap(grid.__func__, "metrics.grid"))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis --------------------------------------------------------
    def layer_metrics(self, runs, cost_per_span=0.0):
        """Per-layer metrics over the spans whose run label is in ``runs``."""
        selfs = self_times(self.spans)
        picked = [i for i, sp in enumerate(self.spans) if sp.run in runs]
        out = {name: 0.0 for name in LAYER_METRICS}
        by_name: dict[str, list[int]] = {}
        for i in picked:
            by_name.setdefault(self.spans[i].name, []).append(i)

        def total(name, key=None):
            idx = by_name.get(name, [])
            if key is None:
                return sum(self.spans[i].dur for i in idx)
            return sum(self.spans[i].extra.get(key, 0) for i in idx)

        def self_total(*names):
            return sum(selfs[i] for n in names for i in by_name.get(n, []))

        def calls(name):
            return len(by_name.get(name, []))

        for kind in ("tri_real", "tri_complex", "dense_real", "dense_complex"):
            out[f"linalg.solve.{kind}.calls"] = calls(f"linalg.solve.{kind}")
            out[f"linalg.solve.{kind}.s"] = total(f"linalg.solve.{kind}")
        out["linalg.apply.calls"] = calls("linalg.apply")
        out["linalg.apply.cols"] = total("linalg.apply", "cols")
        out["linalg.apply.s"] = total("linalg.apply")
        out["linalg.sylvester.calls"] = calls("linalg.sylvester")
        out["linalg.sylvester.s"] = total("linalg.sylvester")
        out["linalg.sylvester.self_s"] = self_total("linalg.sylvester")
        out["linalg.orth.calls"] = calls("linalg.orth")
        out["linalg.orth.s"] = total("linalg.orth")
        for key in ("cols_in", "cols_kept", "mb_in"):
            out[f"linalg.orth.{key}"] = total("linalg.orth", key)
        out["linalg.lyap_dense.calls"] = calls("linalg.lyap_dense")
        out["linalg.lyap_dense.s"] = total("linalg.lyap_dense")
        out["linalg.lyap_dense.n_max"] = max(
            (self.spans[i].extra["n"] for i in by_name.get("linalg.lyap_dense", [])),
            default=0)
        out["linalg.small_dense.s"] = total("linalg.small_dense")
        for name in ("system.gramians", "system.eval"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = total(name)
        out["reducers.bt.calls"] = calls("reducers.bt")
        out["reducers.bt.self_s"] = self_total("reducers.bt")
        out["reducers.reflect.calls"] = calls("reducers.reflect")
        out["reducers.reflect.reflected"] = total("reducers.reflect", "reflected")
        out["alrs.s"] = total("alrs")
        out["alrs.self_s"] = self_total("alrs")
        out["alrs.residual_s"] = total("alrs.residual")
        sweeps = [t for i in by_name.get("alrs", [])
                  for t in self.spans[i].extra["sweep_s"]]
        out["alrs.sweep_s.p50"] = statistics.median(sweeps) if sweeps else 0.0
        out["alrs.sweep_s.max"] = max(sweeps, default=0.0)
        out["alrs.sweeps"] = total("alrs", "sweeps")
        out["alrs.rank"] = total("alrs", "rank")
        out["atia.s"] = total("atia")
        out["atia.self_s"] = self_total("atia")
        out["atia.sweeps"] = total("atia", "sweeps")
        out["atia.order"] = total("atia", "order")
        hinf_calls = calls("metrics.hinf")
        out["metrics.hinf.calls"] = hinf_calls
        out["metrics.hinf.s"] = total("metrics.hinf")
        out["metrics.hinf.self_s"] = self_total("metrics.hinf")
        evals = sum(1 for i in by_name.get("system.eval", [])
                    if _has_ancestor(self.spans, i, "metrics.hinf"))
        out["metrics.hinf.evals_per_call"] = evals / hinf_calls if hinf_calls else 0.0
        out["metrics.grid.s"] = total("metrics.grid")
        out["benchmarks.build.s"] = total("benchmarks.build")
        out["cli.run_task.s"] = total("cli.run_task")
        out["cli.self_s"] = self_total("cli.main", "cli.run_task")
        out["trace.spans"] = len(picked)
        out["trace.overhead_est_s"] = len(picked) * cost_per_span
        return out
