"""Batch experiment runner.

Reads a JSON experiment config, runs one task (a Lyapunov solve, a reducer,
or an adaptive-vs-dense comparison) and writes CSV artifacts plus a
``run.json`` echo of the configuration as given. Config keys the task does
not read are rejected; nothing is written until the run finished, so a
failing run never leaves partial CSVs behind.

Exit codes: 0 success, 1 input or algorithm error, 2 finished without
convergence (artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import benchmarks
from .alrs import AlrsConfig, alrs_lyap
from .atia import atia_bt, atia_hsv_compare
from .errors import TibtError
from .linalg import flushes_subnormals, solve_lyapunov_dense
from .metrics import DENSE_CAP_DEFAULT, FreqGrid, gramian_rel_error, hinf_rel_error, pq_rel_error
from .reducers import bt_square_root, h2_optimality_residuals, tcr, tor, tsia
from .system import hankel_singular_values

_MODEL_KEYS = {
    "heat_rod": {"n"},
    "random_stable": {"n", "m", "p", "seed"},
    "illustrative4": set(),
    "matrix_market": {"a_path", "b_path", "c_path"},
}

# The top-level keys each task reads besides model, task, seed and
# output_dir, and those of them it requires. Any other key is rejected, so
# none is silently ignored.
_TASK_KEYS = {
    "solve-lyap": ({"alg", "side", "dense_cap"}, set()),
    "atia-bt": ({"alg", "dense_cap", "grid_points"}, set()),
    "dense-bt": ({"r", "dense_cap", "grid_points"}, {"r"}),
    "tcr": ({"r", "dense_cap", "grid_points"}, {"r"}),
    "tor": ({"r", "dense_cap", "grid_points"}, {"r"}),
    "tsia": ({"r"}, {"r"}),
    "compare": ({"tols", "alg", "dense_cap", "grid_points"}, {"tols"}),
}

TASKS = tuple(_TASK_KEYS)

_ALG_KEYS = {"r0", "dr", "tol", "i_max", "k_max", "seed"}

# Smallest largest-|entry| of B or C whose squares stay normal floats.
_COUPLING_FLOOR = float(np.sqrt(np.finfo(float).tiny))


class ConfigError(TibtError):
    """Invalid experiment configuration."""


def _fmt(x) -> str:
    return f"{float(x):.15e}"


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"{path}: 'task' must be one of {TASKS}")
    reads, requires = _TASK_KEYS[task]
    reads = reads | {"model", "task", "seed", "output_dir"}
    if set(raw) - reads:
        raise ConfigError(f"{path}: task {task!r} does not read "
                          f"{sorted(set(raw) - reads)}; it reads {sorted(reads)}")
    missing = requires - set(raw)
    if missing:
        raise ConfigError(f"{path}: task {task!r} requires {sorted(missing)}")
    if "model" not in raw or not isinstance(raw["model"], dict):
        raise ConfigError(f"{path}: 'model' object is required")
    model = dict(raw["model"])
    kind = model.pop("kind", None)
    if kind not in _MODEL_KEYS:
        raise ConfigError(
            f"{path}: model.kind must be one of {sorted(_MODEL_KEYS)}")
    unknown = set(model) - _MODEL_KEYS[kind]
    if unknown:
        raise ConfigError(f"{path}: unknown model keys {sorted(unknown)}")
    missing = _MODEL_KEYS[kind] - set(model) - {"seed"}
    if missing:
        raise ConfigError(f"{path}: model keys missing: {sorted(missing)}")
    alg = raw.get("alg", {})
    if not isinstance(alg, dict):
        raise ConfigError(f"{path}: 'alg' must be an object, got {alg!r}")
    alg_keys = _ALG_KEYS - {"tol"} if task == "compare" else _ALG_KEYS  # tols set it
    if set(alg) - alg_keys:
        raise ConfigError(f"{path}: task {task!r} does not read 'alg' keys "
                          f"{sorted(set(alg) - alg_keys)}; it reads {sorted(alg_keys)}")
    if raw.get("side", "p") not in ("p", "q"):
        raise ConfigError(f"{path}: 'side' must be 'p' or 'q', got {raw['side']!r}")
    tols = raw.get("tols")
    if tols is not None and not (
            isinstance(tols, list) and tols
            and all(_is_number(t) and 0.0 < t < 1.0 for t in tols)):
        raise ConfigError(
            f"{path}: 'tols' must be a non-empty list of numbers in (0, 1), "
            f"got {tols!r}")
    for key, least in (("r", 1), ("seed", 0), ("grid_points", 2), ("dense_cap", 1)):
        value = raw.get(key, least)
        if not (_is_integer(value) and value >= least):
            raise ConfigError(
                f"{path}: {key!r} must be an integer >= {least}, got {value!r}")
    # ranges are checked by the model constructors
    for key in sorted(model.keys() & {"n", "m", "p", "seed"}):
        if not _is_integer(model[key]):
            raise ConfigError(
                f"{path}: model {key!r} must be an integer, got {model[key]!r}")
    # open() would take an integer as a file descriptor
    for key in sorted(model.keys() & {"a_path", "b_path", "c_path"}):
        if not isinstance(model[key], str):
            raise ConfigError(
                f"{path}: model {key!r} must be a string, got {model[key]!r}")
    return raw


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def build_model(cfg, seed):
    model = dict(cfg["model"])
    kind = model.pop("kind")
    # the constructors validate sizes and entries with ValueError
    try:
        if kind == "heat_rod":
            built = benchmarks.heat_rod(model["n"])
        elif kind == "random_stable":
            built = benchmarks.random_stable(model["n"], model["m"], model["p"],
                                             model.get("seed", seed))
        elif kind == "illustrative4":
            built = benchmarks.illustrative4()
        else:
            built = benchmarks.load_matrix_market(model["a_path"], model["b_path"],
                                                  model["c_path"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model {kind}: {exc}") from exc
    except OSError as exc:  # a missing or unreadable Matrix Market file
        where = f"{exc.filename}: " if exc.filename else ""
        raise ConfigError(f"model {kind}: {where}{exc.strerror or exc}") from exc
    # a zero transfer function has no Hankel values to reduce by, and below
    # _COUPLING_FLOOR the Gramian right-hand sides B B^T and C^T C underflow
    for name, mat in (("B", built.B), ("C", built.C)):
        top = np.max(np.abs(mat))
        if top == 0.0:
            raise ConfigError(f"model {kind}: {name} has no nonzero entry")
        if top < _COUPLING_FLOOR:
            raise ConfigError(
                f"model {kind}: {name} has largest |entry| {top:.3g}, below "
                f"{_COUPLING_FLOOR:.3g}; its Gramian products underflow")
    return built


def _alg_config(cfg, seed, tol=None):
    alg = dict(cfg.get("alg", {}))
    alg.setdefault("seed", seed)
    if tol is not None:
        alg["tol"] = tol
    # the config class validates its fields with TypeError/ValueError
    try:
        return AlrsConfig(**alg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"alg: {exc}") from exc


def _produced_order(task, red, r_req, n):
    """The order ``red`` actually has, warning on stderr when it is not the
    requested one."""
    r = red.rom.n
    if r != r_req:
        print(f"warning: {task} produced order {r}, not the requested "
              f"r = {r_req} (capped by n = {n} and by numerical rank)",
              file=sys.stderr)
    return r


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _hsv_rows(values):
    return [(str(i), _fmt(v)) for i, v in enumerate(values, start=1)]


def _history_rows(history):
    rows = []
    for rec in history:
        top = rec.values[0] if len(rec.values) else 0.0
        last = rec.values[-1] if len(rec.values) else 0.0
        ratio = last / top if top > 0 else 0.0
        rows.append((str(rec.k), str(rec.i), str(rec.r),
                     _fmt(top), _fmt(last), _fmt(ratio)))
    return rows


def _default_grid(model, cfg):
    return FreqGrid.default_for(model, count=cfg.get("grid_points", 400))


def run_task(cfg, seed, out_dir):
    """Execute one experiment; returns (exit_code, artifact dict)."""
    task = cfg["task"]
    model = build_model(cfg, seed)
    dense_cap = cfg.get("dense_cap", DENSE_CAP_DEFAULT)
    dense_ok = model.n <= dense_cap
    artifacts = {}
    code = 0

    if task == "solve-lyap":
        work = model if cfg.get("side", "p") == "p" else model.dual()
        result = alrs_lyap(work.A, work.B, _alg_config(cfg, seed))
        artifacts["hsv.csv"] = (("index", "value"), _hsv_rows(result.values))
        err_rows = [("lyapunov_residual", _fmt(result.residual),
                     str(result.factor.rank))]
        if dense_ok:
            exact = solve_lyapunov_dense(work.A.to_dense(), work.B @ work.B.T)
            err = gramian_rel_error(exact, result.factor.reconstruct())
            err_rows.append(("gramian_rel_error", _fmt(err), str(result.factor.rank)))
        artifacts["errors.csv"] = (("metric", "value", "r"), err_rows)
        artifacts["history.csv"] = (("k", "i", "r", "s_top", "s_last", "ratio"),
                                    _history_rows(result.singular_history))
        code = 0 if result.converged else 2

    elif task == "atia-bt":
        result = atia_bt(model, _alg_config(cfg, seed))
        artifacts["hsv.csv"] = (("index", "value"),
                                _hsv_rows(result.hankel_estimates))
        err_rows = [("hinf_rel_error_vs_original",
                     _fmt(hinf_rel_error(model, result.rom.rom,
                                         _default_grid(model, cfg))),
                     str(result.rom.r))]
        if dense_ok:
            table = atia_hsv_compare(result, model, dense_cap=dense_cap)
            worst = max((row[3] for row in table), default=0.0)
            err_rows.append(("hsv_max_rel_diff", _fmt(worst), str(result.rom.r)))
        artifacts["errors.csv"] = (("metric", "value", "r"), err_rows)
        artifacts["history.csv"] = (("k", "i", "r", "s_top", "s_last", "ratio"),
                                    _history_rows(result.history))
        code = 0 if result.converged else 2

    elif task in ("dense-bt", "tcr", "tor"):
        reducer = {"dense-bt": bt_square_root, "tcr": tcr, "tor": tor}[task]
        red = reducer(model, min(cfg["r"], model.n))
        r = _produced_order(task, red, cfg["r"], model.n)
        artifacts["hsv.csv"] = (("index", "value"), _hsv_rows(red.retained_sv))
        err_rows = [("hinf_rel_error",
                     _fmt(hinf_rel_error(model, red.rom,
                                         _default_grid(model, cfg))), str(r))]
        if dense_ok and task != "dense-bt":
            exact = model.gramians.P if task == "tcr" else model.gramians.Q
            basis = red.Vr if task == "tcr" else red.Wr
            approx = basis @ np.diag(red.retained_sv) @ basis.T
            err_rows.append(("gramian_rel_error",
                             _fmt(gramian_rel_error(exact, approx)), str(r)))
        if dense_ok:
            err_rows.append(("pq_rel_error",
                             _fmt(pq_rel_error(model, red, dense_cap)),
                             str(r)))
        artifacts["errors.csv"] = (("metric", "value", "r"), err_rows)

    elif task == "tsia":
        init = benchmarks.random_stable(min(cfg["r"], model.n), model.m,
                                        model.p, seed)
        red = tsia(model, init)
        r = _produced_order(task, red, cfg["r"], model.n)
        artifacts["hsv.csv"] = (("index", "value"),
                                _hsv_rows(hankel_singular_values(red.rom)))
        res = h2_optimality_residuals(model, red)
        artifacts["errors.csv"] = (
            ("metric", "value", "r"),
            [(f"optimality_residual_{key}", _fmt(val), str(r))
             for key, val in sorted(res.items())],
        )
        code = 0 if red.converged else 2

    else:  # compare
        if not dense_ok:
            raise ConfigError(
                f"compare needs a dense-feasible model (n = {model.n} exceeds "
                f"dense_cap = {dense_cap})")
        results = [atia_bt(model, _alg_config(cfg, seed, tol=float(tol)))
                   for tol in cfg["tols"]]
        bt_roms = [bt_square_root(model, res.rom.r).rom for res in results]
        ratios = hinf_rel_error(model, [res.rom.rom for res in results] + bt_roms,
                                _default_grid(model, cfg))
        atia_ratios, bt_ratios = ratios[:len(results)], ratios[len(results):]
        rows = [(_fmt(tol), str(res.rom.r), _fmt(atia_ratio), _fmt(bt_ratio),
                 str(res.converged).lower())
                for tol, res, atia_ratio, bt_ratio in zip(
                    cfg["tols"], results, atia_ratios, bt_ratios)]
        artifacts["comparison.csv"] = (
            ("tol", "r_selected", "atia_hinf_ratio", "bt_hinf_ratio", "converged"),
            rows,
        )
        code = 0 if all(res.converged for res in results) else 2

    os.makedirs(out_dir, exist_ok=True)
    for name, (header, rows) in artifacts.items():
        _write_csv(os.path.join(out_dir, name), header, rows)
    return code


def _blas_setup():
    """The BLAS/LAPACK build entries of numpy, plus the live thread pools
    when threadpoolctl is installed."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        deps = {}
    setup = {key: deps[key] for key in ("blas", "lapack") if key in deps}
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        return setup
    setup["threadpools"] = threadpool_info()
    return setup


def _limit_threads():
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print("warning: --deterministic: threadpoolctl is not installed; "
              "BLAS threads not pinned", file=sys.stderr)
        return None
    return threadpool_limits(limits=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tibt", description="Model-reduction experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare"):
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="path to a JSON experiment config")
        cmd.add_argument("--deterministic", action="store_true",
                         help="force single-threaded execution")
        cmd.add_argument("--output-dir", default=None)
        cmd.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        cfg = load_config(args.config)
        if args.command == "compare" and cfg["task"] != "compare":
            raise ConfigError("the compare command requires task 'compare'")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        out_dir = args.output_dir or cfg.get("output_dir", ".")
        limiter = _limit_threads() if args.deterministic else None
        try:
            code = run_task(cfg, seed, out_dir)
        finally:
            if limiter is not None:
                limiter.__exit__(None, None, None)
        run_echo = {
            "config": cfg,
            "seed": seed,
            "output_dir": out_dir,
            "deterministic": bool(args.deterministic),
            # False when pinning was asked for but threadpoolctl is missing
            "threads_pinned": limiter is not None,
            "blas": _blas_setup(),
            "flush_subnormals": flushes_subnormals(),
            "wall_clock_sec": time.monotonic() - started,
            "exit_code": code,
        }
        with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
            json.dump(run_echo, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return code
    except TibtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
