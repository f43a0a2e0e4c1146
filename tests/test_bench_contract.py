"""The names the benchmark's span tracer (``bench/tracing.py``) wraps exist
where it looks for them, and a traced run records every layer.

The tracer finds its targets by module attribute and by class ``__dict__``
entry, so a rename or a method moved to a base class would otherwise show
only in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import tibt
import tibt.cli
import tibt.linalg
import tibt.metrics

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # leave no bytecode cache under bench/
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def tibt_bindings():
    """Every attribute of every loaded tibt module and operator class."""
    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "tibt" or name.startswith("tibt."))]
    owners += [tibt.linalg.TridiagonalOperator, tibt.linalg.DenseOperator,
               tibt.metrics.FreqGrid]
    return {(id(owner), attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def test_function_targets_are_module_attributes(tracing):
    for mod_name, attr, _, _ in tracing._FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr}"


def test_method_targets_are_own_class_attributes(tracing):
    for cls_name, meth, _ in tracing._METHODS:
        assert meth in vars(getattr(tibt.linalg, cls_name)), f"{cls_name}.{meth}"
    assert isinstance(tibt.metrics.FreqGrid.__dict__["default_for"], classmethod)


def test_traced_compare_run_records_every_layer(tracing, tmp_path):
    cfg = tmp_path / "compare.json"
    cfg.write_text(json.dumps({"model": {"kind": "heat_rod", "n": 200},
                               "task": "compare", "tols": [1e-4],
                               "grid_points": 60}))
    before = tibt_bindings()
    with tracing.Tracer() as tracer:
        # each sweep side reaches the Sylvester solver through this binding
        assert getattr(tibt.alrs.solve_sylvester_skinny, "bench_traced", False)
        code = tibt.cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == 0
    after = tibt_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.layer_metrics({None})
    for name in ("linalg.sylvester.calls", "atia.sweeps", "system.gramians.calls",
                 "metrics.hinf.calls"):
        assert metrics[name] > 0, name


def traced_drivers(tracing):
    """Layer metrics of ``alrs_lyap`` and ``atia_bt`` on a small rod, traced
    in-process."""
    rod = tibt.heat_rod(200)
    with tracing.Tracer() as tracer:
        tibt.alrs_lyap(rod.A, rod.B, tibt.AlrsConfig(tol=1e-6))
        tibt.atia_bt(rod, tibt.AtiaConfig(tol=1e-4))
    return tracer.layer_metrics({None})


def test_traced_drivers_record_the_lyapunov_residual(tracing):
    assert traced_drivers(tracing)["alrs.residual_s"] > 0


def test_traced_drivers_record_basis_orthonormalization(tracing):
    metrics = traced_drivers(tracing)
    for key in ("calls", "s", "cols_in", "cols_kept", "mb_in"):
        assert metrics[f"linalg.orth.{key}"] > 0, key
