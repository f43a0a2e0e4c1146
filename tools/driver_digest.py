"""Two SHA-256s per run of the adaptive drivers, TSIA, the truncations and
tangential interpolation, for bitwise comparisons.

    PYTHONPATH=src python3 tools/driver_digest.py > digest.txt

Runs ``alrs_lyap`` and ``atia_bt`` over a fixed matrix of models, tolerances
and seeds and prints one line per run: its label, the SHA-256 of its ladder
history (every ``IterationRecord``) and the SHA-256 of every result array;
for a reduced model that includes its transfer function at ``EVAL_POINTS``
(``eval_transfer``), so a change to the shifted solves shows too. Beside
the hashes a line gives, in clear text, the run's sweep count
(``sweeps=``, for the adaptive drivers and ``tsia``) and its order
(``order=``, the factor's rank for ``alrs_lyap``), so a moved hash shows
whether the ladder changed or only its values. An ``alrs_lyap`` line also
gives the ``repr`` of its reported residual (``residual=``) and of its top
singular-value estimate (``sigma1=``), so a round-off move can be read off
the diff of two outputs.
When the run raises, both are the SHA-256 of the exception text and the
clear-text fields are left out. The matrix
is ``heat_rod`` (n = 400, 1000, 2000, 10^4) and ``random_stable(n, 2, 2, 5)``
(n = 80, 150, 300) at tol 1e-4, 1e-5, 1e-6 and seeds 0 and 3 (84 runs), then
``heat_rod(10^5)`` at tol 1e-5, seeds 0 and 7 (the ``bt_rod_100k`` benchmark
config at those CLI seeds), and from ``tests/conftest.py`` the damped chain
at tol 1e-5, seeds 0, 2, 5, the light chain (N = 200) at tol 1e-5, seeds
0-2, and the 2x2-block family at tol 1e-6, seeds 0-5. Then come 20 ``tsia``
runs (``illustrative4`` at r = 2, 3; ``random_stable(60, 2, 2, 0)`` at r =
2, 4, 6; ``random_stable(150, 2, 2, 5)`` at r = 4, 8; ``heat_rod(400)`` at
r = 4, 6, 8), each from the ``random_stable(r, m, p, seed)`` start of init
seeds 0 and 1, as the CLI's ``tsia`` task builds it; their history is the
iteration count. Then come the truncations, whose history is the order: 22
``two_step_lowrank_bt`` runs (``random_stable(30, 2, 2, 5)`` on the full
space at r = 5, ``heat_rod(120)`` on its Krylov spans at 3, 30 and 300 at
r = 3, and the 20 seeded trial-span pairs of acceptance criterion 8 at
r = 4), then ``bt_square_root``, ``tcr`` and ``tor`` on ``illustrative4``
(r = 1-3), ``random_stable(60, 2, 2, 0)`` (r = 4, 8), ``heat_rod(400)``
(r = 4, 8, 16) and ``heat_rod(1000)`` (r = 8). Last come 10 direct
``tangential_interpolate`` runs on the data of acceptance criterion 6:
``random_stable(60, 2, 2, 7)`` at the mirror images of the poles of its
``bt_square_root`` of order r, along that ROM's residual directions
(``pole_residue``, then ``InterpolationData.from_points``), for r = 2, 4,
..., 20, hashed as the truncations are. Last of all, one line for each model
of the ``alrs_lyap``/``atia_bt`` matrix with at most 5000 states (every one
but ``heat_rod(10^4)`` and ``heat_rod(10^5)``): ``FreqGrid.default_for`` and
the label, then ``grid=`` and the SHA-256 of the default frequency grid's
points, which come from the model's eigenvalues; a change to how the
spectrum is derived shows there.

Then the CLI: for each ``tibt.cli.main`` job of the benchmark workloads in
``bench/workloads.py`` (the configs of ``WORKLOADS[name](seed, "full",
tmpdir).configs()``) at CLI seeds 0-2, and for ``atia-bt`` on
``heat_rod(1000)`` with its dense reference at seed 0, one line per CSV the
run writes: ``tibt``, the command, the job and seed, its exit code, and the
CSV's name with the SHA-256 of its bytes. The runs write only under a
temporary directory, which is removed at the end.

``tibt`` is imported from ``PYTHONPATH``, so running this script against two
checkouts' ``src`` and diffing the outputs checks that a change leaves the
results bitwise unchanged, or moves only the result hash. One BLAS thread is
pinned before numpy loads, since OpenBLAS rounds differently on several
threads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "bench")]

import tibt  # noqa: E402
import tibt.cli  # noqa: E402
import workloads  # noqa: E402
from conftest import block_family, damped_chain, light_chain  # noqa: E402

TOLS = (1e-4, 1e-5, 1e-6)
SEEDS = (0, 3)
# where a reduced model's transfer function is hashed too
EVAL_POINTS = (0.37j, 1.3j, 4.1j, 11j)


def _models():
    for n in (400, 1000, 2000, 10_000):
        yield f"heat_rod({n})", lambda n=n: tibt.heat_rod(n), TOLS, SEEDS
    for n in (80, 150, 300):
        yield (f"random_stable({n},2,2,5)",
               lambda n=n: tibt.random_stable(n, 2, 2, 5), TOLS, SEEDS)
    yield "heat_rod(100000)", lambda: tibt.heat_rod(10**5), (1e-5,), (0, 7)
    yield "damped_chain()", damped_chain, (1e-5,), (0, 2, 5)
    yield "damped_chain(200,alpha=0.02,beta=0.02)", light_chain, (1e-5,), (0, 1, 2)
    for seed in range(6):
        yield f"block_family({seed})", lambda seed=seed: block_family(seed), (1e-6,), (0,)


def _tsia_models():
    yield "illustrative4()", tibt.illustrative4, (2, 3)
    yield "random_stable(60,2,2,0)", lambda: tibt.random_stable(60, 2, 2, 0), (2, 4, 6)
    yield "random_stable(150,2,2,5)", lambda: tibt.random_stable(150, 2, 2, 5), (4, 8)
    yield "heat_rod(400)", lambda: tibt.heat_rod(400), (4, 6, 8)


def _two_step_cases():
    m = tibt.random_stable(30, 2, 2, 5)
    yield "random_stable(30,2,2,5) full space", m, np.eye(30), np.eye(30), 5
    m = tibt.heat_rod(120)
    pts = (3.0, 30.0, 300.0)
    vk = np.column_stack([m.A.shifted_solve(s, m.B[:, 0]) for s in pts])
    wk = np.column_stack([m.A.transpose().shifted_solve(s, m.C[0]) for s in pts])
    yield "heat_rod(120) krylov", m, vk, wk, 3
    rng = np.random.default_rng(123)
    for trial in range(20):
        m = tibt.random_stable(40, 2, 2, 100 + trial)
        vk = tibt.linalg.orthonormalize(rng.standard_normal((40, 10)))
        wk = tibt.linalg.orthonormalize(vk + 0.15 * rng.standard_normal((40, 10)))
        yield f"random_stable(40,2,2,{100 + trial}) trial={trial}", m, vk, wk, 4


def _truncation_models():
    yield "illustrative4()", tibt.illustrative4, (1, 2, 3)
    yield "random_stable(60,2,2,0)", lambda: tibt.random_stable(60, 2, 2, 0), (4, 8)
    yield "heat_rod(400)", lambda: tibt.heat_rod(400), (4, 8, 16)
    yield "heat_rod(1000)", lambda: tibt.heat_rod(1000), (8,)


def _interpolation_cases():
    m = tibt.random_stable(60, 2, 2, 7)
    for r in range(2, 21, 2):
        pr = tibt.pole_residue(tibt.bt_square_root(m, r).rom)
        data = tibt.InterpolationData.from_points(-pr.poles, pr.right,
                                                  -pr.poles, np.conj(pr.left))
        yield f"random_stable(60,2,2,7) bt_square_root mirror r={r}", m, data


def _cli_jobs(tmp):
    """``(label, command, config, seed)`` of each CLI run whose CSVs are
    hashed."""
    for name, workload in workloads.WORKLOADS.items():
        if hasattr(workload, "configs"):  # a job issued through tibt.cli.main
            for seed in (0, 1, 2):
                for tag, command, cfg in workload(seed, "full", tmp).configs():
                    yield f"{name}/{tag} seed={seed}", command, cfg, seed
    yield ("atia-bt heat_rod(1000) seed=0", "run",
           {"model": {"kind": "heat_rod", "n": 1000}, "task": "atia-bt"}, 0)


def _cli_digests(tmp):
    for idx, (label, command, cfg, seed) in enumerate(_cli_jobs(tmp)):
        path, out = os.path.join(tmp, f"{idx}.json"), os.path.join(tmp, f"out{idx}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code = tibt.cli.main([command, path, "--output-dir", out, "--seed", str(seed)])
        names = sorted(f for f in os.listdir(out) if f.endswith(".csv")) \
            if os.path.isdir(out) else []
        if not names:  # a failed run writes nothing
            print(f"tibt {command} {label} exit={code}", flush=True)
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"tibt {command} {label} exit={code} {name}={digest}", flush=True)


def _feed(h, x):
    if x is None:  # the bytes of an object array would be a pointer
        h.update(b"None")
        return
    x = np.asarray(x)
    h.update(f"{x.dtype.str}{x.shape}".encode())
    h.update(np.ascontiguousarray(x).tobytes())


def _feed_history(h, history):
    for rec in history:
        h.update(f"{rec.k},{rec.i},{rec.r}".encode())
        _feed(h, rec.values)


def _feed_reduced(h, red):
    for arr in (red.rom.A.to_dense(), red.rom.B, red.rom.C, red.Vr, red.Wr,
                red.retained_sv, red.converged):
        _feed(h, arr)
    for s in EVAL_POINTS:
        _feed(h, tibt.eval_transfer(red.rom, s))


def _alrs(model, cfg, hist, result):
    res = tibt.alrs_lyap(model.A, model.B, cfg)
    for arr in (res.factor.basis, res.factor.core, res.residual, res.converged):
        _feed(result, arr)
    _feed_history(hist, res.singular_history)
    sigma1 = float(res.values[0]) if res.values.size else None
    return (f" sweeps={res.iterations_used} order={res.factor.rank}"
            f" residual={res.residual!r} sigma1={sigma1!r}")


def _atia(model, cfg, hist, result):
    res = tibt.atia_bt(model, cfg)
    _feed_reduced(result, res.rom)
    _feed_history(hist, res.history)
    return f" sweeps={len(res.history)} order={res.rom.r}"


def _tsia(model, r, seed, hist, result):
    red = tibt.tsia(model, tibt.random_stable(r, model.m, model.p, seed))
    _feed_reduced(result, red)
    _feed(hist, red.iterations)
    return f" sweeps={red.iterations} order={red.r}"


def _truncation(reduce, args, hist, result):
    red = reduce(*args)
    _feed_reduced(result, red)
    _feed(hist, red.r)
    return f" order={red.r}"


def _digest(label, run):
    """The line of one run: ``run(hist, result)`` feeds both hashes and
    returns the clear-text fields."""
    hist, result = hashlib.sha256(), hashlib.sha256()
    try:
        note = run(hist, result)
    except Exception as exc:  # the digest records the failure
        hist = result = hashlib.sha256(f"{type(exc).__name__}: {exc}".encode())
        note = f" raised {type(exc).__name__}"
    return f"{label} history={hist.hexdigest()} result={result.hexdigest()}{note}"


def main():
    for label, make, tols, seeds in _models():
        model = make()
        for driver, run in (("alrs_lyap", _alrs), ("atia_bt", _atia)):
            for tol in tols:
                for seed in seeds:
                    cfg = tibt.AlrsConfig(tol=tol, seed=seed)
                    print(_digest(f"{driver} {label} tol={tol:g} seed={seed}",
                                  lambda hist, result: run(model, cfg, hist, result)),
                          flush=True)
    for label, make, orders in _tsia_models():
        model = make()
        for r in orders:
            for seed in (0, 1):
                print(_digest(f"tsia {label} r={r} seed={seed}",
                              lambda hist, result: _tsia(model, r, seed, hist, result)),
                      flush=True)
    for label, model, vk, wk, r in _two_step_cases():
        args = (model, vk, wk, r)
        print(_digest(f"two_step_lowrank_bt {label} r={r}",
                      lambda hist, result: _truncation(
                          tibt.two_step_lowrank_bt, args, hist, result)),
              flush=True)
    for label, make, orders in _truncation_models():
        model = make()
        for reducer in (tibt.bt_square_root, tibt.tcr, tibt.tor):
            for r in orders:
                print(_digest(f"{reducer.__name__} {label} r={r}",
                              lambda hist, result: _truncation(
                                  reducer, (model, r), hist, result)),
                      flush=True)
    for label, model, data in _interpolation_cases():
        print(_digest(f"tangential_interpolate {label}",
                      lambda hist, result: _truncation(
                          tibt.tangential_interpolate, (model, data), hist, result)),
              flush=True)
    for label, make, _, _ in _models():
        model = make()
        if model.n <= 5000:
            grid = hashlib.sha256()
            _feed(grid, tibt.FreqGrid.default_for(model).points)
            print(f"FreqGrid.default_for {label} grid={grid.hexdigest()}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        _cli_digests(tmp)


if __name__ == "__main__":
    main()
