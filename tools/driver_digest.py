"""One SHA-256 per run of the adaptive drivers, for bitwise comparisons.

    PYTHONPATH=src python3 tools/driver_digest.py > digest.txt

Runs ``alrs_lyap`` and ``atia_bt`` over a fixed matrix of models, tolerances
and seeds and prints one line per run: its label and the SHA-256 of every
``IterationRecord`` and every result array, or of the exception text when
the run raises. The matrix is ``heat_rod`` (n = 400, 1000, 2000, 10^4) and
``random_stable(n, 2, 2, 5)`` (n = 80, 150, 300) at tol 1e-4, 1e-5, 1e-6 and
seeds 0 and 3 (84 runs), then the damped chain at tol 1e-5, seeds 0, 2, 5,
and the 2x2-block family at tol 1e-6, seeds 0-5, from ``tests/conftest.py``.

``tibt`` is imported from ``PYTHONPATH``, so running this script against two
checkouts' ``src`` and diffing the outputs checks that a change leaves the
drivers' results bitwise unchanged. One BLAS thread is pinned before numpy
loads, since OpenBLAS rounds differently on several threads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

import tibt  # noqa: E402
from conftest import block_family, damped_chain  # noqa: E402

TOLS = (1e-4, 1e-5, 1e-6)
SEEDS = (0, 3)


def _models():
    for n in (400, 1000, 2000, 10_000):
        yield f"heat_rod({n})", lambda n=n: tibt.heat_rod(n), TOLS, SEEDS
    for n in (80, 150, 300):
        yield (f"random_stable({n},2,2,5)",
               lambda n=n: tibt.random_stable(n, 2, 2, 5), TOLS, SEEDS)
    yield "damped_chain()", damped_chain, (1e-5,), (0, 2, 5)
    for seed in range(6):
        yield f"block_family({seed})", lambda seed=seed: block_family(seed), (1e-6,), (0,)


def _feed(h, x):
    x = np.asarray(x)
    h.update(f"{x.dtype.str}{x.shape}".encode())
    h.update(np.ascontiguousarray(x).tobytes())


def _alrs(model, cfg, h):
    res = tibt.alrs_lyap(model.A, model.B, cfg)
    for arr in (res.factor.basis, res.factor.core, res.residual, res.converged):
        _feed(h, arr)
    return res.singular_history


def _atia(model, cfg, h):
    res = tibt.atia_bt(model, cfg)
    red = res.rom
    for arr in (red.rom.A.to_dense(), red.rom.B, red.rom.C, red.Vr, red.Wr,
                red.retained_sv, red.converged):
        _feed(h, arr)
    return res.history


def main():
    for label, make, tols, seeds in _models():
        model = make()
        for driver, run in (("alrs_lyap", _alrs), ("atia_bt", _atia)):
            for tol in tols:
                for seed in seeds:
                    h, note = hashlib.sha256(), ""
                    try:
                        history = run(model, tibt.AlrsConfig(tol=tol, seed=seed), h)
                    except Exception as exc:  # the digest records the failure
                        h = hashlib.sha256(f"{type(exc).__name__}: {exc}".encode())
                        note = f" raised {type(exc).__name__}"
                    else:
                        for rec in history:
                            h.update(f"{rec.k},{rec.i},{rec.r}".encode())
                            _feed(h, rec.values)
                    print(f"{driver} {label} tol={tol:g} seed={seed} {h.hexdigest()}{note}",
                          flush=True)


if __name__ == "__main__":
    main()
