"""Peak resident set of each named phase of ``alrs_lyap`` or ``atia_bt``.

    PYTHONPATH=src python3 tools/rss_phases.py alrs 1000000
    PYTHONPATH=src python3 tools/rss_phases.py atia 100000 --runs 1

Builds ``heat_rod(n)`` and runs one adaptive driver on it ``--runs`` times
(default 2) back to back in one process, keeping the previous result alive
while the next run works, as a closed benchmark loop does. ``alrs`` runs
``alrs_lyap`` with the criterion-9 config (``r0 = dr = 2``, tol 1e-4,
``i_max`` 3, ``k_max`` 21), the ``lyap_rod_1m`` benchmark's; ``atia`` runs
``atia_bt`` with ``r0 = dr = 2`` and tol 1e-5, the ``bt_rod_100k``
benchmark's reduction. One BLAS thread is pinned before numpy loads.

The phases are the calls the drivers spend their n-row memory in:

- ``build``: ``heat_rod``;
- ``sylvester``: ``solve_sylvester_skinny``;
- ``extend``: ``_Basis.extend`` outside its operator product, that is the
  orthonormalization of the new directions and the bordering products;
- ``apply``: the operator product ``apply``/``apply_transpose``;
- ``gramian``: the projected Lyapunov factor, ``_Basis.gramian_factor``;
- ``residual``: ``lowrank_lyapunov_residual``, at the end of ``alrs_lyap``,
  outside its operator product;
- ``driver``: the rest of the driver (truncation, the ROM, the result).

A thread reads the resident set from ``/proc/self/statm`` every
millisecond, and once more when a phase opens or closes, and charges each
reading to the innermost open phase of every thread (``atia_bt`` extends
its two bases on two threads). Where ``/proc/self/statm`` is missing (off
Linux) each reading is the process's high-water mark ``ru_maxrss``
instead, so a phase's figure is an upper bound that is exact for the
phase in which the mark rose. The table gives each phase's peak in MiB and
in doubles per state (bytes / 8n) and the time of its calls, summed over
threads and including the phases inside it; then the process's
``ru_maxrss``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import tibt  # noqa: E402
import tibt.alrs  # noqa: E402
import tibt.linalg  # noqa: E402

MIB = 1024.0**2
INTERVAL_S = 1e-3
CONFIGS = {"alrs": {"r0": 2, "dr": 2, "tol": 1e-4, "i_max": 3, "k_max": 21},
           "atia": {"r0": 2, "dr": 2, "tol": 1e-5}}


def _maxrss_bytes():
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def _statm_reader():
    """A function returning the resident set in bytes from
    ``/proc/self/statm``, or None where that file cannot be read."""
    try:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
    except OSError:
        return None
    page = os.sysconf("SC_PAGE_SIZE")

    def resident():
        # pread keeps no file offset, so two threads may read at once
        return int(os.pread(fd, 256, 0).split()[1]) * page

    return resident


class PhaseSampler:
    """Charges resident-set readings to the innermost open phase of each
    thread; :meth:`phase` wraps a function so that each call opens one."""

    def __init__(self):
        self.read = _statm_reader() or _maxrss_bytes
        self.peak = {}
        self.seconds = {}
        self._stacks = {}  # thread id -> open phase names
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)

    def sample(self):
        rss = self.read()
        with self._lock:
            for stack in self._stacks.values():
                if stack:
                    self.peak[stack[-1]] = max(self.peak.get(stack[-1], 0), rss)

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            self.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def phase(self, name, fn):
        sampler = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tid = threading.get_ident()
            sampler.sample()
            with sampler._lock:
                sampler._stacks.setdefault(tid, []).append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                sampler.sample()
                with sampler._lock:
                    sampler._stacks[tid].pop()
                    sampler.seconds[name] = sampler.seconds.get(name, 0.0) + dt

        return wrapped


def install(sampler):
    """Wrap every phase where the drivers look it up."""
    targets = [
        (tibt, "heat_rod", "build"),
        (tibt, "alrs_lyap", "driver"),
        (tibt, "atia_bt", "driver"),
        (tibt.alrs, "solve_sylvester_skinny", "sylvester"),
        (tibt.alrs._Basis, "extend", "extend"),
        (tibt.alrs._Basis, "gramian_factor", "gramian"),
        (tibt.alrs, "lowrank_lyapunov_residual", "residual"),
    ]
    for cls in (tibt.linalg.TridiagonalOperator, tibt.linalg.DenseOperator):
        targets += [(cls, "apply", "apply"), (cls, "apply_transpose", "apply")]
    for owner, attr, name in targets:
        setattr(owner, attr, sampler.phase(name, getattr(owner, attr)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("driver", choices=("alrs", "atia"))
    parser.add_argument("n", type=int, help="states of the heat rod")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0, help="the drivers' start seed")
    args = parser.parse_args(argv)
    if args.n < 2 or args.runs < 1:
        parser.error("need n >= 2 and --runs >= 1")

    with PhaseSampler() as sampler:
        install(sampler)
        model = tibt.heat_rod(args.n)
        cfg = tibt.AlrsConfig(**CONFIGS[args.driver], seed=args.seed)
        result = None  # the previous run's result lives through the next run
        t0 = time.perf_counter()
        for _ in range(args.runs):
            if args.driver == "alrs":
                result = tibt.alrs_lyap(model.A, model.B, cfg)
            else:
                result = tibt.atia_bt(model, cfg)
        wall = time.perf_counter() - t0
    source = "/proc/self/statm" if sampler.read is not _maxrss_bytes else "ru_maxrss"
    print(f"{args.driver} on heat_rod({args.n}), {args.runs} run(s) in {wall:.2f} s, "
          f"seed {args.seed}; resident set from {source}")
    print(f"{'phase':<10} {'peak MiB':>9} {'doubles/state':>14} {'time s':>8}")
    for name, peak in sorted(sampler.peak.items(), key=lambda kv: -kv[1]):
        print(f"{name:<10} {peak / MIB:9.1f} {peak / (8 * args.n):14.1f} "
              f"{sampler.seconds.get(name, 0.0):8.2f}")
    top = _maxrss_bytes()
    print(f"{'ru_maxrss':<10} {top / MIB:9.1f} {top / (8 * args.n):14.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
