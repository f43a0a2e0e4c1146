"""Shared test oracles and helpers.

The Kronecker-system solvers here are deliberately brute force: they are the
independent reference implementations the equation solvers are checked
against, so they must not share any code path with the package.
"""

import sys
import threading

import numpy as np
import pytest

import tibt
import tibt.linalg


def kron_lyapunov(a, g):
    """Solve A P + P A^T + G = 0 by the vectorized Kronecker system."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, a) + np.kron(a, eye)
    p = np.linalg.solve(lhs, -g.flatten(order="F"))
    return p.reshape((n, n), order="F")


def kron_sylvester(a, m, f):
    """Solve A X + X M^T + F = 0 by the vectorized Kronecker system."""
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    n, r = f.shape
    lhs = np.kron(np.eye(r), a) + np.kron(m, np.eye(n))
    x = np.linalg.solve(lhs, -f.flatten(order="F"))
    return x.reshape((n, r), order="F")


def transfer_mismatch(model_a, model_b, points):
    """Largest relative transfer-function deviation over the given points."""
    worst = 0.0
    for s in points:
        ha = tibt.eval_transfer(model_a, s)
        hb = tibt.eval_transfer(model_b, s)
        worst = max(worst, np.linalg.norm(ha - hb) / max(np.linalg.norm(hb), 1e-300))
    return worst


TEST_POINTS = (0.37j, 1.3j, 4.1j, 11.0j, 2.5)


def max_principal_angle(x, y):
    """Sine of the largest principal angle between the column spans of x, y.

    Computed from the projection residual, which stays accurate for angles
    near zero (arccos of a Gram singular value bottoms out around 1e-8).
    """
    qx, _ = np.linalg.qr(x)
    qy, _ = np.linalg.qr(y)
    resid = qy - qx @ (qx.T @ qy)
    return float(np.linalg.norm(resid, 2))


def two_qr_lyapunov_residual(a, b, factor):
    """Relative spectral-norm Lyapunov residual ``||A P + P A^T + B B^T||_2 /
    ||B||_2^2`` of ``P = V C V^T``, from two separate tall QRs of
    ``G = [A V C, V, B]`` and ``H = [V, A V C, B]`` (``G H^T`` is the
    residual). ``a`` is a dense array; no package code is used."""
    v = factor.basis
    u1 = np.asarray(a) @ (v @ factor.core)
    _, rg = np.linalg.qr(np.hstack([u1, v, b]))
    _, rh = np.linalg.qr(np.hstack([v, u1, b]))
    return np.linalg.norm(rg @ rh.T, 2) / np.linalg.norm(b, 2) ** 2


class CountingOperator(tibt.LinearOperator):
    """Delegates to ``inner``, ``symmetric`` included, and counts the columns
    passed to ``apply`` and ``apply_transpose`` in ``cols``, which its
    transpose shares. The count is locked: an operator and its transpose
    may be applied on two threads at once."""

    def __init__(self, inner, cols=None, lock=None):
        self.inner = inner
        self.cols = [0] if cols is None else cols
        self._lock = threading.Lock() if lock is None else lock

    def _count(self, x):
        with self._lock:
            self.cols[0] += x.shape[1] if np.ndim(x) == 2 else 1

    @property
    def n(self):
        return self.inner.n

    @property
    def symmetric(self):
        return self.inner.symmetric

    def apply(self, x, out=None):
        self._count(x)
        return self.inner.apply(x, out)

    def apply_transpose(self, x, out=None):
        self._count(x)
        return self.inner.apply_transpose(x, out)

    def shifted_solve(self, s, b):
        return self.inner.shifted_solve(s, b)

    def hurwitz(self):
        return self.inner.hurwitz()

    def transpose(self):
        return CountingOperator(self.inner.transpose(), self.cols, self._lock)

    def to_dense(self):
        return self.inner.to_dense()


class AbsorbedColumns:
    """``on_iteration`` hook helper: sums the columns a basis absorbed
    between sweeps. A sweep that opens a stage (``record.i == 1``) starts
    from an empty basis, so it absorbed all of its columns."""

    def __init__(self):
        self.total = 0
        self._width = 0

    def add(self, record, basis):
        width = basis.shape[1]
        self.total += width if record.i == 1 else width - self._width
        self._width = width


def damped_chain(n_mass=100, k=100.0, alpha=1.0, beta=0.2):
    """N unit masses with stiffness K = k tridiag(-1, 2, -1) and damping
    D = alpha I + beta K: A = [[0, I], [-K, -D]] with n = 2N, a force on
    mass 1 in and the position of mass N out."""
    stiff = k * (2.0 * np.eye(n_mass) - np.eye(n_mass, k=1) - np.eye(n_mass, k=-1))
    damp = alpha * np.eye(n_mass) + beta * stiff
    a = np.block([[np.zeros((n_mass, n_mass)), np.eye(n_mass)], [-stiff, -damp]])
    b = np.zeros((2 * n_mass, 1))
    b[n_mass, 0] = 1.0
    c = np.zeros((1, 2 * n_mass))
    c[0, n_mass - 1] = 1.0
    return tibt.StateSpaceModel(a, b, c)


def light_chain(n_mass=200):
    """The lightly damped chain: :func:`damped_chain` with alpha = beta =
    0.02."""
    return damped_chain(n_mass=n_mass, alpha=0.02, beta=0.02)


def block_family(seed, n=120):
    """A Hurwitz but not dissipative model: ``A = Q blkdiag([a_i, 12; 0,
    b_i]) Q^T`` with a random orthogonal ``Q``, ``a_i`` drawn from
    ``-[0.5, 2]`` and ``b_i = a_i - [0.2, 1]``, and Gaussian ``B``, ``C``
    with two columns and rows. Max Re lambda <= -0.5, but ``A + A^T`` has
    eigenvalues near +10, so a Galerkin projection of ``A`` can be
    unstable."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = -rng.uniform(0.5, 2.0, n // 2)
    d = a - rng.uniform(0.2, 1.0, n // 2)
    t = np.zeros((n, n))
    for i, (ai, di) in enumerate(zip(a, d)):
        t[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[ai, 12.0], [0.0, di]]
    return tibt.StateSpaceModel(q @ t @ q.T, rng.standard_normal((n, 2)),
                                rng.standard_normal((2, n)))


@pytest.fixture
def lyapunov_solves(monkeypatch):
    """The dense Lyapunov solves a test makes, as ``(name, n)`` pairs in call
    order: ``name`` is ``"solve_lyapunov_pair"`` or ``"solve_lyapunov_dense"``
    and ``n`` the order of A, an array or an operator."""
    calls = []
    for fn_name in ("solve_lyapunov_pair", "solve_lyapunov_dense"):
        solve = getattr(tibt.linalg, fn_name)

        def counting(a, *gs, solve=solve, fn_name=fn_name):
            calls.append((fn_name, tibt.linalg.as_operator(a).n))
            return solve(a, *gs)

        # every module that imported the solver calls it through its own name
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tibt" and getattr(module, fn_name, None) is solve:
                monkeypatch.setattr(module, fn_name, counting)
    return calls


def run_inline(monkeypatch):
    """Make every tibt module run both callables of the two-thread helper
    ``tibt.linalg._on_two_threads`` on the calling thread, one after the
    other, so a result can be compared with its threaded counterpart."""
    helper = tibt.linalg._on_two_threads
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tibt" and getattr(module, "_on_two_threads", None) is helper:
            monkeypatch.setattr(module, "_on_two_threads",
                                lambda here, there: (here(), there()))
