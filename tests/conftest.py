"""Shared test oracles and helpers.

The Kronecker-system solvers here are deliberately brute force: they are the
independent reference implementations the equation solvers are checked
against, so they must not share any code path with the package.
"""

import numpy as np

import tibt


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
