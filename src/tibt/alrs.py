"""Adaptive low-rank Lyapunov solver driven by tangential interpolation.

Starting from an arbitrary small stable pair, each sweep enforces
interpolation at the mirror images of the current approximation's poles,
grows the trial basis, and reads approximate singular values off the
projected Lyapunov solution. When the retained values stagnate, the target
rank is raised and the basis is reset to the latest interpolation data, so
the basis (and the SVD cost) never grows past ``r * i_max`` columns.

Within a stage the basis grows append-only: new directions are
orthogonalized against it by block classical Gram-Schmidt with
reorthogonalization, ``A`` is applied to the new columns only, and the
projected matrix ``V^T A V`` is bordered rather than recomputed, so a sweep
costs O(n k j) for a k-column basis and j new columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_operator,
    cgs2,
    extend_orthonormal,
    ordered_svd,
    psd_factor,
    solve_lyapunov_dense,
    solve_sylvester_skinny,
)
from .reducers import SCALE_CLIP_RTOL
from .system import require_hurwitz

__all__ = [
    "AlrsConfig",
    "AlrsResult",
    "LowRankGramian",
    "IterationRecord",
    "alrs_lyap",
    "lowrank_lyapunov_residual",
]


@dataclass(frozen=True)
class AlrsConfig:
    """Run parameters: initial rank, rank increment, tolerance, per-stage and
    total iteration caps, and the seed for the arbitrary starting pair.

    ``tol`` stops the rank growth (smallest over largest retained value) and,
    unless ``stage_tol`` overrides it, also detects per-stage stagnation.
    """

    r0: int = 2
    dr: int = 2
    tol: float = 1e-4
    i_max: int = 5
    k_max: int = 100
    seed: int = 0
    stage_tol: float | None = None

    def __post_init__(self):
        if self.r0 < 1 or self.dr < 1 or self.i_max < 1 or self.k_max < 1:
            raise ValueError("r0, dr, i_max, k_max must all be >= 1")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.stage_tol is not None and not 0.0 < self.stage_tol < 1.0:
            raise ValueError("stage_tol must lie in (0, 1)")

    @property
    def effective_stage_tol(self) -> float:
        return self.tol if self.stage_tol is None else self.stage_tol


@dataclass(frozen=True)
class LowRankGramian:
    """Factored approximation ``P ~ basis @ core @ basis.T`` with an
    orthonormal basis and symmetric PSD core."""

    basis: np.ndarray
    core: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def reconstruct(self) -> np.ndarray:
        return self.basis @ self.core @ self.basis.T


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one iteration: total counter k, stage counter i, target
    rank r, and the retained singular-value estimates."""

    k: int
    i: int
    r: int
    values: np.ndarray


@dataclass(frozen=True)
class AlrsResult:
    factor: LowRankGramian
    singular_history: list[IterationRecord] = field(default_factory=list)
    iterations_used: int = 0
    converged: bool = False
    residual: float = np.nan

    @property
    def values(self) -> np.ndarray:
        """Final singular-value estimates (eigenvalues of the core)."""
        w = np.linalg.eigvalsh(self.core_sym())[::-1]
        return np.clip(w, 0.0, None)

    def core_sym(self) -> np.ndarray:
        c = self.factor.core
        return 0.5 * (c + c.T)


def _arbitrary_stable_pair(r, m, seed):
    """Deterministic Gaussian pair with A shifted to be safely Hurwitz."""
    streams = np.random.SeedSequence(seed).spawn(2)
    g = np.random.default_rng(streams[0]).standard_normal((r, r))
    ar = g - (np.linalg.norm(g, 2) + 1.0) * np.eye(r)
    br = np.random.default_rng(streams[1]).standard_normal((r, m))
    return ar, br


def padded_change(new, prev):
    """Relative 2-norm change between value vectors of possibly different
    lengths (shorter one zero-padded)."""
    ln = max(len(new), len(prev))
    a = np.zeros(ln)
    a[: len(new)] = new
    b = np.zeros(ln)
    b[: len(prev)] = prev
    denom = np.linalg.norm(a)
    if denom == 0.0:
        return 0.0 if np.linalg.norm(b) == 0.0 else np.inf
    return float(np.linalg.norm(a - b) / denom)


def scaled_truncation(u, s, r_eff):
    """Columns ``u[:, j] / sqrt(s[j])`` for j < r_eff, skipping values that
    would blow up the scaling (below ``SCALE_CLIP_RTOL`` of the largest)."""
    keep = np.arange(r_eff)[s[:r_eff] > SCALE_CLIP_RTOL * s[0]]
    return u[:, keep] / np.sqrt(s[keep])


def lowrank_lyapunov_residual(a, b, factor: LowRankGramian) -> float:
    """Relative spectral-norm Lyapunov residual of a factored approximation,
    evaluated without forming any n-by-n matrix.

    With ``U1 = A V C`` the residual is ``G H^T`` for ``G = [U1, V, B]`` and
    ``H = [V, U1, B]``, which share their columns. The orthonormal ``V`` is
    extended by :func:`cgs2` of ``[U1, B]`` and one thin QR of the
    remainder, so both ``G`` and ``H`` have exact coefficients ``Rg``, ``Rh``
    in one small basis and the residual is ``||Rg Rh^T||_2``.
    """
    op = as_operator(a)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    v = factor.basis
    k = v.shape[1]
    u1 = op.apply(v @ factor.core)
    c, rem = cgs2(v, np.hstack([u1, b]))
    r2 = np.linalg.qr(rem, mode="r")
    cu, cb = c[:, :k], c[:, k:]
    r2u, r2b = r2[:, :k], r2[:, k:]
    eye = np.eye(k)
    zero = np.zeros_like(r2u)
    rg = np.block([[cu, eye, cb], [r2u, zero, r2b]])
    rh = np.block([[eye, cu, cb], [zero, r2u, r2b]])
    num = np.linalg.norm(rg @ rh.T, 2)
    den = np.linalg.norm(b, 2) ** 2
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def _append_columns(buf, k, cols):
    """Write ``cols`` after the first ``k`` columns of the Fortran-ordered
    ``buf``, doubling its capacity when full. Unwritten columns of a
    Fortran-ordered array are never touched, so spare capacity costs address
    space, not resident memory."""
    j = cols.shape[1]
    if k + j > buf.shape[1]:
        grown = np.empty((buf.shape[0], max(2 * buf.shape[1], k + j)), order="F")
        grown[:, :k] = buf[:, :k]
        buf = grown
    buf[:, k:k + j] = cols
    return buf


class _Basis:
    """Orthonormal trial basis ``V`` of one stage, grown append-only, with
    ``A V``, ``V^T A V`` and ``V^T B`` kept in step: adding j columns to a
    k-column basis costs O(n k j), and A is applied to the new columns only.
    """

    def __init__(self, n, m):
        self._v = np.empty((n, 0), order="F")
        self._av = np.empty((n, 0), order="F")
        self.k = 0
        self.ak = np.zeros((0, 0))
        self.bk = np.zeros((0, m))

    @property
    def v(self):
        return self._v[:, :self.k]

    def extend(self, op, b, new):
        """Absorb the directions of ``new`` not yet in the span of ``V``,
        bordering ``V^T A V`` with the two off-diagonal blocks and the new
        diagonal block."""
        v, av = self.v, self._av[:, :self.k]
        q = extend_orthonormal(v, new)
        aq = op.apply(q)
        self.ak = np.block([[self.ak, v.T @ aq], [q.T @ av, q.T @ aq]])
        self.bk = np.vstack([self.bk, q.T @ b])
        self._v = _append_columns(self._v, self.k, q)
        self._av = _append_columns(self._av, self.k, aq)
        self.k += q.shape[1]


def alrs_lyap(a, b, cfg: AlrsConfig, on_iteration=None) -> AlrsResult:
    """Adaptively build a low-rank solution of ``A P + P A^T + B B^T = 0``.

    Per iteration: one skinny Sylvester solve supplies fresh interpolation
    directions, the orthonormal trial basis absorbs them, a projected
    Lyapunov solve and an SVD yield updated singular-value estimates. The
    run stops once the r-th retained estimate falls below ``tol`` times the
    largest, or flags ``converged=False`` when ``k_max`` is exhausted.

    ``on_iteration``, when given, is called once per sweep with
    ``(record, basis, new_directions)`` for diagnostics; it must not mutate
    its arguments.

    Raises
    ------
    NonHurwitzError
        If ``A`` (or a projected image of it) is not Hurwitz.
    """
    op = as_operator(a)
    require_hurwitz(op, "coefficient matrix")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != op.n:
        raise ValueError(f"B must have {op.n} rows, got {b.shape}")
    m = b.shape[1]

    r = cfg.r0
    ar, br = _arbitrary_stable_pair(r, m, cfg.seed)
    basis = _Basis(op.n, m)
    s_prev = np.zeros(0)
    history: list[IterationRecord] = []
    k = 1
    i = 1
    converged = False
    vr = None
    while True:
        phat = solve_sylvester_skinny(op, ar, b @ br.T)
        basis.extend(op, b, phat)
        if basis.k == 0:  # zero right-hand side: nothing to capture
            ar = np.zeros((0, 0))
            br = np.zeros((0, m))
            vr = np.zeros((op.n, 0))
            converged = True
            break
        ak = basis.ak
        bk = basis.bk
        pk = solve_lyapunov_dense(ak, bk @ bk.T)
        zp = psd_factor(pk).z
        u, s_full, _ = ordered_svd(zp.T @ zp)
        r_eff = min(r, len(s_full))
        s_r = s_full[:r_eff].copy()
        history.append(IterationRecord(k=k, i=i, r=r, values=s_r))
        if on_iteration is not None:
            on_iteration(history[-1], basis.v, phat)

        stage_done = (padded_change(s_r, s_prev) <= cfg.effective_stage_tol
                      or i >= cfg.i_max)
        if stage_done:
            # raise the target rank before rebuilding: the returned basis
            # over-captures by up to dr, so the run ends only once the
            # insignificant values are already included
            r += cfg.dr
        small = zp @ scaled_truncation(u, s_full, min(r, len(s_full)))
        vr = basis.v @ small
        ar = small.T @ ak @ small
        br = small.T @ bk
        if stage_done:
            s_prev = np.zeros(0)
            i = 1
        else:
            s_prev = s_r
            i += 1
        k += 1

        if s_full[0] <= 0.0:
            converged = True  # right-hand side numerically zero
            break
        # a rank-deficient factor product means the r-th value is exactly zero
        s_r_r = s_full[r - 1] if r <= len(s_full) else 0.0
        if s_r_r / s_full[0] < cfg.tol:
            converged = True
            break
        if k > cfg.k_max:
            break
        if stage_done:
            # the next stage starts from the latest interpolation data alone
            basis = _Basis(op.n, m)
            basis.extend(op, b, phat)

    pr = solve_lyapunov_dense(ar, br @ br.T) if ar.shape[0] else np.zeros((0, 0))
    factor = LowRankGramian(basis=vr, core=pr)
    residual = lowrank_lyapunov_residual(op, b, factor)
    return AlrsResult(factor=factor, singular_history=history,
                      iterations_used=k - 1, converged=converged,
                      residual=residual)
