"""Adaptive low-rank Lyapunov solver driven by tangential interpolation.

Starting from the seed's small stable :func:`~tibt.benchmarks.random_stable`
pair, each sweep enforces interpolation at the mirror images of the current
approximation's poles, grows the trial basis, and reads approximate singular
values off the projected Lyapunov solution. When the retained values
stagnate, the target rank is raised and the basis is reset to the latest
interpolation data, so the basis (and the SVD cost) never grows past
``r * i_max`` columns.

The stage, rank and stop policy lives in :class:`_RankLadder`, which the
two-sided driver in :mod:`tibt.atia` shares; both truncate through
:func:`~tibt.reducers.square_root_pair`.

Within a stage the basis grows append-only: new directions are
orthogonalized against it by block classical Gram-Schmidt with
reorthogonalization, ``A`` is applied to the new columns only, and the
projected matrix ``V^T A V`` is bordered rather than recomputed, so a sweep
costs O(n k j) for a k-column basis and j new columns.

The n-row data is allocated once per run: a stage reset keeps the buffers
of ``V`` and ``A V``, which double only when a stage outgrows every earlier
one, and new columns are formed in place in the spare columns of ``V``.
The extension is blocked by row panels (:func:`~tibt.linalg.cgs2`,
:func:`~tibt.linalg.extend_orthonormal`): the Gram-Schmidt passes share
their reads of ``V``, the rank-revealing pivoted QR runs on the small stack
of panel R factors (TSQR) instead of the n-row remainder, and the kept
columns are formed from that R factor in a few panel passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .benchmarks import random_stable
from .linalg import (
    as_operator,
    cgs2,
    extend_orthonormal,
    ordered_svd,
    psd_factor,
    solve_lyapunov_dense,
    solve_sylvester_skinny,
)
from .reducers import square_root_pair
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

    ``tol`` stops the rank growth (smallest over largest retained value) and
    also detects per-stage stagnation.
    """

    r0: int = 2
    dr: int = 2
    tol: float = 1e-4
    i_max: int = 5
    k_max: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("r0", "dr", "i_max", "k_max", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.r0 < 1 or self.dr < 1 or self.i_max < 1 or self.k_max < 1:
            raise ValueError("r0, dr, i_max, k_max must all be >= 1")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")


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
    converged: bool = False
    residual: float = np.nan

    @property
    def iterations_used(self) -> int:
        return len(self.singular_history)

    @property
    def values(self) -> np.ndarray:
        """Final singular-value estimates (eigenvalues of the core)."""
        w = np.linalg.eigvalsh(self.factor.core)[::-1]
        return np.clip(w, 0.0, None)


def padded_change(new, prev):
    """Relative 2-norm change between value vectors of possibly different
    lengths (shorter one zero-padded)."""
    ln = max(len(new), len(prev))
    a = np.pad(new, (0, ln - len(new)))
    b = np.pad(prev, (0, ln - len(prev)))
    denom = np.linalg.norm(a)
    if denom == 0.0:
        return 0.0 if np.linalg.norm(b) == 0.0 else np.inf
    return float(np.linalg.norm(a - b) / denom)


class _RankLadder:
    """Stage, rank and stop policy of the adaptive drivers. Per sweep the
    driver calls :meth:`step` with the ordered singular values of its factor
    product, truncates at the (possibly raised) ``r``, then asks
    :meth:`done`."""

    def __init__(self, cfg: AlrsConfig):
        self.cfg = cfg
        self.r = cfg.r0
        self.i = 1
        self.s_prev = np.zeros(0)
        self.history: list[IterationRecord] = []
        self.converged = False

    def step(self, s) -> bool:
        """Record the sweep and return whether its stage ended (stagnation
        or ``i_max``); an ended stage raises ``r`` by ``dr`` before the
        caller truncates, so the result over-captures by up to ``dr`` and
        the run ends only once the insignificant values are included."""
        cfg = self.cfg
        s_r = s[:self.r].copy()
        self.history.append(IterationRecord(k=len(self.history) + 1, i=self.i,
                                            r=self.r, values=s_r))
        stage_done = (padded_change(s_r, self.s_prev) <= cfg.tol
                      or self.i >= cfg.i_max)
        if stage_done:
            self.r += cfg.dr
        self.i = 1 if stage_done else self.i + 1
        self.s_prev = np.zeros(0) if stage_done else s_r
        return stage_done

    def done(self, s) -> bool:
        """Stop on a zero top value (numerically zero right-hand side), on
        the r-th value below ``tol`` times the top (a rank-deficient product
        has an exactly zero r-th value), or, unconverged, after ``k_max``
        sweeps."""
        s_r_r = s[self.r - 1] if self.r <= len(s) else 0.0
        self.converged = bool(s[0] <= 0.0 or s_r_r / s[0] < self.cfg.tol)
        return self.converged or len(self.history) >= self.cfg.k_max


def lowrank_lyapunov_residual(a, b, factor: LowRankGramian) -> float:
    """Relative spectral-norm Lyapunov residual of a factored approximation,
    evaluated without forming any n-by-n matrix.

    With ``U1 = A V C`` the residual is ``G H^T`` for ``G = [U1, V, B]`` and
    ``H = [V, U1, B]``, which share their columns. The orthonormal ``V`` is
    extended by :func:`cgs2` of ``[U1, B]`` and the R factor of the
    remainder, taken from the panel R factors :func:`cgs2` returns, so both
    ``G`` and ``H`` have exact coefficients ``Rg``, ``Rh`` in one small
    basis and the residual is ``||Rg Rh^T||_2``.
    """
    op = as_operator(a)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return _factored_residual(factor.basis, op.apply(factor.basis @ factor.core), b)


def _factored_residual(v, u1, b):
    """:func:`lowrank_lyapunov_residual` of ``V C V^T`` given ``U1 = A V C``."""
    k = v.shape[1]
    c, _, rs = cgs2(v, np.hstack([u1, b]))
    r2 = np.linalg.qr(rs, mode="r")
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


def _reserve(buf, k, j):
    """The Fortran-ordered ``buf`` with room for ``k + j`` columns: ``buf``
    itself, or a copy of its first ``k`` columns with at least double the
    capacity. Unwritten columns of a Fortran-ordered array are never
    touched, so spare capacity costs address space, not resident memory."""
    if k + j <= buf.shape[1]:
        return buf
    grown = np.empty((buf.shape[0], max(2 * buf.shape[1], k + j)), order="F")
    grown[:, :k] = buf[:, :k]
    return grown


class _Basis:
    """Orthonormal trial basis ``V`` of one stage, grown append-only, with
    ``A V``, ``V^T A V`` and ``V^T B`` kept in step for the operator
    product ``apply`` (``A`` or ``A^T``) and the n-by-m ``b``: adding j
    columns to a k-column basis costs O(n k j), and ``apply`` sees the new
    columns only. One instance serves a whole run: :meth:`restart` empties
    it for the next stage but keeps the buffers of ``V`` and ``A V``, which
    grow only when a stage outgrows every earlier one.
    """

    def __init__(self, apply, b):
        self._apply = apply
        self._b = b
        self._v = np.empty((b.shape[0], 0), order="F")
        self._av = np.empty((b.shape[0], 0), order="F")
        self.restart()

    def restart(self, new=None):
        """Empty the basis, then absorb ``new`` when given."""
        self.k = 0
        self.ak = np.zeros((0, 0))
        self.bk = np.zeros((0, self._b.shape[1]))
        if new is not None:
            self.extend(new)

    @property
    def v(self):
        return self._v[:, :self.k]

    @property
    def av(self):
        return self._av[:, :self.k]

    def extend(self, new):
        """Absorb the directions of ``new`` not yet in the span of ``V``,
        bordering ``V^T A V`` with the two off-diagonal blocks and the new
        diagonal block. The new columns are formed in place in the spare
        columns of the ``V`` buffer."""
        k, j = self.k, new.shape[1]
        self._v = _reserve(self._v, k, j)
        self._av = _reserve(self._av, k, j)
        v, av = self._v[:, :k], self._av[:, :k]
        q = extend_orthonormal(v, new, out=self._v[:, k:k + j])
        aq = self._apply(q)
        self.ak = np.block([[self.ak, v.T @ aq], [q.T @ av, q.T @ aq]])
        self.bk = np.vstack([self.bk, q.T @ self._b])
        self._av[:, k:k + q.shape[1]] = aq
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
    its arguments. ``basis`` is a view of the run's basis buffer, which
    later stages overwrite, so a hook that keeps it must copy it.

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

    ladder = _RankLadder(cfg)
    # the seed's stable starting pair; C goes unused, an empty B stays empty
    start = random_stable(cfg.r0, max(m, 1), 1, cfg.seed)
    ar, br = start.A.to_dense(), start.B[:, :m]
    basis = _Basis(op.apply, b)
    while True:
        phat = solve_sylvester_skinny(op, ar, b @ br.T)
        basis.extend(phat)
        if basis.k == 0:  # zero right-hand side: nothing to capture
            small = ar = np.zeros((0, 0))
            br = np.zeros((0, m))
            ladder.converged = True
            break
        ak, bk = basis.ak, basis.bk
        zp = psd_factor(solve_lyapunov_dense(ak, bk @ bk.T))
        svd = ordered_svd(zp.T @ zp)
        stage_done = ladder.step(svd[1])
        if on_iteration is not None:
            on_iteration(ladder.history[-1], basis.v, phat)

        # Zp^T Zp is symmetric, so both sides of the pair agree; use U's
        _, small = square_root_pair(zp, zp, svd, ladder.r)
        ar = small.T @ ak @ small
        br = small.T @ bk
        if ladder.done(svd[1]):
            break
        if stage_done:
            # the next stage starts from the latest interpolation data alone
            basis.restart(phat)

    pr = solve_lyapunov_dense(ar, br @ br.T) if ar.shape[0] else np.zeros((0, 0))
    factor = LowRankGramian(basis=basis.v @ small, core=pr)
    # A V C from the A V the basis already holds
    residual = _factored_residual(factor.basis, basis.av @ (small @ pr), b)
    return AlrsResult(factor=factor, singular_history=ladder.history,
                      converged=ladder.converged, residual=residual)
