"""Adaptive low-rank Lyapunov solver driven by tangential interpolation.

Starting from the seed's small stable :func:`~tibt.benchmarks.random_stable`
pair, each sweep enforces interpolation at the mirror images of the current
approximation's poles, grows the trial basis, and reads approximate singular
values off the projected Lyapunov solution. When the retained values
stagnate, the target rank is raised and the basis is reset to the latest
interpolation data, so the basis (and the SVD cost) never grows past
``r * i_max`` columns.

Both drivers run one sweep loop, :func:`_sweep`, given their sides:
``(A, B)`` here, and ``(A^T, C^T)`` too in :mod:`tibt.atia`. It builds the
start and one basis per side, which solves its own Sylvester equation and
absorbs the solution. It ranks through :class:`_RankLadder`, truncates
through :func:`~tibt.reducers.square_root_pair`, and reflects each side's
projected matrix and each ROM, where it forms it, into the left half-plane,
so ``A`` need not be dissipative and every ROM it interpolates at or
returns is Hurwitz (on a dissipative ``A`` both reflections are no-ops).
With one side and a symmetric ``A`` (``LinearOperator.symmetric``) the
Galerkin ROM is symmetric in exact arithmetic, and the sweep makes it
exactly so, ``(Ar + Ar^T) / 2`` after the reflection: its poles are real,
and the next sweep's Sylvester solve decouples into r independent shifted
solves (:func:`~tibt.linalg.solve_sylvester_skinny`).

Within a stage the basis grows append-only: new directions are
orthogonalized against it by block classical Gram-Schmidt with
reorthogonalization, ``A`` is applied to the new columns only, and the
projected matrix ``V^T A V`` is bordered rather than recomputed, so a sweep
costs O(n k j) for a k-column basis and j new columns. A one-sided sweep
keeps no ``A V``: the product with the new columns lives only while it
borders ``V^T A V``, and on a non-symmetric ``A`` the new columns also meet
``A^T`` once. A run allocates its n-row buffers once (:class:`_Basis`), and
the extension is blocked by row panels
(:func:`~tibt.linalg.orthonormalize` of the new directions against ``V``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .benchmarks import random_stable
from .linalg import (
    _on_two_threads,
    as_operator,
    cgs2,
    ordered_svd,
    orthonormalize,
    psd_factor,
    solve_lyapunov_dense,
    solve_sylvester_skinny,
)
from .reducers import BIORTH_COND_CAP, reflect_spectrum, square_root_pair
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
        """Final singular-value estimates, the diagonal of the core."""
        return np.diag(self.factor.core).copy()


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
    u1 = op.apply(factor.basis @ factor.core)
    x = np.empty((op.n, u1.shape[1] + b.shape[1]), order="F")
    np.concatenate([u1, b], axis=1, out=x)
    del u1  # x is the residual's only copy of A V C
    k = factor.rank
    den = np.linalg.norm(x[:, k:], 2) ** 2
    c, _, rs = cgs2(factor.basis, x, out=x)
    r2 = np.linalg.qr(rs, mode="r")
    cu, cb = c[:, :k], c[:, k:]
    r2u, r2b = r2[:, :k], r2[:, k:]
    eye = np.eye(k)
    zero = np.zeros_like(r2u)
    rg = np.block([[cu, eye, cb], [r2u, zero, r2b]])
    rh = np.block([[eye, cu, cb], [zero, r2u, r2b]])
    num = np.linalg.norm(rg @ rh.T, 2)
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
    """Orthonormal trial basis ``V`` of one side, grown append-only, with
    ``V^T A V`` and ``V^T B`` kept in step for the side's operator ``op``
    (``A``, or ``A^T`` for W) and n-by-m ``b`` (``B``, or ``C^T``): adding j
    columns to a k-column basis costs O(n k j), and ``op`` sees the new
    columns only. With ``images`` the basis also keeps ``A V``, which a
    two-sided sweep reads for ``W^T A V``; a one-sided one keeps only the
    ``V`` buffer. One instance serves a whole run: :meth:`restart` empties
    it for the next stage but keeps its buffers, which grow only when a
    stage outgrows every earlier one.
    """

    def __init__(self, op, b, images=False):
        self.op = op
        self.b = b
        self._v = np.empty((b.shape[0], 0), order="F")
        self._av = np.empty((b.shape[0], 0), order="F") if images else None
        self.restart()

    def restart(self, new=None):
        """Empty the basis, then absorb ``new`` when given."""
        self.k = 0
        self.ak = np.zeros((0, 0))
        self.bk = np.zeros((0, self.b.shape[1]))
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
        diagonal block. The new columns ``q`` are formed in place in the
        spare columns of the ``V`` buffer. ``A q`` goes to the spare columns
        of the ``A V`` buffer where the basis keeps one, and the lower-left
        block is ``q^T A V``; without it ``A q`` is transient, and that block
        is ``(V^T A q)^T`` for a symmetric ``A``, which keeps ``V^T A V``
        exactly symmetric, or ``(A^T q)^T V``."""
        k, j = self.k, new.shape[1]
        self._v = _reserve(self._v, k, j)
        v = self._v[:, :k]
        q = orthonormalize(new, v, out=self._v[:, k:k + j])
        if self._av is not None:
            self._av = _reserve(self._av, k, j)
            aq = self.op.apply(q, out=self._av[:, k:k + q.shape[1]])
            vaq, qav, qaq = v.T @ aq, q.T @ self._av[:, :k], q.T @ aq
        else:
            aq = self.op.apply(q)
            vaq, qaq = v.T @ aq, q.T @ aq
            del aq  # freed before A^T q is formed
            if self.op.symmetric:
                qav, qaq = vaq.T, (qaq + qaq.T) / 2
            else:
                qav = self.op.apply_transpose(q).T @ v
        self.ak = np.block([[self.ak, vaq], [qav, qaq]])
        self.bk = np.vstack([self.bk, q.T @ self.b])
        self.k += q.shape[1]

    def grow(self, ar, br):
        """Solve ``A X + X Ar^T + b Br^T = 0``, absorb ``X`` and return it."""
        x = solve_sylvester_skinny(self.op, ar, self.b, br.T)
        self.extend(x)
        return x

    def gramian_factor(self):
        """Factor ``Z`` of the projected Gramian ``V Z Z^T V^T``, solved with
        ``V^T A V`` reflected into the left half-plane (see the module)."""
        ak = reflect_spectrum(self.ak)
        return psd_factor(solve_lyapunov_dense(ak, self.bk @ self.bk.T))


def _rebiorthogonalize(vb, wb, wv):
    """Trim directions along which span(W_k) and span(V_k) are nearly
    orthogonal: restart both bases from their columns that keep the cross
    product well conditioned."""
    uu, ss, vv = ordered_svd(wv)
    keep = ss > ss[0] / BIORTH_COND_CAP
    vb.restart(vb.v @ vv[:, keep])
    wb.restart(wb.v @ uu[:, keep])


def _sweep(cfg, sides, on_iteration):
    """The mirror-image fixed point over one :class:`_Basis` per side of
    ``sides``, ``((A, B),)`` (Galerkin: W is V) or ``((A, B), (A^T, C^T))``,
    from the seed's ``random_stable(min(r0, n), m, p, seed)``, m and p the
    columns of the first and last ``b`` (an empty B keeps an empty start B;
    one side never reads C). Each side's :meth:`_Basis.grow` gives its new
    directions, and the hook gets ``(record, *bases, *new_directions)``.
    Each sweep forms one ROM and reflects its ``Ar`` once; the next sweep
    interpolates at that ROM. Returns the ladder, the bases and, unless a
    basis came out empty, the last ``(Ar, Br, Cr)``, its pair ``(Vr, Wr)``
    in basis coordinates and its ordered singular values."""
    ladder = _RankLadder(cfg)
    # a two-sided sweep reads W^T A V off A^T W, so its bases keep A V
    bases = tuple(_Basis(op, b, images=len(sides) > 1) for op, b in sides)
    vb, wb = bases[0], bases[-1]
    one_sided = wb is vb
    start = random_stable(min(cfg.r0, vb.op.n), max(vb.b.shape[1], 1),
                          max(wb.b.shape[1], 1), cfg.seed)
    ar, br, cr = start.A.to_dense(), start.B[:, :vb.b.shape[1]], start.C
    while True:
        if one_sided:
            new = (vb.grow(ar, br),)
        else:  # W is solved and extended on a worker thread (see tibt.linalg)
            new = _on_two_threads(lambda: vb.grow(ar, br), lambda: wb.grow(ar.T, cr.T))
        if vb.k == 0 or wb.k == 0:
            return ladder, bases, None
        if one_sided:  # the basis supplies W^T A V, W^T B and C V
            zp = zq = vb.gramian_factor()
            u, s, _ = ordered_svd(zp.T @ zp)
            svd = u, s, u  # Zp^T Zp is symmetric: both sides take U
            wav, wtb, cv = vb.ak, vb.bk, vb.bk.T
        else:
            wv = wb.v.T @ vb.v
            if np.linalg.cond(wv) > BIORTH_COND_CAP:
                _rebiorthogonalize(vb, wb, wv)
                wv = wb.v.T @ vb.v
            zp, zq = vb.gramian_factor(), wb.gramian_factor()
            svd = ordered_svd(zq.T @ wv @ zp)
            # W^T A V = (A^T W)^T V
            wav, wtb, cv = wb.av.T @ vb.v, wb.v.T @ vb.b, wb.b.T @ vb.v
        stage_done = ladder.step(svd[1])
        if on_iteration is not None:
            on_iteration(ladder.history[-1], *(basis.v for basis in bases), *new)
        vr, wr = square_root_pair(zp, zq, svd, ladder.r)
        ar = reflect_spectrum(wr.T @ wav @ vr)
        if one_sided and vb.op.symmetric:  # a symmetric A: decoupled solves
            ar = (ar + ar.T) / 2
        br, cr = wr.T @ wtb, cv @ vr
        if ladder.done(svd[1]):
            return ladder, bases, ((ar, br, cr), (vr, wr), svd[1])
        if stage_done:  # the next stage starts from the latest directions
            for basis, directions in zip(bases, new):
                basis.restart(directions)
        new = directions = None  # freed before the next solve forms its own


def alrs_lyap(a, b, cfg: AlrsConfig, on_iteration=None) -> AlrsResult:
    """Adaptively build a low-rank solution of ``A P + P A^T + B B^T = 0``.

    Per iteration: one skinny Sylvester solve supplies fresh interpolation
    directions, the orthonormal trial basis absorbs them, a projected
    Lyapunov solve and an SVD yield updated singular-value estimates. The
    run stops once the r-th retained estimate falls below ``tol`` times the
    largest, or flags ``converged=False`` when ``k_max`` is exhausted. The
    factor is the last sweep's square-root truncation, with core
    ``diag(values)``: the Gramian of the truncated projection. The run's
    basis buffer is freed once the factor is formed, before the residual
    (:func:`lowrank_lyapunov_residual`) applies ``A`` to the factor's r
    columns and makes its own n-row arrays, so the result is the only
    n-row data the run leaves behind.

    ``on_iteration``, when given, is called once per sweep with
    ``(record, basis, new_directions)`` for diagnostics; it must not mutate
    its arguments. ``basis`` is a view of the run's basis buffer, which
    later stages overwrite, so a hook that keeps it must copy it.

    Raises
    ------
    NonHurwitzError
        If ``A`` is not Hurwitz; unstable projections are reflected.
    """
    op = as_operator(a)
    require_hurwitz(op, "coefficient matrix")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != op.n:
        raise ValueError(f"B must have {op.n} rows, got {b.shape}")
    ladder, (basis,), last = _sweep(cfg, ((op, b),), on_iteration)
    if last is None:  # zero right-hand side: nothing to capture
        ladder.converged = True
        small, s = np.zeros((0, 0)), np.zeros(0)
    else:
        _, (small, _), sv = last
        s = sv[:small.shape[1]]
    # a balanced truncation's Gramian is diag of its retained values
    factor = LowRankGramian(basis=basis.v @ small, core=np.diag(s))
    basis._v = None  # freed before the residual makes its own n-row arrays
    return AlrsResult(factor=factor, singular_history=ladder.history,
                      converged=ladder.converged,
                      residual=lowrank_lyapunov_residual(op, b, factor))
