"""Projection-based reducers and the tangential-interpolation framework.

Covers Petrov-Galerkin projection, square-root balanced truncation, the
truncated controllable/observable realizations, interpolatory reduction via
Sylvester equations, and the two-sided Sylvester fixed-point iteration for
H2-optimal reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .errors import (
    InterimUnstableError,
    SingularProjectionError,
    SingularValueTieError,
)
from .linalg import (
    _on_two_threads,
    ordered_svd,
    orthonormalize,
    psd_factor,
    solve_sylvester_skinny,
)
from .system import StateSpaceModel, require_hurwitz

__all__ = [
    "ReducedModel",
    "InterpolationData",
    "project",
    "bt_square_root",
    "bt_from_factors",
    "square_root_pair",
    "tcr",
    "tor",
    "tangential_interpolate",
    "tsia",
    "two_step_lowrank_bt",
    "solve_coupling_pair",
    "h2_optimality_residuals",
    "reflect_spectrum",
]

# Trailing singular values below this fraction of the largest are excluded
# from the S^(-1/2) scaling in square-root truncations.
SCALE_CLIP_RTOL = 1e-14
# Largest condition number of W^T V in a projection and of X in a reflection.
BIORTH_COND_CAP = 1e12
# Margin of a reflected eigenvalue inside the left half-plane.
REFLECT_FLOOR = 1e-8


@dataclass(frozen=True)
class ReducedModel:
    """Reduced-order model together with the projection pair that made it.

    The stored pair satisfies ``Wr^T Vr = I`` (Petrov-Galerkin). The
    truncations and :func:`~tibt.atia.atia_bt` set ``retained_sv``, the
    retained values (or estimates) largest first. Iterative reducers set
    ``converged``; only :func:`tsia` sets ``iterations``. From
    :func:`~tibt.atia.atia_bt`, ``rom`` is the projection by this pair with
    its poles at Re >= -1e-12 reflected (:func:`reflect_spectrum`).
    """

    rom: StateSpaceModel
    Vr: np.ndarray
    Wr: np.ndarray
    retained_sv: np.ndarray | None = None
    converged: bool | None = None
    iterations: int | None = None

    @property
    def r(self) -> int:
        return self.rom.n


def project(model: StateSpaceModel, vr, wr) -> ReducedModel:
    """Petrov-Galerkin projection of ``model`` onto (span Vr, span Wr).

    ``Wr`` is renormalized so that ``Wr^T Vr = I`` before forming
    ``Ar = Wr^T A Vr``, ``Br = Wr^T B``, ``Cr = C Vr``; by the invariance of
    the reduced transfer function under right-multiplication of the bases,
    this does not change the ROM.

    Raises
    ------
    SingularProjectionError
        If ``Wr^T Vr`` has condition number above ``BIORTH_COND_CAP``.
    """
    vr = np.asarray(vr, dtype=float)
    wr = np.asarray(wr, dtype=float)
    if (vr.ndim != 2 or wr.shape != vr.shape or vr.shape[0] != model.n
            or vr.shape[1] < 1):
        raise ValueError(f"Vr and Wr must both be ({model.n}, r) with r >= 1, "
                         f"got {vr.shape}, {wr.shape}")
    wtv = wr.T @ vr
    if not np.all(np.isfinite(wtv)) or np.linalg.cond(wtv) > BIORTH_COND_CAP:
        raise SingularProjectionError("W^T V is numerically singular")
    wn = wr @ np.linalg.inv(wtv).T  # Wn^T Vr = I
    av = model.A.apply(vr)
    rom = StateSpaceModel(wn.T @ av, wn.T @ model.B, model.C @ vr)
    return ReducedModel(rom=rom, Vr=vr, Wr=wn)


def square_root_pair(zp, zq, svd, r):
    """Square-root truncation pair ``Vr = Zp V_j S_j^{-1/2}``,
    ``Wr = Zq U_j S_j^{-1/2}`` from the ordered SVD ``(U, S, V)`` of
    ``Zq^T E Zp``, so ``Wr^T E Vr = I``. It keeps the leading ``j <= r``
    values above ``SCALE_CLIP_RTOL`` of the largest (none for a zero
    product), dropping those that would blow up the scaling."""
    u, s, v = svd
    keep = np.flatnonzero(s[:r] > SCALE_CLIP_RTOL * s[0])
    scale = np.sqrt(s[keep])
    return zp @ (v[:, keep] / scale), zq @ (u[:, keep] / scale)


def bt_from_factors(model: StateSpaceModel, zp, zq, r) -> ReducedModel:
    """Square-root balanced truncation from Gramian factors ``P ~ Zp Zp^T``,
    ``Q ~ Zq Zq^T``.

    Computes the SVD of ``Zq^T Zp`` and forms ``Vr = Zp V_r S_r^{-1/2}``,
    ``Wr = Zq U_r S_r^{-1/2}`` (:func:`square_root_pair`), dropping values
    too small to scale. With exact full-rank factors this is classical
    balanced truncation; with truncated factors it is the low-rank variant.
    """
    if r < 1:
        raise ValueError(f"r = {r} must be >= 1")
    zp = np.asarray(zp, dtype=float)
    zq = np.asarray(zq, dtype=float)
    svd = ordered_svd(zq.T @ zp)
    s = svd[1]
    if not (len(s) and s[0] > 0):
        raise ValueError("Gramian factors have numerically zero product")
    vr, wr = square_root_pair(zp, zq, svd, r)
    r = vr.shape[1]
    if r < len(s) and s[r - 1] - s[r] <= 1e-12 * s[0]:
        raise SingularValueTieError(
            f"sigma_{r} - sigma_{r + 1} <= 1e-12 * sigma_1; truncation ill-defined")
    av = model.A.apply(vr)
    rom = StateSpaceModel(wr.T @ av, wr.T @ model.B, model.C @ vr)
    return ReducedModel(rom=rom, Vr=vr, Wr=wr,
                        retained_sv=s[:r].copy())


def bt_square_root(model: StateSpaceModel, r) -> ReducedModel:
    """Balanced truncation to order ``r`` by the square-root method.

    The ROM's controllability and observability Gramians both equal
    ``diag(retained_sv)``; the retained values are the ``r`` largest Hankel
    singular values.

    Raises
    ------
    NonHurwitzError
        If the model is unstable (raised by its
        :attr:`~tibt.system.StateSpaceModel.gramians`).
    SingularValueTieError
        If ``sigma_r`` and ``sigma_{r+1}`` coincide to 1e-12 relative.
    """
    lp = psd_factor(model.gramians.P)
    lq = psd_factor(model.gramians.Q)
    return bt_from_factors(model, lp, lq, r)


def tcr(model: StateSpaceModel, r) -> ReducedModel:
    """Truncated controllable realization: keep the r most controllable
    states, the square-root truncation of ``(P, P)``. ``Vr`` and ``Wr`` are
    the top eigenvectors of P (a Galerkin projection) and ``retained_sv``
    its top eigenvalues; like :func:`bt_square_root`, it caps the order at
    the factor's numerical rank and raises on an unstable model or a tie."""
    lp = psd_factor(model.gramians.P)
    return bt_from_factors(model, lp, lp, r)


def tor(model: StateSpaceModel, r) -> ReducedModel:
    """Truncated observable realization: keep the r most observable states,
    the square-root truncation of ``(Q, Q)``; see :func:`tcr`."""
    lq = psd_factor(model.gramians.Q)
    return bt_from_factors(model, lq, lq, r)


def _realify_points(points, dirs, what):
    """Build the real block-diagonal (S, L) pair encoding interpolation at
    ``points`` along ``dirs`` (rows). Complex points must come in conjugate
    pairs; each pair becomes a 2x2 rotation block."""
    points = np.asarray(points, dtype=complex)
    dirs = np.atleast_2d(np.asarray(dirs, dtype=complex))
    r = len(points)
    if dirs.shape[0] != r:
        raise ValueError(f"{what}: need one direction per point")
    s = np.zeros((r, r))
    l = np.zeros((dirs.shape[1], r))
    used = np.zeros(r, dtype=bool)
    col = 0
    for i in range(r):
        if used[i]:
            continue
        pt = points[i]
        if abs(pt.imag) <= 1e-14 * max(abs(pt), 1.0):
            s[col, col] = pt.real
            l[:, col] = dirs[i].real
            used[i] = True
            col += 1
            continue
        mates = [j for j in range(i + 1, r)
                 if not used[j]
                 and abs(points[j] - np.conj(pt)) <= 1e-8 * max(abs(pt), 1.0)]
        if not mates:
            raise ValueError(
                f"{what}: complex point {pt} has no conjugate mate")
        j = mates[0]
        alpha, beta = pt.real, abs(pt.imag)
        d = dirs[i] if pt.imag > 0 else dirs[j]
        s[col:col + 2, col:col + 2] = [[alpha, beta], [-beta, alpha]]
        l[:, col] = d.real
        l[:, col + 1] = d.imag
        used[i] = used[j] = True
        col += 2
    return s, l


@dataclass(frozen=True)
class InterpolationData:
    """Tangential interpolation data in matrix form.

    ``(Sb, Lb)`` encodes the right points/directions and ``(Sc, Lc)`` the
    left ones; both pairs must be observable. ``from_points`` builds the
    real matrix encoding from (possibly complex) point/direction lists,
    turning conjugate pairs into 2x2 rotation blocks.
    """

    Sb: np.ndarray  # (r, r)
    Lb: np.ndarray  # (m, r)
    Sc: np.ndarray  # (r, r)
    Lc: np.ndarray  # (p, r)

    @classmethod
    def from_points(cls, right_points, right_dirs, left_points, left_dirs):
        sb, lb = _realify_points(right_points, right_dirs, "right data")
        sc, lc = _realify_points(left_points, left_dirs, "left data")
        return cls(Sb=sb, Lb=lb, Sc=sc, Lc=lc)

    @property
    def r(self) -> int:
        return self.Sb.shape[0]

    def observable(self) -> bool:
        """Check that both (S, L) pairs are observable (full stacked rank)."""
        for s, l in ((self.Sb, self.Lb), (self.Sc, self.Lc)):
            blocks = [l]
            for _ in range(self.r - 1):
                blocks.append(blocks[-1] @ s)
            if np.linalg.matrix_rank(np.vstack(blocks)) < self.r:
                return False
        return True


def _well_scaled_basis(x):
    """Equilibrate and orthonormalize a projection basis.

    Column norms of interpolatory Sylvester solutions track the (often
    rapidly decaying) singular values they encode, which would wreck the
    conditioning of ``W^T V`` even though the reduced transfer function is
    invariant under right-multiplication by any invertible matrix. Unit
    column scaling followed by orthonormalization removes that artifact
    without changing the ROM. Each column is first scaled by the power of
    two that brings its largest entry into [0.5, 1), which is exact and
    keeps the squares in the norm from underflowing.
    """
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x), axis=0))[1])
    norms = np.linalg.norm(x, axis=0)
    good = norms > 0
    return orthonormalize(x[:, good] / norms[good])


def tangential_interpolate(model: StateSpaceModel,
                           data: InterpolationData) -> ReducedModel:
    """Reduce by tangential interpolation at the points encoded in ``data``.

    ``Vr`` solves ``A Vr - Vr Sb + B Lb = 0`` and ``Wr`` solves
    ``A^T Wr - Wr Sc + C^T Lc = 0``; the ROM then matches ``H(s)`` along the
    right directions at the right points and along the left directions at
    the left points (Hermite conditions where the point sets coincide). It
    projects onto both spans, well scaled and cut to their common rank;
    ``Wr`` is solved and scaled on a worker thread (see :mod:`tibt.linalg`).
    """
    vr, wr = _on_two_threads(
        lambda: _well_scaled_basis(solve_sylvester_skinny(model.A, -data.Sb.T, model.B, data.Lb)),
        lambda: _well_scaled_basis(
            solve_sylvester_skinny(model.A.transpose(), -data.Sc.T, model.C.T, data.Lc)))
    r = min(vr.shape[1], wr.shape[1])
    return project(model, vr[:, :r], wr[:, :r])


def solve_coupling_pair(model: StateSpaceModel, rom: StateSpaceModel):
    """Solutions ``(Phat, Qhat)`` of the Sylvester equations coupling
    ``model`` to ``rom``: ``A Phat + Phat Ar^T + B Br^T = 0`` and
    ``A^T Qhat + Qhat Ar + C^T Cr = 0``; ``Qhat`` is solved on a worker
    thread (see :mod:`tibt.linalg`)."""
    ar = rom.A.to_dense()
    return _on_two_threads(
        lambda: solve_sylvester_skinny(model.A, ar, model.B, rom.B.T),
        lambda: solve_sylvester_skinny(model.A.transpose(), ar.T, model.C.T, rom.C))


def reflect_spectrum(ar):
    """Flip eigenvalues with Re >= -1e-12 to Re = -|Re| - ``REFLECT_FLOOR``
    through the eigendecomposition ``X diag(lambda) X^-1``; return ``ar``
    itself when it is already safely Hurwitz.

    Raises
    ------
    InterimUnstableError
        If a flip is due and ``cond(X) > BIORTH_COND_CAP``, as when defective.
    """
    lam, x = np.linalg.eig(ar)
    bad = lam.real >= -1e-12
    if not np.any(bad):
        return ar
    if not np.linalg.cond(x) <= BIORTH_COND_CAP:
        raise InterimUnstableError(
            "interim reduced matrix is defective or too ill-conditioned to reflect")
    lam, x = lam.astype(complex), x.astype(complex)
    lam[bad] = -np.abs(lam[bad].real) - REFLECT_FLOOR + 1j * lam[bad].imag
    return ((x * lam) @ np.linalg.inv(x)).real


def _pole_change(new, old):
    """Largest chordal distance between sorted pole vectors."""
    if len(new) != len(old):
        return np.inf
    a = np.sort_complex(new)
    b = np.sort_complex(old)
    num = np.abs(a - b)
    den = np.sqrt(1.0 + np.abs(a) ** 2) * np.sqrt(1.0 + np.abs(b) ** 2)
    return float(np.max(num / den))


def tsia(model: StateSpaceModel, init, max_iter=200, conv_tol=1e-8) -> ReducedModel:
    """Two-sided Sylvester iteration toward the H2-optimality conditions.

    Starting from ``init`` (a :class:`ReducedModel` or a bare
    :class:`StateSpaceModel` of order r), each sweep reflects the ROM
    (:func:`reflect_spectrum`) and is :func:`tangential_interpolate` of
    ``model`` at the mirror images of its poles along its residual
    directions, ``InterpolationData(-Ar^T, Br^T, -Ar, Cr)``, whose bases
    are the coupling pair of ``model`` and the ROM, so the order drops to
    the smaller rank of the two. Iteration stops when the chordal change of
    the sorted ROM poles drops below ``conv_tol``. On ``max_iter``
    exhaustion the best iterate seen is returned with ``converged=False``.

    Raises
    ------
    ValueError
        If ``max_iter`` is not an integer >= 1; no solve is made.
    SingularProjectionError
        If a sweep's ``W^T V`` is numerically singular; no iterate is returned.
    """
    if not isinstance(max_iter, Integral) or isinstance(max_iter, bool) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    require_hurwitz(model)
    rom = init.rom if isinstance(init, ReducedModel) else init
    require_hurwitz(rom, "initial reduced model")
    poles = np.linalg.eigvals(rom.A.to_dense())
    best = None
    best_change = np.inf
    for it in range(1, max_iter + 1):
        ar = reflect_spectrum(rom.A.to_dense())
        red = tangential_interpolate(model, InterpolationData(-ar.T, rom.B.T, -ar, rom.C))
        rom = red.rom
        new_poles = np.linalg.eigvals(rom.A.to_dense())
        change = _pole_change(new_poles, poles)
        poles = new_poles
        if change < best_change:
            best, best_change = red, change
        if change <= conv_tol:
            return replace(red, converged=True, iterations=it)
    return replace(best, converged=False, iterations=max_iter)


def two_step_lowrank_bt(model: StateSpaceModel, vk, wk, r) -> ReducedModel:
    """Low-rank balanced truncation from trial subspaces ``span(Vk)``,
    ``span(Wk)``.

    Exactly equivalent to reducing the order-k interpolant
    ``C Vk (s Wk^T Vk - Wk^T A Vk)^{-1} Wk^T B`` by classical balanced
    truncation and lifting the result: the surrogate is the
    :func:`project` of ``model`` onto the orthonormalized spans, its
    :attr:`~tibt.system.StateSpaceModel.gramians` are solved in its own
    coordinates, and the lifted factors ``Vr Zp``, ``Wr Zq`` go to
    :func:`bt_from_factors` (``Wr^T Vr = I``, so their product is
    ``Zq^T Zp``).

    Raises
    ------
    SingularProjectionError
        If the spans have different numerical ranks, or from
        :func:`project` if ``Wk^T Vk`` is numerically singular.
    NonHurwitzError
        From the surrogate's Gramians, if the order-k interpolant is
        unstable.
    """
    vk = orthonormalize(np.asarray(vk, dtype=float))
    wk = orthonormalize(np.asarray(wk, dtype=float))
    if vk.shape[1] != wk.shape[1]:
        raise SingularProjectionError(
            "trial subspaces have different numerical ranks")
    surrogate = project(model, vk, wk)
    gram = surrogate.rom.gramians
    return bt_from_factors(model, surrogate.Vr @ psd_factor(gram.P),
                           surrogate.Wr @ psd_factor(gram.Q), r)


def h2_optimality_residuals(model: StateSpaceModel, red: ReducedModel) -> dict:
    """Relative residuals of the three first-order H2-optimality conditions.

    Returns ``{"cp": ..., "qb": ..., "qp": ...}`` for
    ``C Phat - Cr Pr``, ``Qhat^T B - Qr Br`` and ``Qhat^T Phat - Qr Pr``,
    each normalized by the Frobenius norm of its reduced-side term.
    """
    rom = red.rom
    phat, qhat = solve_coupling_pair(model, rom)
    pr, qr = rom.gramians.P, rom.gramians.Q

    def _rel(lhs, ref):
        # one exact power-of-two scaling keeps the squared entries normal
        e = np.frexp(max(np.max(np.abs(lhs)), np.max(np.abs(ref))))[1]
        lhs, ref = np.ldexp(lhs, -e), np.ldexp(ref, -e)
        return float(np.linalg.norm(lhs) / max(np.linalg.norm(ref),
                                               np.finfo(float).tiny))

    return {
        "cp": _rel(model.C @ phat - rom.C @ pr, rom.C @ pr),
        "qb": _rel(qhat.T @ model.B - qr @ rom.B, qr @ rom.B),
        "qp": _rel(qhat.T @ phat - qr @ pr, qr @ pr),
    }
