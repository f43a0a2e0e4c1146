"""Projection-based reducers and the tangential-interpolation framework.

Covers Petrov-Galerkin projection, square-root balanced truncation, the
truncated controllable/observable realizations, interpolatory reduction via
Sylvester equations, and the two-sided Sylvester fixed-point iteration for
H2-optimal reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InterimUnstableError,
    SingularProjectionError,
    SingularValueTieError,
)
from .linalg import (
    ordered_svd,
    orthonormalize,
    psd_factor,
    solve_lyapunov_dense,
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


@dataclass(frozen=True)
class ReducedModel:
    """Reduced-order model together with the projection pair that made it.

    The stored pair satisfies ``Wr^T Vr = I`` (Petrov-Galerkin). The
    truncations and :func:`~tibt.atia.atia_bt` set ``retained_sv``, the
    retained values (or estimates) largest first. Iterative reducers set
    ``converged``; only :func:`tsia` sets ``iterations``.
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
        If ``Wr^T Vr`` has condition number above 1e12.
    """
    vr = np.asarray(vr, dtype=float)
    wr = np.asarray(wr, dtype=float)
    if vr.ndim != 2 or wr.shape != vr.shape or vr.shape[0] != model.n:
        raise ValueError(
            f"Vr and Wr must both be ({model.n}, r), got {vr.shape}, {wr.shape}")
    wtv = wr.T @ vr
    if not np.all(np.isfinite(wtv)) or np.linalg.cond(wtv) > 1e12:
        raise SingularProjectionError("W^T V is numerically singular")
    wn = wr @ np.linalg.inv(wtv).T  # Wn^T Vr = I
    av = model.A.apply(vr)
    rom = StateSpaceModel(wn.T @ av, wn.T @ model.B, model.C @ vr)
    return ReducedModel(rom=rom, Vr=vr, Wr=wn)


def _check_sv_gap(s, r):
    if r < 1 or r > len(s):
        raise ValueError(f"r = {r} outside [1, {len(s)}]")
    if r < len(s) and s[r - 1] - s[r] <= 1e-12 * s[0]:
        raise SingularValueTieError(
            f"sigma_{r} - sigma_{r + 1} <= 1e-12 * sigma_1; truncation ill-defined")


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
    _check_sv_gap(s, r)
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


def _eig_truncation(model, gram, r):
    w, t = np.linalg.eigh(gram)
    w = w[::-1]
    t = t[:, ::-1]
    _check_sv_gap(w, r)
    vr = t[:, :r]
    red = project(model, vr, vr)  # Galerkin: T^{-T} = T
    return replace(red, retained_sv=w[:r].copy())


def tcr(model: StateSpaceModel, r) -> ReducedModel:
    """Truncated controllable realization: keep the r most controllable
    states (top eigenvectors of P, a Galerkin projection)."""
    return _eig_truncation(model, model.gramians.P, r)


def tor(model: StateSpaceModel, r) -> ReducedModel:
    """Truncated observable realization: keep the r most observable states
    (top eigenvectors of Q, a Galerkin projection)."""
    return _eig_truncation(model, model.gramians.Q, r)


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
    the left points (Hermite conditions where the point sets coincide).
    """
    vr = _well_scaled_basis(
        solve_sylvester_skinny(model.A, -data.Sb.T, model.B @ data.Lb))
    wr = _well_scaled_basis(
        solve_sylvester_skinny(model.A.transpose(), -data.Sc.T,
                               model.C.T @ data.Lc))
    if vr.shape[1] != wr.shape[1]:
        r_common = min(vr.shape[1], wr.shape[1])
        vr, wr = vr[:, :r_common], wr[:, :r_common]
    return project(model, vr, wr)


def solve_coupling_pair(model: StateSpaceModel, rom: StateSpaceModel):
    """Solutions ``(Phat, Qhat)`` of the Sylvester equations coupling
    ``model`` to ``rom``: ``A Phat + Phat Ar^T + B Br^T = 0`` and
    ``A^T Qhat + Qhat Ar + C^T Cr = 0``."""
    ar = rom.A.to_dense()
    return (solve_sylvester_skinny(model.A, ar, model.B @ rom.B.T),
            solve_sylvester_skinny(model.A.transpose(), ar.T, model.C.T @ rom.C))


def reflect_spectrum(ar, floor):
    """Flip eigenvalues with Re >= -1e-12 into the open left half-plane.

    Returns ``ar`` unchanged when already safely Hurwitz. Reconstruction
    goes through the eigendecomposition, so a defective unstable matrix
    raises :class:`InterimUnstableError`.
    """
    lam, x = np.linalg.eig(ar)
    bad = lam.real >= -1e-12
    if not np.any(bad):
        return ar
    lam = lam.astype(complex)
    x = x.astype(complex)
    lam[bad] = -np.abs(lam[bad].real) - floor + 1j * lam[bad].imag
    try:
        fixed = (x * lam) @ np.linalg.inv(x)
    except np.linalg.LinAlgError as exc:
        raise InterimUnstableError(
            "interim reduced matrix is defective; cannot reflect") from exc
    if not np.all(np.isfinite(fixed)):
        raise InterimUnstableError(
            "interim reduced matrix too ill-conditioned to reflect")
    return fixed.real


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
    :class:`StateSpaceModel` of order r), each sweep reflects ROM poles with
    Re >= 0, then interpolates ``model`` at their mirror images along the
    ROM's residual directions (:func:`tangential_interpolate`), so the order
    drops to the smaller rank of its two bases. Iteration stops when the
    chordal change of the sorted ROM poles drops below ``conv_tol``. On
    ``max_iter`` exhaustion the best iterate seen is returned with
    ``converged=False``.
    """
    require_hurwitz(model)
    rom = init.rom if isinstance(init, ReducedModel) else init
    require_hurwitz(rom, "initial reduced model")
    poles = np.linalg.eigvals(rom.A.to_dense())
    best = None
    best_change = np.inf
    for it in range(1, max_iter + 1):
        ar = reflect_spectrum(rom.A.to_dense(), floor=0.0)
        red = tangential_interpolate(model, InterpolationData(
            Sb=-ar.T, Lb=rom.B.T, Sc=-ar, Lc=rom.C))
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
    truncation and lifting the result: the Lyapunov equations are solved in
    the interpolant's (oblique) coordinates, and the lifted factors
    ``Vk Zp``, ``Wk Zq`` go to :func:`bt_from_factors`, whose product
    ``Zq^T Wk^T Vk Zp`` carries the cross weight.

    Raises
    ------
    SingularProjectionError
        If ``Wk^T Vk`` is numerically singular after orthonormalization.
    NonHurwitzError
        If the order-k interpolant is unstable (its Gramians then do not
        exist).
    """
    vk = orthonormalize(np.asarray(vk, dtype=float))
    wk = orthonormalize(np.asarray(wk, dtype=float))
    if vk.shape[1] != wk.shape[1]:
        raise SingularProjectionError(
            "trial subspaces have different numerical ranks")
    e = wk.T @ vk
    if np.linalg.cond(e) > 1e12:
        raise SingularProjectionError("Wk^T Vk is numerically singular")
    k = e.shape[0]
    ad = wk.T @ model.A.apply(vk)
    # the interpolant's (E^-1 Ad, E^-1 Bd) for P and the transposes of
    # (Ad E^-1, Cd E^-1) for Q
    left = np.linalg.solve(e, np.hstack([ad, wk.T @ model.B]))
    right = np.linalg.solve(e.T, np.hstack([ad.T, (model.C @ vk).T]))
    pk = solve_lyapunov_dense(left[:, :k], left[:, k:] @ left[:, k:].T)
    qk = solve_lyapunov_dense(right[:, :k], right[:, k:] @ right[:, k:].T)
    return bt_from_factors(model, vk @ psd_factor(pk), wk @ psd_factor(qk), r)


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
