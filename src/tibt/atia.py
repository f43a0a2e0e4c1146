"""Adaptive tangential-interpolation balanced truncation.

The two-sided counterpart of the adaptive Lyapunov solver: each sweep
enforces bi-tangential Hermite interpolation at the mirror images of the
current ROM's poles, grows both trial bases, and balances the projected
Gramian factors. Stagnation of the retained Hankel estimates triggers an
order increase and a basis reset; the run ends when the r-th estimate falls
below ``tol`` times the largest, leaving a ROM that carries the dominant
Hankel singular values of the full model.

The stage, rank and stop policy is the Lyapunov solver's rank ladder and
the truncation is :func:`~tibt.reducers.square_root_pair`; only the sweep
body differs. Both bases are the Lyapunov solver's append-only basis, one
for ``(A, B)`` and one for ``(A^T, C^T)``, so a sweep applies ``A`` and
``A^T`` to the new columns only; the cross products ``W_k^T V_k`` and
``W_k^T A V_k`` are formed whole each sweep, and both bases restart from
their well-conditioned directions when ``W_k^T V_k`` degrades.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alrs import AlrsConfig, IterationRecord, _arbitrary_stable_rom, _Basis, _RankLadder
from .errors import DenseInfeasibleError
from .linalg import ordered_svd, psd_factor, solve_lyapunov_dense, solve_sylvester_skinny
from .reducers import ReducedModel, reflect_spectrum, square_root_pair
from .system import StateSpaceModel, SvReport, hankel_singular_values, require_hurwitz

__all__ = ["AtiaConfig", "AtiaResult", "atia_bt", "atia_hsv_compare"]

# Margin pushed into the left half-plane when reflecting unstable interim
# eigenvalues, and the condition-number cap on W_k^T V_k.
REFLECT_FLOOR = 1e-8
BIORTH_COND_CAP = 1e12


# Run parameters: the Lyapunov solver's fields and semantics (r0 is the
# initial ROM order).
AtiaConfig = AlrsConfig


@dataclass(frozen=True)
class AtiaResult:
    """The reduced model and the per-sweep history; the Hankel estimates,
    the convergence flag and the sweep count are read off them."""

    rom: ReducedModel
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def hankel_estimates(self) -> SvReport:
        return self.rom.retained_sv

    @property
    def converged(self) -> bool:
        return self.rom.converged

    @property
    def iterations_used(self) -> int:
        return len(self.history)


def _rebiorthogonalize(vb, wb, wv):
    """Trim directions along which span(W_k) and span(V_k) are nearly
    orthogonal: restart both bases from their columns that keep the cross
    product well conditioned."""
    uu, ss, vv = ordered_svd(wv)
    keep = ss > ss[0] / BIORTH_COND_CAP
    vb.restart(vb.v @ vv[:, keep])
    wb.restart(wb.v @ uu[:, keep])


def atia_bt(model: StateSpaceModel, cfg: AtiaConfig, on_iteration=None) -> AtiaResult:
    """Reduce ``model`` adaptively, preserving its dominant Hankel values.

    Per iteration: the dual pair of skinny Sylvester equations produces
    fresh interpolation data for both bases, projected Lyapunov solves give
    Gramian factors on the current subspaces, and the SVD of the weighted
    factor product yields the oblique truncation pair plus updated Hankel
    estimates. Interim unstable ROM matrices are reflected into the left
    half-plane before the next solve; the ``converged`` flag reports
    whether rank growth stopped by tolerance or by ``k_max`` exhaustion.

    ``on_iteration``, when given, is called once per sweep with
    ``(record, v_basis, w_basis, new_v_directions, new_w_directions)``; it
    must not mutate its arguments. ``v_basis`` and ``w_basis`` are views of
    the run's basis buffers, which later stages overwrite, so a hook that
    keeps them must copy them.
    """
    require_hurwitz(model)
    ladder = _RankLadder(cfg)
    ar, br, cr = _arbitrary_stable_rom(cfg.r0, model.m, model.p, cfg.seed)
    vb = _Basis(model.A.apply, model.B)
    wb = _Basis(model.A.apply_transpose, model.C.T)
    while True:
        ar = reflect_spectrum(ar, floor=REFLECT_FLOOR)
        phat = solve_sylvester_skinny(model.A, ar, model.B @ br.T)
        qhat = solve_sylvester_skinny(model.A.transpose(), ar.T, model.C.T @ cr)
        vb.extend(phat)
        wb.extend(qhat)
        if vb.k == 0 or wb.k == 0:
            raise ValueError(
                "model has numerically zero input or output coupling; "
                "nothing to reduce")
        wv = wb.v.T @ vb.v
        if np.linalg.cond(wv) > BIORTH_COND_CAP:
            _rebiorthogonalize(vb, wb, wv)
            wv = wb.v.T @ vb.v

        vk, wk = vb.v, wb.v
        zp = psd_factor(solve_lyapunov_dense(vb.ak, vb.bk @ vb.bk.T)).z
        zq = psd_factor(solve_lyapunov_dense(wb.ak, wb.bk @ wb.bk.T)).z
        svd = ordered_svd(zq.T @ wv @ zp)
        stage_done = ladder.step(svd[1])
        if on_iteration is not None:
            on_iteration(ladder.history[-1], vk, wk, phat, qhat)

        vr_small, wr_small = square_root_pair(zp, zq, svd, ladder.r)
        # oblique projection update in the small coordinates, with
        # W^T A V = (A^T W)^T V
        ar = wr_small.T @ (wb.av.T @ vk) @ vr_small
        br = wr_small.T @ (wk.T @ model.B)
        cr = (model.C @ vk) @ vr_small
        if ladder.done(svd[1]):
            break
        if stage_done:
            vb.restart(phat)
            wb.restart(qhat)

    retained = SvReport(values=svd[1][:vr_small.shape[1]].copy(), kind="hankel")
    red = ReducedModel(rom=StateSpaceModel(ar, br, cr),
                       Vr=vk @ vr_small, Wr=wk @ wr_small,
                       retained_sv=retained, converged=ladder.converged,
                       iterations=len(ladder.history))
    return AtiaResult(rom=red, history=ladder.history)


def atia_hsv_compare(result: AtiaResult, model: StateSpaceModel,
                     dense_cap: int = 5000):
    """Tabulate the run's Hankel estimates against dense ground truth.

    Returns a list of ``(index, estimate, dense, rel_diff)`` rows, one per
    retained value. Requires the model to be small enough for dense Gramian
    computation.

    Raises
    ------
    DenseInfeasibleError
        If ``model.n`` exceeds ``dense_cap``.
    """
    if model.n > dense_cap:
        raise DenseInfeasibleError(
            f"n = {model.n} exceeds dense cap {dense_cap}")
    dense = hankel_singular_values(model).values
    rows = []
    for idx, est in enumerate(result.hankel_estimates.values, start=1):
        sigma = dense[idx - 1] if idx <= len(dense) else 0.0
        rel = abs(est - sigma) / sigma if sigma > 0 else np.inf
        rows.append((idx, float(est), float(sigma), float(rel)))
    return rows
