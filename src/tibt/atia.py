"""Adaptive tangential-interpolation balanced truncation.

The two-sided counterpart of the adaptive Lyapunov solver: each sweep
enforces bi-tangential Hermite interpolation at the mirror images of the
current ROM's poles, grows both trial bases, and balances the projected
Gramian factors. Stagnation of the retained Hankel estimates triggers an
order increase and a basis reset; the run ends when the r-th estimate falls
below ``tol`` times the largest, leaving a ROM that carries the dominant
Hankel singular values of the full model. Each ROM, the returned one
included, is reflected into the left half-plane where it is formed.

The sweep loop is the Lyapunov solver's (:func:`tibt.alrs._sweep`), given
the sides ``(A, B)`` and ``(A^T, C^T)``. It builds the start and an
append-only basis per side, each solving and extending itself (W on a
worker thread) and applying its operator to the new columns only; both
bases restart from their well-conditioned directions when ``W_k^T V_k``
degrades. The sweep count is :attr:`AtiaResult.iterations_used`;
``ReducedModel.iterations`` is set only by :func:`~tibt.reducers.tsia`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alrs import AlrsConfig, IterationRecord, _sweep
from .reducers import ReducedModel
from .system import StateSpaceModel, hankel_singular_values, require_hurwitz

__all__ = ["AtiaConfig", "AtiaResult", "atia_bt", "atia_hsv_compare"]

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
    def hankel_estimates(self) -> np.ndarray:
        return self.rom.retained_sv

    @property
    def converged(self) -> bool:
        return self.rom.converged

    @property
    def iterations_used(self) -> int:
        return len(self.history)


def atia_bt(model: StateSpaceModel, cfg: AtiaConfig, on_iteration=None) -> AtiaResult:
    """Reduce ``model`` adaptively, preserving its dominant Hankel values.

    Per sweep the dual pair of skinny Sylvester equations extends both
    bases, and the SVD of the product of their projected Gramian factors
    yields the oblique truncation pair and updated Hankel estimates.
    Unstable projected matrices are reflected into the left half-plane
    before their Lyapunov solves, and each ROM as it is formed, so the
    returned ROM is Hurwitz. ``converged`` reports whether rank growth
    stopped by tolerance or by ``k_max`` exhaustion.

    ``on_iteration``, when given, is called once per sweep with
    ``(record, v_basis, w_basis, new_v_directions, new_w_directions)``; it
    must not mutate its arguments. ``v_basis`` and ``w_basis`` are views of
    the run's basis buffers, which later stages overwrite, so a hook that
    keeps them must copy them.
    """
    require_hurwitz(model)
    sides = (model.A, model.B), (model.A.transpose(), model.C.T)
    ladder, (vb, wb), last = _sweep(cfg, sides, on_iteration)
    if last is None:
        raise ValueError(
            "model has numerically zero input or output coupling; "
            "nothing to reduce")
    (ar, br, cr), (vr, wr), sv = last
    red = ReducedModel(rom=StateSpaceModel(ar, br, cr), Vr=vb.v @ vr, Wr=wb.v @ wr,
                       retained_sv=sv[:vr.shape[1]].copy(), converged=ladder.converged)
    return AtiaResult(rom=red, history=ladder.history)


def atia_hsv_compare(result: AtiaResult, model: StateSpaceModel):
    """Tabulate the run's Hankel estimates against dense ground truth, the
    Hankel values of ``model.gramians``; those refuse above
    ``linalg.DENSE_MAX_ORDER`` states before forming anything n-by-n.

    Returns a list of ``(index, estimate, dense, rel_diff)`` rows, one per
    retained value.
    """
    dense = hankel_singular_values(model)
    rows = []
    for idx, est in enumerate(result.hankel_estimates, start=1):
        sigma = dense[idx - 1] if idx <= len(dense) else 0.0
        rel = abs(est - sigma) / sigma if sigma > 0 else np.inf
        rows.append((idx, float(est), float(sigma), float(rel)))
    return rows
