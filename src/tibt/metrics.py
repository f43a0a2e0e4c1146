"""Error measures: Gramian errors, PQ-product error, sampled H-infinity
ratio, and frequency sweeps.

The H-infinity quantities are computed by sampling a log-spaced frequency
grid and refining around the peak, so they are lower bounds on the true
norms; outputs are labeled accordingly. Within one ``hinf_rel_error`` call
the full model's response is solved at most once per distinct frequency and
shared by both peak searches and by every reduced model of the call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DenseInfeasibleError, DimensionMismatchError
from .reducers import ReducedModel
from .system import StateSpaceModel, eval_transfer

__all__ = [
    "FreqGrid",
    "gramian_rel_error",
    "pq_rel_error",
    "hinf_rel_error",
    "sigma_sweep",
]

DENSE_CAP_DEFAULT = 5000

# Relative bracket width at which golden-section peak refinement stops.
REFINE_REL_RESOLUTION = 1e-3


@dataclass(frozen=True)
class FreqGrid:
    """Positive frequency samples (rad/s), sorted ascending."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError("grid needs at least two points")
        if np.any(pts <= 0) or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be positive and ascending")
        object.__setattr__(self, "points", pts)

    @classmethod
    def log_spaced(cls, lo: float, hi: float, count: int = 400) -> "FreqGrid":
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        return cls(points=np.logspace(np.log10(lo), np.log10(hi), count))

    @classmethod
    def default_for(cls, model: StateSpaceModel, count: int = 400) -> "FreqGrid":
        """Grid spanning [1e-3 |lambda|_min, 1e3 |lambda|_max] of the model's
        spectrum estimate."""
        lo, hi = _spectrum_abs_range(model)
        return cls.log_spaced(1e-3 * lo, 1e3 * hi, count)


def _spectrum_abs_range(model):
    op = model.A
    if op.n <= DENSE_CAP_DEFAULT:
        lam = np.abs(np.linalg.eigvals(op.to_dense()))
        lam = lam[lam > 0]
        if len(lam) == 0:
            return 1.0, 1.0
        return float(np.min(lam)), float(np.max(lam))
    # estimate for large operators: power iteration above, inverse power below
    rng = np.random.default_rng(0)
    x = rng.standard_normal(op.n)
    x /= np.linalg.norm(x)
    for _ in range(12):
        y = op.apply(x)
        x = y / np.linalg.norm(y)
    hi = float(np.linalg.norm(op.apply(x)))
    x = np.ones(op.n) / np.sqrt(op.n)
    for _ in range(12):
        y = op.shifted_solve(0.0, x)
        x = y / np.linalg.norm(y)
    lo = float(np.linalg.norm(op.apply(x)))
    return min(lo, hi), max(lo, hi)


def gramian_rel_error(p_exact, approx) -> float:
    """Spectral-norm relative error ``||P - P_approx||_2 / ||P||_2`` via a
    symmetric eigensolve of the difference."""
    p_exact = np.asarray(p_exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    if approx.shape != p_exact.shape:
        raise DimensionMismatchError(
            f"shapes {approx.shape} and {p_exact.shape} differ")
    num = np.max(np.abs(np.linalg.eigvalsh(p_exact - approx)))
    den = np.max(np.abs(np.linalg.eigvalsh(p_exact)))
    return float(num / den)


def pq_rel_error(model: StateSpaceModel, red: ReducedModel,
                 dense_cap: int = DENSE_CAP_DEFAULT) -> float:
    """Relative spectral-norm error of the Gramian product,
    ``||PQ - (V Pr V^T)(W Qr W^T)||_2 / ||PQ||_2``."""
    if model.n > dense_cap:
        raise DenseInfeasibleError(f"n = {model.n} exceeds dense cap {dense_cap}")
    gram, rom_gram = model.gramians, red.rom.gramians
    approx = (red.Vr @ rom_gram.P @ red.Vr.T) @ (red.Wr @ rom_gram.Q @ red.Wr.T)
    exact = gram.P @ gram.Q
    num = np.linalg.norm(exact - approx, 2)
    den = np.linalg.norm(exact, 2)
    return float(num / den)


def _sigma_max(h):
    return float(np.linalg.norm(h, 2))


def _memoized_response(model):
    """``omega -> H(j omega)`` of ``model``, solved once per exact float
    ``omega``; only the p-by-m responses are kept."""
    memo = {}

    def response(omega):
        key = float(omega)
        if key not in memo:
            memo[key] = eval_transfer(model, 1j * omega)
        return memo[key]

    return response


def _refine_peak(fun, grid: FreqGrid):
    """Sampled peak of ``fun`` over the grid, golden-section refined around
    the arg-max down to ``REFINE_REL_RESOLUTION``. Returns (peak_value,
    peak_frequency)."""
    pts = grid.points
    vals = np.array([fun(w) for w in pts])
    idx = int(np.argmax(vals))
    best_v, best_w = vals[idx], pts[idx]
    lo = pts[idx - 1] if idx > 0 else pts[0]
    hi = pts[idx + 1] if idx + 1 < len(pts) else pts[-1]
    if hi <= lo:
        return best_v, best_w
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log(lo), np.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(np.exp(c)), fun(np.exp(d))
    while (np.exp(b) - np.exp(a)) > REFINE_REL_RESOLUTION * np.exp(0.5 * (a + b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(np.exp(d))
        if max(fc, fd) > best_v:
            best_v = max(fc, fd)
            best_w = np.exp(c if fc > fd else d)
    return float(best_v), float(best_w)


def hinf_rel_error(model: StateSpaceModel,
                   rom: StateSpaceModel | Sequence[StateSpaceModel],
                   grid: FreqGrid | None = None) -> float | list[float]:
    """Sampled-peak relative error ratio between ``model`` and ``rom``.

    Both peaks (of the error response and of the original response) are
    grid-sampled and locally refined, so the result is a lower bound on the
    true H-infinity ratio.

    ``rom`` may also be a sequence of reduced models; the result is then the
    list of their ratios, in order. The full model's response is solved at
    most once per distinct frequency of the call: both peak searches and
    every reduced model read it, and the reference peak is found once.

    Raises
    ------
    ValueError
        If ``rom`` is an empty sequence.
    """
    single = isinstance(rom, StateSpaceModel)
    roms = [rom] if single else list(rom)
    if not roms:
        raise ValueError("need at least one reduced model")
    if grid is None:
        grid = FreqGrid.default_for(model)
    full = _memoized_response(model)
    den, _ = _refine_peak(lambda w: _sigma_max(full(w)), grid)
    ratios = []
    for red in roms:
        num, _ = _refine_peak(
            lambda w: _sigma_max(full(w) - eval_transfer(red, 1j * w)), grid)
        if den == 0.0:
            ratios.append(0.0 if num == 0.0 else np.inf)
        else:
            ratios.append(float(num / den))
    return ratios[0] if single else ratios


def sigma_sweep(model: StateSpaceModel, grid: FreqGrid) -> np.ndarray:
    """Largest singular value of ``H(j omega)`` over the grid.

    Returns an array of rows ``(omega, sigma_max)`` in grid order.
    """
    rows = np.empty((len(grid.points), 2))
    for idx, w in enumerate(grid.points):
        rows[idx] = (w, _sigma_max(eval_transfer(model, 1j * w)))
    return rows
