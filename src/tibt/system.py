"""LTI state-space models: transfer evaluation, Gramians, Hankel values.

Models are immutable after construction, and every operation is a pure
function. The dense Gramians of a model are solved on first read of
:attr:`StateSpaceModel.gramians` and kept on it, so every dense reference
built from them (Hankel values, balanced truncation, TCR/TOR, the
PQ-product error) shares one solve. Complex arithmetic is confined to
transfer evaluation and the pole-residue form; everything else stays real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DenseInfeasibleError, NonHurwitzError, RepeatedPolesError
from .linalg import (
    LinearOperator,
    _check_densifiable,
    as_operator,
    ordered_svd,
    psd_factor,
    solve_lyapunov_pair,
)

__all__ = [
    "StateSpaceModel",
    "GramianPair",
    "PoleResidue",
    "eval_transfer",
    "eval_transfer_derivative",
    "pole_residue",
    "gramians_dense",
    "hankel_singular_values",
    "is_hurwitz",
]


@dataclass(frozen=True)
class StateSpaceModel:
    """Realization (A, B, C) of ``H(s) = C (sI - A)^{-1} B``.

    ``A`` may be any :class:`~tibt.linalg.LinearOperator` (a dense array is
    wrapped automatically); ``B`` is n-by-m and ``C`` is p-by-n.
    """

    A: LinearOperator
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_operator(self.A))
        b = np.atleast_2d(np.asarray(self.B, dtype=float))
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        if b.shape[0] != self.A.n:
            raise ValueError(f"B must have {self.A.n} rows, got {b.shape}")
        if c.shape[1] != self.A.n:
            raise ValueError(f"C must have {self.A.n} columns, got {c.shape}")
        if b.shape[1] < 1 or c.shape[0] < 1:
            raise ValueError("input and output counts must be >= 1")
        if not (np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("B and C entries must be finite")
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @cached_property
    def gramians(self) -> GramianPair:
        """The dense Gramians (:func:`gramians_dense`), solved on first read
        and kept on the model."""
        return gramians_dense(self)

    @cached_property
    def _complex_c(self) -> np.ndarray:
        # C promoted once, not by every product in eval_transfer
        return self.C.astype(complex)

    def dual(self) -> "StateSpaceModel":
        """The dual realization (A^T, C^T, B^T)."""
        return StateSpaceModel(self.A.transpose(), self.C.T, self.B.T)


@dataclass(frozen=True)
class GramianPair:
    """Controllability Gramian P and observability Gramian Q."""

    P: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class PoleResidue:
    """Simple-pole expansion ``H(s) = sum_i l_i r_i^* / (s - lambda_i)``.

    ``left[i]`` is the p-vector l_i and ``right[i]`` the m-vector r_i; the
    residue matrix of pole i is ``outer(left[i], conj(right[i]))``. Poles of
    a real system come in conjugate pairs with conjugate factor pairs.
    """

    poles: np.ndarray   # (k,) complex
    left: np.ndarray    # (k, p) complex
    right: np.ndarray   # (k, m) complex

    def evaluate(self, s) -> np.ndarray:
        terms = self.left[:, :, None] * np.conj(self.right)[:, None, :]
        return np.sum(terms / (s - self.poles)[:, None, None], axis=0)


def eval_transfer(model: StateSpaceModel, s) -> np.ndarray:
    """Evaluate ``H(s) = C (sI - A)^{-1} B`` via one shifted solve."""
    # (A - sI) x = B, and negation is exact, so this is bitwise C @ (-x)
    return -(model._complex_c @ model.A.shifted_solve(s, model.B))


def eval_transfer_derivative(model: StateSpaceModel, s) -> np.ndarray:
    """Evaluate ``H'(s) = -C (sI - A)^{-2} B`` via two shifted solves."""
    x1 = -model.A.shifted_solve(s, model.B)
    x2 = -model.A.shifted_solve(s, x1)
    return np.asarray(-(model.C @ x2), dtype=complex)


def pole_residue(model: StateSpaceModel) -> PoleResidue:
    """Pole-residue form of a system with simple poles.

    Raises
    ------
    RepeatedPolesError
        If the minimum pairwise eigenvalue gap is below 1e-10 times the
        spectral radius (the expansion is then ill-conditioned or invalid).
    """
    a = model.A.to_dense()
    lam, x = np.linalg.eig(a)
    radius = np.max(np.abs(lam))
    diff = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(diff, np.inf)
    if np.min(diff) <= 1e-10 * max(radius, np.finfo(float).tiny):
        raise RepeatedPolesError("eigenvalue gap below 1e-10 * spectral radius")
    left = (model.C @ x).T                      # row i = C x_i
    right = np.conj(np.linalg.solve(x, model.B))  # row i = conj((X^-1 B)_i)
    return PoleResidue(poles=lam, left=left, right=right)


def gramians_dense(model: StateSpaceModel) -> GramianPair:
    """Solve the two Lyapunov equations for the controllability and
    observability Gramians (dense path) through ``model.A.schur()``."""
    _check_densifiable(model.n)  # before the n-by-n B B^T is made
    p, q = solve_lyapunov_pair(model.A, model.B @ model.B.T, model.C.T @ model.C)
    return GramianPair(P=p, Q=q)


def hankel_singular_values(model: StateSpaceModel) -> np.ndarray:
    """Hankel singular values ``sigma_i = sqrt(lambda_i(PQ))``, largest
    first.

    Computed from Gramian square-root factors as the singular values of
    ``L_q^T L_p`` (never through an unsymmetric eigenproblem on PQ), which
    stays accurate for tiny values.
    """
    lp = psd_factor(model.gramians.P)
    lq = psd_factor(model.gramians.Q)
    return ordered_svd(lq.T @ lp)[1]


def is_hurwitz(model_or_operator) -> bool:
    """True iff all eigenvalues of A have strictly negative real part.

    Derived from the operator's entries by
    :meth:`~tibt.linalg.LinearOperator.hurwitz`: in O(n) when a tridiagonal
    operator's entries decide it, otherwise from its eigenvalues.

    Raises
    ------
    DenseInfeasibleError
        If the operator is too large to densify and not decided cheaply.
    """
    op = model_or_operator.A if isinstance(model_or_operator, StateSpaceModel) \
        else as_operator(model_or_operator)
    try:
        return op.hurwitz()
    except DenseInfeasibleError as exc:
        raise DenseInfeasibleError(
            f"cannot check that the {op.n}x{op.n} operator is Hurwitz without "
            "densifying it") from exc


def require_hurwitz(model_or_operator, what="system matrix"):
    """Raise :class:`NonHurwitzError` unless the spectrum lies in Re < 0."""
    if not is_hurwitz(model_or_operator):
        raise NonHurwitzError(f"{what} is not Hurwitz")
