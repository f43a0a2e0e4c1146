"""Dense linear-algebra kernels and structured Sylvester/Lyapunov solvers.

Everything here is a pure function of its inputs (no shared mutable state),
so all operations are safe to call concurrently. The one piece of state a
kernel touches is the floating-point mode: the tridiagonal shifted solve
sets flush-to-zero around its LAPACK call (see
:meth:`TridiagonalOperator.shifted_solve`). That mode is per thread and is
restored before the solve returns, so concurrent callers are unaffected.
"""

from __future__ import annotations

import ctypes
import os
import sys
from abc import ABC, abstractmethod
from contextlib import contextmanager

import numpy as np
import scipy.linalg as sla

from .errors import (
    DenseInfeasibleError,
    NonHurwitzError,
    NotSymmetricError,
    ShiftSolveFailure,
    SingularSeparationError,
    SpectrumOverlapError,
)

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "TridiagonalOperator",
    "as_operator",
    "solve_lyapunov_dense",
    "solve_sylvester_skinny",
    "orthonormalize",
    "cgs2",
    "extend_orthonormal",
    "psd_factor",
    "ordered_svd",
    "flushes_subnormals",
]

# Columns whose post-projection residual falls below this fraction of the
# largest input column norm are considered linearly dependent.
ORTH_DROP_RTOL = 1e-12

# Rows per panel in the row-blocked passes over n-row data (tridiagonal
# products, :func:`cgs2`, :func:`extend_orthonormal`): a panel stays in
# cache between the operations that share it.
PANEL_ROWS = 4096

# Eigenvalues of a PSD matrix below this fraction of the largest one are
# clipped to zero when factoring.
PSD_CLIP_RTOL = 1e-14


def _probe_fenv():
    """glibc's ``fegetenv``/``fesetenv`` on x86-64 Linux, else None.

    There ``fenv_t`` is 32 bytes (eight 32-bit words) and its last word is
    the SSE control/status register MXCSR.
    """
    if sys.platform != "linux" or os.uname().machine != "x86_64":
        return None
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return None
        libm = ctypes.CDLL("libm.so.6")
    except (OSError, ValueError):
        return None
    for fn in (libm.fegetenv, libm.fesetenv):
        fn.argtypes = [ctypes.c_void_p]
        fn.restype = ctypes.c_int
    return libm.fegetenv, libm.fesetenv


_FENV = _probe_fenv()
_MXCSR_FTZ = 1 << 15  # flush-to-zero; DAZ (bit 6) stays clear


def flushes_subnormals() -> bool:
    """Whether tridiagonal shifted solves flush subnormal results to zero
    on this platform (x86-64 Linux with glibc)."""
    return _FENV is not None


@contextmanager
def _flush_subnormal_results():
    # Results that would be subnormal become 0 in the calling thread, so
    # the block never takes the slow microcode path x86 uses for them;
    # without DAZ, subnormal operands are still read as they are. A no-op
    # without _FENV.
    if _FENV is None:
        yield
        return
    fegetenv, fesetenv = _FENV
    saved = (ctypes.c_uint32 * 8)()
    fegetenv(saved)
    flushed = (ctypes.c_uint32 * 8)(*saved)
    flushed[7] |= _MXCSR_FTZ
    fesetenv(flushed)
    try:
        yield
    finally:
        fesetenv(saved)


class LinearOperator(ABC):
    """Square real operator with products and shifted solves.

    Concrete operators must keep ``apply`` and ``shifted_solve`` consistent
    with the dense matrix they abstract (to ~1e-12 relative when both exist).
    ``known_hurwitz`` may be set by constructors that guarantee stability
    structurally, avoiding an eigenvalue computation.
    """

    known_hurwitz: bool | None = None

    @property
    @abstractmethod
    def n(self) -> int:
        """Dimension of the (square) operator."""

    @abstractmethod
    def apply(self, x):
        """Return ``A @ x`` for a vector or (n, k) block ``x``."""

    @abstractmethod
    def apply_transpose(self, x):
        """Return ``A.T @ x``."""

    @abstractmethod
    def shifted_solve(self, s, b):
        """Solve ``(A - s I) x = b`` for a real or complex scalar shift ``s``.

        Raises
        ------
        ShiftSolveFailure
            If the shifted system is singular or the solve produced
            non-finite values.
        """

    @abstractmethod
    def transpose(self) -> "LinearOperator":
        """Return an operator representing ``A.T``."""

    @abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialize the operator as a dense array."""


def _check_solution_finite(x):
    if not np.all(np.isfinite(x)):
        raise ShiftSolveFailure("shifted solve produced non-finite values")
    return x


class DenseOperator(LinearOperator):
    """Operator backed by a dense square matrix."""

    def __init__(self, matrix, known_hurwitz=None):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be >= 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        self._m = m
        self.known_hurwitz = known_hurwitz

    @property
    def n(self):
        return self._m.shape[0]

    def apply(self, x):
        return self._m @ x

    def apply_transpose(self, x):
        return self._m.T @ x

    def shifted_solve(self, s, b):
        """Solve ``(A - s I) x = b`` by LAPACK LU, ``getrf`` then ``getrs``
        (on several threads OpenBLAS's ``gesv`` rounds differently); a 1x1
        operator divides."""
        s = complex(s)
        b = np.asarray(b)
        real = s.imag == 0.0 and not np.iscomplexobj(b)
        shift = s.real if real else s
        a = self._m - shift * np.eye(self.n, dtype=float if real else complex)
        if self.n == 1:
            if a[0, 0] == 0:
                raise ShiftSolveFailure(f"(A - sI) singular for s = {s}")
            x = b / a[0, 0]
        else:
            getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (a, b))
            lu, piv, info = getrf(a, overwrite_a=True)
            if info == 0:
                x, info = getrs(lu, piv, b)
            if info != 0:
                raise ShiftSolveFailure(f"(A - sI) singular for s = {s}")
        return _check_solution_finite(x)

    def transpose(self):
        return DenseOperator(self._m.T, known_hurwitz=self.known_hurwitz)

    def to_dense(self):
        return self._m.copy()


class TridiagonalOperator(LinearOperator):
    """Tridiagonal operator with O(n) products and shifted solves."""

    def __init__(self, lower, diag, upper, known_hurwitz=None):
        d = np.asarray(diag, dtype=float)
        lo = np.asarray(lower, dtype=float)
        up = np.asarray(upper, dtype=float)
        n = d.shape[0]
        if n < 1 or d.ndim != 1:
            raise ValueError("diag must be a 1-D array of length >= 1")
        if lo.shape != (max(n - 1, 0),) or up.shape != (max(n - 1, 0),):
            raise ValueError("lower/upper diagonals must have length n - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise ValueError("matrix entries must be finite")
        self._lo = lo
        self._d = d
        self._up = up
        self.known_hurwitz = known_hurwitz

    @property
    def n(self):
        return self._d.shape[0]

    def _matvec(self, lo, d, up, x):
        # y = d x, then y[:-1] += up x[1:], then y[1:] += lo x[:-1], run
        # panel by panel through one temporary: every entry sees the same
        # operations in the same order as the whole-array form, and each
        # panel stays in cache between them
        vec = x.ndim == 1
        if vec:
            x = x[:, None]
        n = self.n
        y = np.empty_like(x, dtype=np.result_type(d, x))
        tmp = np.empty_like(y[:PANEL_ROWS])
        for rows in _panels(n):
            start, stop = rows.start, rows.stop
            yp = y[rows]
            np.multiply(d[rows, None], x[rows], out=yp)
            hi = min(stop, n - 1)  # rows below hi have a superdiagonal entry
            if hi > start:
                yp[:hi - start] += np.multiply(up[start:hi, None], x[start + 1:hi + 1],
                                               out=tmp[:hi - start])
            low = max(start, 1)  # rows from low on have a subdiagonal entry
            if stop > low:
                yp[low - start:] += np.multiply(lo[low - 1:stop - 1, None],
                                                x[low - 1:stop - 1], out=tmp[:stop - low])
        return y[:, 0] if vec else y

    def apply(self, x):
        return self._matvec(self._lo, self._d, self._up, np.asarray(x))

    def apply_transpose(self, x):
        return self._matvec(self._up, self._d, self._lo, np.asarray(x))

    def shifted_solve(self, s, b):
        """Solve ``(A - s I) x = b`` by LAPACK ``gtsv`` in O(n).

        On x86-64 Linux with glibc (:func:`flushes_subnormals`) the solve
        runs with flush-to-zero set: a result below the smallest normal
        double, 2.2e-308 in magnitude (per real and imaginary part), comes
        back as 0 instead of as a subnormal. Intermediates are flushed
        too, so a result within a factor 2**52 of that threshold may move
        by about the threshold. Subnormal inputs are not read as zero: only
        operations whose own result is subnormal flush. Elsewhere the solve
        uses IEEE gradual underflow throughout.
        """
        s = complex(s)
        b = np.asarray(b)
        real = s.imag == 0.0 and not np.iscomplexobj(b)
        dtype = float if real else complex
        vec = b.ndim == 1
        rhs = np.array(b[:, None] if vec else b, dtype=dtype, order="F")
        # a fresh array already, which gtsv may overwrite
        d = (self._d - (s.real if real else s)).astype(dtype, copy=False)
        if self.n == 1:
            if d[0] == 0:
                raise ShiftSolveFailure(f"(A - sI) singular for s = {s}")
            x = rhs / d[0]
        else:
            gtsv = sla.get_lapack_funcs("gtsv", (d, rhs))
            # the off-diagonal casts are copies, no arithmetic to flush; made
            # in the call, they are freed before the finiteness check
            with _flush_subnormal_results():
                _, _, _, x, info = gtsv(
                    self._lo.astype(dtype), d, self._up.astype(dtype), rhs,
                    overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                    overwrite_b=True,
                )
            if info != 0:
                raise ShiftSolveFailure(f"(A - sI) singular for s = {s}")
        _check_solution_finite(x)
        return x[:, 0] if vec else x

    def real_spectrum_max(self):
        """Largest eigenvalue when every product ``lower[i] * upper[i]`` is
        >= 0, else None.

        Such an operator has the spectrum of the symmetric tridiagonal with
        off-diagonal ``sqrt(lower * upper)``: it is similar to it where the
        products are positive and block triangular where they vanish. The
        spectrum is therefore real, and its top costs O(n).
        """
        if self.n == 1:
            return float(self._d[0])
        prod = self._lo * self._up
        if not (np.all(prod >= 0.0) and np.all(np.isfinite(prod))):
            return None
        top = sla.eigvalsh_tridiagonal(self._d, np.sqrt(prod), select="i",
                                       select_range=(self.n - 1, self.n - 1))
        return float(top[0])

    def transpose(self):
        return TridiagonalOperator(self._up, self._d, self._lo,
                                   known_hurwitz=self.known_hurwitz)

    def to_dense(self):
        if self.n > 20_000:
            raise DenseInfeasibleError(
                f"refusing to densify a {self.n}x{self.n} tridiagonal operator")
        a = np.diag(self._d)
        if self.n > 1:
            a += np.diag(self._lo, -1) + np.diag(self._up, 1)
        return a


def _panels(n):
    """Row slices of at most ``PANEL_ROWS`` rows that cover ``range(n)``."""
    return [slice(lo, min(lo + PANEL_ROWS, n)) for lo in range(0, n, PANEL_ROWS)]


def as_operator(a) -> LinearOperator:
    """Wrap a dense array as a :class:`DenseOperator`; pass operators through."""
    if isinstance(a, LinearOperator):
        return a
    return DenseOperator(a)


def solve_lyapunov_dense(a, g):
    """Solve ``A P + P A^T + G = 0`` for symmetric ``P``.

    Uses the real Schur form of ``A`` and a quasi-triangular Sylvester
    back-substitution (LAPACK ``trsyl``). The result is symmetrized before
    returning.

    Parameters
    ----------
    a : (n, n) array_like
        Hurwitz coefficient matrix.
    g : (n, n) array_like
        Symmetric right-hand side.

    Raises
    ------
    NonHurwitzError
        If some eigenvalue of ``A`` has a nonnegative real part.
    SingularSeparationError
        If some eigenvalue pair satisfies ``lambda_i + lambda_j ~ 0``.
    """
    a = np.asarray(a, dtype=float)
    g = np.asarray(g, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if g.shape != a.shape:
        raise ValueError(f"G must match A, got {g.shape} vs {a.shape}")

    t, u = sla.schur(a, output="real")
    # LAPACK gives each 2x2 block equal diagonal entries, so diag(t) holds the
    # real parts of the eigenvalues, and min |lambda_i + lambda_j| = -2 re_max
    re_max = np.max(np.diag(t))
    if re_max >= 0.0:
        raise NonHurwitzError(f"A has an eigenvalue with Re = {re_max:.3e} >= 0")
    if -2.0 * re_max <= 1e-12:
        raise SingularSeparationError(
            "eigenvalue pair with lambda_i + lambda_j ~ 0; equation singular")

    ghat = u.T @ g @ u
    trsyl = sla.get_lapack_funcs("trsyl", (t, ghat))
    y, scale, info = trsyl(t, t, -ghat, tranb="C")
    if info == 1:
        raise SingularSeparationError(
            "trsyl perturbed nearly-common eigenvalues; equation singular")
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to trsyl")
    p = u @ (y / scale) @ u.T
    return 0.5 * (p + p.T)


def _complex_pair_solve(op, tblock, rhs):
    # Solve A Y + Y T_b^T = -rhs for a standardized 2x2 Schur block T_b with a
    # complex-conjugate eigenvalue pair, using one complex shifted solve.
    t11, t12 = tblock[0]
    t21, t22 = tblock[1]
    lam = t11 + 1j * np.sqrt(-(t12 * t21))
    if abs(t21) >= abs(t12):
        v = np.array([t21, lam - t11], dtype=complex)
    else:
        v = np.array([lam - t22, t12], dtype=complex)
    w = op.shifted_solve(-lam, -(rhs @ v))
    # Y = [w, conj(w)] @ inv([v, conj(v)]) is exactly real:
    denom = (v[0] * np.conj(v[1])).imag
    if denom == 0.0:
        raise SpectrumOverlapError("degenerate 2x2 Schur block")
    y1 = (w * np.conj(v[1])).imag / denom
    y2 = -(w * np.conj(v[0])).imag / denom
    return np.column_stack([y1, y2])


def solve_sylvester_skinny(a, m, f):
    """Solve the skinny-tall Sylvester equation ``A X + X M^T + F = 0``.

    ``A`` is an operator of dimension n (dense array accepted), ``M`` is a
    small r-by-r dense matrix and ``F`` is n-by-r. ``M`` is reduced to real
    Schur form and the columns of ``X`` are obtained by back-substitution,
    each requiring one shifted solve with ``A`` (a single complex solve per
    2x2 block keeps the result exactly real).

    Raises
    ------
    SpectrumOverlapError
        If some shifted system ``A + m_ii I`` is singular, i.e. the spectra
        of ``A`` and ``-M`` intersect.
    ShiftSolveFailure
        Propagated from the operator for non-spectral solve failures.
    """
    op = as_operator(a)
    m = np.asarray(m, dtype=float)
    f = np.asarray(f, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"M must be square, got shape {m.shape}")
    r = m.shape[0]
    if f.shape != (op.n, r):
        raise ValueError(f"F must be ({op.n}, {r}), got {f.shape}")
    if r == 0:
        return np.zeros((op.n, 0))

    t, u = sla.schur(m, output="real")
    g = f @ u
    y = np.zeros_like(g)
    j = r - 1
    while j >= 0:
        pair = j > 0 and t[j, j - 1] != 0.0
        jb = j - 1 if pair else j
        ncols = 2 if pair else 1
        rhs = g[:, jb:jb + ncols].copy()
        if jb + ncols < r:
            rhs += y[:, jb + ncols:] @ t[jb:jb + ncols, jb + ncols:].T
        try:
            if pair:
                y[:, jb:jb + 2] = _complex_pair_solve(op, t[jb:jb + 2, jb:jb + 2], rhs)
            else:
                y[:, jb] = op.shifted_solve(-t[jb, jb], -rhs[:, 0])
        except ShiftSolveFailure as exc:
            raise SpectrumOverlapError(
                f"spectrum of A meets eigenvalue {-t[jb, jb]:.6g} of -M") from exc
        j = jb - 1
    return y @ u.T


def orthonormalize(m):
    """Orthonormal basis of the numerical range of ``m`` (n-by-k, k' <= k):
    :func:`extend_orthonormal` of the empty basis, so directions whose
    pivot falls below ``ORTH_DROP_RTOL`` times the largest input column
    norm are dropped and a (numerically) zero input yields an empty basis.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    return extend_orthonormal(np.zeros((m.shape[0], 0)), m)


def cgs2(q, x, out=None):
    """Project ``x`` off the span of orthonormal ``q`` by block classical
    Gram-Schmidt with one reorthogonalization pass ("twice is enough").

    Returns ``(c, y, rs)`` with ``x = q @ c + y``, ``q.T @ y`` at round-off
    level relative to ``x``, and ``rs`` the row-stacked R factors of the
    ``PANEL_ROWS``-row panels of ``y``. As ``y = blockdiag(Q_p) @ rs`` with
    orthonormal panel factors ``Q_p``, a QR of the small ``rs`` yields the
    R factor of ``y`` (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J.
    Sci. Comput. 2012). The passes run panel by panel: the first projection
    shares its read of ``q`` with the second set of coefficients, and the
    second projection shares its read with the panel QRs, so ``q`` is read
    three times. ``y`` is Fortran-ordered, or is ``out`` when given (an
    n-by-j array that overlaps neither ``q`` nor ``x``).
    """
    n, j = x.shape
    c = q.T @ x
    c2 = np.zeros_like(c)
    y = np.empty((n, j), order="F") if out is None else out
    tmp = np.empty((min(n, PANEL_ROWS), j))
    panels = _panels(n)
    for rows in panels:
        qp, yp = q[rows], y[rows]
        np.subtract(x[rows], np.matmul(qp, c, out=tmp[:len(yp)]), out=yp)
        c2 += qp.T @ yp
    geqrf = sla.get_lapack_funcs("geqrf", (y,))
    rs = []
    for rows in panels:
        qp, yp = q[rows], y[rows]
        yp -= np.matmul(qp, c2, out=tmp[:len(yp)])
        rs.append(np.triu(geqrf(yp)[0][:j]))
    return c + c2, y, np.vstack(rs)


def extend_orthonormal(q, new, out=None):
    """Orthonormal columns that extend orthonormal ``q`` (n-by-k) to a basis
    of the numerical range of ``[q, new]``; ``q`` itself is never changed.

    ``new`` is projected off ``q`` by :func:`cgs2`. A column-pivoted QR runs
    on the small stack of panel R factors that :func:`cgs2` returns, which
    has the R factor of the remainder; directions whose pivot falls below
    ``ORTH_DROP_RTOL`` times the largest column norm of ``[q, new]`` (the
    columns of ``q`` have unit norm) are dropped. The kept columns
    ``rem[:, perm] @ inv(R11)`` get one more projection off ``q`` and a
    Cholesky-QR pass: that product loses orthogonality in proportion to the
    condition of ``R11``, and a remainder just above the drop threshold
    would lose orthogonality to ``q`` in proportion to how much it shrank.
    Three panel passes form the product with the projection coefficients,
    then the projection with the Gram matrix, then the Cholesky-QR product,
    all in the storage of the remainder: ``out`` when given (an n-by-j
    Fortran-ordered array that overlaps neither input, such as the spare
    columns of a basis buffer), so the result is its leading columns. Costs
    O(n k j + n j^2) for j new columns, independent of how the basis was
    built. The result is Fortran-ordered.
    """
    q = np.asarray(q, dtype=float)
    new = np.asarray(new, dtype=float)
    if q.ndim != 2 or new.ndim != 2 or q.shape[0] != new.shape[0]:
        raise ValueError(
            f"expected 2-D arrays with equal row counts, got {q.shape}, {new.shape}")
    n, k = q.shape
    if n < 1:
        raise ValueError("row dimension must be >= 1")
    j = new.shape[1]
    if j == 0:
        return np.zeros((n, 0))
    max_col = max(np.max(np.sqrt(np.einsum("ij,ij->j", new, new))),
                  1.0 if k else 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        c, rem, rs = cgs2(q, new, out)
    # a non-finite new shows up in max_col, a non-finite q in c
    if not (np.isfinite(max_col) and np.all(np.isfinite(c))
            and np.all(np.isfinite(rs))):
        raise ValueError("input contains non-finite entries")
    if max_col == 0.0:
        return np.zeros((n, 0))
    r, perm = sla.qr(rs, mode="r", pivoting=True)
    # pivoting makes |diag(R)| non-increasing, so the kept set is a prefix
    kept = int(np.sum(np.abs(np.diag(r)) > ORTH_DROP_RTOL * max_col))
    if kept == 0:
        return np.zeros((n, 0))
    coef = np.zeros((j, kept))
    coef[perm[:kept]] = sla.solve_triangular(r[:kept, :kept], np.eye(kept))
    ext = rem[:, :kept]
    tmp = np.empty((min(n, PANEL_ROWS), kept))
    panels = _panels(n)
    w = np.zeros((k, kept))
    for rows in panels:
        rp = rem[rows]
        # formed aside, as it reads the columns it replaces
        ep = np.matmul(rp, coef, out=tmp[:len(rp)])
        ext[rows] = ep
        w += q[rows].T @ ep
    gram = np.zeros((kept, kept))
    for rows in panels:
        ep = ext[rows]
        ep -= np.matmul(q[rows], w, out=tmp[:len(ep)])
        gram += ep.T @ ep
    # ext @ inv(chol).T, in place
    chol = np.linalg.cholesky(gram)
    right = sla.solve_triangular(chol, np.eye(kept), lower=True).T
    for rows in panels:
        ep = ext[rows]
        ep[...] = np.matmul(ep, right, out=tmp[:len(ep)])
    return ext


def psd_factor(p):
    """Factor a symmetric positive-semidefinite matrix as ``Z Z^T`` and
    return the n-by-k array ``Z``.

    Eigenvalues below ``PSD_CLIP_RTOL`` times the largest are clipped to
    zero (round-off may make them slightly negative), so the column count of
    ``Z`` equals the retained rank. Columns are ordered by descending
    eigenvalue.

    Raises
    ------
    NotSymmetricError
        If ``||P - P^T||_F > 1e-10 ||P||_F``.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"P must be square, got shape {p.shape}")
    nrm = np.linalg.norm(p)
    if np.linalg.norm(p - p.T) > 1e-10 * max(nrm, np.finfo(float).tiny):
        raise NotSymmetricError("matrix is not symmetric to 1e-10 relative")
    w, v = np.linalg.eigh(0.5 * (p + p.T))
    w = w[::-1]
    v = v[:, ::-1]
    if w[0] <= 0.0:
        return np.zeros((p.shape[0], 0))
    keep = w >= PSD_CLIP_RTOL * w[0]
    return v[:, keep] * np.sqrt(w[keep])


def ordered_svd(m):
    """Economy SVD ``M = U diag(S) V^T`` with ``S`` non-increasing."""
    m = np.asarray(m, dtype=float)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, vh.T
