"""Dense linear-algebra kernels and structured Sylvester/Lyapunov solvers.

Everything here is a pure function of its inputs, so all operations are
safe to call concurrently, save for two pieces of state. The tridiagonal
shifted solve sets flush-to-zero around its LAPACK call (see
:meth:`TridiagonalOperator.shifted_solve`); that mode is per thread and is
restored before the solve returns. An operator's first
:meth:`~LinearOperator.schur` form caches its ``eigenvalues``, which the
library first reads on the calling thread, never in ``_on_two_threads``.

Thread contract. Six calls split their work into two independent halves
and run one half on a worker thread while the calling thread runs the
other, through one private helper, ``_on_two_threads``. It starts exactly
one worker thread (never a pool), joins it before returning, and raises
the caller's error if the caller's half failed, else the worker's. The
worker halves are:

- :func:`solve_lyapunov_pair`: the ``trsyl`` back-substitution of Q. It
  writes only its own right-hand-side array and may share the
  quasi-triangular factor with the caller's back-substitution, read-only.
- :func:`solve_sylvester_skinny` with an exactly symmetric ``M``: the
  shifted solves of the second half of the columns of ``Y = X U``. Each
  half reads ``A`` and the eigenvalues of ``M``, and writes only its own
  columns of the workspace ``Y`` and the arrays its solves allocate.
- :func:`tibt.reducers.tangential_interpolate`, which :func:`tibt.reducers.tsia`
  calls, and :func:`tibt.reducers.solve_coupling_pair`, which
  :func:`tibt.reducers.h2_optimality_residuals` calls: the W side's ``A^T``
  Sylvester solve (``Wr``, then well scaled, or ``Qhat``). It reads ``A``,
  ``C`` and the data or the ROM, and writes only arrays it allocates.
- ``tibt.alrs._sweep``, the loop of both adaptive drivers: the W side's
  Sylvester solve and extension in a two-sided sweep
  (:func:`tibt.atia.atia_bt`). It reads ``A``, ``C`` and the ROM, and
  writes only that basis's own buffers and arrays it allocates.
- :func:`tibt.metrics.hinf_rel_error`: the odd-indexed points of each
  frequency grid, in ``_refine_peak``. Both halves add to one response
  memo, each under its own grid points' keys, and each writes only its
  own entries of the sample array.

The halves overlap because their heavy kernels run without the GIL:
numpy's array kernels release it, and every ``trsyl`` and every
tridiagonal ``gtsv`` goes through a ctypes binding of scipy's
``cython_lapack`` (``dtrsyl``, ``dgtsv``, ``zgtsv``), which releases it
for the call. Each half reads only its own inputs, so the results do not
depend on how the two threads are scheduled.

Memory. The kernels on n-row data keep each n-row array they make only as
long as they read it. :func:`solve_sylvester_skinny` takes its right-hand
side by its two factors, forms it, and frees it after carrying it into the
Schur basis (a symmetric ``M`` carries the factor ``H`` instead and never
forms it), and an operator's ``apply``/``apply_transpose`` write into
``out`` when given, such as the spare columns of a basis buffer.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
import threading
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
    "solve_lyapunov_pair",
    "solve_sylvester_skinny",
    "orthonormalize",
    "cgs2",
    "psd_factor",
    "ordered_svd",
    "flushes_subnormals",
]

# Columns whose post-projection residual falls below this fraction of the
# largest input column norm are considered linearly dependent.
ORTH_DROP_RTOL = 1e-12

# Rows per panel in the row-blocked passes over n-row data (tridiagonal
# products, :func:`cgs2`, :func:`orthonormalize`): a panel stays in
# cache between the operations that share it.
PANEL_ROWS = 4096

DENSE_MAX_ORDER = 20_000  # the largest order densified; n-by-n takes 3.2 GB

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


def _on_two_threads(here, there):
    """``(here(), there())``, with ``there`` run on one worker thread while
    the calling thread runs ``here``.

    The worker is joined before this returns or raises. If ``here`` raised,
    that error is raised, else the one ``there`` raised. Neither callable
    may depend on the other's side effects.
    """
    outcome = []

    def work():
        try:
            outcome.append((True, there()))
        except BaseException as exc:  # re-raised in the caller
            outcome.append((False, exc))

    worker = threading.Thread(target=work, name="tibt-worker")
    worker.start()
    try:
        mine = here()
    finally:
        worker.join()
    ok, theirs = outcome[0]
    if not ok:
        raise theirs
    return mine, theirs


class LinearOperator(ABC):
    """Square real operator with products and shifted solves.

    Concrete operators must keep ``apply`` and ``shifted_solve`` consistent
    with the dense matrix they abstract (to ~1e-12 relative when both exist).
    The two-thread calls of the module docstring call an operator and its
    transpose from two threads at once, so their methods must allow
    concurrent calls.
    """

    @property
    @abstractmethod
    def n(self) -> int:
        """Dimension of the (square) operator."""

    @abstractmethod
    def apply(self, x, out=None):
        """Return ``A @ x`` for a vector or (n, k) block ``x``.

        ``out``, when given, is an array of the product's shape that
        receives the product, such as the spare columns of a basis buffer.
        The returned array holds the same values, but need not be ``out``.
        """

    @abstractmethod
    def apply_transpose(self, x, out=None):
        """Return ``A.T @ x``; ``out`` as in :meth:`apply`."""

    @abstractmethod
    def shifted_solve(self, s, b):
        """Solve ``(A - s I) x = b`` for a real or complex scalar shift ``s``.

        Raises
        ------
        ShiftSolveFailure
            If the shifted system is singular or the solve produced
            non-finite values.
        """

    def hurwitz(self) -> bool:
        """Whether every one of :attr:`eigenvalues` has Re < 0."""
        return bool(np.max(self.eigenvalues.real) < 0.0)

    @functools.cached_property
    def symmetric(self) -> bool:
        """Whether the operator equals its transpose exactly; False unless
        the operator can tell without densifying."""
        return False

    def schur(self):
        """Real Schur form ``(T, U)`` of :meth:`to_dense`; the first call
        keeps the eigenvalues of ``T`` as :attr:`eigenvalues`, not ``T`` or
        ``U``."""
        t, u = sla.schur(self.to_dense(), output="real")
        if "eigenvalues" not in self.__dict__:
            self.eigenvalues = _schur_eigenvalues(t)
        return t, u

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the first :meth:`schur` form, made if none was."""
        self.schur()
        return self.eigenvalues

    @abstractmethod
    def transpose(self) -> "LinearOperator":
        """Return an operator representing ``A.T``."""

    @abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialize the operator as a dense array."""


def _schur_eigenvalues(t):
    """Eigenvalues of a standardized real Schur factor ``t``, in O(n): its
    diagonal, and ``a +- i sqrt(|b|) sqrt(|c|)`` for each 2x2 block ``[[a,
    b], [c, a]]``, as LAPACK's ``dlanv2`` gives them; the square roots keep
    the imaginary part finite where ``b c`` would overflow."""
    lam = np.diag(t).astype(complex)
    low = np.flatnonzero(np.diag(t, -1)) + 1  # the lower row of each block
    im = np.sqrt(np.abs(t[low - 1, low])) * np.sqrt(np.abs(t[low, low - 1]))
    lam[low - 1] += 1j * im
    lam[low] -= 1j * im
    return lam


def _copy_into(y, out):
    """``y``, after copying it into ``out`` when given. ``y`` keeps the
    layout that its products with other arrays round in."""
    if out is not None:
        if out.shape != y.shape:
            raise ValueError(f"out must have shape {y.shape}, got {out.shape}")
        out[...] = y
    return y


def _check_solution_finite(x):
    if not np.all(np.isfinite(x)):
        raise ShiftSolveFailure("shifted solve produced non-finite values")
    return x


class DenseOperator(LinearOperator):
    """Operator backed by a dense square matrix."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be >= 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        self._m = m

    @property
    def n(self):
        return self._m.shape[0]

    def apply(self, x, out=None):
        return _copy_into(self._m @ x, out)

    def apply_transpose(self, x, out=None):
        return _copy_into(self._m.T @ x, out)

    def shifted_solve(self, s, b):
        """Solve ``(A - s I) x = b`` by LAPACK LU, ``getrf`` then ``getrs``
        (on several threads OpenBLAS's ``gesv`` rounds differently)."""
        s = complex(s)
        b = np.asarray(b)
        real = s.imag == 0.0 and not np.iscomplexobj(b)
        shift = s.real if real else s
        a = self._m - shift * np.eye(self.n, dtype=float if real else complex)
        getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (a, b))
        lu, piv, info = getrf(a, overwrite_a=True)
        if info == 0:
            x, info = getrs(lu, piv, b)
        if info != 0:
            raise ShiftSolveFailure(f"(A - sI) singular for s = {s}")
        return _check_solution_finite(x)

    @functools.cached_property
    def symmetric(self):
        return np.array_equal(self._m, self._m.T)

    def transpose(self):
        return DenseOperator(self._m.T)

    def to_dense(self):
        return self._m.copy()


class TridiagonalOperator(LinearOperator):
    """Tridiagonal operator with O(n) products and shifted solves."""

    def __init__(self, lower, diag, upper):
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

    @property
    def n(self):
        return self._d.shape[0]

    def _matvec(self, lo, d, up, x, out):
        # y = d x, then y[:-1] += up x[1:], then y[1:] += lo x[:-1], run
        # panel by panel through one temporary: every entry sees the same
        # operations in the same order as the whole-array form, and each
        # panel stays in cache between them. y is out when given, else it
        # takes x's layout; the temporary takes y's
        if out is not None and out.shape != x.shape:
            raise ValueError(f"out must have shape {x.shape}, got {out.shape}")
        vec = x.ndim == 1
        if vec:
            x = x[:, None]
        n = self.n
        if out is None:
            y = np.empty_like(x, dtype=np.result_type(d, x))
        else:
            y = out[:, None] if vec else out
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

    def apply(self, x, out=None):
        return self._matvec(self._lo, self._d, self._up, np.asarray(x), out)

    def apply_transpose(self, x, out=None):
        return self._matvec(self._up, self._d, self._lo, np.asarray(x), out)

    def shifted_solve(self, s, b):
        """Solve ``(A - s I) x = b`` by LAPACK ``gtsv`` in O(n), without the
        GIL.

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
        # the off-diagonal casts are copies, no arithmetic to flush; made in
        # the call, they are freed before the finiteness check
        with _flush_subnormal_results():
            info = _gtsv(self._lo.astype(dtype), d, self._up.astype(dtype), rhs)
        if info != 0:
            raise ShiftSolveFailure(f"(A - sI) singular for s = {s}")
        _check_solution_finite(rhs)
        return rhs[:, 0] if vec else rhs

    def hurwitz(self):
        """Decided by one O(n) banded Cholesky when it can be, else by eigenvalues.

        A diagonal similarity makes each off-diagonal pair symmetric where
        its product is positive and skew where it is negative (one zero
        entry splits the operator into triangular blocks). If ``-H``, for
        the symmetric part ``H`` with off-diagonal ``sqrt(max(lower *
        upper, 0))``, has a Cholesky factor, the operator is Hurwitz (True);
        if not, and no product is negative, it has ``H``'s spectrum (False).
        """
        with np.errstate(over="ignore"):
            prod = self._lo * self._up
        if np.all(np.isfinite(prod)):
            band = np.vstack([np.r_[0.0, np.sqrt(np.maximum(prod, 0.0))], -self._d])
            try:
                sla.cholesky_banded(band, check_finite=False)
                return True
            except np.linalg.LinAlgError:
                if not np.any(prod < 0.0):
                    return False
        return super().hurwitz()

    @functools.cached_property
    def symmetric(self):
        return np.array_equal(self._lo, self._up)

    def transpose(self):
        return TridiagonalOperator(self._up, self._d, self._lo)

    def to_dense(self):
        _check_densifiable(self.n)
        return np.diag(self._d) + np.diag(self._lo, -1) + np.diag(self._up, 1)


def _panels(n):
    """Row slices of at most ``PANEL_ROWS`` rows that cover ``range(n)``."""
    return [slice(lo, min(lo + PANEL_ROWS, n)) for lo in range(0, n, PANEL_ROWS)]


def _check_densifiable(n):
    if n > DENSE_MAX_ORDER:
        raise DenseInfeasibleError(f"refusing to densify a {n}x{n} operator")


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
    a : (n, n) array_like or LinearOperator
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
    op, g = _lyapunov_operands(a, g)
    t, u = _hurwitz_schur(op)
    y = _schur_rhs(u, g)
    return _from_schur(u, y, *_trsyl(t, y))


def solve_lyapunov_pair(a, gp, gq):
    """Solve ``A P + P A^T + G_p = 0`` and ``A^T Q + Q A + G_q = 0``.

    ``a`` is an array or an operator. The results are bitwise those of
    ``solve_lyapunov_dense(a, gp)`` and ``solve_lyapunov_dense(a.T, gq)``,
    with the errors those calls raise. A symmetric ``A`` gives both
    equations one Schur form. The two ``trsyl`` back-substitutions run at
    the same time, Q's on a worker thread (see the module docstring).
    """
    op, gp, gq = _lyapunov_operands(a, gp, gq)
    tp, up = _hurwitz_schur(op)
    # schur(A^T) is bitwise schur(A) when A is symmetric
    tq, uq = (tp, up) if op.symmetric else _hurwitz_schur(op.transpose())
    yp, yq = _schur_rhs(up, gp), _schur_rhs(uq, gq)
    p_run, q_run = _on_two_threads(lambda: _trsyl(tp, yp), lambda: _trsyl(tq, yq))
    return _from_schur(up, yp, *p_run), _from_schur(uq, yq, *q_run)


def _lyapunov_operands(a, *gs):
    op = as_operator(a)
    gs = [np.asarray(g, dtype=float) for g in gs]
    for g in gs:
        if g.shape != (op.n, op.n):
            raise ValueError(f"G must match A, got {g.shape} vs {(op.n, op.n)}")
    return op, *gs


def _hurwitz_schur(op):
    """Real Schur form ``(t, u)`` of the operator ``op``, whose Lyapunov
    equation is checked to be stable and nonsingular."""
    t, u = op.schur()
    # LAPACK gives each 2x2 block equal diagonal entries, so diag(t) holds the
    # real parts of the eigenvalues, and min |lambda_i + lambda_j| = -2 re_max
    re_max = np.max(np.diag(t))
    if re_max >= 0.0:
        raise NonHurwitzError(f"A has an eigenvalue with Re = {re_max:.3e} >= 0")
    if -2.0 * re_max <= 1e-12:
        raise SingularSeparationError(
            "eigenvalue pair with lambda_i + lambda_j ~ 0; equation singular")
    return t, u


def _schur_rhs(u, g):
    """``-u^T g u`` in a fresh Fortran-ordered array, for :func:`_trsyl` to
    overwrite with its solution."""
    y = np.empty(g.shape, order="F")
    np.negative(u.T @ g @ u, out=y)
    return y


def _from_schur(u, y, scale, info):
    """``P = u (y / scale) u^T``, symmetrized, from a :func:`_trsyl` solution
    ``y``; raises on its ``info``."""
    if info == 1:
        raise SingularSeparationError(
            "trsyl perturbed nearly-common eigenvalues; equation singular")
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to trsyl")
    p = u @ (y / scale) @ u.T
    return 0.5 * (p + p.T)


@functools.cache
def _lapack():
    """ctypes bindings of LAPACK ``dtrsyl``, ``dgtsv`` and ``zgtsv``, by
    name, from the C-API capsules of ``scipy.linalg.cython_lapack``; each
    capsule's name is its C signature, which ``PyCapsule_GetPointer`` must
    be given. Calls through a ``CFUNCTYPE`` release the GIL."""
    from scipy.linalg import cython_lapack

    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    char, int_p, array = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p

    def bind(name, *argtypes):
        capsule = cython_lapack.__pyx_capi__[name]
        return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))

    # n, nrhs, dl, d, du, b, ldb, info
    gtsv = (int_p, int_p, array, array, array, array, int_p, int_p)
    return {
        # trana, tranb, isgn, m, n, a, lda, b, ldb, c, ldc, scale, info
        "dtrsyl": bind("dtrsyl", char, char, int_p, int_p, int_p, array, int_p, array,
                       int_p, array, int_p, ctypes.POINTER(ctypes.c_double), int_p),
        "dgtsv": bind("dgtsv", *gtsv),
        "zgtsv": bind("zgtsv", *gtsv),
    }


def _trsyl(t, y):
    """Overwrite ``y`` with the ``X`` of ``T X + X T^T = scale * Y`` (LAPACK
    ``dtrsyl``) for quasi-triangular ``t``; returns ``(scale, info)``.

    Both arrays are n-by-n, float64 and Fortran-ordered. The LAPACK call
    runs without the GIL, touching only these two arrays.
    """
    n = t.shape[0]
    for arr in (t, y):
        if arr.shape != (n, n) or arr.dtype != np.float64 or not arr.flags.f_contiguous:
            raise ValueError("trsyl needs two equal square Fortran-ordered float64 arrays")
    if not y.flags.writeable:
        raise ValueError("trsyl overwrites its right-hand side, which is read-only")
    isgn, dim = ctypes.c_int(1), ctypes.c_int(n)
    scale, info = ctypes.c_double(), ctypes.c_int()
    dim_p = ctypes.byref(dim)
    _lapack()["dtrsyl"](b"N", b"T", ctypes.byref(isgn), dim_p, dim_p, t.ctypes.data,
                        dim_p, t.ctypes.data, dim_p, y.ctypes.data, dim_p,
                        ctypes.byref(scale), ctypes.byref(info))
    return scale.value, info.value


def _gtsv(dl, d, du, b):
    """Overwrite ``b`` with the ``X`` of ``T X = B`` for the tridiagonal ``T``
    with sub-, main and superdiagonals ``dl``, ``d`` and ``du`` (LAPACK
    ``dgtsv``/``zgtsv``, Gaussian elimination with partial pivoting), which
    it overwrites too; returns ``info``.

    The four arrays share one dtype, float64 or complex128; the diagonals
    are contiguous and ``b`` is n-by-nrhs and Fortran-ordered. The LAPACK
    call runs without the GIL, touching only these four arrays.
    """
    n = d.shape[0]
    routine = {np.dtype(float): "dgtsv", np.dtype(complex): "zgtsv"}.get(d.dtype)
    if (routine is None or b.ndim != 2 or b.shape[0] != n
            or dl.shape != (n - 1,) or du.shape != (n - 1,)
            or any(arr.dtype != d.dtype for arr in (dl, du, b))
            or not all(arr.flags.c_contiguous for arr in (dl, d, du))
            or not b.flags.f_contiguous):
        raise ValueError("gtsv needs three contiguous diagonals of lengths n - 1, n, "
                         "n - 1 and an n-row Fortran-ordered right-hand side, all "
                         "float64 or all complex128")
    if not all(arr.flags.writeable for arr in (dl, d, du, b)):
        raise ValueError("gtsv overwrites its arguments, one of which is read-only")
    dim, nrhs, info = ctypes.c_int(n), ctypes.c_int(b.shape[1]), ctypes.c_int()
    dim_p = ctypes.byref(dim)
    _lapack()[routine](dim_p, ctypes.byref(nrhs), dl.ctypes.data, d.ctypes.data,
                       du.ctypes.data, b.ctypes.data, dim_p, ctypes.byref(info))
    return info.value


def _complex_pair_solve(op, tblock, lam, rhs):
    # Solve A Y + Y T_b^T = -rhs for a standardized 2x2 Schur block T_b with
    # the complex-conjugate eigenvalue pair lam, conj(lam), using one complex
    # shifted solve.
    t11, t12 = tblock[0]
    t21, t22 = tblock[1]
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


@contextmanager
def _naming_overlap(lam):
    """Turn a failed shifted solve at ``-lam`` into the spectrum of A
    meeting the eigenvalue ``-lam`` of ``-M``."""
    try:
        yield
    except ShiftSolveFailure as exc:
        # + 0 turns a -0 part into 0
        raise SpectrumOverlapError(
            f"spectrum of A meets eigenvalue {-lam + 0:.6g} of -M") from exc


def solve_sylvester_skinny(a, m, g, h):
    """Solve the skinny-tall Sylvester equation ``A X + X M^T + F = 0`` for
    ``F = G H``.

    ``A`` is an operator of dimension n (dense array accepted), ``M`` is a
    small r-by-r dense matrix, and ``F`` is given by its factors: ``G`` is
    n-by-m and ``H`` is m-by-r. ``F`` is formed inside and freed once it
    has been carried into the Schur basis of ``M``, so the solve holds at
    most two n-by-r arrays at once. ``M`` is reduced to real Schur form and
    the columns of ``X`` are obtained by back-substitution, each requiring
    one shifted solve with ``A`` (a single complex solve per 2x2 block
    keeps the result exactly real). An exactly symmetric ``M`` takes its
    Schur form from ``eigh`` instead, so ``T`` is diagonal and the columns
    are r independent real solves, which run in two halves on two threads
    (see the module docstring); ``F`` is then never formed.

    Raises
    ------
    SpectrumOverlapError
        If some shifted system ``A + lambda I`` is singular, i.e. the
        spectra of ``A`` and ``-M`` meet; the message names the eigenvalue
        ``-lambda`` of ``-M`` (complex for a 2x2 block).
    ShiftSolveFailure
        Propagated from the operator for non-spectral solve failures.
    """
    op = as_operator(a)
    m = np.asarray(m, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"M must be square, got shape {m.shape}")
    r = m.shape[0]
    if g.ndim != 2 or g.shape[0] != op.n or h.shape != (g.shape[1], r):
        raise ValueError(f"G and H must be ({op.n}, m) and (m, {r}), "
                         f"got {g.shape} and {h.shape}")

    if np.array_equal(m, m.T):
        return _solve_decoupled(op, m, g, h)
    t, u = sla.schur(m, output="real")
    f = g @ h
    # each block's right-hand side is updated in place, then overwritten by
    # its solution
    y = f @ u
    del f  # freed before the shifted solves make their own n-row arrays
    j = r - 1
    while j >= 0:
        pair = j > 0 and t[j, j - 1] != 0.0
        jb = j - 1 if pair else j
        ncols = 2 if pair else 1
        rhs = y[:, jb:jb + ncols]
        if jb + ncols < r:
            rhs += y[:, jb + ncols:] @ t[jb:jb + ncols, jb + ncols:].T
        lam = t[jb, jb]  # the block's eigenvalue, the upper one of a pair
        if pair:
            lam = lam + 1j * np.sqrt(-(t[jb, jb + 1] * t[jb + 1, jb]))
        with _naming_overlap(lam):
            if pair:
                y[:, jb:jb + 2] = _complex_pair_solve(op, t[jb:jb + 2, jb:jb + 2], lam, rhs)
            else:
                y[:, jb] = op.shifted_solve(-lam, -rhs[:, 0])
        j = jb - 1
    return y @ u.T


def _solve_decoupled(op, m, g, h):
    """:func:`solve_sylvester_skinny` for a symmetric ``M = U diag(lam)
    U^T``: column j of ``Y = X U`` solves ``(A + lam_j I) y_j = -(F U)_j``.
    The workspace ``Y`` starts as ``-G (H U)``, Fortran-ordered, so each
    column is one contiguous right-hand side, and each solution overwrites
    its column: the first half of the columns on the calling thread, the
    rest on a worker."""
    lam, u = np.linalg.eigh(m)
    y = ((-(h @ u)).T @ g.T).T

    def solve(cols):
        for j in cols:
            with _naming_overlap(lam[j]):
                y[:, j] = op.shifted_solve(-lam[j], y[:, j])

    half = (len(lam) + 1) // 2
    _on_two_threads(lambda: solve(range(half)), lambda: solve(range(half, len(lam))))
    return y @ u.T


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
    n-by-j array that does not overlap ``q``; it may be ``x`` itself, which
    is then projected in place, as ``c`` is formed before the first write).
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


def orthonormalize(m, basis=None, out=None):
    """Orthonormal columns that extend the orthonormal ``basis`` (n-by-k,
    none by default) to a basis of the numerical range of ``[basis, m]``;
    ``basis`` itself is never changed, and a (numerically) zero ``m`` adds
    no column.

    ``m`` is projected off ``basis`` by :func:`cgs2`. A column-pivoted QR
    runs on the small stack of panel R factors that :func:`cgs2` returns,
    which has the R factor of the remainder; directions whose pivot falls
    below ``ORTH_DROP_RTOL`` times the largest column norm of
    ``[basis, m]`` (the columns of ``basis`` have unit norm) are dropped.
    The kept columns ``rem[:, perm] @ inv(R11)`` get one more projection off
    ``basis`` and a Cholesky-QR pass: that product loses orthogonality in
    proportion to the condition of ``R11``, and a remainder just above the
    drop threshold would lose orthogonality to ``basis`` in proportion to
    how much it shrank. Three panel passes form the product with the
    projection coefficients, then the projection with the Gram matrix, then
    the Cholesky-QR product, all in the storage of the remainder: ``out``
    when given (an n-by-j Fortran-ordered array that overlaps neither input,
    such as the spare columns of a basis buffer), so the result is its
    leading columns. Costs O(n k j + n j^2) for j columns of ``m``,
    independent of how the basis was built. The result is Fortran-ordered.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    n = m.shape[0]
    q = np.zeros((n, 0)) if basis is None else np.asarray(basis, dtype=float)
    if q.ndim != 2 or q.shape[0] != n:
        raise ValueError(
            f"expected 2-D arrays with equal row counts, got {q.shape}, {m.shape}")
    k = q.shape[1]
    if n < 1:
        raise ValueError("row dimension must be >= 1")
    j = m.shape[1]
    if j == 0:
        return np.zeros((n, 0))
    max_col = max(np.max(np.sqrt(np.einsum("ij,ij->j", m, m))),
                  1.0 if k else 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        c, rem, rs = cgs2(q, m, out)
    # a non-finite m shows up in max_col, a non-finite q in c
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
