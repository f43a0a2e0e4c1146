"""Benchmark model constructors and Matrix Market ingestion.

The heat-rod generator fixes the input at x ~ 1/3 and the output at x ~ 2/3
of the domain (the source problem statement leaves the I/O maps open); this
choice is documented in the README so experiments are reproducible.

Matrix Market files of both formats are streamed once into one entry form
(index and value arrays), from which a dense array or, for a tridiagonal
``A``, a :class:`TridiagonalOperator` is built; memory is O(entries).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, ParseError
from .linalg import DenseOperator, TridiagonalOperator
from .system import StateSpaceModel

__all__ = [
    "heat_rod",
    "random_stable",
    "illustrative4",
    "load_matrix_market",
    "read_matrix_market",
    "save_matrix_market",
]


def heat_rod(n: int) -> StateSpaceModel:
    """1-D heat equation on (0, 1) with Dirichlet boundaries, discretized by
    centered second differences on ``n`` interior points.

    ``A = (n+1)^2 tridiag(1, -2, 1)`` is kept in tridiagonal form with O(n)
    shifted solves. SISO: the input enters at grid point round(n/3) with
    weight n+1 and the output reads grid point round(2n/3). ``A`` is
    symmetric negative definite, hence Hurwitz by construction.
    """
    if n < 3:
        raise ValueError("heat_rod requires n >= 3")
    h2 = float(n + 1) ** 2
    a = TridiagonalOperator(
        lower=np.full(n - 1, h2),
        diag=np.full(n, -2.0 * h2),
        upper=np.full(n - 1, h2),
        known_hurwitz=True,
    )
    j = min(max(int(round(n / 3)), 1), n)
    k = min(max(int(round(2 * n / 3)), 1), n)
    b = np.zeros((n, 1))
    b[j - 1, 0] = float(n + 1)
    c = np.zeros((1, n))
    c[0, k - 1] = 1.0
    return StateSpaceModel(a, b, c)


def random_stable(n: int, m: int, p: int, seed: int) -> StateSpaceModel:
    """Random stable system: ``A = M - (||M||_2 + 1) I`` with Gaussian ``M``,
    Gaussian ``B`` and ``C`` from seed-derived substreams.

    The norm shift guarantees every eigenvalue satisfies Re < -1, so the
    result is Hurwitz for every seed, and the construction is deterministic
    in ``seed``.
    """
    if min(n, m, p) < 1:
        raise ValueError("n, m, p must all be >= 1")
    streams = np.random.SeedSequence(seed).spawn(3)
    ma = np.random.default_rng(streams[0]).standard_normal((n, n))
    a = ma - (np.linalg.norm(ma, 2) + 1.0) * np.eye(n)
    b = np.random.default_rng(streams[1]).standard_normal((n, m))
    c = np.random.default_rng(streams[2]).standard_normal((p, n))
    return StateSpaceModel(DenseOperator(a, known_hurwitz=True), b, c)


def illustrative4() -> StateSpaceModel:
    """Fourth-order modal-form model whose Gramian truncation defeats naive
    low-rank balanced truncation.

    The pole at -100 is strongly controllable but weakly observable and the
    pole at -200 the reverse, so truncating either Gramian independently
    discards information the other one needs.
    """
    a = np.diag([-0.1, -0.2, -100.0, -200.0])
    b = np.array([[1.0], [1.0], [1.0e4], [1.0]])
    c = np.array([[1.0, 1.0, 1.0, 1.0e4]])
    return StateSpaceModel(DenseOperator(a, known_hurwitz=True), b, c)


class _Entries(NamedTuple):
    """Entries of a Matrix Market file: 0-based indices and values, one per
    position."""

    shape: tuple
    i: np.ndarray
    j: np.ndarray
    v: np.ndarray


def _mm_parse(path):
    """Parse one Matrix Market file (coordinate or array; general or
    symmetric; real or integer entries) into its :class:`_Entries`.

    The file is streamed once into index and value arrays sized from its
    size line, so memory is O(entries). Array values fill their positions
    column by column (the lower triangle of a symmetric file). The mirror
    images of a symmetric file's off-diagonal entries are included; where
    several entries fall on one position, the one written last wins. The
    entry count is checked at the end of the file, after the entries it
    covers. A :class:`ParseError` names ``path``. A byte outside ASCII
    decodes to a lone surrogate, which no number or keyword contains: it is
    ignored in a ``%`` comment and malforms any other line.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        try:
            return _mm_entries(fh)
        except ParseError as exc:
            exc.path = path
            raise


def _mm_entries(fh):
    """The :class:`_Entries` of an open Matrix Market file."""
    header = fh.readline()
    if not header:
        raise ParseError("empty file", line=1)
    header = header.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError("expected '%%MatrixMarket object format field symmetry'",
                         line=1)
    _, obj, fmt, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object '{obj}'", line=1)
    if fmt not in ("coordinate", "array"):
        raise ParseError(f"unsupported format '{fmt}'", line=1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field '{field}'", line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry '{symmetry}'", line=1)

    size_lineno = 1
    for size_lineno, line in enumerate(fh, start=2):
        if line.lstrip()[:1] not in ("", "%"):  # neither blank nor a comment
            break
    else:
        raise ParseError("missing size line", line=size_lineno)
    coordinate = fmt == "coordinate"
    sizes = line.split()
    if len(sizes) != (3 if coordinate else 2):
        raise ParseError("coordinate size line needs 'rows cols nnz'" if coordinate
                         else "array size line needs 'rows cols'", line=size_lineno)
    try:
        rows, cols, *nnz = (int(tok) for tok in sizes)
    except ValueError:
        raise ParseError("non-integer size entry", line=size_lineno) from None
    if min(rows, cols, *nnz) < 0:
        raise ParseError("negative size entry", line=size_lineno)
    if symmetry == "symmetric" and rows != cols:
        raise ParseError(f"symmetric {fmt} matrix must be square", line=size_lineno)
    count = (nnz[0] if coordinate else rows * cols if symmetry == "general"
             else rows * (rows + 1) // 2)

    ii, jj = np.empty((2, count), dtype=np.int64)
    vv = np.empty(count)
    found = 0
    for lineno, line in enumerate(fh, start=size_lineno + 1):
        if line.lstrip()[:1] in ("", "%"):
            continue
        if found < count and coordinate:
            toks = line.split()
            if len(toks) != 3:
                raise ParseError("coordinate entry needs 'i j value'", line=lineno)
            try:
                i, j, v = int(toks[0]), int(toks[1]), float(toks[2])
            except ValueError:
                raise ParseError("malformed coordinate entry", line=lineno) from None
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError(f"index ({i}, {j}) out of bounds", line=lineno)
            ii[found], jj[found], vv[found] = i - 1, j - 1, v
        elif found < count:
            try:
                vv[found] = float(line)
            except ValueError:
                raise ParseError("malformed value", line=lineno) from None
        found += 1
    if found != count:
        raise ParseError(f"expected {count} {'entries' if coordinate else 'values'}, "
                         f"found {found}", line=size_lineno)

    if not coordinate and symmetry == "general":
        np.divmod(np.arange(count), rows, out=(jj, ii))
    elif not coordinate:
        jj[:], ii[:] = np.triu_indices(rows)  # the lower triangle, column by column
    if symmetry == "symmetric":
        # each off-diagonal entry is written, then its mirror image
        keep = np.column_stack([np.ones(count, dtype=bool), ii != jj]).ravel()
        ii, jj = (np.column_stack([ii, jj]).ravel()[keep],
                  np.column_stack([jj, ii]).ravel()[keep])
        vv = np.repeat(vv, 2)[keep]
    # the last write to a position is the first of the reversed sequence
    _, first = np.unique((ii * cols + jj)[::-1], return_index=True)
    last = len(ii) - 1 - first
    return _Entries((rows, cols), ii[last], jj[last], vv[last])


def _dense(parsed):
    """The dense array of a :func:`_mm_parse` result."""
    mat = np.zeros(parsed.shape)
    mat[parsed.i, parsed.j] = parsed.v
    return mat


def read_matrix_market(path) -> np.ndarray:
    """Read a single Matrix Market file as a dense array."""
    return _dense(_mm_parse(path))


def _tridiagonal(parsed):
    """The :class:`TridiagonalOperator` of a square :func:`_mm_parse` result
    whose nonzeros all lie on the three central diagonals, else None;
    checked and copied in O(entries)."""
    (n, _), i, j, v = parsed
    offset = j - i
    if np.any(np.abs(offset[v != 0.0]) > 1):
        return None
    bands = [np.zeros(n - 1), np.zeros(n), np.zeros(n - 1)]
    for k, band in zip((-1, 0, 1), bands):
        on = offset == k
        band[np.minimum(i, j)[on]] = v[on]
    return TridiagonalOperator(*bands)


def load_matrix_market(a_path, b_path, c_path) -> StateSpaceModel:
    """Assemble a state-space model from three Matrix Market files.

    ``A`` becomes a tridiagonal operator when its pattern allows, otherwise
    a dense one; a tridiagonal coordinate file is never densified. Raises
    :class:`DimensionMismatchError` when the shapes of the three matrices
    are inconsistent.
    """
    a = _mm_parse(a_path)
    b = read_matrix_market(b_path)
    c = read_matrix_market(c_path)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"A must be square, got {a.shape}")
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatchError(f"B has {b.shape[0]} rows, expected {n}")
    if c.shape[1] != n:
        raise DimensionMismatchError(f"C has {c.shape[1]} columns, expected {n}")
    op = _tridiagonal(a) if n > 2 else None
    return StateSpaceModel(_dense(a) if op is None else op, b, c)


def save_matrix_market(path, matrix) -> None:
    """Write a dense matrix in Matrix Market array format (full precision,
    so a read-back reproduces the entries bitwise)."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for j in range(m.shape[1]):
            for i in range(m.shape[0]):
                fh.write(f"{m[i, j]:.17g}\n")
