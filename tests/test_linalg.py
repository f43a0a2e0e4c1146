import numpy as np
import pytest
import scipy.linalg as sla
from conftest import kron_lyapunov, kron_sylvester, max_principal_angle

from tibt import linalg
from tibt.benchmarks import heat_rod
from tibt.errors import (
    NonHurwitzError,
    NotSymmetricError,
    ShiftSolveFailure,
    SingularSeparationError,
    SpectrumOverlapError,
)
from tibt.linalg import (
    ORTH_DROP_RTOL,
    PANEL_ROWS,
    DenseOperator,
    TridiagonalOperator,
    cgs2,
    extend_orthonormal,
    flushes_subnormals,
    ordered_svd,
    orthonormalize,
    psd_factor,
    solve_lyapunov_dense,
    solve_sylvester_skinny,
)


def random_hurwitz(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m - (np.linalg.norm(m, 2) + 1.0) * np.eye(n)


class TestSolveLyapunovDense:
    def test_scalar(self):
        p = solve_lyapunov_dense(np.array([[-1.0]]), np.array([[1.0]]))
        assert np.allclose(p, [[0.5]])

    def test_modal_example_largest_singular_value(self):
        a = np.diag([-0.1, -0.2, -100.0, -200.0])
        b = np.array([[1.0], [1.0], [1.0e4], [1.0]])
        p = solve_lyapunov_dense(a, b @ b.T)
        assert abs(p[2, 2] - 5.0e5) <= 1e-6 * 5.0e5

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(12)
        a = random_hurwitz(12, 12)
        g = rng.standard_normal((12, 12))
        g = g + g.T
        p = solve_lyapunov_dense(a, g)
        expected = kron_lyapunov(a, g)
        assert np.linalg.norm(p - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_symmetric_to_machine_precision(self):
        a = random_hurwitz(9, 3)
        g = np.eye(9)
        p = solve_lyapunov_dense(a, g)
        assert np.array_equal(p, p.T)

    def test_residual_contract(self):
        for n, seed in ((30, 0), (120, 1), (300, 2)):
            rng = np.random.default_rng(seed)
            a = random_hurwitz(n, seed)
            b = rng.standard_normal((n, 2))
            g = b @ b.T
            p = solve_lyapunov_dense(a, g)
            resid = np.linalg.norm(a @ p + p @ a.T + g)
            assert resid <= 1e-9 * max(1.0, np.linalg.norm(g))

    def test_fifty_seeded_instances_against_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 31))
            a = random_hurwitz(n, 2000 + seed)
            g = rng.standard_normal((n, n))
            g = g + g.T
            p = solve_lyapunov_dense(a, g)
            expected = kron_lyapunov(a, g)
            assert np.linalg.norm(p - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(NonHurwitzError):
            solve_lyapunov_dense(np.array([[1.0]]), np.array([[1.0]]))

    def test_singular_separation_rejected(self):
        # conjugate pair hugging the imaginary axis: lambda_1 + lambda_2 ~ 0
        a = np.array([[-1e-14, 1.0], [-1.0, -1e-14]])
        with pytest.raises(SingularSeparationError):
            solve_lyapunov_dense(a, np.eye(2))

    @pytest.mark.parametrize("pair", [False, True])
    @pytest.mark.parametrize("re, singular", [(-5e-13, True), (-6e-13, False)])
    def test_separation_threshold(self, pair, re, singular):
        # min |lambda_i + lambda_j| = 2 |Re lambda| meets 1e-12 at Re = -5e-13,
        # for a real eigenvalue with itself and for a conjugate pair alike
        a = np.array([[re, 1.0], [-1.0, re]]) if pair else np.diag([re, -1.0])
        if singular:
            with pytest.raises(SingularSeparationError):
                solve_lyapunov_dense(a, np.eye(2))
        else:
            p = solve_lyapunov_dense(a, np.eye(2))
            resid = a @ p + p @ a.T + np.eye(2)
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(p)

    def test_pair_on_imaginary_axis_rejected(self):
        a = np.array([[0.0, 2.0], [-0.5, 0.0]])
        with pytest.raises(NonHurwitzError, match=r"Re = 0\.000e\+00 >= 0"):
            solve_lyapunov_dense(a, np.eye(2))


class TestRealSchurStandardized:
    """The dense solvers read Re lambda off the diagonal of LAPACK's real
    Schur form, which holds when every 2x2 block has equal diagonal entries
    and off-diagonal entries of opposite sign."""

    @staticmethod
    def blocks(a):
        t = sla.schur(a, output="real")[0]
        starts = np.flatnonzero(np.diag(t, -1) != 0.0)
        assert not np.any(np.diff(starts) == 1)  # quasi-triangular
        return [t[i:i + 2, i:i + 2] for i in starts]

    def test_random_matrices(self):
        count = 0
        for n in range(2, 41):
            a = np.random.default_rng(n).standard_normal((n, n))
            for blk in self.blocks(a):
                assert blk[0, 0] == blk[1, 1]
                assert blk[0, 1] * blk[1, 0] < 0.0
                count += 1
        assert count > 100

    def test_heat_rod_has_no_blocks(self):
        assert self.blocks(heat_rod(50).A.to_dense()) == []


class TestSolveSylvesterSkinny:
    def test_scalar(self):
        x = solve_sylvester_skinny(np.array([[-2.0]]), np.array([[-3.0]]),
                                   np.array([[10.0]]))
        assert np.allclose(x, [[2.0]])

    def test_diagonal_decoupling(self):
        a = np.diag([-1.0, -4.0, -9.0])
        m = np.diag([-2.0, -5.0])
        f = np.arange(1.0, 7.0).reshape(3, 2)
        x = solve_sylvester_skinny(a, m, f)
        ai = np.array([-1.0, -4.0, -9.0])
        mj = np.array([-2.0, -5.0])
        assert np.allclose(x, -f / (ai[:, None] + mj[None, :]))

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(7)
        a = random_hurwitz(20, 70)
        m = random_hurwitz(4, 71)
        f = rng.standard_normal((20, 4))
        x = solve_sylvester_skinny(a, m, f)
        expected = kron_sylvester(a, m, f)
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_fifty_seeded_instances_against_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(3000 + seed)
            n = int(rng.integers(2, 31))
            r = int(rng.integers(1, 6))
            a = random_hurwitz(n, 4000 + seed)
            m = random_hurwitz(r, 5000 + seed)
            f = rng.standard_normal((n, r))
            x = solve_sylvester_skinny(a, m, f)
            expected = kron_sylvester(a, m, f)
            assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_real_result_for_complex_pair_coefficients(self):
        # M with complex-conjugate eigenvalues; solution must stay real
        rng = np.random.default_rng(8)
        a = random_hurwitz(15, 80)
        m = np.array([[-1.0, 2.0, 0.3], [-2.0, -1.0, 0.1], [0.0, 0.0, -3.0]])
        f = rng.standard_normal((15, 3))
        x = solve_sylvester_skinny(a, m, f)
        assert not np.iscomplexobj(x)
        resid = np.linalg.norm(a @ x + x @ m.T + f)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(f))

    def test_operator_input_matches_dense(self):
        rng = np.random.default_rng(9)
        diag = -np.linspace(1.0, 4.0, 25)
        off = 0.3 * np.ones(24)
        op = TridiagonalOperator(off, diag, off)
        m = random_hurwitz(3, 90)
        f = rng.standard_normal((25, 3))
        x_op = solve_sylvester_skinny(op, m, f)
        x_dense = solve_sylvester_skinny(op.to_dense(), m, f)
        assert np.allclose(x_op, x_dense, rtol=0, atol=1e-12 * np.linalg.norm(x_dense))

    def test_spectrum_overlap_rejected(self):
        a = np.diag([-1.0, -2.0])
        m = np.diag([1.0, -5.0])  # eigenvalue +1 of M collides with -1 of A
        f = np.ones((2, 2))
        with pytest.raises(SpectrumOverlapError):
            solve_sylvester_skinny(a, m, f)


class TestOrthonormalize:
    def test_identity_passthrough(self):
        q = orthonormalize(np.eye(3))
        assert q.shape == (3, 3)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_dependent_columns_dropped(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        q = orthonormalize(np.column_stack([v, 2.0 * v]))
        assert q.shape == (6, 1)

    def test_projector_reproduces_range(self):
        rng = np.random.default_rng(50)
        m = rng.standard_normal((50, 10))
        q = orthonormalize(m)
        assert q.shape == (50, 10)
        assert np.linalg.norm(q @ (q.T @ m) - m) <= 1e-10 * np.linalg.norm(m)

    def test_idempotent_span(self):
        rng = np.random.default_rng(51)
        m = rng.standard_normal((30, 7))
        q1 = orthonormalize(m)
        q2 = orthonormalize(q1)
        assert max_principal_angle(q1, q2) <= 1e-10

    def test_zero_input_gives_empty_basis(self):
        q = orthonormalize(np.zeros((5, 3)))
        assert q.shape == (5, 0)

    def test_zero_columns_passthrough(self):
        q = orthonormalize(np.zeros((4, 0)))
        assert q.shape == (4, 0)


def orthonormal_columns(n, k, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))
    return q


class TestExtendOrthonormal:
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_orthogonal_to_q_when_new_is_nearly_inside(self, scale):
        # the remainder sits ~1e-11 relative above span(q), just clear of
        # the drop rule, where one CGS2 pass alone leaves ~1e-5 overlap
        rng = np.random.default_rng(70)
        q = orthonormal_columns(500, 20, 71)
        inside = q @ rng.standard_normal((20, 4))
        new = scale * (inside + 1e-11 * np.linalg.norm(inside, axis=0)
                       * rng.standard_normal((500, 4)) / np.sqrt(500))
        ext = extend_orthonormal(q, new)
        assert ext.shape == (500, 4)
        full = np.hstack([q, ext])
        assert np.linalg.norm(full.T @ full - np.eye(24), 2) <= 1e-12

    @pytest.mark.parametrize("gap", [1e-11, 1e-9])
    def test_orthogonal_to_q_when_new_columns_nearly_dependent(self, gap):
        # two new columns a relative gap apart: the second pivot of the
        # remainder is ~gap, so round-off along q is amplified by 1/gap
        # unless the kept columns are projected off q once more
        rng = np.random.default_rng(78)
        q = orthonormal_columns(400, 10, 79)
        x = q @ rng.standard_normal((10, 1)) + rng.standard_normal((400, 1))
        z = rng.standard_normal((400, 1))
        new = np.hstack([x, x + gap * np.linalg.norm(x) * z / np.linalg.norm(z)])
        ext = extend_orthonormal(q, new)
        assert ext.shape == (400, 2)
        full = np.hstack([q, ext])
        assert np.linalg.norm(full.T @ full - np.eye(12), 2) <= 1e-12

    def test_kept_count_matches_full_reorthonormalization(self):
        rng = np.random.default_rng(72)
        q = orthonormal_columns(300, 8, 73)
        fresh = rng.standard_normal((300, 3))
        new = np.hstack([q @ rng.standard_normal((8, 2)), fresh,
                         fresh @ rng.standard_normal((3, 2))
                         + q @ rng.standard_normal((8, 2))])
        ext = extend_orthonormal(q, new)
        expected = orthonormalize(np.hstack([q, new])).shape[1] - q.shape[1]
        assert ext.shape[1] == expected == 3
        full = np.hstack([q, ext])
        assert np.linalg.norm(full.T @ full - np.eye(11), 2) <= 1e-12
        assert np.linalg.norm(new - full @ (full.T @ new)) <= 1e-12 * np.linalg.norm(new)

    def test_empty_q_orthonormalizes_new(self):
        rng = np.random.default_rng(74)
        new = rng.standard_normal((40, 5))
        ext = extend_orthonormal(np.zeros((40, 0)), new)
        assert ext.shape == (40, 5)
        assert np.allclose(ext.T @ ext, np.eye(5), atol=1e-12)
        assert max_principal_angle(ext, new) <= 1e-10

    def test_new_inside_span_adds_nothing(self):
        q = orthonormal_columns(30, 4, 75)
        ext = extend_orthonormal(q, q @ np.arange(8.0).reshape(4, 2))
        assert ext.shape == (30, 0)

    @pytest.mark.parametrize("k", [0, 3])
    def test_zero_new_gives_empty_extension(self, k):
        q = orthonormal_columns(10, k, 76) if k else np.zeros((10, 0))
        assert extend_orthonormal(q, np.zeros((10, 2))).shape == (10, 0)
        assert extend_orthonormal(q, np.zeros((10, 0))).shape == (10, 0)

    def test_non_finite_input_rejected(self):
        q = orthonormal_columns(10, 3, 77)
        new = np.ones((10, 2))
        bad_new = new.copy()
        bad_new[4, 1] = np.nan
        with pytest.raises(ValueError):
            extend_orthonormal(q, bad_new)
        bad_q = q.copy()
        bad_q[2, 0] = np.inf
        with pytest.raises(ValueError):
            extend_orthonormal(bad_q, new)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extend_orthonormal(np.zeros((5, 1)), np.ones((4, 1)))

    # below one panel, exactly one, one row past (a last panel with fewer
    # rows than columns), and several panels with a short last one
    PANEL_SIZES = [PANEL_ROWS - 1, PANEL_ROWS, PANEL_ROWS + 1, 3 * PANEL_ROWS + 17]

    @pytest.mark.parametrize("n", PANEL_SIZES)
    def test_panel_boundaries(self, n):
        rng = np.random.default_rng(80)
        q = orthonormal_columns(n, 6, 81)
        fresh = rng.standard_normal((n, 3))
        new = np.hstack([fresh, q @ rng.standard_normal((6, 2)),
                         fresh @ rng.standard_normal((3, 1))])
        ext = extend_orthonormal(q, new)
        assert ext.shape == (n, 3)
        assert ext.flags.f_contiguous
        full = np.hstack([q, ext])
        assert np.linalg.norm(full.T @ full - np.eye(9), 2) <= 1e-12
        assert np.linalg.norm(new - full @ (full.T @ new)) <= 1e-12 * np.linalg.norm(new)

    @pytest.mark.parametrize("n", [PANEL_ROWS - 1, 3 * PANEL_ROWS + 17])
    def test_near_threshold_kept_count_matches_pivoted_qr(self, n):
        # remainders 10x and 3x above the drop threshold are kept, one at
        # 0.1x is dropped, exactly as a pivoted QR of the whole remainder
        rng = np.random.default_rng(82)
        q = orthonormal_columns(n, 8, 83)
        base = rng.standard_normal((n, 1))
        max_col = np.linalg.norm(base)
        tau = ORTH_DROP_RTOL * max_col

        def off_q(scale):
            z = rng.standard_normal((n, 1))
            z -= q @ (q.T @ z)
            return scale * tau * z / np.linalg.norm(z)

        inside = q @ rng.standard_normal((8, 2))
        inside *= 0.5 * max_col / np.linalg.norm(inside, axis=0)
        new = np.hstack([base, inside[:, :1] + off_q(10.0), base + off_q(3.0),
                         inside[:, 1:] + off_q(0.1)])
        _, rem, _ = cgs2(q, new)
        _, r, _ = sla.qr(rem, mode="economic", pivoting=True)
        expected = int(np.sum(np.abs(np.diag(r)) > ORTH_DROP_RTOL * max_col))
        ext = extend_orthonormal(q, new)
        assert ext.shape[1] == expected == 3
        full = np.hstack([q, ext])
        assert np.linalg.norm(full.T @ full - np.eye(11), 2) <= 1e-12


    def test_result_formed_in_out(self):
        # the spare columns of a Fortran-ordered buffer hold the result
        rng = np.random.default_rng(86)
        buf = np.empty((PANEL_ROWS + 9, 10), order="F")
        buf[:, :3] = orthonormal_columns(PANEL_ROWS + 9, 3, 87)
        new = rng.standard_normal((PANEL_ROWS + 9, 4))
        ext = extend_orthonormal(buf[:, :3], new, out=buf[:, 3:7])
        assert ext.shape == (PANEL_ROWS + 9, 4)
        assert np.shares_memory(ext, buf[:, 3:7])
        assert np.allclose(ext, extend_orthonormal(buf[:, :3], new), rtol=0, atol=1e-13)
        full = buf[:, :7]
        assert np.linalg.norm(full.T @ full - np.eye(7), 2) <= 1e-12


class TestCgs2:
    @pytest.mark.parametrize("n", [7, PANEL_ROWS + 1, 2 * PANEL_ROWS + 300])
    def test_projection_and_panel_r_factors(self, n):
        rng = np.random.default_rng(84)
        q = orthonormal_columns(n, 5, 85)
        x = q @ rng.standard_normal((5, 4)) + rng.standard_normal((n, 4))
        c, y, rs = cgs2(q, x)
        assert np.linalg.norm(x - q @ c - y) <= 1e-13 * np.linalg.norm(x)
        assert np.linalg.norm(q.T @ y) <= 1e-13 * np.linalg.norm(x)
        # the stacked panel factors have the R factor of y
        assert rs.shape[1] == 4
        assert np.allclose(np.tril(rs[:4], -1), 0.0)
        r_rs = np.linalg.qr(rs, mode="r")
        r_y = np.linalg.qr(y, mode="r")
        signs = np.sign(np.diag(r_rs)) * np.sign(np.diag(r_y))
        assert np.linalg.norm(signs[:, None] * r_rs - r_y) <= 1e-13 * np.linalg.norm(r_y)


class TestPsdFactor:
    def test_identity(self):
        z = psd_factor(np.eye(2))
        assert np.allclose(z @ z.T, np.eye(2), atol=1e-14)

    def test_exact_rank_deficiency(self):
        z = psd_factor(np.diag([4.0, 0.0]))
        assert z.shape == (2, 1)
        assert np.allclose(z, [[2.0], [0.0]])

    def test_reconstructs_gramian(self):
        a = np.diag([-0.1, -0.2, -100.0, -200.0])
        b = np.array([[1.0], [1.0], [1.0e4], [1.0]])
        p = solve_lyapunov_dense(a, b @ b.T)
        z = psd_factor(p)
        assert np.linalg.norm(z @ z.T - p) <= 1e-12 * np.linalg.norm(p)

    def test_never_increases_rank(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((8, 3))
        p = g @ g.T
        z = psd_factor(p)
        assert z.shape[1] <= 3

    def test_asymmetric_rejected(self):
        p = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotSymmetricError):
            psd_factor(p)

    def test_clips_roundoff_negatives(self):
        p = np.diag([1.0, -1e-16])
        z = psd_factor(p)
        assert z.shape[1] == 1


class TestOrderedSvd:
    def test_reorders_descending(self):
        _, s, _ = ordered_svd(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0])

    def test_zero_matrix(self):
        u, s, v = ordered_svd(np.zeros((2, 2)))
        assert np.allclose(s, 0.0)
        assert np.linalg.norm(u @ np.diag(s) @ v.T) <= 1e-14

    def test_defining_identity(self):
        rng = np.random.default_rng(85)
        m = rng.standard_normal((8, 5))
        u, s, v = ordered_svd(m)
        for i in range(5):
            assert np.linalg.norm(m @ v[:, i] - s[i] * u[:, i]) <= 1e-12 * s[0]
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) <= 1e-12 * np.linalg.norm(m)


def three_term(lower, diag, upper, x):
    """Tridiagonal product in the reference operation order: ``d x``, then
    ``+ up x[1:]``, then ``+ lo x[:-1]``."""
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    y = diag[:, None] * x
    if len(diag) > 1:
        y[:-1] += upper[:, None] * x[1:]
        y[1:] += lower[:, None] * x[:-1]
    return y[:, 0] if vec else y


class TestTridiagonalBitIdentity:
    """The tridiagonal kernels are shared by both adaptive drivers, so their
    results are pinned bitwise (``==``), not to a tolerance."""

    @pytest.mark.parametrize("n", [1, 2, 9, PANEL_ROWS, 2 * PANEL_ROWS + 3])
    def test_apply_matches_three_term_formula(self, n):
        rng = np.random.default_rng(90)
        lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        diag = rng.standard_normal(n)
        op = TridiagonalOperator(lower, diag, upper)
        block = rng.standard_normal((n, 3))
        for x in (rng.standard_normal(n), block, np.asfortranarray(block)):
            got = op.apply(x)
            want = three_term(lower, diag, upper, x)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got.flags.f_contiguous == want.flags.f_contiguous
            assert np.array_equal(op.apply_transpose(x), three_term(upper, diag, lower, x))

    @pytest.mark.parametrize("s", [0.3, -1.7, 0.5 + 2.0j])
    @pytest.mark.parametrize("shape", [(40,), (40, 3)])
    def test_shifted_solve_matches_gtsv(self, s, shape):
        rng = np.random.default_rng(91)
        n = shape[0]
        lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        diag = rng.standard_normal(n) - 4.0
        b = rng.standard_normal(shape)
        dtype = complex if isinstance(s, complex) else float
        rhs = np.array(b.reshape(n, -1), dtype=dtype, order="F")
        gtsv = sla.get_lapack_funcs("gtsv", (rhs,))
        _, _, _, want, info = gtsv(lower.astype(dtype), (diag - s).astype(dtype),
                                   upper.astype(dtype), rhs)
        assert info == 0
        got = TridiagonalOperator(lower, diag, upper).shifted_solve(s, b)
        assert got.shape == shape
        assert np.array_equal(got, want.reshape(shape))

    def test_shifted_solve_leaves_operator_unchanged(self):
        op = TridiagonalOperator([1.0, 2.0], [-4.0, -5.0, -6.0], [3.0, 0.5])
        before = op.to_dense()
        op.shifted_solve(0.7, np.ones(3))
        op.shifted_solve(0.7 + 1.0j, np.ones(3))
        assert np.array_equal(op.to_dense(), before)


def rod_solve_parts(n, s):
    """Real and imaginary parts of ``heat_rod(n)``'s shifted solve with its
    B, from ``TridiagonalOperator.shifted_solve`` and from a direct
    ``gtsv`` call with the rod's diagonals."""
    model = heat_rod(n)
    h2 = float(n + 1) ** 2
    rhs = np.array(model.B, dtype=complex, order="F")
    gtsv = sla.get_lapack_funcs("gtsv", (rhs,))
    off = np.full(n - 1, h2, dtype=complex)
    _, _, _, want, info = gtsv(off, np.full(n, -2.0 * h2) - s, off.copy(), rhs)
    assert info == 0
    got = model.A.shifted_solve(s, model.B)
    return [np.concatenate([x.real.ravel(), x.imag.ravel()]) for x in (got, want)]


def subnormal(x):
    return (x != 0) & (np.abs(x) < np.finfo(float).tiny)


def float_mode_is_ieee():
    return np.float64(1e-300) * 1e-10 != 0


class TestTridiagonalSubnormals:
    """On x86-64 Linux with glibc the tridiagonal solve flushes results
    below the smallest normal double to zero; elsewhere it is plain
    ``gtsv``. The frequency is one where the rod's solution decays into
    subnormals."""

    SHIFT = 3.66e6j

    @pytest.mark.skipif(not flushes_subnormals(),
                        reason="flush-to-zero is set on x86-64 Linux with glibc only")
    def test_subnormal_results_flushed(self):
        got, want = rod_solve_parts(2000, self.SHIFT)
        assert np.count_nonzero(subnormal(want)) > 50
        assert not np.any(subnormal(got))
        # flushed intermediates move only the entries within 2**52 of the
        # threshold, and those by about the threshold itself
        tiny = np.finfo(float).tiny
        far = np.abs(want) >= tiny / np.finfo(float).eps
        assert np.array_equal(got[far], want[far])
        assert np.max(np.abs(got - want)) <= 2 * tiny

    def test_gtsv_bitwise_without_flush(self, monkeypatch):
        monkeypatch.setattr(linalg, "_FENV", None)
        assert not flushes_subnormals()
        got, want = rod_solve_parts(2000, self.SHIFT)
        assert np.any(subnormal(want))
        assert np.array_equal(got, want)

    def test_subnormal_inputs_not_zeroed(self):
        # [[1, 0], [1, 1]] x = b gives x = [b0, b1 - b0], both normal here
        b = np.array([3e-308, -1e-309])
        op = TridiagonalOperator([1.0], [1.0, 1.0], [0.0])
        assert np.array_equal(op.shifted_solve(0.0, b), np.array([b[0], b[1] - b[0]]))

    def test_float_mode_restored(self):
        assert float_mode_is_ieee()
        op = TridiagonalOperator([1.0], [-1.0, -1.0], [1.0])
        op.shifted_solve(0.5j, np.ones(2))
        assert float_mode_is_ieee()
        with pytest.raises(ShiftSolveFailure):
            op.shifted_solve(0.0, np.ones(2))
        assert float_mode_is_ieee()


class TestOperators:
    def test_dense_shifted_solve_consistency(self):
        rng = np.random.default_rng(10)
        a = random_hurwitz(14, 44)
        op = DenseOperator(a)
        b = rng.standard_normal(14)
        for s in (0.0, 1.7, 2.0 + 3.0j):
            x = op.shifted_solve(s, b)
            assert np.linalg.norm((a - s * np.eye(14)) @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("n", [1, 2, 8, 60])
    def test_dense_shifted_solve_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        a = random_hurwitz(n, n)
        op = DenseOperator(a)
        for s in (0.0, 0.7, 2.0 - 3.0j):
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                      rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))):
                want = sla.solve(a - s * np.eye(n), b)
                got = op.shifted_solve(s, b)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        a[:, 0] = 0.0
        a[0, 0] = -1.5  # A + 1.5 I has a zero first column
        with pytest.raises(ShiftSolveFailure, match="singular"):
            DenseOperator(a).shifted_solve(-1.5, np.ones(n))

    def test_one_state_tridiagonal_solve(self):
        op = TridiagonalOperator([], [-4.0], [])
        assert np.array_equal(op.shifted_solve(1.0, np.array([10.0])), [-2.0])
        x = op.shifted_solve(-4.0 + 2.0j, np.ones((1, 2)))
        assert np.array_equal(x, np.full((1, 2), 1.0 / -2.0j))
        with pytest.raises(ShiftSolveFailure, match="singular"):
            op.shifted_solve(-4.0, np.ones(1))

    def test_tridiagonal_agrees_with_dense(self):
        rng = np.random.default_rng(11)
        n = 40
        lower = rng.standard_normal(n - 1)
        upper = rng.standard_normal(n - 1)
        diag = -5.0 - rng.random(n)
        op = TridiagonalOperator(lower, diag, upper)
        dense = op.to_dense()
        x = rng.standard_normal((n, 3))
        assert np.allclose(op.apply(x), dense @ x, atol=1e-12)
        assert np.allclose(op.apply_transpose(x), dense.T @ x, atol=1e-12)
        for s in (0.4, 1.0 + 2.0j):
            got = op.shifted_solve(s, x)
            want = np.linalg.solve(dense - s * np.eye(n), x)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-12

    def test_transpose_roundtrip(self):
        op = TridiagonalOperator([1.0, 2.0], [-4.0, -5.0, -6.0], [3.0, 0.5])
        assert np.allclose(op.transpose().to_dense(), op.to_dense().T)

    def test_singular_shift_rejected(self):
        op = DenseOperator(np.diag([-1.0, -2.0]))
        with pytest.raises(ShiftSolveFailure):
            op.shifted_solve(-1.0, np.ones(2))
