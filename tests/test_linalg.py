import sys
import threading
import tracemalloc

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
    LinearOperator,
    TridiagonalOperator,
    cgs2,
    flushes_subnormals,
    ordered_svd,
    orthonormalize,
    psd_factor,
    solve_lyapunov_dense,
    solve_lyapunov_pair,
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


def pair_solve(a, g):
    return solve_lyapunov_pair(a, g, g)[0]


class TestTrsylBinding:
    @pytest.mark.parametrize("n", [1, 2, 65, 300])
    def test_bitwise_equal_to_scipy_trsyl(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        # a shifted skew-symmetric matrix: a conjugate pair per 2x2 block
        t, u = sla.schur(m - m.T - np.eye(n), output="real")
        assert np.count_nonzero(np.diag(t, -1)) == n // 2
        g = rng.standard_normal((n, n))
        ghat = u.T @ (g + g.T) @ u
        x, scale, info = sla.get_lapack_funcs("trsyl", (t, ghat))(t, t, -ghat, tranb="C")
        y = np.asfortranarray(-ghat)
        assert linalg._trsyl(t, y) == (scale, info)
        assert np.array_equal(y, x)

    def test_rejects_arrays_it_cannot_write_in_place(self):
        t = np.asfortranarray(np.diag([-1.0, -2.0]))
        with pytest.raises(ValueError, match="Fortran-ordered"):
            linalg._trsyl(t, np.ones((2, 2))[:, ::-1])
        with pytest.raises(ValueError, match="Fortran-ordered"):
            linalg._trsyl(t, np.ones((3, 3), order="F"))
        frozen = np.ones((2, 2), order="F")
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            linalg._trsyl(t, frozen)


class TestGtsvBinding:
    @pytest.mark.parametrize("n", [1, 2, 500])
    @pytest.mark.parametrize("s", [0.3, 0.5 + 2.0j])
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_shifted_solve_bitwise_equal_to_scipy_gtsv(self, n, s, nrhs):
        rng = np.random.default_rng(n + nrhs)
        lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        diag = rng.standard_normal(n) - 4.0
        b = rng.standard_normal((n, nrhs))
        dtype = complex if isinstance(s, complex) else float
        shifted = (diag - s).astype(dtype)
        rhs = np.array(b, dtype=dtype, order="F")
        if n == 1:
            # scipy's f2py wrapper takes no empty off-diagonals; one state
            # is a division
            want = rhs / shifted[0]
        else:
            gtsv = sla.get_lapack_funcs("gtsv", (rhs,))
            _, _, _, want, info = gtsv(lower.astype(dtype), shifted, upper.astype(dtype), rhs)
            assert info == 0
        got = TridiagonalOperator(lower, diag, upper).shifted_solve(s, b)
        assert got.dtype == want.dtype
        if n == 1 and dtype is complex:
            # zgtsv's complex division may round the last bit differently
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("b", [np.ones(2), np.ones(2, dtype=complex)],
                             ids=["real", "complex"])
    def test_singular_shift_raises(self, b):
        # the shifted matrix [[0, 0], [0, -1]] has a zero first pivot
        op = TridiagonalOperator([0.0], [-1.0, -2.0], [0.0])
        with pytest.raises(ShiftSolveFailure, match="singular"):
            op.shifted_solve(-1.0, b)
        with pytest.raises(ShiftSolveFailure, match="singular"):
            TridiagonalOperator([], [-1.0], []).shifted_solve(-1.0, b[:1])

    def test_rejects_arrays_it_cannot_write_in_place(self):
        diag = np.full(3, -4.0)
        off = np.ones(2)
        with pytest.raises(ValueError, match="Fortran-ordered"):
            linalg._gtsv(off.copy(), diag.copy(), off.copy(), np.ones((3, 2))[:, ::-1])
        with pytest.raises(ValueError, match="Fortran-ordered"):
            linalg._gtsv(off.copy(), diag.copy(), off.copy(), np.ones((4, 1), order="F"))
        with pytest.raises(ValueError, match="Fortran-ordered"):
            linalg._gtsv(off.copy(), diag.astype(complex), off.copy(), np.ones((3, 1)))
        swapped = diag.astype(diag.dtype.newbyteorder())
        with pytest.raises(ValueError, match="Fortran-ordered"):
            linalg._gtsv(off.astype(swapped.dtype), swapped, off.astype(swapped.dtype),
                         np.ones((3, 1), dtype=swapped.dtype, order="F"))
        frozen = np.ones((3, 1), order="F")
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            linalg._gtsv(off.copy(), diag.copy(), off.copy(), frozen)


class TestOnTwoThreads:
    def test_runs_one_callable_on_a_joined_worker(self):
        threads = []
        before = threading.active_count()
        got = linalg._on_two_threads(
            lambda: threads.append(threading.current_thread()) or "here",
            lambda: threads.append(threading.current_thread()) or "there")
        assert got == ("here", "there")
        assert threading.active_count() == before
        assert threading.current_thread() in threads
        assert len(set(threads)) == 2

    def test_caller_error_wins_after_the_worker_ends(self):
        finished = threading.Event()

        def slow_failure():
            finished.wait(0.05)
            finished.set()
            raise KeyError("worker")

        before = threading.active_count()
        with pytest.raises(ValueError, match="caller"):
            linalg._on_two_threads(lambda: int("caller"), slow_failure)
        assert finished.is_set()
        assert threading.active_count() == before


class TestSolveLyapunovPair:
    @staticmethod
    def operands(n, symmetric):
        rng = np.random.default_rng(n)
        a = random_hurwitz(n, n)
        if symmetric:
            a = a + a.T
        b = rng.standard_normal((n, 2))
        c = rng.standard_normal((3, n))
        return a, b @ b.T, c.T @ c

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_bitwise_equal_to_two_single_solves(self, symmetric, monkeypatch):
        a, gp, gq = self.operands(100, symmetric)
        schur_forms = []
        hurwitz_schur = linalg._hurwitz_schur
        monkeypatch.setattr(linalg, "_hurwitz_schur",
                            lambda m: schur_forms.append(m) or hurwitz_schur(m))
        p, q = solve_lyapunov_pair(a, gp, gq)
        # a symmetric A gives both equations one Schur form
        assert len(schur_forms) == (1 if symmetric else 2)
        assert np.array_equal(p, solve_lyapunov_dense(a, gp))
        assert np.array_equal(q, solve_lyapunov_dense(a.T, gq))

    def test_one_back_substitution_runs_on_a_joined_worker(self, monkeypatch):
        a, gp, gq = self.operands(40, False)
        threads = []
        trsyl = linalg._trsyl
        monkeypatch.setattr(linalg, "_trsyl", lambda t, y: threads.append(
            threading.current_thread()) or trsyl(t, y))
        before = threading.active_count()
        solve_lyapunov_pair(a, gp, gq)
        assert threading.active_count() == before
        assert len(threads) == 2
        assert threading.current_thread() in threads
        assert threads[0] is not threads[1]

    @pytest.mark.parametrize("solve", [solve_lyapunov_dense, pair_solve])
    def test_error_messages(self, solve):
        with pytest.raises(NonHurwitzError,
                           match=r"^A has an eigenvalue with Re = 1\.000e\+00 >= 0$"):
            solve(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(SingularSeparationError,
                           match=r"^eigenvalue pair with lambda_i \+ lambda_j ~ 0; "
                                 r"equation singular$"):
            solve(np.array([[-1e-14, 1.0], [-1.0, -1e-14]]), np.eye(2))
        with pytest.raises(ValueError, match=r"^G must match A"):
            solve(-np.eye(2), np.eye(3))
        # the operator wrapping A checks that it is square
        with pytest.raises(ValueError,
                           match=r"^expected a square matrix, got shape \(2, 3\)$"):
            solve(-np.ones((2, 3)), np.eye(2))

    @pytest.mark.parametrize("failure", ["info", "raise"])
    def test_failing_worker_equation_raises_in_the_caller(self, failure, monkeypatch):
        a, gp, gq = self.operands(40, True)
        trsyl = linalg._trsyl

        def failing_off_the_caller(t, y):
            if threading.current_thread() is threading.main_thread():
                return trsyl(t, y)
            if failure == "raise":
                raise ValueError("worker failed")
            return 1.0, 1

        monkeypatch.setattr(linalg, "_trsyl", failing_off_the_caller)
        before = threading.active_count()
        expected = ((SingularSeparationError, "trsyl perturbed nearly-common")
                    if failure == "info" else (ValueError, "worker failed"))
        with pytest.raises(expected[0], match=expected[1]):
            solve_lyapunov_pair(a, gp, gq)
        assert threading.active_count() == before

    def test_concurrent_callers_get_their_own_results(self):
        cases = [self.operands(100 + k, k % 2 == 0) for k in range(4)]
        expected = [(solve_lyapunov_dense(a, gp), solve_lyapunov_dense(a.T, gq))
                    for a, gp, gq in cases]
        results = [None] * len(cases)

        def run(i):
            for _ in range(3):
                results[i] = solve_lyapunov_pair(*cases[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for (p, q), (p_ref, q_ref) in zip(results, expected):
            assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)


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

    def test_eigenvalues_read_off_t(self):
        # the diagonal, and a +- i sqrt(|b|) sqrt(|c|) per block, in the
        # order eigvals(T) gives them
        for n in range(2, 41):
            t = sla.schur(np.random.default_rng(n).standard_normal((n, n)), output="real")[0]
            want = np.linalg.eigvals(t)
            got = linalg._schur_eigenvalues(t)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_eigenvalues_of_a_diagonal_t_are_bitwise(self):
        t = heat_rod(300).A.schur()[0]
        assert np.array_equal(linalg._schur_eigenvalues(t), np.linalg.eigvals(t))

    def test_eigenvalues_of_a_block_with_overflowing_product(self):
        # b c = -2**2000 overflows; each square root is exact
        big = 2.0**1000
        t = np.array([[-1.0, big], [-big, -1.0]])
        assert np.array_equal(linalg._schur_eigenvalues(t), [-1.0 + big * 1j, -1.0 - big * 1j])

    def test_schur_solves_no_eigenvalue_problem(self, monkeypatch):
        op = DenseOperator(random_hurwitz(60, 1))
        want = np.linalg.eigvals(sla.schur(op.to_dense(), output="real")[0])
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: pytest.fail("eigvals called"))
        op.schur()
        assert np.max(np.abs(op.eigenvalues - want)) <= 1e-15 * np.max(np.abs(want))


class TestSolveSylvesterSkinny:
    def test_scalar(self):
        x = solve_sylvester_skinny(np.array([[-2.0]]), np.array([[-3.0]]),
                                   np.array([[10.0]]), np.array([[1.0]]))
        assert np.allclose(x, [[2.0]])

    @pytest.mark.parametrize("a", [np.diag([-1.0, -2.0, -3.0]), heat_rod(3).A],
                             ids=["dense", "tridiagonal"])
    def test_zero_columns(self, a):
        x = solve_sylvester_skinny(a, np.zeros((0, 0)), np.zeros((3, 1)), np.zeros((1, 0)))
        assert x.shape == (3, 0)

    def test_diagonal_decoupling(self):
        a = np.diag([-1.0, -4.0, -9.0])
        m = np.diag([-2.0, -5.0])
        f = np.arange(1.0, 7.0).reshape(3, 2)
        x = solve_sylvester_skinny(a, m, f, np.eye(2))
        ai = np.array([-1.0, -4.0, -9.0])
        mj = np.array([-2.0, -5.0])
        assert np.allclose(x, -f / (ai[:, None] + mj[None, :]))

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(7)
        a = random_hurwitz(20, 70)
        m = random_hurwitz(4, 71)
        f = rng.standard_normal((20, 4))
        x = solve_sylvester_skinny(a, m, f, np.eye(4))
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
            x = solve_sylvester_skinny(a, m, f, np.eye(r))
            expected = kron_sylvester(a, m, f)
            assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_real_result_for_complex_pair_coefficients(self):
        # M with complex-conjugate eigenvalues; solution must stay real
        rng = np.random.default_rng(8)
        a = random_hurwitz(15, 80)
        m = np.array([[-1.0, 2.0, 0.3], [-2.0, -1.0, 0.1], [0.0, 0.0, -3.0]])
        f = rng.standard_normal((15, 3))
        x = solve_sylvester_skinny(a, m, f, np.eye(3))
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
        x_op = solve_sylvester_skinny(op, m, f, np.eye(3))
        x_dense = solve_sylvester_skinny(op.to_dense(), m, f, np.eye(3))
        assert np.allclose(x_op, x_dense, rtol=0, atol=1e-12 * np.linalg.norm(x_dense))

    def test_spectrum_overlap_rejected(self):
        a = np.diag([-1.0, -2.0])
        m = np.diag([1.0, -5.0])  # eigenvalue +1 of M collides with -1 of A
        with pytest.raises(SpectrumOverlapError, match="eigenvalue -1 of -M"):
            solve_sylvester_skinny(a, m, np.ones((2, 1)), np.ones((1, 2)))

    def test_complex_overlap_names_the_shifted_eigenvalue(self):
        # -M has eigenvalues +-1j, as A has; the pair is solved at the shift
        # of one of them, which the message names in full, not its real part
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        m = np.array([[0.0, 2.0], [-0.5, 0.0]])
        with pytest.raises(SpectrumOverlapError, match=r"eigenvalue 0-1j of -M$"):
            solve_sylvester_skinny(a, m, np.ones((2, 1)), np.ones((1, 2)))

    def test_f_is_the_product_of_its_factors(self):
        rng = np.random.default_rng(10)
        op = heat_rod(30).A
        m = np.array([[-1.0, 2.0, 0.3], [-2.0, -1.0, 0.1], [0.0, 0.0, -3.0]])
        g, h = rng.standard_normal((30, 2)), rng.standard_normal((2, 3))
        assert np.array_equal(solve_sylvester_skinny(op, m, g, h),
                              solve_sylvester_skinny(op, m, g @ h, np.eye(3)))

    @pytest.mark.parametrize("g_shape, h_shape", [((4, 2), (3, 3)), ((5, 2), (2, 3)),
                                                  ((4, 2), (2, 2)), ((4,), (1, 3))])
    def test_mismatched_factors_rejected(self, g_shape, h_shape):
        m = np.diag([-1.0, -2.0, -3.0])
        with pytest.raises(ValueError, match="G and H must be"):
            solve_sylvester_skinny(heat_rod(4).A, m, np.ones(g_shape), np.ones(h_shape))


    def test_non_square_m_rejected(self):
        with pytest.raises(ValueError, match=r"^M must be square, got shape \(2, 3\)$"):
            solve_sylvester_skinny(heat_rod(4).A, np.ones((2, 3)), np.ones((4, 1)),
                                   np.ones((1, 2)))


class TestSolveSylvesterSymmetric:
    """An exactly symmetric M takes its Schur form from eigh: r independent
    real shifted solves, in two halves on two threads."""

    @staticmethod
    def symmetric_hurwitz(r, seed):
        m = random_hurwitz(r, seed)
        return (m + m.T) / 2

    @staticmethod
    def no_schur(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a symmetric M took the general Schur form")

        monkeypatch.setattr(linalg.sla, "schur", refuse)

    @pytest.mark.parametrize("r", [0, 1, 2, 5, 7])
    @pytest.mark.parametrize("kind", ["dense", "tridiagonal"])
    def test_matches_kronecker_oracle(self, kind, r, monkeypatch):
        rng = np.random.default_rng(100 + r)
        n = 30
        if kind == "dense":
            a = random_hurwitz(n, 200 + r)
        else:  # A itself need not be symmetric
            a = TridiagonalOperator(rng.standard_normal(n - 1), -3.0 - rng.random(n),
                                    rng.standard_normal(n - 1))
        m = self.symmetric_hurwitz(r, 300 + r)
        g, h = rng.standard_normal((n, 2)), rng.standard_normal((2, r))
        self.no_schur(monkeypatch)
        x = solve_sylvester_skinny(a, m, g, h)
        dense = a if kind == "dense" else a.to_dense()
        expected = kron_sylvester(dense, m, g @ h)
        assert x.shape == (n, r)
        assert np.linalg.norm(x - expected) <= 1e-12 * max(np.linalg.norm(expected), 1.0)

    def test_threads_do_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = heat_rod(500).A
        m = self.symmetric_hurwitz(7, 5)
        g, h = rng.standard_normal((500, 1)), rng.standard_normal((1, 7))
        threaded = solve_sylvester_skinny(a, m, g, h)
        halves = []
        monkeypatch.setattr(linalg, "_on_two_threads",
                            lambda here, there: halves.append(1) or (here(), there()))
        assert np.array_equal(solve_sylvester_skinny(a, m, g, h), threaded)
        assert halves == [1]

    @pytest.mark.parametrize("make", [DenseOperator, lambda a: TridiagonalOperator(
        np.zeros(len(a) - 1), np.diag(a), np.zeros(len(a) - 1))], ids=["dense", "tridiagonal"])
    # eigh sorts M's eigenvalues: the largest is solved on the worker, the
    # smallest on the calling thread
    @pytest.mark.parametrize("eigs, named", [
        ([1.0, -7.0, -6.0, -5.0], "-1"),
        ([-4.0, -6.0, -10.0, -5.0], "10"),
    ], ids=["worker-half", "caller-half"])
    def test_overlap_in_either_half_names_its_eigenvalue(self, make, eigs, named,
                                                         monkeypatch):
        # A + lam I is singular for lam = 1 (A's -1) and lam = -10 (A's 10)
        a = make(np.diag([-1.0, -2.0, -3.0, 10.0]))
        threads = []
        helper = linalg._on_two_threads

        def recording(here, there):
            def on(half):
                threads.append(threading.current_thread())
                return half()
            return helper(lambda: on(here), lambda: on(there))

        monkeypatch.setattr(linalg, "_on_two_threads", recording)
        before = threading.active_count()
        with pytest.raises(SpectrumOverlapError, match=f"^spectrum of A meets eigenvalue "
                                                       f"{named} of -M$"):
            solve_sylvester_skinny(a, np.diag(eigs), np.ones((4, 1)), np.ones((1, 4)))
        assert threading.active_count() == before
        assert len(set(threads)) == 2

    def test_each_half_holds_only_its_own_solve(self):
        # F is never formed: the peak is the n-by-r workspace beside the
        # result, or beside each half's four n-vectors (the solve's
        # right-hand side, shifted diagonal and two off-diagonal casts) and
        # its finiteness mask, 8 and 12.25 n-vectors for r = 4
        n, r = 100_000, 4
        a = heat_rod(n).A
        rng = np.random.default_rng(6)
        m = self.symmetric_hurwitz(r, 7)
        g, h = rng.standard_normal((n, 1)), rng.standard_normal((1, r))
        vector = 8 * n
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            x = solve_sylvester_skinny(a, m, g, h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert x.shape == (n, r)
        assert peak <= max(2 * r, r + 2 * 4) * vector + 2 * n + 65536

    def test_concurrent_callers_get_their_own_results(self):
        # each call's two halves write disjoint columns of its own workspace
        rng = np.random.default_rng(9)
        cases = [(heat_rod(300 + 50 * k).A, self.symmetric_hurwitz(3 + k, 10 + k),
                  rng.standard_normal((300 + 50 * k, 1)), rng.standard_normal((1, 3 + k)))
                 for k in range(4)]
        expected = [solve_sylvester_skinny(*case) for case in cases]
        results = [None] * len(cases)

        def run(i):
            for _ in range(3):
                results[i] = solve_sylvester_skinny(*cases[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_non_symmetric_m_keeps_the_schur_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "_solve_decoupled",
                            lambda *args: calls.append(args))
        m = self.symmetric_hurwitz(3, 8)
        m[0, 1] = np.nextafter(m[0, 1], 0.0)  # one unit in the last place off
        solve_sylvester_skinny(heat_rod(20).A, m, np.ones((20, 1)), np.ones((1, 3)))
        assert calls == []


class TestOrthonormalize:
    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a 2-D array, got shape \(3,\)$"):
            orthonormalize(np.ones(3))

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

    def test_no_basis_is_the_empty_basis(self):
        # two row panels and one dependent column, which both calls drop
        m = np.random.default_rng(52).standard_normal((PANEL_ROWS + 9, 6))
        m[:, 5] = m[:, :2] @ [1.0, -2.0]
        q = orthonormalize(m)
        assert q.shape == (PANEL_ROWS + 9, 5)
        assert np.array_equal(q, orthonormalize(m, np.zeros((PANEL_ROWS + 9, 0))))


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
        ext = orthonormalize(new, q)
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
        ext = orthonormalize(new, q)
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
        ext = orthonormalize(new, q)
        expected = orthonormalize(np.hstack([q, new])).shape[1] - q.shape[1]
        assert ext.shape[1] == expected == 3
        full = np.hstack([q, ext])
        assert np.linalg.norm(full.T @ full - np.eye(11), 2) <= 1e-12
        assert np.linalg.norm(new - full @ (full.T @ new)) <= 1e-12 * np.linalg.norm(new)

    def test_empty_q_orthonormalizes_new(self):
        rng = np.random.default_rng(74)
        new = rng.standard_normal((40, 5))
        ext = orthonormalize(new, np.zeros((40, 0)))
        assert ext.shape == (40, 5)
        assert np.allclose(ext.T @ ext, np.eye(5), atol=1e-12)
        assert max_principal_angle(ext, new) <= 1e-10

    def test_new_inside_span_adds_nothing(self):
        q = orthonormal_columns(30, 4, 75)
        ext = orthonormalize(q @ np.arange(8.0).reshape(4, 2), q)
        assert ext.shape == (30, 0)

    @pytest.mark.parametrize("k", [0, 3])
    def test_zero_new_gives_empty_extension(self, k):
        q = orthonormal_columns(10, k, 76) if k else np.zeros((10, 0))
        assert orthonormalize(np.zeros((10, 2)), q).shape == (10, 0)
        assert orthonormalize(np.zeros((10, 0)), q).shape == (10, 0)

    def test_non_finite_input_rejected(self):
        q = orthonormal_columns(10, 3, 77)
        new = np.ones((10, 2))
        bad_new = new.copy()
        bad_new[4, 1] = np.nan
        with pytest.raises(ValueError):
            orthonormalize(bad_new, q)
        bad_q = q.copy()
        bad_q[2, 0] = np.inf
        with pytest.raises(ValueError):
            orthonormalize(new, bad_q)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize(np.ones((4, 1)), np.zeros((5, 1)))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="^row dimension must be >= 1$"):
            orthonormalize(np.zeros((0, 1)), np.zeros((0, 0)))

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
        ext = orthonormalize(new, q)
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
        ext = orthonormalize(new, q)
        assert ext.shape[1] == expected == 3
        full = np.hstack([q, ext])
        assert np.linalg.norm(full.T @ full - np.eye(11), 2) <= 1e-12


    def test_result_formed_in_out(self):
        # the spare columns of a Fortran-ordered buffer hold the result
        rng = np.random.default_rng(86)
        buf = np.empty((PANEL_ROWS + 9, 10), order="F")
        buf[:, :3] = orthonormal_columns(PANEL_ROWS + 9, 3, 87)
        new = rng.standard_normal((PANEL_ROWS + 9, 4))
        ext = orthonormalize(new, buf[:, :3], out=buf[:, 3:7])
        assert ext.shape == (PANEL_ROWS + 9, 4)
        assert np.shares_memory(ext, buf[:, 3:7])
        assert np.allclose(ext, orthonormalize(new, buf[:, :3]), rtol=0, atol=1e-13)
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

    @pytest.mark.parametrize("n", [7, 2 * PANEL_ROWS + 300])
    def test_projected_in_place(self, n):
        # out may be x itself: the result is the fresh remainder's, bitwise
        rng = np.random.default_rng(88)
        q = orthonormal_columns(n, 5, 89)
        x = np.asfortranarray(q @ rng.standard_normal((5, 4)) + rng.standard_normal((n, 4)))
        fresh = cgs2(q, x)
        in_place = cgs2(q, x, out=x)
        assert in_place[1] is x
        assert all(np.array_equal(a, b) for a, b in zip(fresh, in_place))


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

    def test_zero_matrix_gives_empty_factor(self):
        z = psd_factor(np.zeros((3, 3)))
        assert z.shape == (3, 0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"^P must be square, got shape \(2, 3\)$"):
            psd_factor(np.ones((2, 3)))


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

    @pytest.mark.parametrize("n", [1, 9, 2 * PANEL_ROWS + 3])
    def test_apply_into_out_is_bitwise(self, n):
        # out may be the spare columns of a Fortran-ordered basis buffer; the
        # product is written there and returned as that very array
        rng = np.random.default_rng(93)
        op = TridiagonalOperator(rng.standard_normal(n - 1), rng.standard_normal(n),
                                 rng.standard_normal(n - 1))
        buf = np.full((n, 7), np.nan, order="F")
        x = np.asfortranarray(rng.standard_normal((n, 3)))
        for method in ("apply", "apply_transpose"):
            out = buf[:, 2:5]
            got = getattr(op, method)(x, out=out)
            assert got is out
            assert np.array_equal(out, getattr(op, method)(x))
            assert np.isnan(buf[:, :2]).all() and np.isnan(buf[:, 5:]).all()
        vec = np.empty(n)
        assert np.array_equal(op.apply(x[:, 0], out=vec), op.apply(x[:, 0]))
        assert np.array_equal(vec, op.apply(x[:, 0]))
        with pytest.raises(ValueError, match="out must have shape"):
            op.apply(x, out=buf)

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

    @pytest.mark.skipif(not flushes_subnormals(),
                        reason="flush-to-zero is set on x86-64 Linux with glibc only")
    def test_subnormal_results_flushed_on_a_worker_thread(self):
        here, there = linalg._on_two_threads(lambda: rod_solve_parts(2000, self.SHIFT),
                                             lambda: rod_solve_parts(2000, self.SHIFT))
        for got, want in (here, there):
            assert np.count_nonzero(subnormal(want)) > 50
            assert not np.any(subnormal(got))
        assert np.array_equal(here[0], there[0])
        assert float_mode_is_ieee()

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

    def test_dense_apply_into_out(self):
        # out receives a copy; the C-ordered product itself is returned, so
        # products with it round as they do without out
        rng = np.random.default_rng(12)
        a = rng.standard_normal((30, 30))
        op = DenseOperator(a)
        buf = np.full((30, 6), np.nan, order="F")
        x = np.asfortranarray(rng.standard_normal((30, 3)))
        for method, want in (("apply", a @ x), ("apply_transpose", a.T @ x)):
            out = buf[:, 1:4]
            got = getattr(op, method)(x, out=out)
            assert got is not out and got.flags.c_contiguous
            assert np.array_equal(got, want) and np.array_equal(out, want)
            assert np.isnan(buf[:, :1]).all() and np.isnan(buf[:, 4:]).all()
        with pytest.raises(ValueError, match="out must have shape"):
            op.apply(x[:, :1], out=buf[:, :3])

    def test_one_state_tridiagonal_solve(self):
        op = TridiagonalOperator([], [-4.0], [])
        assert np.array_equal(op.shifted_solve(1.0, np.array([10.0])), [-2.0])
        x = op.shifted_solve(-4.0 + 2.0j, np.ones((1, 2)))
        assert np.array_equal(x, np.full((1, 2), 1.0 / -2.0j))
        with pytest.raises(ShiftSolveFailure, match="singular"):
            op.shifted_solve(-4.0, np.ones(1))

    @pytest.mark.parametrize("op", [DenseOperator([[-4.0]]), TridiagonalOperator([], [-4.0], [])],
                             ids=["dense", "tridiagonal"])
    @pytest.mark.parametrize("b", [np.ones(1), np.ones((1, 2), dtype=complex)],
                             ids=["real", "complex"])
    def test_one_state_singular_shift_raises(self, op, b):
        with pytest.raises(ShiftSolveFailure, match=r"\(A - sI\) singular for s = \(-4\+0j\)"):
            op.shifted_solve(-4.0, b)

    def test_one_state_spectrum_and_dense(self):
        op = TridiagonalOperator([], [-3.5], [])
        assert op.hurwitz() is True
        assert TridiagonalOperator([], [0.0], []).hurwitz() is False
        assert np.array_equal(op.to_dense(), [[-3.5]])

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

    @pytest.mark.parametrize("lower, upper, symmetric", [
        ([1.0, 2.0], [1.0, 2.0], True),
        ([1.0, 2.0], [2.0, 1.0], False),
        ([0.0, 2.0], [-0.0, 2.0], True),  # -0.0 equals 0.0
        ([1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)], False),
        ([], [], True),
    ], ids=["equal", "swapped", "signed-zero", "one-ulp", "one-state"])
    def test_tridiagonal_symmetric(self, lower, upper, symmetric):
        op = TridiagonalOperator(lower, -4.0 - np.arange(len(lower) + 1.0), upper)
        assert op.symmetric is symmetric
        assert op.transpose().symmetric is symmetric
        assert symmetric == np.array_equal(op.to_dense(), op.to_dense().T)

    @pytest.mark.parametrize("matrix, symmetric", [
        ([[-2.0, 1.0], [1.0, -3.0]], True),
        ([[-2.0, 1.0], [0.5, -3.0]], False),
        ([[-2.0, 0.0, 1.0], [-0.0, -3.0, 0.0], [1.0, -0.0, -4.0]], True),
        ([[-2.0]], True),
    ], ids=["symmetric", "non-symmetric", "signed-zeros", "one-state"])
    def test_dense_symmetric(self, matrix, symmetric, monkeypatch):
        op = DenseOperator(matrix)
        monkeypatch.setattr(DenseOperator, "to_dense", lambda self: pytest.fail("copied"))
        assert op.symmetric is symmetric
        assert op.transpose().symmetric is symmetric

    def test_symmetric_is_cached(self):
        op = heat_rod(50).A
        assert op.symmetric is True
        op._up = -op._up  # the cached fact is not recomputed
        assert op.symmetric is True

    def test_symmetric_defaults_to_unknown(self):
        # an operator that does not override it makes no claim, even when
        # its dense form is symmetric
        class Opaque(LinearOperator):
            n = 2
            apply = apply_transpose = shifted_solve = transpose = None

            def to_dense(self):
                return -np.eye(2)

        assert Opaque().symmetric is False

    @pytest.mark.parametrize("make, message", [
        (lambda: DenseOperator(np.ones(3)), r"expected a square matrix, got shape \(3,\)"),
        (lambda: DenseOperator(np.ones((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
        (lambda: DenseOperator(np.zeros((0, 0))), "operator dimension must be >= 1"),
        (lambda: DenseOperator([[-1.0, np.nan], [0.0, -1.0]]), "matrix entries must be finite"),
        (lambda: TridiagonalOperator([], [], []), "diag must be a 1-D array of length >= 1"),
        (lambda: TridiagonalOperator([], -np.eye(2), []),
         "diag must be a 1-D array of length >= 1"),
        (lambda: TridiagonalOperator([1.0], [-1.0, -2.0, -3.0], [1.0, 1.0]),
         "lower/upper diagonals must have length n - 1"),
        (lambda: TridiagonalOperator([1.0, 1.0], [-1.0, -2.0, -3.0], [1.0]),
         "lower/upper diagonals must have length n - 1"),
        (lambda: TridiagonalOperator([1.0], [-1.0, np.inf], [1.0]), "matrix entries must be finite"),
        (lambda: TridiagonalOperator([np.nan], [-1.0, -2.0], [1.0]), "matrix entries must be finite"),
        (lambda: TridiagonalOperator([1.0], [-1.0, -2.0], [np.nan]), "matrix entries must be finite"),
    ], ids=["dense-1d", "dense-non-square", "dense-empty", "dense-non-finite",
            "tri-empty", "tri-2d-diag", "tri-short-lower", "tri-short-upper",
            "tri-non-finite-diag", "tri-non-finite-lower", "tri-non-finite-upper"])
    def test_constructor_rejects(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("op", [DenseOperator([[1e-300]]), TridiagonalOperator([], [1e-300], [])],
                             ids=["dense", "tridiagonal"])
    def test_non_finite_solution_raises(self, op):
        # 1e300 / 1e-300 overflows to inf
        with pytest.raises(ShiftSolveFailure, match="^shifted solve produced non-finite values$"):
            op.shifted_solve(0.0, np.array([1e300]))

    def test_singular_shift_rejected(self):
        op = DenseOperator(np.diag([-1.0, -2.0]))
        with pytest.raises(ShiftSolveFailure):
            op.shifted_solve(-1.0, np.ones(2))
