import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import tibt
from tibt.errors import DenseInfeasibleError, RepeatedPolesError
from tibt.linalg import LinearOperator, TridiagonalOperator


def scalar_model():
    return tibt.StateSpaceModel(np.array([[-1.0]]), np.array([[1.0]]),
                                np.array([[1.0]]))


class TestEvalTransfer:
    def test_scalar_at_origin(self):
        assert np.allclose(tibt.eval_transfer(scalar_model(), 0.0), 1.0)

    def test_modal_example_at_origin(self):
        h = tibt.eval_transfer(tibt.illustrative4(), 0.0)
        # diagonal formula: 10 + 5 + 100 + 50
        assert np.allclose(h, 165.0)

    def test_matches_pole_residue_sum(self):
        model = tibt.random_stable(9, 2, 2, seed=21)
        pr = tibt.pole_residue(model)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = complex(rng.uniform(0.1, 3.0), rng.uniform(-20.0, 20.0))
            h = tibt.eval_transfer(model, s)
            hp = pr.evaluate(s)
            assert np.linalg.norm(h - hp) <= 1e-8 * np.linalg.norm(h)

    def test_derivative_matches_finite_differences(self):
        model = tibt.random_stable(6, 1, 1, seed=3)
        s = 1.0 + 0.5j
        d = tibt.eval_transfer_derivative(model, s)
        eps = 1e-6
        fd = (tibt.eval_transfer(model, s + eps) - tibt.eval_transfer(model, s - eps)) / (2 * eps)
        assert np.linalg.norm(d - fd) <= 1e-5 * np.linalg.norm(d)


class TestPoleResidue:
    def test_scalar(self):
        pr = tibt.pole_residue(scalar_model())
        assert np.allclose(pr.poles, [-1.0])
        assert np.allclose(pr.left[0] @ np.conj(pr.right[0]), 1.0)

    def test_modal_example(self):
        pr = tibt.pole_residue(tibt.illustrative4())
        order = np.argsort(-pr.poles.real)
        assert np.allclose(np.sort(pr.poles.real)[::-1], [-0.1, -0.2, -100.0, -200.0])
        products = [float(np.real(pr.left[i] @ np.conj(pr.right[i]))) for i in order]
        assert np.allclose(products, [1.0, 1.0, 1.0e4, 1.0e4])

    def test_reconstruction(self):
        model = tibt.random_stable(6, 2, 1, seed=8)
        pr = tibt.pole_residue(model)
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = complex(rng.uniform(0.5, 2.0), rng.uniform(-5.0, 5.0))
            h = tibt.eval_transfer(model, s)
            assert np.linalg.norm(pr.evaluate(s) - h) <= 1e-8 * np.linalg.norm(h)

    def test_conjugate_closure(self):
        model = tibt.random_stable(8, 1, 1, seed=4)
        pr = tibt.pole_residue(model)
        assert np.allclose(np.sort_complex(pr.poles),
                           np.sort_complex(np.conj(pr.poles)))

    def test_repeated_poles_rejected(self):
        model = tibt.StateSpaceModel(np.diag([-1.0, -1.0]), np.ones((2, 1)),
                                     np.ones((1, 2)))
        with pytest.raises(RepeatedPolesError):
            tibt.pole_residue(model)


class TestGramians:
    def test_scalar(self):
        g = tibt.gramians_dense(scalar_model())
        assert np.allclose(g.P, 0.5)
        assert np.allclose(g.Q, 0.5)

    def test_modal_example_singular_values(self):
        g = tibt.gramians_dense(tibt.illustrative4())
        sp = np.linalg.svd(g.P, compute_uv=False)
        sq = np.linalg.svd(g.Q, compute_uv=False)
        assert abs(sp[0] - 5.0e5) <= 1e-4 * 5.0e5
        assert abs(sp[1] - 7.2713) <= 1e-4
        assert abs(sp[2] - 0.1887) <= 1e-4
        assert abs(sp[3] - 0.0002) <= 1e-4
        assert abs(sq[0] - 2.5e5) <= 1e-4 * 2.5e5
        assert abs(sq[1] - 7.2906) <= 1e-4
        assert abs(sq[2] - 0.18936) <= 1e-5
        assert abs(sq[3] - 0.0005) <= 1e-4

    def test_residual_scaling(self):
        for n, seed in ((50, 0), (400, 1)):
            model = tibt.random_stable(n, 2, 3, seed=seed)
            g = tibt.gramians_dense(model)
            a = model.A.to_dense()
            gp = model.B @ model.B.T
            gq = model.C.T @ model.C
            assert np.linalg.norm(a @ g.P + g.P @ a.T + gp) <= 1e-9 * max(1.0, np.linalg.norm(gp))
            assert np.linalg.norm(a.T @ g.Q + g.Q @ a + gq) <= 1e-9 * max(1.0, np.linalg.norm(gq))

    def test_solved_once_per_model(self, lyapunov_solves):
        n = 60
        model = tibt.random_stable(n, 2, 2, seed=1)
        tibt.hankel_singular_values(model)
        bt = tibt.bt_square_root(model, 4)
        tibt.tcr(model, 4)
        tibt.tor(model, 4)
        tibt.pq_rel_error(model, bt)
        assert [name for name, size in lyapunov_solves if size == n] == \
            ["solve_lyapunov_pair"]
        assert model.gramians is model.gramians

    @pytest.mark.parametrize("solve", [tibt.gramians_dense,
                                       lambda model: model.gramians],
                             ids=["gramians_dense", "model.gramians"])
    def test_refusal_allocates_nothing_n_by_n(self, solve):
        # one 30000x30000 array would take 6.7 GiB; B B^T must not be formed
        # before the operator refuses to densify
        model = tibt.heat_rod(30_000)
        tracemalloc.start()
        try:
            with pytest.raises(DenseInfeasibleError):
                solve(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHankelSingularValues:
    def test_scalar(self):
        hsv = tibt.hankel_singular_values(scalar_model())
        assert np.allclose(hsv, [0.5])

    def test_modal_example(self):
        hsv = tibt.hankel_singular_values(tibt.illustrative4())
        assert np.allclose(hsv, [73.1370, 7.2831, 1.8919, 0.1880],
                           rtol=0, atol=1e-4)

    def test_symmetric_system_equals_gramian_values(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((10, 10))
        a = -(g @ g.T) - 0.5 * np.eye(10)
        b = rng.standard_normal((10, 2))
        model = tibt.StateSpaceModel(a, b, b.T)
        hsv = tibt.hankel_singular_values(model)
        gram = tibt.gramians_dense(model)
        sp = np.linalg.svd(gram.P, compute_uv=False)
        assert np.allclose(hsv, sp, rtol=1e-8)

    def test_realization_invariance(self):
        model = tibt.random_stable(12, 2, 2, seed=33)
        rng = np.random.default_rng(34)
        t = rng.standard_normal((12, 12)) + 3.0 * np.eye(12)
        a = np.linalg.solve(t, model.A.to_dense() @ t)
        b = np.linalg.solve(t, model.B)
        c = model.C @ t
        transformed = tibt.StateSpaceModel(a, b, c)
        h1 = tibt.hankel_singular_values(model)
        h2 = tibt.hankel_singular_values(transformed)
        assert np.allclose(h1, h2, rtol=1e-8)

    def test_duality(self):
        model = tibt.random_stable(11, 3, 2, seed=35)
        h1 = tibt.hankel_singular_values(model)
        h2 = tibt.hankel_singular_values(model.dual())
        assert np.allclose(h1, h2, rtol=1e-10)

    def test_values_descending(self):
        hsv = tibt.hankel_singular_values(tibt.random_stable(20, 2, 2, seed=2))
        assert np.all(np.diff(hsv) <= 0)


class TestIsHurwitz:
    def test_stable_scalar(self):
        assert tibt.is_hurwitz(np.array([[-1.0]]))

    def test_zero_not_hurwitz(self):
        assert not tibt.is_hurwitz(np.array([[0.0]]))

    def test_imaginary_axis_not_hurwitz(self):
        assert not tibt.is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_heat_rod_checked_in_linear_time(self, monkeypatch):
        model = tibt.heat_rod(10**5)
        self._linear_time_only(monkeypatch)
        assert tibt.is_hurwitz(model)

    @staticmethod
    def _linear_time_only(monkeypatch, densify=False):
        """Make the tridiagonal eigensolver fail, and ``to_dense`` too
        unless ``densify``."""
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum or dense matrix computed")

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", refuse)
        if not densify:
            monkeypatch.setattr(TridiagonalOperator, "to_dense", refuse)

    @pytest.mark.parametrize("n", [1, 2, 50, 30_000])
    def test_tridiagonal_with_real_spectrum_stable(self, monkeypatch, n):
        # lower != upper, but every product is positive: similar to a
        # symmetric tridiagonal with off-diagonal 1 and top eigenvalue
        # -2.1 + 2 cos(pi / (n + 1)) < 0
        op = TridiagonalOperator(np.full(n - 1, 4.0), np.full(n, -2.1),
                                 np.full(n - 1, 0.25))
        self._linear_time_only(monkeypatch)
        assert tibt.is_hurwitz(op)

    @pytest.mark.parametrize("n", [50, 30_000])
    def test_tridiagonal_with_real_spectrum_shifted_unstable(self, monkeypatch, n):
        # the same operator shifted right by 0.2 has top eigenvalue ~ +0.1
        op = TridiagonalOperator(np.full(n - 1, 4.0), np.full(n, -1.9),
                                 np.full(n - 1, 0.25))
        self._linear_time_only(monkeypatch)
        assert not tibt.is_hurwitz(op)

    def test_tridiagonal_zero_products_decouple(self, monkeypatch):
        # zero off-diagonal products leave a block-triangular matrix whose
        # spectrum is the union of its diagonal blocks
        op = TridiagonalOperator([5.0, 0.0, 1.0], [-1.0, -2.0, 0.5, -3.0],
                                 [0.0, 7.0, 1.0])
        assert tibt.is_hurwitz(op) is bool(
            np.max(np.linalg.eigvals(op.to_dense()).real) < 0.0)
        self._linear_time_only(monkeypatch)
        assert not tibt.is_hurwitz(op)

    def test_tridiagonal_agrees_with_dense_spectrum(self, monkeypatch):
        # off-diagonal products of both signs; a verdict the O(n) Cholesky
        # decides is exact, and the others fall back to the eigenvalues
        self._linear_time_only(monkeypatch, densify=True)
        schur_forms = []
        schur = LinearOperator.schur
        monkeypatch.setattr(LinearOperator, "schur",
                            lambda op: schur_forms.append(op) or schur(op))
        rng = np.random.default_rng(12)
        verdicts, fallbacks = set(), set()
        for _ in range(200):
            n = int(rng.integers(1, 40))
            negative = rng.random(n - 1) < rng.choice([0.0, 0.3, 1.0])
            lower = rng.random(n - 1)
            upper = np.where(negative, -1.0, 1.0) * rng.random(n - 1)
            diag = rng.standard_normal(n) - 1.5
            op = TridiagonalOperator(lower, diag, upper)
            dense = bool(np.max(np.linalg.eigvals(op.to_dense()).real) < 0.0)
            assert op.hurwitz() is dense
            verdicts.add(dense)
            fallbacks.add(op in schur_forms)
            assert tibt.is_hurwitz(op) is dense
        assert verdicts == fallbacks == {True, False}

    def test_overflowing_products_use_dense_spectrum(self):
        # lower * upper = 1e400 overflows; the eigenvalues -1e300 +- 1e200
        # decide it
        op = TridiagonalOperator([1e200], [-1e300, -1e300], [1e200])
        assert tibt.is_hurwitz(op) is True

    def test_small_negative_products_use_dense_spectrum(self):
        # lower * upper < 0: a rotation-like coupling with complex
        # eigenvalues -1 +- 2i
        op = TridiagonalOperator([-2.0], [-1.0, -1.0], [2.0])
        assert tibt.is_hurwitz(op)

    def test_large_negative_products_certified(self, monkeypatch):
        # every product is negative: the scaled operator is -3 I plus a
        # skew part, so its numerical range lies on Re = -3
        n = 30_000
        op = TridiagonalOperator(np.full(n - 1, -1.0), np.full(n, -3.0),
                                 np.full(n - 1, 1.0))
        self._linear_time_only(monkeypatch)
        assert tibt.is_hurwitz(op)

    def test_large_mixed_products_refused(self, monkeypatch):
        # products alternate 4 and -1: the symmetric part has 2x2 blocks
        # [[-1, 2], [2, -1]] with eigenvalue 1, which decides nothing
        n = 30_000
        op = TridiagonalOperator(np.where(np.arange(n - 1) % 2 == 0, 4.0, -1.0),
                                 np.full(n, -1.0), np.full(n - 1, 1.0))
        self._linear_time_only(monkeypatch, densify=True)
        factorizations = []
        cholesky = scipy.linalg.cholesky_banded
        monkeypatch.setattr(scipy.linalg, "cholesky_banded", lambda *args, **kwargs:
                            factorizations.append(args) or cholesky(*args, **kwargs))
        # the O(n) Cholesky fails, so the eigenvalues are asked for, which
        # refuses to densify
        with pytest.raises(DenseInfeasibleError,
                           match=r"^refusing to densify a 30000x30000 operator$"):
            op.hurwitz()
        assert len(factorizations) == 1
        with pytest.raises(DenseInfeasibleError,
                           match=r"^cannot check that the 30000x30000 operator is "
                                 r"Hurwitz without densifying it$"):
            tibt.is_hurwitz(op)


class TestStateSpaceModel:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            tibt.StateSpaceModel(np.eye(2), np.ones((3, 1)), np.ones((1, 2)))

    @pytest.mark.parametrize("b, c, message", [
        (np.ones((2, 1)), np.ones((1, 3)), r"C must have 2 columns, got \(1, 3\)"),
        (np.ones((2, 0)), np.ones((1, 2)), "input and output counts must be >= 1"),
        (np.ones((2, 1)), np.ones((0, 2)), "input and output counts must be >= 1"),
    ], ids=["c-columns", "no-inputs", "no-outputs"])
    def test_shape_rejected(self, b, c, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tibt.StateSpaceModel(-np.eye(2), b, c)

    def test_dual_shapes(self):
        model = tibt.random_stable(5, 2, 3, seed=0)
        dual = model.dual()
        assert dual.m == 3 and dual.p == 2 and dual.n == 5
