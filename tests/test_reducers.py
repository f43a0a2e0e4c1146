import threading

import numpy as np
import pytest
from conftest import TEST_POINTS, damped_chain, run_inline, transfer_mismatch

import tibt
from tibt.errors import (
    InterimUnstableError,
    NonHurwitzError,
    SingularProjectionError,
    SingularValueTieError,
)
from tibt.linalg import ordered_svd, solve_lyapunov_dense, solve_sylvester_skinny
from tibt.reducers import (
    REFLECT_FLOOR,
    SCALE_CLIP_RTOL,
    bt_from_factors,
    h2_optimality_residuals,
    project,
    reflect_spectrum,
    solve_coupling_pair,
    square_root_pair,
)


def scalar_model():
    return tibt.StateSpaceModel(np.array([[-1.0]]), np.array([[1.0]]),
                                np.array([[1.0]]))


def rom_gramians(red):
    ar = red.rom.A.to_dense()
    pr = solve_lyapunov_dense(ar, red.rom.B @ red.rom.B.T)
    qr = solve_lyapunov_dense(ar.T, red.rom.C.T @ red.rom.C)
    return pr, qr


class TestProject:
    def test_coordinate_selection(self):
        m = tibt.illustrative4()
        e1 = np.zeros((4, 1))
        e1[0, 0] = 1.0
        red = project(m, e1, e1)
        assert np.allclose(red.rom.A.to_dense(), [[-0.1]])
        assert np.allclose(red.rom.B, [[1.0]])
        assert np.allclose(red.rom.C, [[1.0]])

    def test_identity_projection_preserves_transfer(self):
        m = tibt.random_stable(8, 2, 2, seed=40)
        red = project(m, np.eye(8), np.eye(8))
        assert transfer_mismatch(red.rom, m, TEST_POINTS) <= 1e-10

    def test_invariance_under_right_multiplication(self):
        m = tibt.random_stable(10, 2, 2, seed=41)
        rng = np.random.default_rng(42)
        vr = rng.standard_normal((10, 3))
        wr = rng.standard_normal((10, 3))
        base = project(m, vr, wr)
        r_mat = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        s_mat = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        scaled = project(m, vr @ r_mat, wr @ s_mat)
        assert transfer_mismatch(scaled.rom, base.rom, TEST_POINTS) <= 1e-8

    @pytest.mark.parametrize("reduce", [
        lambda m: tibt.tangential_interpolate(m, tibt.InterpolationData.from_points(
            [1.0, 2.0], np.zeros((2, 1)), [1.0, 2.0], np.zeros((2, 1)))),
        lambda m: tibt.two_step_lowrank_bt(m, np.zeros((8, 2)), np.zeros((8, 2)), 1),
    ], ids=["zero-directions", "zero-trial-spans"])
    def test_empty_basis_rejected(self, reduce):
        with pytest.raises(ValueError, match=r"must both be \(8, r\) with r >= 1"):
            reduce(tibt.random_stable(8, 1, 1, seed=45))

    def test_normalization_invariant(self):
        m = tibt.random_stable(9, 1, 1, seed=43)
        rng = np.random.default_rng(44)
        red = project(m, rng.standard_normal((9, 4)), rng.standard_normal((9, 4)))
        assert np.allclose(red.Wr.T @ red.Vr, np.eye(4), atol=1e-8)


class TestBtSquareRoot:
    def test_full_order_balances(self):
        m = tibt.random_stable(7, 2, 2, seed=45)
        red = tibt.bt_square_root(m, 7)
        pr, qr = rom_gramians(red)
        sig = np.diag(red.retained_sv)
        assert np.allclose(pr, sig, rtol=1e-6, atol=1e-6 * sig[0, 0])
        assert np.allclose(qr, sig, rtol=1e-6, atol=1e-6 * sig[0, 0])

    def test_modal_example_retained_values(self):
        red = tibt.bt_square_root(tibt.illustrative4(), 2)
        assert np.allclose(red.retained_sv, [73.1370, 7.2831],
                           rtol=0, atol=1e-4)

    def test_hsv_preservation(self):
        m = tibt.random_stable(30, 2, 2, seed=46)
        red = tibt.bt_square_root(m, 5)
        rom_hsv = tibt.hankel_singular_values(red.rom)
        full_hsv = tibt.hankel_singular_values(m)
        assert np.allclose(rom_hsv, full_hsv[:5], rtol=1e-8)

    def test_balancedness_invariant(self):
        for seed in range(5):
            m = tibt.random_stable(15, 2, 2, seed=200 + seed)
            red = tibt.bt_square_root(m, 4)
            pr, qr = rom_gramians(red)
            sig = np.diag(red.retained_sv)
            assert np.linalg.norm(pr - sig) <= 1e-6 * np.linalg.norm(sig)
            assert np.linalg.norm(qr - sig) <= 1e-6 * np.linalg.norm(sig)

    def test_stability_preservation_over_seeds(self):
        for seed in range(50):
            n = 10 + (seed % 31)
            m = tibt.random_stable(n, 2, 2, seed=300 + seed)
            red = tibt.bt_square_root(m, max(2, n // 4))
            assert tibt.is_hurwitz(red.rom)

    def test_singular_value_tie_rejected(self):
        # P = Q = I/2 makes every Hankel value equal
        m = tibt.StateSpaceModel(np.diag([-1.0, -1.0]), np.eye(2), np.eye(2))
        with pytest.raises(SingularValueTieError):
            tibt.bt_square_root(m, 1)

    @pytest.mark.parametrize("r", [1, 8, 16, 17, 18, 20, 24, 30, 50, 59])
    def test_rod_past_its_noise_floor_raises_or_is_stable(self, r):
        # heat_rod(400)'s Hankel values past the 17th sit in round-off,
        # where the tie check is the only guard against an unstable ROM
        m = tibt.heat_rod(400)
        try:
            red = tibt.bt_square_root(m, r)
        except SingularValueTieError:
            return
        assert tibt.is_hurwitz(red.rom)


@pytest.mark.parametrize("reducer", [tibt.bt_square_root, tibt.tcr, tibt.tor])
def test_unstable_model_rejected_by_its_gramians(reducer):
    m = tibt.StateSpaceModel(np.diag([-1.0, 0.5, -2.0]), np.ones((3, 1)),
                             np.ones((1, 3)))
    with pytest.raises(NonHurwitzError, match="Re = 5.000e-01"):
        reducer(m, 1)


class TestTcrTor:
    def test_symmetric_system_all_methods_coincide(self):
        rng = np.random.default_rng(47)
        g = rng.standard_normal((9, 9))
        a = -(g @ g.T) - 0.5 * np.eye(9)
        b = rng.standard_normal((9, 2))
        m = tibt.StateSpaceModel(a, b, b.T)
        r = 4
        bt = tibt.bt_square_root(m, r)
        tc = tibt.tcr(m, r)
        to = tibt.tor(m, r)
        assert transfer_mismatch(tc.rom, bt.rom, TEST_POINTS) <= 1e-8
        assert transfer_mismatch(to.rom, bt.rom, TEST_POINTS) <= 1e-8

    def test_modal_example_truncation_errors(self):
        m = tibt.illustrative4()
        gram = tibt.gramians_dense(m)
        tc = tibt.tcr(m, 3)
        approx_p = tc.Vr @ np.diag(tc.retained_sv) @ tc.Vr.T
        err_p = tibt.gramian_rel_error(gram.P, approx_p)
        assert abs(err_p - 5.5223e-10) <= 1e-3 * 5.5223e-10
        to = tibt.tor(m, 3)
        approx_q = to.Wr @ np.diag(to.retained_sv) @ to.Wr.T
        err_q = tibt.gramian_rel_error(gram.Q, approx_q)
        assert abs(err_q - 2.1957e-9) <= 1e-3 * 2.1957e-9

    def test_rom_gramian_is_diagonal_eigenblock(self):
        m = tibt.random_stable(12, 2, 2, seed=48)
        red = tibt.tcr(m, 5)
        pr, _ = rom_gramians(red)
        lam = np.diag(red.retained_sv)
        assert np.linalg.norm(pr - lam) <= 1e-6 * np.linalg.norm(lam)
        red = tibt.tor(m, 5)
        _, qr = rom_gramians(red)
        lam = np.diag(red.retained_sv)
        assert np.linalg.norm(qr - lam) <= 1e-6 * np.linalg.norm(lam)

    @pytest.mark.parametrize("make, orders", [
        (tibt.illustrative4, range(1, 5)),
        (lambda: tibt.random_stable(60, 2, 2, 0), range(2, 21)),
        (lambda: tibt.heat_rod(400), range(4, 17)),
    ], ids=["illustrative4", "random_stable60", "heat_rod400"])
    def test_match_eigenvector_projection(self, make, orders):
        # the reference: a Galerkin projection onto the top eigenvectors
        m = make()
        pts = 1j * np.logspace(-3, 5, 50)
        for reducer, gram in ((tibt.tcr, m.gramians.P), (tibt.tor, m.gramians.Q)):
            w, t = np.linalg.eigh(gram)
            w, t = w[::-1], t[:, ::-1]
            for r in orders:
                red = reducer(m, r)
                ref = project(m, t[:, :r], t[:, :r])
                h = np.array([tibt.eval_transfer(red.rom, s) for s in pts])
                h_ref = np.array([tibt.eval_transfer(ref.rom, s) for s in pts])
                peak = np.max(np.linalg.norm(h_ref, ord=2, axis=(1, 2)))
                gap = np.max(np.linalg.norm(h - h_ref, ord=2, axis=(1, 2)))
                assert gap <= 1e-12 * peak, (reducer.__name__, r)
                assert np.max(np.abs(red.retained_sv - w[:r]) / w[:r]) <= 1e-13

    @pytest.mark.parametrize("reducer", [tibt.tcr, tibt.tor])
    def test_order_capped_at_numerical_rank(self, reducer):
        # heat_rod(400)'s Gramian factors have numerical rank 30, and each
        # of its eigenvalues 27 to 30 is within 1e-12 of the largest of the
        # next one
        m = tibt.heat_rod(400)
        for r in (30, 31, 50):
            red = reducer(m, r)
            assert red.r == len(red.retained_sv) == 30
        for r in (27, 28, 29):
            with pytest.raises(SingularValueTieError):
                reducer(m, r)


class TestTangentialInterpolate:
    def test_single_point_siso(self):
        m = scalar_model()
        data = tibt.InterpolationData.from_points([1.0], [[1.0]], [1.0], [[1.0]])
        red = tibt.tangential_interpolate(m, data)
        h = tibt.eval_transfer(red.rom, 1.0)
        assert np.allclose(h, 0.5, atol=1e-12)

    def test_interpolation_conditions_random_model(self):
        m = tibt.random_stable(12, 2, 2, seed=49)
        rng = np.random.default_rng(50)
        pts = np.array([0.7, 1.9 + 1.3j, 1.9 - 1.3j])
        bdir = np.array([rng.standard_normal(2),
                         rng.standard_normal(2) + 1j * rng.standard_normal(2),
                         np.zeros(2)], dtype=complex)
        bdir[2] = np.conj(bdir[1])
        cdir = np.array([rng.standard_normal(2),
                         rng.standard_normal(2) + 1j * rng.standard_normal(2),
                         np.zeros(2)], dtype=complex)
        cdir[2] = np.conj(cdir[1])
        data = tibt.InterpolationData.from_points(pts, bdir, pts, cdir)
        assert data.observable()
        red = tibt.tangential_interpolate(m, data)
        for s, b, c in zip(pts, bdir, cdir):
            h = tibt.eval_transfer(m, s)
            hr = tibt.eval_transfer(red.rom, s)
            assert np.linalg.norm((h - hr) @ b) <= 1e-6 * np.linalg.norm(h @ b)
            assert np.linalg.norm(c @ (h - hr)) <= 1e-6 * np.linalg.norm(c @ h)
            hp = tibt.eval_transfer_derivative(m, s)
            hrp = tibt.eval_transfer_derivative(red.rom, s)
            assert abs(c @ (hp - hrp) @ b) <= 1e-6 * abs(c @ hp @ b)

    def test_modal_example_tracks_balanced_truncation(self):
        m = tibt.illustrative4()
        bt = tibt.bt_square_root(m, 2)
        pr = tibt.pole_residue(bt.rom)
        data = tibt.InterpolationData.from_points(-pr.poles, pr.right,
                                                  -pr.poles, np.conj(pr.left))
        ti = tibt.tangential_interpolate(m, data)
        e_bt = tibt.pq_rel_error(m, bt)
        e_ti = tibt.pq_rel_error(m, ti)
        assert e_ti <= 10.0 * e_bt

    def test_tcr_equivalence_sweep(self):
        # interpolation at TCR mirror poles / input residuals tracks the
        # TCR's own controllability error across orders
        m = tibt.random_stable(60, 2, 2, seed=0)
        gram = m.gramians
        for r in range(2, 13, 2):
            tc = tibt.tcr(m, r)
            pr = tibt.pole_residue(tc.rom)
            data = tibt.InterpolationData.from_points(-pr.poles, pr.right,
                                                      -pr.poles, pr.right)
            from tibt.reducers import _well_scaled_basis

            v = _well_scaled_basis(
                solve_sylvester_skinny(m.A, -data.Sb.T, m.B, data.Lb))
            gal = project(m, v, v)
            p_r = solve_lyapunov_dense(gal.rom.A.to_dense(),
                                       gal.rom.B @ gal.rom.B.T)
            e_ti = tibt.gramian_rel_error(gram.P, gal.Vr @ p_r @ gal.Vr.T)
            e_tcr = tibt.gramian_rel_error(
                gram.P, tc.Vr @ np.diag(tc.retained_sv) @ tc.Vr.T)
            assert e_ti <= 10.0 * e_tcr


    def test_w_side_on_one_worker_thread_equal_to_inline(self, monkeypatch):
        m = tibt.random_stable(60, 2, 2, seed=7)
        pr = tibt.pole_residue(tibt.bt_square_root(m, 6).rom)
        data = tibt.InterpolationData.from_points(-pr.poles, pr.right,
                                                  -pr.poles, np.conj(pr.left))
        starts = []
        start = threading.Thread.start

        def counting(thread):
            starts.append(thread.name)
            start(thread)

        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", counting)
            threaded = tibt.tangential_interpolate(m, data)
        assert len(starts) == 1
        with monkeypatch.context() as patch:
            run_inline(patch)
            inline = tibt.tangential_interpolate(m, data)
        for x, y in [(threaded.rom.A.to_dense(), inline.rom.A.to_dense()),
                     (threaded.rom.B, inline.rom.B), (threaded.rom.C, inline.rom.C),
                     (threaded.Vr, inline.Vr), (threaded.Wr, inline.Wr)]:
            assert np.array_equal(x, y)


class TestTsia:
    def test_one_model_built_per_iteration(self, monkeypatch):
        # each sweep is tangential_interpolate, whose project builds the ROM
        built = []
        model_class = tibt.reducers.StateSpaceModel

        def counting(*args, **kwargs):
            built.append(args)
            return model_class(*args, **kwargs)

        m = tibt.random_stable(60, 2, 2, seed=0)
        init = tibt.random_stable(4, 2, 2, seed=1)
        monkeypatch.setattr(tibt.reducers, "StateSpaceModel", counting)
        red = tibt.tsia(m, init, max_iter=3, conv_tol=1e-14)
        assert red.iterations == 3
        assert red.converged is False
        assert len(built) == 3

    def test_fixed_point_in_one_iteration(self):
        m = scalar_model()
        init = tibt.bt_square_root(m, 1)
        red = tibt.tsia(m, init)
        assert red.converged
        assert red.iterations == 1

    def test_modal_example_optimality(self):
        m = tibt.illustrative4()
        red = tibt.tsia(m, tibt.random_stable(2, 1, 1, seed=7), conv_tol=1e-10)
        assert red.converged
        res = h2_optimality_residuals(m, red)
        assert max(res.values()) <= 1e-6

    def test_hermite_conditions_at_mirror_poles(self):
        m = tibt.illustrative4()
        red = tibt.tsia(m, tibt.random_stable(2, 1, 1, seed=7), conv_tol=1e-10)
        pr = tibt.pole_residue(red.rom)
        for lam, left, right in zip(pr.poles, pr.left, pr.right):
            s = -lam
            h = tibt.eval_transfer(m, s)
            hr = tibt.eval_transfer(red.rom, s)
            rdef = np.linalg.norm((h - hr) @ np.conj(right))
            assert rdef <= 1e-6 * np.linalg.norm(h @ np.conj(right))
            ldef = np.linalg.norm(np.conj(left) @ (h - hr))
            assert ldef <= 1e-6 * np.linalg.norm(np.conj(left) @ h)
            hp = tibt.eval_transfer_derivative(m, s)
            hrp = tibt.eval_transfer_derivative(red.rom, s)
            hdef = abs(np.conj(left) @ (hp - hrp) @ np.conj(right))
            assert hdef <= 1e-6 * abs(np.conj(left) @ hp @ np.conj(right))

    def test_order_capped_at_sylvester_rank(self):
        # B excites two of the five modes, so Phat has rank 2 and Qhat rank 4
        m = tibt.StateSpaceModel(np.diag(-np.arange(1.0, 6.0)),
                                 np.array([[1.0], [1.0], [0.0], [0.0], [0.0]]),
                                 np.ones((1, 5)))
        red = tibt.tsia(m, tibt.random_stable(4, 1, 1, seed=0))
        assert red.r == 2
        assert red.converged
        assert max(h2_optimality_residuals(m, red).values()) <= 1e-12

    @pytest.mark.parametrize("scaled", ["B", "C"])
    def test_tiny_coupling_scales_the_rom(self, scaled):
        # with B or C at 1e-100 the second sweep's Sylvester solution and the
        # H2 residual terms are ~1e-200, whose squares underflow
        rod = tibt.heat_rod(30)
        a = rod.A.to_dense()
        b = rod.B * (1e-100 if scaled == "B" else 1.0)
        c = rod.C * (1e-100 if scaled == "C" else 1.0)
        m = tibt.StateSpaceModel(a, b, c)
        init = tibt.random_stable(4, 1, 1, seed=0)
        red = tibt.tsia(m, init)
        ref = tibt.tsia(tibt.StateSpaceModel(a, rod.B, rod.C), init)
        assert red.r == 4
        assert red.converged
        for s in (0.5j, 3.0, 20j):
            h = tibt.eval_transfer(red.rom, s)
            h_ref = 1e-100 * tibt.eval_transfer(ref.rom, s)
            assert np.linalg.norm(h - h_ref) <= 1e-10 * np.linalg.norm(h_ref)
        # round-off residuals, not squares underflowed to 0.0
        res = h2_optimality_residuals(m, red)
        assert all(0.0 < value <= 1e-6 for value in res.values())

    def test_unconverged_flagged(self):
        m = tibt.random_stable(20, 2, 2, seed=51)
        red = tibt.tsia(m, tibt.random_stable(4, 2, 2, seed=52), max_iter=1,
                        conv_tol=1e-14)
        assert red.converged is False
        assert red.iterations == 1

    @pytest.mark.parametrize("max_iter", [0, -1, 2.0, True])
    def test_max_iter_rejected_before_any_solve(self, monkeypatch, max_iter):
        def no_sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setattr(tibt.reducers, "tangential_interpolate", no_sweep)
        with pytest.raises(ValueError, match=r"^max_iter must be an integer >= 1, got "):
            tibt.tsia(scalar_model(), scalar_model(), max_iter=max_iter)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_breakdown_raises(self, seed):
        # a mid-run W^T V goes numerically singular; no iterate is returned
        with pytest.raises(SingularProjectionError, match="W\\^T V is numerically singular"):
            tibt.tsia(damped_chain(), tibt.random_stable(8, 1, 1, seed))


class TestReflectSpectrum:
    def test_safely_hurwitz_returned_itself(self):
        ar = np.array([[-2e-12, 1.0], [0.0, -3.0]])
        assert reflect_spectrum(ar) is ar

    def test_unstable_pair_mirrored(self):
        lam = np.linalg.eigvals(reflect_spectrum(np.array([[2.0, 5.0], [-5.0, 2.0]])))
        want = -2.0 - REFLECT_FLOOR + np.array([-5j, 5j])
        assert np.allclose(np.sort_complex(lam), want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("ar", [[[1.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]],
                             ids=["jordan-1", "nilpotent"])
    def test_defective_raises(self, ar):
        with pytest.raises(InterimUnstableError, match="defective"):
            reflect_spectrum(np.array(ar))


class TestTwoStepLowRankBt:
    def test_full_space_equals_dense_bt(self):
        m = tibt.random_stable(30, 2, 2, seed=5)
        red = tibt.two_step_lowrank_bt(m, np.eye(30), np.eye(30), 5)
        bt = tibt.bt_square_root(m, 5)
        assert transfer_mismatch(red.rom, bt.rom, TEST_POINTS) <= 1e-8

    def test_siso_krylov_subspaces_interpolate(self):
        m = tibt.heat_rod(120)
        pts = np.array([3.0, 30.0, 300.0])
        vk = np.column_stack([m.A.shifted_solve(s, m.B[:, 0]) for s in pts])
        wk = np.column_stack([m.A.transpose().shifted_solve(s, m.C[0]) for s in pts])
        red = tibt.two_step_lowrank_bt(m, vk, wk, 3)
        for s in pts:
            h = tibt.eval_transfer(m, s)[0, 0]
            hr = tibt.eval_transfer(red.rom, s)[0, 0]
            assert abs(h - hr) <= 1e-8 * abs(h)

    def test_equals_reduce_the_interpolant(self):
        rng = np.random.default_rng(123)
        from tibt.linalg import orthonormalize

        checked = 0
        for trial in range(20):
            m = tibt.random_stable(40, 2, 2, seed=100 + trial)
            vk = orthonormalize(rng.standard_normal((40, 10)))
            wk = orthonormalize(vk + 0.2 * rng.standard_normal((40, 10)))
            wv = wk.T @ vk
            atil = np.linalg.solve(wv, wk.T @ m.A.apply(vk))
            interp = tibt.StateSpaceModel(atil, np.linalg.solve(wv, wk.T @ m.B),
                                          m.C @ vk)
            if not tibt.is_hurwitz(interp):
                continue
            checked += 1
            red = tibt.two_step_lowrank_bt(m, vk, wk, 4)
            ref = tibt.bt_square_root(interp, 4)
            assert transfer_mismatch(red.rom, ref.rom, TEST_POINTS) <= 1e-8
        assert checked >= 15


    def test_trial_spans_of_different_rank_rejected(self):
        m = tibt.random_stable(20, 2, 2, seed=6)
        rng = np.random.default_rng(6)
        vk = rng.standard_normal((20, 4))
        wk = vk.copy()
        wk[:, 3] = wk[:, 0] + wk[:, 1]
        with pytest.raises(SingularProjectionError, match="different numerical ranks"):
            tibt.two_step_lowrank_bt(m, vk, wk, 2)

    def test_nearly_orthogonal_spans_rejected(self):
        # span(Wk) meets span(Vk) along e1 only: Wk^T Vk = diag(1, 1e-14)
        m = tibt.random_stable(20, 2, 2, seed=6)
        eye = np.eye(20)
        vk = eye[:, :2]
        wk = np.column_stack([eye[:, 0], eye[:, 2] + 1e-14 * eye[:, 1]])
        with pytest.raises(SingularProjectionError, match="numerically singular"):
            tibt.two_step_lowrank_bt(m, vk, wk, 1)

    def test_unstable_surrogate_rejected(self):
        # A is Hurwitz, but its projection onto [1, 1]^T is the 1x1 matrix 4
        m = tibt.StateSpaceModel(np.array([[-1.0, 10.0], [0.0, -1.0]]),
                                 np.ones((2, 1)), np.ones((1, 2)))
        v = np.ones((2, 1))
        with pytest.raises(NonHurwitzError):
            tibt.two_step_lowrank_bt(m, v, v, 1)


class TestNearOptimalityOfBalancedTruncation:
    def make_gapped_model(self):
        a = np.diag(-np.arange(1.0, 9.0))
        eps = 1e-4
        b = np.concatenate([np.ones(4), eps * np.ones(4)])[:, None]
        c = np.concatenate([np.ones(4), eps * np.ones(4)])[None, :]
        return tibt.StateSpaceModel(a, b, c)

    def test_coupling_solution_approximates_scaled_basis(self):
        m = self.make_gapped_model()
        hsv = tibt.hankel_singular_values(m)
        assert hsv[4] / hsv[3] <= 1e-6
        red = tibt.bt_square_root(m, 4)
        phat, qhat = solve_coupling_pair(m, red.rom)
        target = red.Vr @ np.diag(red.retained_sv)
        assert np.linalg.norm(phat - target) <= 1e-3 * np.linalg.norm(target)
        target_q = red.Wr @ np.diag(red.retained_sv)
        assert np.linalg.norm(qhat - target_q) <= 1e-3 * np.linalg.norm(target_q)

    def test_tangential_conditions_nearly_hold(self):
        m = self.make_gapped_model()
        red = tibt.bt_square_root(m, 4)
        pr = tibt.pole_residue(red.rom)
        for lam, left, right in zip(pr.poles, pr.left, pr.right):
            s = -lam
            h = tibt.eval_transfer(m, s)
            hr = tibt.eval_transfer(red.rom, s)
            right_defect = np.linalg.norm((h - hr) @ np.conj(right))
            assert right_defect <= 1e-3 * np.linalg.norm(h @ np.conj(right))
            left_defect = np.linalg.norm(np.conj(left) @ (h - hr))
            assert left_defect <= 1e-3 * np.linalg.norm(np.conj(left) @ h)

    def test_gram_product_condition_at_relaxed_level(self):
        m = self.make_gapped_model()
        red = tibt.bt_square_root(m, 4)
        res = h2_optimality_residuals(m, red)
        assert res["qp"] <= 1e-3


class TestInterpolationData:
    def test_direction_count_rejected(self):
        with pytest.raises(ValueError, match="^right data: need one direction per point$"):
            tibt.InterpolationData.from_points([1.0, 2.0], [[1.0]], [1.0, 2.0], [[1.0], [1.0]])

    def test_unobservable_pair_detected(self):
        # L S^k = L for S = diag(1, 2) and L = [1, 0]: the stacked rank is 1
        data = tibt.InterpolationData.from_points([1.0, 2.0], [[1.0], [0.0]],
                                                  [1.0, 2.0], [[1.0], [1.0]])
        assert data.observable() is False

    def test_unpaired_complex_point_rejected(self):
        with pytest.raises(ValueError):
            tibt.InterpolationData.from_points([1.0 + 2.0j], [[1.0]],
                                               [1.0 + 2.0j], [[1.0]])

    def test_matrix_encoding_eigenvalues_are_the_points(self):
        pts = np.array([0.5, 1.0 + 2.0j, 1.0 - 2.0j])
        dirs = np.array([[1.0], [1.0 + 0.5j], [1.0 - 0.5j]])
        data = tibt.InterpolationData.from_points(pts, dirs, pts, dirs)
        assert np.allclose(np.sort_complex(np.linalg.eigvals(data.Sb)),
                           np.sort_complex(pts))
        assert data.Sb.dtype == float


class TestSolveCouplingPair:
    def test_residuals(self):
        m = tibt.random_stable(25, 2, 2, seed=70)
        rom = tibt.bt_square_root(m, 4).rom
        phat, qhat = solve_coupling_pair(m, rom)
        a = m.A.to_dense()
        ar = rom.A.to_dense()
        res_p = a @ phat + phat @ ar.T + m.B @ rom.B.T
        assert np.linalg.norm(res_p) <= 1e-8 * max(1.0, np.linalg.norm(m.B @ rom.B.T))
        res_q = a.T @ qhat + qhat @ ar + m.C.T @ rom.C
        assert np.linalg.norm(res_q) <= 1e-8 * max(1.0, np.linalg.norm(m.C.T @ rom.C))


class TestBtFromFactors:
    def test_truncated_factors_lose_cross_information(self):
        # feeding independently truncated Gramian factors to the square-root
        # procedure mangles the dominant Hankel values
        m = tibt.illustrative4()
        gram = tibt.gramians_dense(m)

        def eig_trunc(p, rank):
            w, v = np.linalg.eigh(p)
            w, v = w[::-1], v[:, ::-1]
            return v[:, :rank] * np.sqrt(w[:rank])

        red = bt_from_factors(m, eig_trunc(gram.P, 3), eig_trunc(gram.Q, 3), 2)
        naive_hsv = tibt.hankel_singular_values(red.rom)
        assert np.allclose(naive_hsv, [72.9579, 8.3810], rtol=0, atol=1e-4)

    def test_order_below_one_rejected(self):
        z = np.eye(4)
        with pytest.raises(ValueError, match="^r = 0 must be >= 1$"):
            bt_from_factors(tibt.illustrative4(), z, z, 0)

    def test_zero_factor_product_rejected(self):
        z = np.zeros((4, 1))
        with pytest.raises(ValueError, match="^Gramian factors have numerically zero product$"):
            bt_from_factors(tibt.illustrative4(), z, z, 1)


class TestSquareRootPair:
    def test_drops_values_below_clip(self):
        # the clip level is SCALE_CLIP_RTOL * s[0]: keep one value above it
        s = np.array([2.0, 1e4 * 2.0 * SCALE_CLIP_RTOL, 0.5 * 2.0 * SCALE_CLIP_RTOL])
        eye = np.eye(3)
        vr, wr = square_root_pair(eye, eye, (eye, s, eye), 3)
        assert vr.shape == wr.shape == (3, 2)
        assert np.array_equal(vr, eye[:, :2] / np.sqrt(s[:2]))
        assert np.array_equal(wr, vr)

    def test_keeps_at_most_r(self):
        eye = np.eye(3)
        vr, wr = square_root_pair(eye, eye, (eye, np.array([3.0, 2.0, 1.0]), eye), 2)
        assert vr.shape == wr.shape == (3, 2)

    def test_zero_product_gives_empty_pair(self):
        zp = np.zeros((5, 2))
        vr, wr = square_root_pair(zp, zp, ordered_svd(zp.T @ zp), 2)
        assert vr.shape == wr.shape == (5, 0)

    def test_exact_factors_biorthonormal(self):
        rng = np.random.default_rng(8)
        zp = rng.standard_normal((30, 6))
        zq = rng.standard_normal((30, 5))
        vr, wr = square_root_pair(zp, zq, ordered_svd(zq.T @ zp), 4)
        assert vr.shape == wr.shape == (30, 4)
        assert np.linalg.norm(wr.T @ vr - np.eye(4), 2) <= 1e-12

    def test_weighted_product_biorthonormal(self):
        rng = np.random.default_rng(9)
        zp = rng.standard_normal((6, 6))
        zq = rng.standard_normal((6, 6))
        e = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
        vr, wr = square_root_pair(zp, zq, ordered_svd(zq.T @ e @ zp), 6)
        assert np.linalg.norm(wr.T @ e @ vr - np.eye(6), 2) <= 1e-10
