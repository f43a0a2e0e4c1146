import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import run_inline

import tibt
from tibt.errors import DenseInfeasibleError, DimensionMismatchError, ShiftSolveFailure
from tibt.linalg import DENSE_MAX_ORDER
from tibt.metrics import DENSE_CAP_DEFAULT, FreqGrid


def scalar_model():
    return tibt.StateSpaceModel(np.array([[-1.0]]), np.array([[1.0]]),
                                np.array([[1.0]]))


class TestFreqGrid:
    def test_log_spaced(self):
        grid = FreqGrid.log_spaced(1e-2, 1e2, 9)
        assert len(grid.points) == 9
        assert np.isclose(grid.points[0], 1e-2)
        assert np.isclose(grid.points[-1], 1e2)

    def test_validation(self):
        with pytest.raises(ValueError):
            FreqGrid(points=np.array([1.0]))
        with pytest.raises(ValueError):
            FreqGrid(points=np.array([2.0, 1.0]))

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_log_spaced_rejects_empty_range(self, lo, hi):
        with pytest.raises(ValueError, match="^need 0 < lo < hi$"):
            FreqGrid.log_spaced(lo, hi)

    def test_default_spans_spectrum(self):
        m = tibt.illustrative4()
        grid = FreqGrid.default_for(m)
        assert grid.points[0] <= 1e-3 * 0.1 * 1.0001
        assert grid.points[-1] >= 1e3 * 200.0 * 0.9999


    def test_large_operator_range_estimated_by_iteration(self):
        n = 6000  # above the dense cap: power and inverse iteration
        assert n > DENSE_CAP_DEFAULT
        grid = FreqGrid.default_for(tibt.heat_rod(n))
        lo, hi = 1e3 * grid.points[0], 1e-3 * grid.points[-1]
        angle = np.pi / (2 * (n + 1))
        exact_lo = 4 * (n + 1) ** 2 * np.sin(angle) ** 2
        exact_hi = 4 * (n + 1) ** 2 * np.cos(angle) ** 2
        assert abs(lo - exact_lo) <= 1e-10 * exact_lo
        assert 0.95 * exact_hi <= hi <= exact_hi


class TestGramianRelError:
    def test_exact_factor_is_zero(self):
        m = tibt.random_stable(10, 2, 2, seed=61)
        gram = tibt.gramians_dense(m)
        assert tibt.gramian_rel_error(gram.P, gram.P) <= 1e-14

    def test_modal_example_truncations(self):
        m = tibt.illustrative4()
        gram = tibt.gramians_dense(m)

        def eig_trunc(p, rank):
            w, v = np.linalg.eigh(p)
            w, v = w[::-1], v[:, ::-1]
            return (v[:, :rank] * w[:rank]) @ v[:, :rank].T

        err_p = tibt.gramian_rel_error(gram.P, eig_trunc(gram.P, 3))
        assert abs(err_p - 5.5223e-10) <= 1e-3 * 5.5223e-10
        err_q = tibt.gramian_rel_error(gram.Q, eig_trunc(gram.Q, 3))
        assert abs(err_q - 2.1957e-9) <= 1e-3 * 2.1957e-9

    def test_eckart_young(self):
        rng = np.random.default_rng(62)
        g = rng.standard_normal((12, 12))
        p = g @ g.T
        w, v = np.linalg.eigh(p)
        w, v = w[::-1], v[:, ::-1]
        for r in (3, 6):
            approx = (v[:, :r] * w[:r]) @ v[:, :r].T
            err = tibt.gramian_rel_error(p, approx)
            assert abs(err - w[r] / w[0]) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tibt.gramian_rel_error(np.eye(3), np.eye(4))

    def test_accepts_lowrank_factor(self):
        m = tibt.heat_rod(200)
        res = tibt.alrs_lyap(m.A, m.B, tibt.AlrsConfig(tol=1e-6, seed=0))
        gram = tibt.gramians_dense(m)
        assert tibt.gramian_rel_error(gram.P, res.factor.reconstruct()) <= 1e-5


class TestPqRelError:
    def test_full_order_bt_is_tiny(self):
        m = tibt.random_stable(12, 2, 2, seed=63)
        red = tibt.bt_square_root(m, 12)
        assert tibt.pq_rel_error(m, red) <= 1e-10

    def test_modal_example_matches_direct_computation(self):
        m = tibt.illustrative4()
        red = tibt.bt_square_root(m, 2)
        computed = tibt.pq_rel_error(m, red)
        # independent recomputation from raw dense pieces
        import scipy.linalg as sla

        a = m.A.to_dense()
        p = sla.solve_continuous_lyapunov(a, -m.B @ m.B.T)
        q = sla.solve_continuous_lyapunov(a.T, -m.C.T @ m.C)
        ar = red.rom.A.to_dense()
        pr = sla.solve_continuous_lyapunov(ar, -red.rom.B @ red.rom.B.T)
        qr = sla.solve_continuous_lyapunov(ar.T, -red.rom.C.T @ red.rom.C)
        approx = (red.Vr @ pr @ red.Vr.T) @ (red.Wr @ qr @ red.Wr.T)
        expected = np.linalg.norm(p @ q - approx, 2) / np.linalg.norm(p @ q, 2)
        assert abs(computed - expected) <= 1e-10 * max(expected, 1e-30)

    def test_refused_above_dense_max_order(self):
        # the refusal comes from the model's Gramians, before anything n-by-n
        m = tibt.heat_rod(DENSE_MAX_ORDER + 1)
        red = tibt.bt_square_root(tibt.heat_rod(20), 2)
        tracemalloc.start()
        try:
            with pytest.raises(DenseInfeasibleError,
                               match=f"^refusing to densify a {m.n}x{m.n} operator$"):
                tibt.pq_rel_error(m, red)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_monotone_in_order_for_bt(self):
        m = tibt.random_stable(30, 2, 2, seed=64)
        errors = [tibt.pq_rel_error(m, tibt.bt_square_root(m, r))
                  for r in range(2, 12, 2)]
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12


class TestHinfRelError:
    def test_identical_models_give_zero(self):
        m = tibt.random_stable(10, 2, 2, seed=65)
        assert tibt.hinf_rel_error(m, m) <= 1e-14

    def test_zero_response_model_gives_ratio_zero(self):
        m = tibt.StateSpaceModel(np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]]))
        assert tibt.hinf_rel_error(m, m) == 0.0

    def test_zero_output_rom_gives_ratio_one(self):
        m = scalar_model()
        rom = tibt.StateSpaceModel(np.array([[-1.0]]), np.array([[1.0]]),
                                   np.array([[1e-14]]))
        ratio = tibt.hinf_rel_error(m, rom)
        assert abs(ratio - 1.0) <= 1e-6

    @pytest.mark.xfail(
        reason="the adaptive reducer's thin fixed-point bases on the "
               "asymmetric heat rod keep its error above twice dense BT "
               "(README: known limitations)",
    )
    def test_heat_rod_adaptive_vs_dense_bt(self):
        m = tibt.heat_rod(500)
        res = tibt.atia_bt(m, tibt.AtiaConfig(r0=2, dr=2, tol=1e-6, seed=0))
        bt = tibt.bt_square_root(m, res.rom.r)
        grid = FreqGrid.default_for(m, count=200)
        ratio_adaptive = tibt.hinf_rel_error(m, res.rom.rom, grid)
        ratio_bt = tibt.hinf_rel_error(m, bt.rom, grid)
        assert ratio_adaptive <= 2.0 * ratio_bt

    def test_random_model_adaptive_vs_dense_bt(self):
        m = tibt.random_stable(150, 2, 2, seed=66)
        res = tibt.atia_bt(m, tibt.AtiaConfig(r0=2, dr=2, tol=1e-5, seed=0))
        assert res.converged
        bt = tibt.bt_square_root(m, res.rom.r)
        grid = FreqGrid.default_for(m, count=200)
        ratio_adaptive = tibt.hinf_rel_error(m, res.rom.rom, grid)
        ratio_bt = tibt.hinf_rel_error(m, bt.rom, grid)
        assert ratio_adaptive <= 2.0 * ratio_bt

    def test_similarity_invariance(self):
        m = tibt.random_stable(12, 2, 2, seed=67)
        rom = tibt.bt_square_root(m, 4).rom
        rng = np.random.default_rng(68)
        t = rng.standard_normal((12, 12)) + 4.0 * np.eye(12)
        sim = tibt.StateSpaceModel(np.linalg.solve(t, m.A.to_dense() @ t),
                                   np.linalg.solve(t, m.B), m.C @ t)
        grid = FreqGrid.default_for(m, count=150)
        e1 = tibt.hinf_rel_error(m, rom, grid)
        e2 = tibt.hinf_rel_error(sim, rom, grid)
        assert abs(e1 - e2) <= 1e-10 * max(e1, 1e-30)


class TestHinfRelErrorSequence:
    @pytest.mark.parametrize("make", [
        lambda: tibt.heat_rod(400),
        lambda: tibt.random_stable(60, 2, 2, seed=3),
    ], ids=["heat_rod", "random_stable"])
    def test_matches_single_calls_exactly(self, make):
        m = make()
        r1 = tibt.bt_square_root(m, 6).rom
        r2 = tibt.tcr(m, 6).rom
        grid = FreqGrid.default_for(m, count=100)
        assert tibt.hinf_rel_error(m, [r1, r2], grid) == [
            tibt.hinf_rel_error(m, r1, grid), tibt.hinf_rel_error(m, r2, grid)]

    def test_full_model_solved_once_per_frequency(self, monkeypatch):
        m = tibt.random_stable(60, 2, 2, seed=3)
        roms = [tibt.bt_square_root(m, 6).rom, tibt.tcr(m, 6).rom]
        grid = FreqGrid.default_for(m, count=50)
        shifts = []
        solve = m.A.shifted_solve

        def counting(s, b):
            shifts.append(s)
            return solve(s, b)

        monkeypatch.setattr(m.A, "shifted_solve", counting)
        tibt.hinf_rel_error(m, roms, grid)
        assert len(set(shifts)) == len(shifts)
        assert set(1j * grid.points) <= set(shifts)
        # plus three golden-section searches (the reference peak and two
        # error peaks), each under 20 probes on this grid's brackets
        assert len(shifts) <= len(grid.points) + 3 * 20

    @pytest.mark.parametrize("make", [
        lambda: tibt.heat_rod(400),
        lambda: tibt.random_stable(60, 2, 2, seed=5),
    ], ids=["heat_rod", "random_stable"])
    def test_two_grid_halves_equal_to_inline(self, make, monkeypatch):
        m = make()
        roms = [tibt.bt_square_root(m, 6).rom, tibt.tcr(m, 6).rom]
        grid = FreqGrid.default_for(m, count=101)
        before = threading.active_count()
        threaded = [tibt.hinf_rel_error(m, roms, grid), tibt.hinf_rel_error(m, roms[0])]
        assert threading.active_count() == before
        with monkeypatch.context() as patch:
            run_inline(patch)
            inline = [tibt.hinf_rel_error(m, roms, grid), tibt.hinf_rel_error(m, roms[0])]
        assert threaded == inline

    def test_concurrent_callers_solve_each_frequency_once_per_call(self, monkeypatch):
        # four callers, each with its own worker, under a 1 us switch interval
        models = [tibt.random_stable(40 + k, 2, 2, seed=k) for k in range(4)]
        roms = [tibt.bt_square_root(m, 4).rom for m in models]
        grids = [FreqGrid.default_for(m, count=60) for m in models]
        with monkeypatch.context() as patch:
            run_inline(patch)
            expected = [tibt.hinf_rel_error(*case) for case in zip(models, roms, grids)]
        shifts = [[] for _ in models]
        for m, seen in zip(models, shifts):
            solve = m.A.shifted_solve
            monkeypatch.setattr(m.A, "shifted_solve", lambda s, b, solve=solve, seen=seen:
                                seen.append(s) or solve(s, b))
        calls = 3
        results = [[] for _ in models]

        def run(i):
            for _ in range(calls):
                results[i].append(tibt.hinf_rel_error(models[i], roms[i], grids[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(models))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for got, want, seen, grid in zip(results, expected, shifts, grids):
            assert got == [want] * calls
            assert all(seen.count(1j * w) == calls for w in grid.points)

    def test_odd_grid_half_failure_raised_in_the_caller(self, monkeypatch):
        m = tibt.random_stable(30, 2, 2, seed=3)
        rom = tibt.bt_square_root(m, 4).rom
        grid = FreqGrid.default_for(m, count=20)
        odd = set(1j * grid.points[1::2])
        solve = m.A.shifted_solve

        def failing_at_odd_points(s, b):
            if s in odd:
                raise ShiftSolveFailure(f"odd point {s}")
            return solve(s, b)

        monkeypatch.setattr(m.A, "shifted_solve", failing_at_odd_points)
        before = threading.active_count()
        with pytest.raises(ShiftSolveFailure, match="odd point"):
            tibt.hinf_rel_error(m, rom, grid)
        assert threading.active_count() == before

    def test_empty_sequence_rejected(self):
        m = scalar_model()
        with pytest.raises(ValueError):
            tibt.hinf_rel_error(m, [])

    @pytest.mark.parametrize("single", [True, False], ids=["rom", "sequence"])
    def test_other_input_output_shape_rejected(self, monkeypatch, single):
        # a 1x2 ROM against a 1x1 model would broadcast; refused before any
        # grid or solve
        m = tibt.random_stable(20, 1, 1, 0)
        rom = tibt.random_stable(3, 2, 1, 1)
        monkeypatch.setattr(FreqGrid, "default_for", None)
        monkeypatch.setattr(tibt.metrics, "eval_transfer", None)
        with pytest.raises(DimensionMismatchError,
                           match=r"^reduced model is 1x2 \(outputs x inputs\), "
                                 r"model is 1x1$"):
            tibt.hinf_rel_error(m, rom if single else [m, rom])


class TestSigmaSweep:
    def test_scalar_analytic_magnitude(self):
        grid = FreqGrid.log_spaced(1e-2, 1e2, 40)
        rows = tibt.sigma_sweep(scalar_model(), grid)
        expected = 1.0 / np.sqrt(1.0 + grid.points**2)
        assert np.allclose(rows[:, 1], expected, rtol=0, atol=1e-12)

    def test_high_frequency_asymptote(self):
        # strictly proper: sigma ~ ||C B|| / omega, slope -1 on log-log
        m = tibt.random_stable(8, 2, 2, seed=69)
        rho = np.max(np.abs(np.linalg.eigvals(m.A.to_dense())))
        grid = FreqGrid.log_spaced(1e3 * rho, 1e5 * rho, 30)
        rows = tibt.sigma_sweep(m, grid)
        slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0]
        assert abs(slope + 1.0) <= 0.05
        cb = np.linalg.norm(m.C @ m.B, 2)
        assert np.allclose(rows[:, 1] * rows[:, 0], cb, rtol=0.05)

    def test_mimo_diagonal_channels(self):
        a = np.diag([-1.0, -10.0])
        m = tibt.StateSpaceModel(a, np.eye(2), np.eye(2))
        grid = FreqGrid.log_spaced(1e-2, 1e2, 25)
        rows = tibt.sigma_sweep(m, grid)
        chan = np.maximum(1.0 / np.sqrt(grid.points**2 + 1.0),
                          1.0 / np.sqrt(grid.points**2 + 100.0))
        assert np.allclose(rows[:, 1], chan, rtol=0, atol=1e-12)
