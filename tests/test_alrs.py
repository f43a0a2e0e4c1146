import math
import tracemalloc

import numpy as np
import pytest
from conftest import (
    AbsorbedColumns,
    CountingOperator,
    block_family,
    max_principal_angle,
    two_qr_lyapunov_residual,
)

import tibt
import tibt.alrs
from tibt.alrs import AlrsConfig, _RankLadder, lowrank_lyapunov_residual, padded_change
from tibt.errors import NonHurwitzError
from tibt.metrics import gramian_rel_error


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlrsConfig(r0=0)
        with pytest.raises(ValueError):
            AlrsConfig(tol=2.0)
        with pytest.raises(ValueError):
            AlrsConfig(k_max=0)


class TestPaddedChange:
    def test_equal_vectors(self):
        assert padded_change(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_pads_shorter_with_zeros(self):
        change = padded_change(np.array([3.0, 4.0]), np.array([3.0]))
        assert np.isclose(change, 4.0 / 5.0)


class TestRankLadder:
    def test_stage_ends_on_stagnation_and_raises_rank(self):
        ladder = _RankLadder(AlrsConfig(r0=2, dr=3, tol=1e-3, i_max=5))
        s = np.array([1.0, 0.5, 0.1, 0.01])
        assert ladder.step(s) is False
        assert (ladder.r, ladder.i) == (2, 2)
        assert ladder.step(s.copy()) is True  # no change: the stage ended
        assert (ladder.r, ladder.i) == (5, 1)
        assert [(h.k, h.i, h.r) for h in ladder.history] == [(1, 1, 2), (2, 2, 2)]
        assert np.array_equal(ladder.history[0].values, s[:2])

    def test_stage_ends_at_i_max(self):
        ladder = _RankLadder(AlrsConfig(r0=1, dr=1, tol=1e-3, i_max=3))
        ends = [ladder.step(np.array([1.0 + k, 0.5])) for k in range(4)]
        assert ends == [False, False, True, False]
        assert [(h.i, h.r) for h in ladder.history] == [(1, 1), (2, 1), (3, 1), (1, 2)]

    def test_values_recorded_up_to_available_rank(self):
        ladder = _RankLadder(AlrsConfig(r0=4))
        ladder.step(np.array([1.0, 0.5]))
        assert len(ladder.history[0].values) == 2

    def test_converges_on_tol(self):
        ladder = _RankLadder(AlrsConfig(r0=2, tol=1e-3))
        ladder.step(np.array([1.0, 0.5, 0.1]))
        assert ladder.done(np.array([1.0, 0.5, 0.1])) is False
        assert ladder.converged is False
        assert ladder.done(np.array([1.0, 5e-4, 0.0])) is True
        assert ladder.converged is True

    def test_rank_deficient_product_converges(self):
        # the r-th value of a product with fewer than r values is zero
        ladder = _RankLadder(AlrsConfig(r0=3, tol=1e-3))
        s = np.array([1.0, 0.5])
        ladder.step(s)
        assert ladder.done(s) is True
        assert ladder.converged is True

    def test_zero_top_value_converges(self):
        ladder = _RankLadder(AlrsConfig(r0=2, tol=1e-3))
        s = np.zeros(3)
        ladder.step(s)
        assert ladder.done(s) is True
        assert ladder.converged is True

    def test_k_max_stops_unconverged(self):
        ladder = _RankLadder(AlrsConfig(r0=2, tol=1e-3, k_max=3))
        stops = []
        for k in range(3):
            s = np.array([1.0, 0.5 - 0.1 * k, 0.1])
            ladder.step(s)
            stops.append(ladder.done(s))
        assert stops == [False, False, True]
        assert ladder.converged is False
        assert len(ladder.history) == 3


class TestAlrsLyap:
    def test_exact_low_rank_solution(self):
        # only the first state is controllable, so P has rank one
        a = np.diag([-1.0, -2.0, -3.0])
        b = np.array([[1.0], [0.0], [0.0]])
        cfg = AlrsConfig(r0=1, dr=1, tol=1e-8, seed=0)
        res = tibt.alrs_lyap(a, b, cfg)
        assert res.converged
        exact = np.zeros((3, 3))
        exact[0, 0] = 0.5
        approx = res.factor.reconstruct()
        assert np.linalg.norm(approx - exact, 2) <= 1e-7 * 0.5

    def test_top_value_for_aligned_input(self):
        # B along an eigenvector of symmetric A: P = -|b|^2/(2 lambda) v v^T
        rng = np.random.default_rng(60)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        lam = -np.arange(1.0, 13.0)
        a = (q * lam) @ q.T
        beta = 2.5
        b = beta * q[:, [0]]
        res = tibt.alrs_lyap(a, b, AlrsConfig(r0=1, dr=1, tol=1e-8, seed=1))
        expected = -beta**2 / (2.0 * lam[0])
        assert abs(res.values[0] - expected) <= 1e-8 * expected

    def test_heat_rod_accuracy(self):
        m = tibt.heat_rod(400)
        cfg = AlrsConfig(r0=2, dr=2, tol=1e-6, seed=0)
        res = tibt.alrs_lyap(m.A, m.B, cfg)
        assert res.converged
        gram = tibt.gramians_dense(m)
        assert tibt.gramian_rel_error(gram.P, res.factor.reconstruct()) <= 1e-5

    @pytest.mark.xfail(
        reason="orthonormalize floors its drop threshold at an absolute "
               "ORTH_DROP_RTOL, so a small B's later directions are all "
               "dropped and the run stops early flagged converged (ROADMAP "
               "item 1: the drop-rule floor)",
    )
    def test_scaled_input_reaches_unscaled_rank(self):
        m = tibt.heat_rod(30)
        res = tibt.alrs_lyap(m.A, 1e-10 * m.B, AlrsConfig())
        assert res.factor.rank == 8
        assert res.residual <= 1e-4

    def test_residual_diagnostic_on_heat_rod(self):
        m = tibt.heat_rod(1000)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(r0=2, dr=2, tol=1e-6, seed=0))
        assert res.residual <= 1e-4

    @pytest.mark.parametrize("n", [400, 1000, 2000])
    @pytest.mark.parametrize("tol", [1e-4, 1e-10])
    def test_residual_matches_two_qr_oracle(self, n, tol):
        # tol = 1e-10 leaves residuals of 7e-10 to 1.2e-8
        m = tibt.heat_rod(n)
        cfg = AlrsConfig(r0=2, dr=2, tol=tol, seed=0)
        factor = tibt.alrs_lyap(m.A, m.B, cfg).factor
        expected = two_qr_lyapunov_residual(m.A.to_dense(), m.B, factor)
        got = lowrank_lyapunov_residual(m.A, m.B, factor)
        assert abs(got - expected) <= 1e-10 * expected

    @pytest.mark.parametrize("make", [lambda: tibt.heat_rod(1000),
                                      lambda: tibt.random_stable(150, 2, 2, seed=0)],
                             ids=["heat_rod", "random_stable"])
    def test_residual_matches_public_kernel(self, make):
        # the run reports the public kernel's residual of its factor
        model = make()
        res = tibt.alrs_lyap(model.A, model.B, AlrsConfig(r0=2, dr=2, tol=1e-6, seed=0))
        assert res.residual == lowrank_lyapunov_residual(model.A, model.B, res.factor)

    @staticmethod
    def _applied_and_absorbed(model):
        """Columns the run passes to A and A^T, columns its basis absorbed,
        and its factor's rank."""
        op = CountingOperator(model.A)
        absorbed = AbsorbedColumns()
        res = tibt.alrs_lyap(op, model.B, AlrsConfig(r0=2, dr=2, tol=1e-6, seed=0),
                             on_iteration=lambda rec, basis, _: absorbed.add(rec, basis))
        assert res.converged
        assert sum(rec.i == 1 for rec in res.singular_history) >= 3  # stages
        return op.cols[0], absorbed.total, res.factor.rank

    def test_applies_a_only_to_absorbed_columns(self):
        # on a symmetric A, V^T A V is bordered from A q alone: A sees each
        # absorbed column once, and the residual the factor's r columns
        applied, absorbed, r = self._applied_and_absorbed(tibt.heat_rod(2000))
        assert applied == absorbed + r

    def test_applies_a_and_its_transpose_only_to_absorbed_columns(self):
        # on a non-symmetric A, A^T sees each absorbed column once too
        applied, absorbed, r = self._applied_and_absorbed(tibt.random_stable(120, 2, 2, 5))
        assert applied == 2 * absorbed + r

    def test_basis_stays_orthonormal_every_sweep(self):
        # tol = 1e-10 drives the basis into directions it already holds, so
        # the append kernel drops columns; orthonormality must survive that
        m = tibt.heat_rod(2000)
        orth = []
        dropped = []
        widths = []

        def probe(record, basis, directions):
            gram = basis.T @ basis
            orth.append(np.linalg.norm(gram - np.eye(gram.shape[0]), 2))
            if record.i > 1:
                dropped.append(basis.shape[1] < widths[-1] + directions.shape[1])
            widths.append(basis.shape[1])

        tibt.alrs_lyap(m.A, m.B, AlrsConfig(r0=2, dr=2, tol=1e-10, seed=0),
                       on_iteration=probe)
        assert any(dropped)
        assert max(orth) <= 1e-12

    def test_one_basis_allocation_per_run(self, monkeypatch):
        # a one-sided run keeps one n-row buffer, V's, and stage resets keep
        # it, so it regrows only when a stage outgrows every earlier one
        # (criterion-9 config)
        calls = []
        reserve = tibt.alrs._reserve

        def counting(buf, k, j):
            out = reserve(buf, k, j)
            calls.append((out is not buf, k + j))
            return out

        monkeypatch.setattr(tibt.alrs, "_reserve", counting)
        m = tibt.heat_rod(3000)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(r0=2, dr=2, tol=1e-4, i_max=3,
                                                  k_max=21, seed=0))
        assert res.converged
        assert sum(rec.i == 1 for rec in res.singular_history) >= 4  # stages
        bound = math.ceil(math.log2(max(width for _, width in calls))) + 1
        grown = [width for grew, width in calls if grew]
        assert grown == sorted(set(grown))  # one buffer: each growth is wider
        assert len(grown) <= bound

    def test_peak_memory_of_a_run(self):
        # criterion-9 config: the run keeps no A V buffer and each n-row
        # array lives only until its last use, so a run's numpy allocations
        # peak below 64 n-vectors (86.0 with an A V buffer beside V's, 114.6
        # when the caller also kept F and the buffers outlived their last
        # read)
        n = 200_000
        m = tibt.heat_rod(n)
        cfg = AlrsConfig(r0=2, dr=2, tol=1e-4, i_max=3, k_max=21, seed=0)
        tracemalloc.start()
        try:
            res = tibt.alrs_lyap(m.A, m.B, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= 64 * 8 * n, f"peak {peak / (8 * n):.1f} n-vectors"

    def test_peak_memory_of_the_residual(self):
        # criterion-9 config: [A V C, B] is built once and projected in
        # place, so the residual peaks at 2r + 1 n-vectors besides the
        # factor (3r + 3 when A V C, the stacked copy and a fresh remainder
        # were alive at once)
        n = 100_000
        m = tibt.heat_rod(n)
        cfg = AlrsConfig(r0=2, dr=2, tol=1e-4, i_max=3, k_max=21, seed=0)
        factor = tibt.alrs_lyap(m.A, m.B, cfg).factor
        tracemalloc.start()
        try:
            lowrank_lyapunov_residual(m.A, m.B, factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r = factor.rank
        assert peak <= (2 * r + 2) * 8 * n, f"peak {peak / (8 * n):.1f} n-vectors, r = {r}"

    def test_basis_is_orthonormal_and_core_psd(self):
        m = tibt.heat_rod(300)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(tol=1e-5, seed=2))
        v = res.factor.basis
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-8)
        w = np.linalg.eigvalsh(res.factor.core)
        assert w.min() >= -1e-10 * max(w.max(), 1.0)

    @pytest.mark.parametrize("make", [lambda: tibt.heat_rod(400),
                                      lambda: tibt.random_stable(80, 2, 2, 5)],
                             ids=["heat_rod400", "random_stable80"])
    def test_core_is_diag_of_retained_values(self, make, lyapunov_solves):
        # the core is the truncated projection's Gramian, read off the last
        # truncation: one projected solve per sweep and none after
        m = make()
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig())
        assert np.array_equal(res.factor.core, np.diag(res.values))
        assert len(lyapunov_solves) == res.iterations_used

    def test_values_read_off_the_core_without_an_eigensolve(self, monkeypatch):
        m = tibt.heat_rod(400)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig())

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("values ran an eigensolve on a diagonal core")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert np.array_equal(res.values, np.diag(res.factor.core))

    @pytest.mark.xfail(
        reason="early sweeps overshoot the top value from arbitrary starting "
               "data, so strict within-stage monotonicity fails at the 1e-10 "
               "level (README: known limitations); it does hold once the "
               "dominant direction is resolved",
    )
    def test_monotone_top_value_within_stage(self):
        m = tibt.heat_rod(200)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(tol=1e-6, seed=0))
        for prev, cur in zip(res.singular_history, res.singular_history[1:]):
            if cur.i > prev.i:  # consecutive iterations of one stage
                assert cur.values[0] >= prev.values[0] * (1.0 - 1e-10)

    def test_monotone_top_value_after_first_stage(self):
        # the attainable form of the monotone-capture property: once the
        # dominant direction has been resolved (first stage done), the top
        # estimate never drops by more than round-off
        m = tibt.heat_rod(200)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(tol=1e-6, seed=0))
        first_stage = res.singular_history[0].r
        for prev, cur in zip(res.singular_history, res.singular_history[1:]):
            if cur.i > prev.i and cur.r > first_stage:
                assert cur.values[0] >= prev.values[0] * (1.0 - 1e-6)

    def test_expanded_basis_contains_new_directions(self):
        m = tibt.heat_rod(200)
        events = []

        def probe(record, basis, directions):
            events.append(max_principal_angle(basis, directions))

        tibt.alrs_lyap(m.A, m.B, AlrsConfig(tol=1e-5, seed=0),
                       on_iteration=probe)
        assert events
        assert max(events) <= 1e-8

    def test_deterministic_history(self):
        m = tibt.heat_rod(150)
        cfg = AlrsConfig(tol=1e-5, seed=123)
        r1 = tibt.alrs_lyap(m.A, m.B, cfg)
        r2 = tibt.alrs_lyap(m.A, m.B, cfg)
        assert len(r1.singular_history) == len(r2.singular_history)
        for rec1, rec2 in zip(r1.singular_history, r2.singular_history):
            assert (rec1.k, rec1.i, rec1.r) == (rec2.k, rec2.i, rec2.r)
            assert np.array_equal(rec1.values, rec2.values)
        assert np.array_equal(r1.factor.basis, r2.factor.basis)

    def test_exhausted_budget_flagged(self):
        m = tibt.heat_rod(200)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(tol=1e-12, k_max=3, seed=0))
        assert res.converged is False
        assert res.iterations_used == 3

    def test_wrong_b_rows_rejected(self):
        with pytest.raises(ValueError, match=r"^B must have 10 rows, got \(9, 1\)$"):
            tibt.alrs_lyap(tibt.heat_rod(10).A, np.ones((9, 1)), AlrsConfig())

    def test_unstable_matrix_rejected(self):
        with pytest.raises(NonHurwitzError):
            tibt.alrs_lyap(np.array([[1.0]]), np.array([[1.0]]),
                           AlrsConfig(seed=0))

    @pytest.mark.parametrize("seed", range(6))
    def test_non_dissipative_block_family(self, seed):
        # A is Hurwitz but A + A^T is indefinite, so a projection of A can be
        # unstable; it is reflected before the projected solve
        m = block_family(seed)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(tol=1e-6, seed=0))
        assert res.converged
        assert gramian_rel_error(m.gramians.P, res.factor.reconstruct()) <= 1e-6

    def test_zero_rhs_converges_to_empty_factor(self):
        res = tibt.alrs_lyap(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                             AlrsConfig(r0=1, dr=1, tol=1e-6, seed=0))
        assert res.converged
        assert res.factor.rank == 0
        assert res.residual == 0.0


DISSIPATIVE_MODELS = {
    "heat_rod": lambda: tibt.heat_rod(400),
    "random_stable": lambda: tibt.random_stable(80, 2, 2, 5),
}
# each driver's number of sides and its sweep history
DRIVERS = {
    "alrs_lyap": (1, lambda m, cfg: tibt.alrs_lyap(m.A, m.B, cfg).singular_history),
    "atia_bt": (2, lambda m, cfg: tibt.atia_bt(m, cfg).history),
}


class TestBasis:
    @pytest.mark.parametrize("make", [lambda: tibt.heat_rod(500),
                                      lambda: tibt.random_stable(80, 2, 2, 5)],
                             ids=["heat_rod", "random_stable"])
    def test_bordered_projection_matches_direct(self, make):
        # V^T A V bordered over several extensions and a restart, without
        # an A V buffer, is V^T A V formed directly; on a symmetric A it is
        # exactly symmetric
        m = make()
        a = m.A.to_dense()
        rng = np.random.default_rng(0)
        basis = tibt.alrs._Basis(m.A, m.B)
        assert basis._av is None
        for step in range(6):
            new = rng.standard_normal((m.n, 3))
            if step == 3:
                basis.restart(new)
            else:
                basis.extend(new)
            v = basis.v
            direct = v.T @ (a @ v)
            assert np.linalg.norm(basis.ak - direct) <= 1e-13 * np.linalg.norm(direct)
            assert np.array_equal(basis.ak, basis.ak.T) == m.A.symmetric
        assert basis.k == 9


class TestSweep:
    @pytest.mark.parametrize("driver", DRIVERS.values(), ids=DRIVERS.keys())
    def test_sweep_builds_the_one_start(self, driver, monkeypatch):
        calls = []
        random_stable = tibt.alrs.random_stable

        def counting(*args):
            calls.append(args)
            return random_stable(*args)

        monkeypatch.setattr(tibt.alrs, "random_stable", counting)
        _, run = driver
        run(tibt.random_stable(40, 2, 2, 1), AlrsConfig(tol=1e-4, seed=3))
        assert calls == [(2, 2, 2, 3)]

    @pytest.mark.parametrize("driver", DRIVERS.values(), ids=DRIVERS.keys())
    def test_start_order_capped_at_n(self, driver, monkeypatch):
        # r0 above n starts from an order-n ROM, not an r0-column solve
        orders = []
        random_stable = tibt.alrs.random_stable

        def recording(n, *args):
            orders.append(n)
            return random_stable(n, *args)

        monkeypatch.setattr(tibt.alrs, "random_stable", recording)
        _, run = driver
        run(tibt.heat_rod(10), AlrsConfig(r0=500, tol=1e-4, seed=0))
        assert orders == [10]

    @pytest.mark.parametrize("driver", DRIVERS.values(), ids=DRIVERS.keys())
    @pytest.mark.parametrize("make", DISSIPATIVE_MODELS.values(), ids=DISSIPATIVE_MODELS.keys())
    def test_projected_reflection_is_a_no_op_on_dissipative_a(self, make, driver, monkeypatch):
        # a Galerkin projection of a dissipative A is Hurwitz, so each side's
        # projected matrix reaches its Lyapunov solve untouched; the interim
        # ROM's reflection runs as usual
        sides, run = driver
        reflect, factor = tibt.alrs.reflect_spectrum, tibt.alrs._Basis.gramian_factor
        projected, unchanged = [], []

        def spy_reflect(a):
            out = reflect(a)
            if any(a is p for p in projected):
                unchanged.append(out is a)
            return out

        def spy_factor(basis):
            projected.append(basis.ak)
            return factor(basis)

        monkeypatch.setattr(tibt.alrs, "reflect_spectrum", spy_reflect)
        monkeypatch.setattr(tibt.alrs._Basis, "gramian_factor", spy_factor)
        history = run(make(), AlrsConfig(tol=1e-5, seed=0))
        assert len(projected) == sides * len(history)
        assert len(unchanged) == len(projected)
        assert all(unchanged)

    def test_one_sided_sweeps_on_a_symmetric_a_interpolate_at_symmetric_roms(
            self, monkeypatch):
        # every sweep after the first interpolates at the reflected Galerkin
        # ROM, kept exactly symmetric; the first, at the seed's random start,
        # does not
        ms = []
        solve = tibt.alrs.solve_sylvester_skinny
        monkeypatch.setattr(tibt.alrs, "solve_sylvester_skinny",
                            lambda op, m, g, h: ms.append(m) or solve(op, m, g, h))
        m = tibt.heat_rod(1000)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(r0=2, dr=2, tol=1e-5, seed=0))
        assert res.converged
        assert len(ms) == res.iterations_used
        assert not np.array_equal(ms[0], ms[0].T)
        assert all(np.array_equal(a, a.T) for a in ms[1:])

    @pytest.mark.parametrize("run", [
        lambda: tibt.atia_bt(tibt.heat_rod(1000), AlrsConfig(tol=1e-5, seed=0)),
        lambda: tibt.alrs_lyap(block_family(0).A, block_family(0).B,
                               AlrsConfig(tol=1e-6, seed=0)),
    ], ids=["atia_bt-heat_rod", "alrs_lyap-block_family"])
    def test_other_sweeps_keep_the_schur_loop(self, run, monkeypatch):
        # two-sided sweeps and a non-symmetric A never decouple the solve
        decoupled = []
        monkeypatch.setattr(tibt.linalg, "_solve_decoupled",
                            lambda *args: decoupled.append(args))
        run()
        assert decoupled == []
