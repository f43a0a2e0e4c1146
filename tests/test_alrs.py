import math

import numpy as np
import pytest
from conftest import (
    AbsorbedColumns,
    CountingOperator,
    max_principal_angle,
    two_qr_lyapunov_residual,
)

import tibt
import tibt.alrs
from tibt.alrs import AlrsConfig, _RankLadder, lowrank_lyapunov_residual, padded_change
from tibt.errors import NonHurwitzError


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
        reason="extend_orthonormal floors its drop threshold at an absolute "
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
        # the run takes A V C from its basis, the public kernel applies A
        model = make()
        res = tibt.alrs_lyap(model.A, model.B, AlrsConfig(r0=2, dr=2, tol=1e-6, seed=0))
        expected = lowrank_lyapunov_residual(model.A, model.B, res.factor)
        assert abs(res.residual - expected) <= 1e-10 * expected

    def test_applies_a_only_to_absorbed_columns(self):
        m = tibt.heat_rod(2000)
        op = CountingOperator(m.A)
        absorbed = AbsorbedColumns()
        res = tibt.alrs_lyap(op, m.B, AlrsConfig(r0=2, dr=2, tol=1e-6, seed=0),
                             on_iteration=lambda rec, basis, _: absorbed.add(rec, basis))
        assert res.converged
        assert sum(rec.i == 1 for rec in res.singular_history) >= 3  # stages
        assert op.cols[0] == absorbed.total

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
        # stage resets keep the buffers of V and A V, so each regrows only
        # when a stage outgrows every earlier one (criterion-9 config)
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
        for buffer_calls in (calls[0::2], calls[1::2]):  # V, then A V
            assert sum(grew for grew, _ in buffer_calls) <= bound

    def test_basis_is_orthonormal_and_core_psd(self):
        m = tibt.heat_rod(300)
        res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(tol=1e-5, seed=2))
        v = res.factor.basis
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-8)
        w = np.linalg.eigvalsh(res.factor.core)
        assert w.min() >= -1e-10 * max(w.max(), 1.0)

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

    def test_unstable_matrix_rejected(self):
        with pytest.raises(NonHurwitzError):
            tibt.alrs_lyap(np.array([[1.0]]), np.array([[1.0]]),
                           AlrsConfig(seed=0))

    def test_zero_rhs_converges_to_empty_factor(self):
        res = tibt.alrs_lyap(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                             AlrsConfig(r0=1, dr=1, tol=1e-6, seed=0))
        assert res.converged
        assert res.factor.rank == 0
        assert res.residual == 0.0
