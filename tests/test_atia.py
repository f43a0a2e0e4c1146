import numpy as np
import pytest
from conftest import AbsorbedColumns, CountingOperator, max_principal_angle

import tibt
import tibt.atia
import tibt.linalg
from tibt.atia import AtiaConfig, atia_hsv_compare
from tibt.errors import DenseInfeasibleError


class TestAtiaBt:
    def test_two_state_system_stops_at_initial_order(self):
        # second Hankel value far below tol: nothing beyond r0 to capture
        a = np.diag([-1.0, -100.0])
        b = np.array([[1.0], [1e-4]])
        c = np.array([[1.0, 1e-4]])
        m = tibt.StateSpaceModel(a, b, c)
        hsv = tibt.hankel_singular_values(m)
        assert hsv[1] / hsv[0] < 1e-3
        res = tibt.atia_bt(m, AtiaConfig(r0=1, dr=1, tol=1e-3, seed=0))
        assert res.converged
        assert res.rom.r == 1
        assert abs(res.hankel_estimates[0] - hsv[0]) <= 1e-6 * hsv[0]

    def test_random_model_matches_dense_bt(self):
        m = tibt.random_stable(300, 2, 2, seed=11)
        res = tibt.atia_bt(m, AtiaConfig(r0=2, dr=2, tol=1e-5, seed=0))
        assert res.converged
        dense = tibt.hankel_singular_values(m)
        est = res.hankel_estimates
        rel = np.abs(est - dense[: len(est)]) / dense[: len(est)]
        assert np.max(rel) <= 1e-3

    def test_symmetric_system_bases_coincide(self):
        hr = tibt.heat_rod(400)
        m = tibt.StateSpaceModel(hr.A, hr.B, hr.B.T)
        res = tibt.atia_bt(m, AtiaConfig(tol=1e-5, seed=0))
        assert res.converged
        assert max_principal_angle(res.rom.Vr, res.rom.Wr) <= 1e-6
        dense = tibt.hankel_singular_values(m)
        est = res.hankel_estimates
        rel = np.abs(est - dense[: len(est)]) / dense[: len(est)]
        assert np.max(rel) <= 1e-4

    @pytest.mark.xfail(
        reason="the asymmetric heat rod stops after a short rank ladder, so "
               "the fixed point's bases are too thin to refine the trailing "
               "Hankel estimates to 1e-4 (README: known limitations)",
    )
    def test_heat_rod_estimates_match_dense(self):
        m = tibt.heat_rod(1000)
        res = tibt.atia_bt(m, AtiaConfig(r0=2, dr=2, tol=1e-5, seed=0))
        dense = tibt.hankel_singular_values(m)
        est = res.hankel_estimates
        rel = np.abs(est - dense[: len(est)]) / dense[: len(est)]
        assert np.max(rel) <= 1e-4

    def test_final_rom_interpolates_at_mirror_poles(self):
        # fixed-point property: the converged ROM interpolates the full
        # model at the mirror images of its own poles along its residual
        # directions, with defect well below 10 * tol
        m = tibt.random_stable(150, 2, 2, seed=66)
        tol = 1e-5
        res = tibt.atia_bt(m, AtiaConfig(r0=2, dr=2, tol=tol, seed=0))
        assert res.converged
        pr = tibt.pole_residue(res.rom.rom)
        for lam, left, right in zip(pr.poles, pr.left, pr.right):
            s = -lam
            h = tibt.eval_transfer(m, s)
            hr = tibt.eval_transfer(res.rom.rom, s)
            rdef = np.linalg.norm((h - hr) @ np.conj(right))
            assert rdef <= 10.0 * tol * np.linalg.norm(h @ np.conj(right))
            ldef = np.linalg.norm(np.conj(left) @ (h - hr))
            assert ldef <= 10.0 * tol * np.linalg.norm(np.conj(left) @ h)

    def test_symmetric_system_matches_one_sided_driver(self):
        # with A = A^T and B = C^T the two-sided run reduces to the one-sided
        # Lyapunov driver followed by controllability truncation
        hr = tibt.heat_rod(400)
        m = tibt.StateSpaceModel(hr.A, hr.B, hr.B.T)
        res = tibt.atia_bt(m, AtiaConfig(tol=1e-5, seed=0))
        low = tibt.alrs_lyap(m.A, m.B, tibt.AlrsConfig(tol=1e-5, seed=0))
        w, v = np.linalg.eigh(low.factor.core)
        v = v[:, ::-1]
        r = min(res.rom.r, low.factor.rank)
        from tibt.reducers import project

        tcr_like = project(m, low.factor.basis @ v[:, :r],
                           low.factor.basis @ v[:, :r])
        for s in (0.5j, 3.0j, 20.0j, 100.0j, 10.0):
            h = tibt.eval_transfer(m, s)
            ha = tibt.eval_transfer(res.rom.rom, s)
            ht = tibt.eval_transfer(tcr_like.rom, s)
            assert np.linalg.norm(ha - ht) <= 1e-8 * np.linalg.norm(h)

    def test_petrov_galerkin_normalization(self):
        m = tibt.random_stable(80, 2, 2, seed=1)
        res = tibt.atia_bt(m, AtiaConfig(tol=1e-4, seed=0))
        wv = res.rom.Wr.T @ res.rom.Vr
        assert np.allclose(wv, np.eye(wv.shape[0]), atol=1e-8)

    def test_estimates_descending_and_consistent(self):
        m = tibt.random_stable(100, 2, 2, seed=3)
        res = tibt.atia_bt(m, AtiaConfig(tol=1e-4, seed=0))
        vals = res.hankel_estimates
        assert np.all(np.diff(vals) <= 0)
        assert len(vals) == res.rom.r

    def test_bases_absorb_new_directions(self):
        m = tibt.random_stable(120, 2, 2, seed=5)
        worst = []

        def probe(record, vk, wk, phat, qhat):
            worst.append(max(max_principal_angle(vk, phat),
                             max_principal_angle(wk, qhat)))

        tibt.atia_bt(m, AtiaConfig(tol=1e-4, seed=0), on_iteration=probe)
        assert worst
        assert max(worst) <= 1e-8

    def test_bases_grow_append_only(self, monkeypatch):
        # A and A^T see each absorbed column once and no full basis, and no
        # basis is rebuilt by a full re-orthonormalization
        def no_full_orthonormalization(m):
            raise AssertionError("full re-orthonormalization")

        monkeypatch.setattr(tibt.atia, "orthonormalize", no_full_orthonormalization,
                            raising=False)
        monkeypatch.setattr(tibt.linalg, "orthonormalize", no_full_orthonormalization)
        src = tibt.random_stable(120, 2, 2, seed=5)
        op = CountingOperator(tibt.DenseOperator(src.A.to_dense(), known_hurwitz=True))
        m = tibt.StateSpaceModel(op, src.B, src.C)
        v_absorbed, w_absorbed = AbsorbedColumns(), AbsorbedColumns()

        def probe(record, vk, wk, phat, qhat):
            v_absorbed.add(record, vk)
            w_absorbed.add(record, wk)

        res = tibt.atia_bt(m, AtiaConfig(tol=1e-4, seed=0), on_iteration=probe)
        assert res.converged
        assert sum(rec.i == 1 for rec in res.history) >= 3  # stages
        assert op.cols[0] == v_absorbed.total + w_absorbed.total

    def test_rebiorthogonalization_branch(self, monkeypatch):
        # a low cap on cond(W^T V) forces the branch that restarts both
        # bases from their well-conditioned directions
        taken = []
        rebiorthogonalize = tibt.atia._rebiorthogonalize

        def counting(*args):
            taken.append(True)
            return rebiorthogonalize(*args)

        monkeypatch.setattr(tibt.atia, "BIORTH_COND_CAP", 1e2)
        monkeypatch.setattr(tibt.atia, "_rebiorthogonalize", counting)
        m = tibt.random_stable(120, 2, 2, seed=5)
        res = tibt.atia_bt(m, AtiaConfig(tol=1e-4, seed=0))
        assert taken
        assert res.converged
        dense = tibt.hankel_singular_values(m)
        est = res.hankel_estimates
        assert np.max(np.abs(est - dense[: len(est)]) / dense[: len(est)]) <= 1e-4
        wv = res.rom.Wr.T @ res.rom.Vr
        assert np.linalg.norm(wv - np.eye(wv.shape[0]), 2) <= 1e-8

    def test_retained_estimates_stable_across_stage_advance(self):
        m = tibt.random_stable(200, 2, 2, seed=9)
        cfg = AtiaConfig(r0=2, dr=2, tol=1e-5, seed=0)
        res = tibt.atia_bt(m, cfg)
        assert res.converged
        # compare each stage's final estimates with the next stage's first
        # full snapshot on shared indices
        by_stage = {}
        for rec in res.history:
            by_stage.setdefault(rec.r, []).append(rec)
        stages = sorted(by_stage)
        for lo, hi in zip(stages, stages[1:]):
            prev = by_stage[lo][-1].values
            nxt = by_stage[hi][-1].values
            shared = min(len(prev), len(nxt))
            rel = np.abs(nxt[:shared] - prev[:shared]) / prev[:shared]
            assert np.max(rel) <= 10.0 * cfg.tol

    def test_deterministic(self):
        m = tibt.random_stable(60, 2, 2, seed=21)
        cfg = AtiaConfig(tol=1e-4, seed=77)
        r1 = tibt.atia_bt(m, cfg)
        r2 = tibt.atia_bt(m, cfg)
        assert np.array_equal(r1.rom.rom.A.to_dense(), r2.rom.rom.A.to_dense())
        for a, b in zip(r1.history, r2.history):
            assert np.array_equal(a.values, b.values)

    def test_zero_coupling_rejected(self):
        m = tibt.StateSpaceModel(np.diag([-1.0, -2.0]), np.zeros((2, 1)),
                                 np.ones((1, 2)))
        with pytest.raises(ValueError):
            tibt.atia_bt(m, AtiaConfig(r0=1, dr=1, tol=1e-4, seed=0))

    def test_stagnation_flagged(self):
        m = tibt.random_stable(80, 2, 2, seed=2)
        res = tibt.atia_bt(m, AtiaConfig(tol=1e-12, k_max=3, seed=0))
        assert res.converged is False
        assert res.iterations_used == 3


class TestAtiaHsvCompare:
    def _result_for(self, model, **kw):
        return tibt.atia_bt(model, AtiaConfig(**kw))

    def test_exact_estimates_give_zero_diff(self):
        from tibt.atia import AtiaResult

        m = tibt.illustrative4()
        result = AtiaResult(rom=tibt.bt_square_root(m, 2))
        table = atia_hsv_compare(result, m)
        assert len(table) == 2
        assert max(row[3] for row in table) <= 1e-10

    def test_structure_on_random_model(self):
        m = tibt.random_stable(100, 2, 2, seed=31)
        res = self._result_for(m, tol=1e-5, seed=0)
        table = atia_hsv_compare(res, m)
        assert len(table) == res.rom.r
        estimates = [row[1] for row in table]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))
        assert [row[0] for row in table] == list(range(1, res.rom.r + 1))

    def test_dense_cap_enforced(self):
        m = tibt.heat_rod(300)
        res = self._result_for(m, tol=1e-4, seed=0)
        with pytest.raises(DenseInfeasibleError):
            atia_hsv_compare(res, m, dense_cap=100)
