"""Acceptance gate: one test per criterion, tolerances pinned up front.

Each test finishes by printing one ``CRITERION <n>: PASS`` line (pytest -v
additionally shows one PASSED/FAILED line per criterion). Criteria 5 and 6
assert behavior the implemented algorithms provably cannot deliver on these
instances (see "Known limitations" in the README); they are asserted at
full strength and run red rather than being weakened.
"""

import resource
import time

import numpy as np
from conftest import kron_lyapunov, kron_sylvester, transfer_mismatch

import tibt
from tibt.alrs import AlrsConfig
from tibt.atia import AtiaConfig
from tibt.linalg import orthonormalize, solve_lyapunov_dense, solve_sylvester_skinny
from tibt.metrics import FreqGrid
from tibt.reducers import bt_from_factors, h2_optimality_residuals


def _ok(criterion):
    print(f"CRITERION {criterion}: PASS")


def assert_printed(value, stated, decimals, label):
    """Agreement with a value printed to ``decimals`` decimal places: within
    one unit of the last printed digit (covers truncation and rounding)."""
    assert abs(value - stated) <= 10.0 ** (-decimals), \
        f"{label}: computed {value!r} vs printed {stated!r}"


def eig_truncation_factor(p, rank):
    w, v = np.linalg.eigh(p)
    w, v = w[::-1], v[:, ::-1]
    return v[:, :rank] * np.sqrt(w[:rank])


def test_criterion_1_illustrative_example_exactness():
    start = time.monotonic()
    m = tibt.illustrative4()
    gram = m.gramians
    sp = np.linalg.svd(gram.P, compute_uv=False)
    sq = np.linalg.svd(gram.Q, compute_uv=False)
    hsv = tibt.hankel_singular_values(m)
    elapsed = time.monotonic() - start

    assert abs(sp[0] - 5.0e5) <= 1e-4 * 5.0e5
    assert_printed(sp[1], 7.2713, 4, "sigma_P 2")
    assert_printed(sp[2], 0.1887, 4, "sigma_P 3")
    assert_printed(sp[3], 0.0002, 4, "sigma_P 4")
    assert abs(sq[0] - 2.5e5) <= 1e-4 * 2.5e5
    assert_printed(sq[1], 7.2906, 4, "sigma_Q 2")
    assert_printed(sq[2], 0.18936, 5, "sigma_Q 3")
    assert_printed(sq[3], 0.0005, 4, "sigma_Q 4")
    for got, stated in zip(hsv, (73.1370, 7.2831, 1.8919, 0.1880)):
        assert_printed(got, stated, 4, "hankel value")
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    _ok(1)


def test_criterion_2_naive_lowrank_bt_failure_reproduction():
    m = tibt.illustrative4()
    gram = m.gramians
    zp3 = eig_truncation_factor(gram.P, 3)
    zq3 = eig_truncation_factor(gram.Q, 3)
    naive = bt_from_factors(m, zp3, zq3, 2)
    naive_hsv = tibt.hankel_singular_values(naive.rom)
    assert_printed(naive_hsv[0], 72.9579, 4, "naive hankel 1")
    assert_printed(naive_hsv[1], 8.3810, 4, "naive hankel 2")
    dense = tibt.bt_square_root(m, 2)
    assert_printed(dense.retained_sv[0], 73.1370, 4, "dense hankel 1")
    assert_printed(dense.retained_sv[1], 7.2831, 4, "dense hankel 2")
    _ok(2)


def test_criterion_3_gramian_truncation_errors():
    m = tibt.illustrative4()
    gram = tibt.gramians_dense(m)
    zp3 = eig_truncation_factor(gram.P, 3)
    err_p = tibt.gramian_rel_error(gram.P, zp3 @ zp3.T)
    assert abs(err_p - 5.5223e-10) <= 1e-3 * 5.5223e-10
    zq3 = eig_truncation_factor(gram.Q, 3)
    err_q = tibt.gramian_rel_error(gram.Q, zq3 @ zq3.T)
    assert abs(err_q - 2.1957e-9) <= 1e-3 * 2.1957e-9
    _ok(3)


def test_criterion_4_adaptive_lyapunov_accuracy():
    m = tibt.heat_rod(1000)
    start = time.monotonic()
    res = tibt.alrs_lyap(m.A, m.B, AlrsConfig(r0=2, dr=2, tol=1e-6, seed=0))
    elapsed = time.monotonic() - start
    assert res.converged
    gram = tibt.gramians_dense(m)
    assert tibt.gramian_rel_error(gram.P, res.factor.reconstruct()) <= 1e-5
    dense_sv = np.linalg.svd(gram.P, compute_uv=False)
    r = res.factor.rank
    rel = np.abs(res.values[:r] - dense_sv[:r]) / dense_sv[:r]
    assert np.max(rel) <= 1e-4
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _ok(4)


def test_criterion_5_adaptive_bt_vs_dense_bt():
    failures = []
    cases = (
        ("heat_rod(1000)", tibt.heat_rod(1000)),
        ("random_stable(300,2,2,11)", tibt.random_stable(300, 2, 2, seed=11)),
    )
    for label, model in cases:
        res = tibt.atia_bt(model, AtiaConfig(r0=2, dr=2, tol=1e-5, seed=0))
        r = res.rom.r
        dense = tibt.bt_square_root(model, r)
        grid = FreqGrid.default_for(model, count=300)
        ratio_adaptive = tibt.hinf_rel_error(model, res.rom.rom, grid)
        ratio_dense = tibt.hinf_rel_error(model, dense.rom, grid)
        if not ratio_adaptive <= 2.0 * ratio_dense:
            failures.append(f"{label}: sampled error ratio "
                            f"{ratio_adaptive / ratio_dense:.2f}x dense BT")
        est = res.hankel_estimates
        ref = dense.retained_sv
        rel = np.abs(est - ref) / ref
        if not np.max(rel) <= 1e-3:
            failures.append(f"{label}: worst retained-value deviation "
                            f"{np.max(rel):.2e}")
    assert not failures, "; ".join(failures)
    _ok(5)


def test_criterion_6_interpolation_equivalence_curves():
    m = tibt.random_stable(60, 2, 2, seed=7)
    violations = []
    for r in range(2, 21, 2):
        dense = tibt.bt_square_root(m, r)
        pr = tibt.pole_residue(dense.rom)
        data = tibt.InterpolationData.from_points(-pr.poles, pr.right,
                                                  -pr.poles, np.conj(pr.left))
        interp = tibt.tangential_interpolate(m, data)
        e_dense = tibt.pq_rel_error(m, dense)
        e_interp = tibt.pq_rel_error(m, interp)
        if not e_interp <= 10.0 * e_dense:
            violations.append(f"r={r}: {e_interp / e_dense:.1e}x")
    assert not violations, "interpolation/BT PQ-error ratios exceed 10x at " \
        + ", ".join(violations)
    _ok(6)


def test_criterion_7_tsia_optimality():
    m = tibt.illustrative4()
    red = tibt.tsia(m, tibt.random_stable(2, 1, 1, seed=7), conv_tol=1e-10)
    assert red.converged
    res = h2_optimality_residuals(m, red)
    assert max(res.values()) <= 1e-6, res
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
    _ok(7)


def test_criterion_8_oracle_suites():
    # dense Lyapunov and Sylvester solvers vs Kronecker brute force
    for seed in range(50):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, 31))
        g = rng.standard_normal((n, n))
        a = g - (np.linalg.norm(g, 2) + 1.0) * np.eye(n)
        sym = rng.standard_normal((n, n))
        sym = sym + sym.T
        p = solve_lyapunov_dense(a, sym)
        expected = kron_lyapunov(a, sym)
        assert np.linalg.norm(p - expected) <= 1e-8 * np.linalg.norm(expected)

        r = int(rng.integers(1, 6))
        gm = rng.standard_normal((r, r))
        msmall = gm - (np.linalg.norm(gm, 2) + 1.0) * np.eye(r)
        f = rng.standard_normal((n, r))
        x = solve_sylvester_skinny(a, msmall, f)
        expected = kron_sylvester(a, msmall, f)
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    # low-rank BT equals reduce-the-interpolant, 20 seeded instances
    rng = np.random.default_rng(123)
    points = (0.37j, 1.3j, 4.1j, 11.0j, 2.5)
    for trial in range(20):
        m = tibt.random_stable(40, 2, 2, seed=100 + trial)
        vk = orthonormalize(rng.standard_normal((40, 10)))
        wk = orthonormalize(vk + 0.15 * rng.standard_normal((40, 10)))
        wv = wk.T @ vk
        atil = np.linalg.solve(wv, wk.T @ m.A.apply(vk))
        interp = tibt.StateSpaceModel(atil, np.linalg.solve(wv, wk.T @ m.B),
                                      m.C @ vk)
        assert tibt.is_hurwitz(interp)
        red = tibt.two_step_lowrank_bt(m, vk, wk, 4)
        ref = tibt.bt_square_root(interp, 4)
        assert transfer_mismatch(red.rom, ref.rom, points) <= 1e-8
    _ok(8)


def test_criterion_9_large_scale_smoke():
    m = tibt.heat_rod(10**6)
    res = tibt.alrs_lyap(m.A, m.B,
                         AlrsConfig(r0=2, dr=2, tol=1e-4, i_max=3, k_max=21,
                                    seed=0))
    assert res.converged
    assert res.factor.basis.shape == (10**6, res.factor.rank)
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert peak_bytes < 4 * 1024**3, f"peak memory {peak_bytes / 1024**3:.2f} GiB"
    _ok(9)
