"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the status lines live.
Each criterion is asserted at its stated tolerance; nothing here is loosened
to force a pass.
"""

import time

import numpy as np
import pytest

from anderson_lab.accelerators import (
    AccelConfig,
    aa_full_window_vs_gmres_check,
    aa_run,
    aa_step,
    gmres_run,
    run_scheme,
)
from anderson_lab.analysis import (
    derivative_norm_samples,
    estimate_r_factor,
    m_sweep,
    monte_carlo_sweep,
    sample_inits,
)
from anderson_lab.augmented import (
    AugmentedState,
    Direction,
    directional_derivative,
    directional_derivative_fd,
    discontinuity_probe_beta,
    lipschitz_bound_linear_m1,
    lipschitz_bound_nonlinear_m1,
    psi_apply,
)
from anderson_lab.errors import StagnationDetected
from anderson_lab.linalg import min_norm_lstsq
from anderson_lab.problems import (
    problem_linear_2x2,
    problem_linear_200,
    problem_nonlinear_2x2,
    problem_scalar,
)

SEED = 2024
BOX_2D = np.tile([-0.25, 0.25], (2, 1))


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


@pytest.fixture(scope="module")
def inits_1000():
    return sample_inits(BOX_2D, 1000, seed=SEED)


def test_criterion_01_fp_baseline(inits_1000):
    p = problem_linear_2x2()
    cfg = AccelConfig(window_m=0, max_iters=100, stop_tol=0.0)
    t0 = time.perf_counter()
    sigmas = np.array([run_scheme(p, x0, cfg).sigma_k[100] for x0 in inits_1000])
    elapsed = time.perf_counter() - t0
    dev = np.abs(sigmas - 2.0 / 3.0)
    ok = bool(np.all(dev <= 0.01)) and elapsed < 5.0
    _report(1, "FP sigma_100 within 0.01 of 2/3 for all 1000 inits",
            ok, f"max dev {dev.max():.4f}, within-tol fraction "
                f"{np.mean(dev <= 0.01):.2f}, {elapsed:.1f}s")


def test_criterion_02_aa1_acceleration(inits_1000):
    p = problem_linear_2x2()
    cfg = AccelConfig(window_m=1, max_iters=100, stop_tol=1e-12)
    t0 = time.perf_counter()
    sigmas = np.array([
        estimate_r_factor(aa_run(p, x0, cfg)).sigma_final for x0 in inits_1000
    ])
    elapsed = time.perf_counter() - t0
    ok = (bool(np.all(sigmas < 0.55))
          and float(np.mean(sigmas < 0.45)) >= 0.95
          and float(sigmas.max() - sigmas.min()) > 0.1
          and elapsed < 30.0)
    _report(2, "AA(1) sigma_final < 0.55 all, >= 95% < 0.45, spread > 0.1",
            ok, f"max {sigmas.max():.3f}, frac<0.45 {np.mean(sigmas < 0.45):.3f}, "
                f"spread {sigmas.max() - sigmas.min():.3f}, {elapsed:.1f}s")


def test_criterion_03_beta_oscillation_and_decay():
    p = problem_linear_2x2()
    tr = aa_run(p, np.array([0.2, 0.1]),
                AccelConfig(window_m=1, max_iters=100, stop_tol=0.0))
    tail = [b.beta[0] for b in tr.betas[50:100]]
    osc_range = max(tail) - min(tail)

    ps = problem_scalar()
    trs = aa_run(ps, np.array([0.5]),
                 AccelConfig(window_m=1, max_iters=25, stop_tol=1e-13))
    decayed = True
    checked = 0
    for k in range(len(trs.betas)):
        if trs.error_norms[k] < 1e-8 and trs.betas[k].beta.size:
            checked += 1
            if abs(trs.betas[k].beta[0]) >= 1e-3:
                decayed = False
    ok = osc_range > 0.05 and decayed and checked >= 1
    _report(3, "beta tail range > 0.05 on linear2x2; scalar |beta_k| < 1e-3 "
               "once error < 1e-8",
            ok, f"range {osc_range:.3f}, scalar betas checked {checked}")


def test_criterion_04_secant_equivalence():
    p = problem_scalar()
    tr = aa_run(p, np.array([0.5]),
                AccelConfig(window_m=1, max_iters=15, stop_tol=0.0))

    def f(x):
        return float(p.residual(np.array([x]))[0])

    xs = [0.5, float(p.q(np.array([0.5]))[0])]
    for _ in range(14):
        fk, fprev = f(xs[-1]), f(xs[-2])
        if fk == fprev:
            xs.append(float(p.q(np.array([xs[-1]]))[0]))
        else:
            xs.append(xs[-1] - fk * (xs[-1] - xs[-2]) / (fk - fprev))
    max_rel = max(abs(tr.iterates[k][0] - xs[k]) / (1.0 + abs(xs[k]))
                  for k in range(len(tr)))

    floor = 1e-14 * (1.0 + tr.x_star_norm)
    usable = [k for k in range(1, len(tr)) if tr.error_norms[k] > floor]
    after5 = [k for k in usable if k >= 5]
    monotone = all(tr.sigma_k[b] < tr.sigma_k[a]
                   for a, b in zip(after5, after5[1:]))
    ok = max_rel <= 1e-10 and monotone and len(after5) >= 2
    _report(4, "scalar AA(1) matches secant to 1e-10; sigma_k decreases after k=5",
            ok, f"max rel dev {max_rel:.2e}, usable k>=5 count {len(after5)}")


def test_criterion_05_directional_derivatives():
    rng = np.random.default_rng(SEED)

    p_lin = problem_linear_2x2()
    M_lin = p_lin.affine.M
    affine_ok = True
    for m in (1, 2):
        for _ in range(20):
            d = Direction(stacked=rng.standard_normal(2 * (m + 1)), block_dim=2)
            res = directional_derivative(M_lin, d)
            for est in directional_derivative_fd(p_lin, d, [1e-2, 1e-4, 1e-6]):
                if np.linalg.norm(est - res.value) > 1e-10:
                    affine_ok = False

    p_nl = problem_nonlinear_2x2()
    M_nl = p_nl.jacobian(p_nl.known_fixed_point)
    hs = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    slopes = []
    for m in (1, 2):
        errs = np.zeros(len(hs))
        for _ in range(50):
            v = rng.standard_normal(2 * (m + 1))
            v /= np.linalg.norm(v)
            d = Direction(stacked=v, block_dim=2)
            res = directional_derivative(M_nl, d)
            assert res.formula_rank_ok
            fd = directional_derivative_fd(p_nl, d, hs)
            errs = np.maximum(errs, [np.linalg.norm(e - res.value) for e in fd])
        slopes.append(float(np.polyfit(np.log(hs), np.log(errs), 1)[0]))
    slopes_ok = all(0.8 <= s <= 1.2 for s in slopes)
    ok = affine_ok and slopes_ok
    _report(5, "closed form vs finite differences: affine exact, nonlinear O(h)",
            ok, f"slopes m=1,2: {slopes[0]:.2f}, {slopes[1]:.2f}")


def test_criterion_06_non_differentiability_certificate():
    a = 0.5
    M = np.array([[1.0 - a]])
    d1 = 1.0
    v_new = directional_derivative(M, Direction.from_blocks([[d1], [0.0]])).value
    v_diag = directional_derivative(M, Direction.from_blocks([[d1], [d1]])).value
    v_old = directional_derivative(M, Direction.from_blocks([[0.0], [d1]])).value
    # any linear map J would force J(0, d1) = J(d1, d1) - J(d1, 0)
    gap = float(np.linalg.norm(v_old - (v_diag - v_new)))
    ok = gap > 1e-12 and abs(gap - (1.0 - a) * d1) <= 1e-12
    _report(6, "n=1 two-direction certificate rules out any single Jacobian",
            ok, f"linearity gap {gap:.6f}")


def test_criterion_07_beta_limit_table():
    p = problem_linear_2x2()
    z_star = AugmentedState.at_point(p.known_fixed_point, m=1)
    d_new = Direction.from_blocks([[0.3, -0.4], [0.0, 0.0]])
    d_old = Direction.from_blocks([[0.0, 0.0], [0.3, -0.4]])
    table = discontinuity_probe_beta(p, z_star, [d_new, d_old], [1e-4])
    lim_new_ok = abs(table[0][0][0] + 1.0) <= 1e-3
    lim_old_ok = abs(table[1][0][0]) <= 1e-3

    x = np.array([0.2, 0.1])  # diagonal point with r(x) != 0
    z0 = AugmentedState.at_point(x, m=1)
    d = Direction.from_blocks([[0.0, 0.0], [1.0, 0.0]])
    growth = discontinuity_probe_beta(p, z0, [d], [1e-3, 1e-6])[0]
    growth_ok = abs(growth[1][0]) >= 10.0 * abs(growth[0][0])
    ok = lim_new_ok and lim_old_ok and growth_ok
    _report(7, "beta limits -1 / 0 at z*; |beta| grows ~1/eps at diagonal point",
            ok, f"beta(d2=0) {table[0][0][0]:.4f}, beta(d1=0) {table[1][0][0]:.1e}, "
                f"growth ratio {abs(growth[1][0]) / abs(growth[0][0]):.0f}x")


def _lipschitz_holds(problem, z_base, L, n_samples, rng, max_norm=None):
    # every perturbation is drawn first, in sample order; Psi then maps them
    # with one batched call per 1000 states, which bounds the memory at n = 200
    d = np.empty((n_samples, z_base.stacked.size))
    scale = np.empty(n_samples)
    for i, row in enumerate(d):
        rng.standard_normal(out=row)
        if max_norm is None:
            scale[i] = 10.0 ** rng.uniform(-6, 1)
        else:
            scale[i] = max_norm * rng.random() / np.linalg.norm(row)
    d *= scale[:, None]
    psi_base = psi_apply(problem, z_base).stacked
    for chunk in np.split(d, range(1000, n_samples, 1000)):
        z = (z_base.stacked + chunk).reshape((len(chunk),) + z_base.blocks().shape)
        lhs = np.linalg.norm(psi_apply(problem, z).reshape(chunk.shape) - psi_base, axis=1)
        if np.any(lhs > L * np.linalg.norm(chunk, axis=1) * (1 + 1e-10)):
            return False
    return True


def test_criterion_08_lipschitz_bounds():
    rng = np.random.default_rng(SEED)

    p2 = problem_linear_2x2()
    L2 = lipschitz_bound_linear_m1(p2.affine.A)
    z2 = AugmentedState.at_point(p2.known_fixed_point, m=1)
    ok2 = _lipschitz_holds(p2, z2, L2, 10000, rng)

    p200 = problem_linear_200(-0.3, 0.3, -0.3)
    L200 = lipschitz_bound_linear_m1(p200.affine.A)
    y = rng.uniform(-1.0, 1.0, 200)
    ok200 = True
    for m in (1, 3):
        # rank-deficient stacked point: newest block at x*, repeated old block
        z = AugmentedState.from_blocks(
            np.vstack([p200.known_fixed_point] + [y] * m))
        if not _lipschitz_holds(p200, z, L200, 10000, rng):
            ok200 = False

    p_nl = problem_nonlinear_2x2()
    L_nl = lipschitz_bound_nonlinear_m1(p_nl)
    z_nl = AugmentedState.at_point(p_nl.known_fixed_point, m=1)
    ok_nl = _lipschitz_holds(p_nl, z_nl, L_nl, 10000, rng, max_norm=1e-3)

    ok = ok2 and ok200 and ok_nl
    _report(8, "global linear and local nonlinear Lipschitz bounds hold on "
               "sampled perturbations",
            ok, f"L 2x2 {L2:.2f}, L 200 {L200:.2f}, L nonlinear {L_nl:.2f}")


def test_criterion_09_derivative_norm_histogram():
    p = problem_linear_2x2()
    t0 = time.perf_counter()
    norms = derivative_norm_samples(p.affine.M, m=1, n_samples=100000, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = 1.4 <= norms.max() <= 1.8 and bool((norms > 1.0).any()) and elapsed < 60.0
    _report(9, "derivative norm max in [1.4, 1.8] with samples above 1",
            ok, f"max {norms.max():.4f}, frac>1 {np.mean(norms > 1):.4f}, "
                f"{elapsed:.1f}s")


def test_criterion_10_gmres_correspondence():
    p = problem_linear_200(-0.3, 0.3, -0.3)
    inits = sample_inits(np.tile([-1.0, 1.0], (200, 1)), 20, seed=SEED)

    deviations = []
    stagnated = 0
    check = AccelConfig(window_m=10, max_iters=10, stop_tol=0.0)
    for x0 in inits:
        try:
            deviations.append(aa_full_window_vs_gmres_check(
                p, aa_run(p, x0, check), gmres_run(p, x0, check), 10))
        except StagnationDetected:
            stagnated += 1
    dev_ok = len(deviations) >= 1 and max(deviations) <= 1e-6

    cfg = AccelConfig(window_m=60, max_iters=60, stop_tol=1e-12)
    sigmas = np.array([
        estimate_r_factor(aa_run(p, x0, cfg)).sigma_final for x0 in inits
    ])
    agree_ok = float(sigmas.max() - sigmas.min()) <= 0.01
    ok = dev_ok and agree_ok
    _report(10, "AA(inf) matches GMRES to 1e-6; sigma_final init-independent",
            ok, f"max dev {max(deviations):.1e} ({stagnated} stagnated), "
                f"sigma spread {sigmas.max() - sigmas.min():.4f}")


def test_criterion_11_m_sweep_trend():
    p = problem_linear_200(-0.9, 0.7, -0.7)
    t0 = time.perf_counter()
    rows = m_sweep(p, [1, 2, 3, 4], n_inits=50, seed=SEED,
                   max_iters=100, stop_tol=1e-12)
    elapsed = time.perf_counter() - t0
    worst = {(r.m, r.scheme): r.worst_sigma for r in rows}

    nonincreasing = all(
        worst[(m + 1, s)] <= worst[(m, s)] + 0.02
        for s in ("windowed", "restarted") for m in (1, 2, 3)
    )
    windowed_leq = all(
        worst[(m, "windowed")] <= worst[(m, "restarted")] + 0.02
        for m in (1, 2, 3, 4)
    )
    ok = nonincreasing and windowed_leq and elapsed < 600.0
    gaps = ", ".join(
        f"m={m}: {worst[(m, 'windowed')]:.3f}/{worst[(m, 'restarted')]:.3f}"
        for m in (1, 2, 3, 4))
    _report(11, "worst sigma nonincreasing in m; windowed <= restarted + 0.02",
            ok, f"windowed/restarted {gaps}, {elapsed:.0f}s")


def test_criterion_12_property_suites():
    rng = np.random.default_rng(SEED)

    # least-squares optimality and minimum norm
    ls_ok = True
    for _ in range(50):
        R = rng.standard_normal((5, 3))
        rhs = rng.standard_normal(5)
        coeffs, _ = min_norm_lstsq(R, rhs)
        obj = np.linalg.norm(R @ coeffs + rhs)
        delta = rng.standard_normal(3) * 1e-3
        if obj > np.linalg.norm(R @ (coeffs + delta) + rhs) + 1e-12:
            ls_ok = False
    u = rng.standard_normal(4)
    R1 = np.outer(u, [1.0, -2.0, 0.5])
    coeffs, _ = min_norm_lstsq(R1, rng.standard_normal(4))
    _, _, Vt = np.linalg.svd(R1)
    min_norm_ok = all(
        np.linalg.norm(coeffs) <= np.linalg.norm(coeffs + w) + 1e-14
        for w in Vt[1:])

    # lifted-map fixed point and shift structure
    psi_ok = True
    for factory, m in [(problem_linear_2x2, 1), (problem_nonlinear_2x2, 2)]:
        p = factory()
        z_star = AugmentedState.at_point(p.known_fixed_point, m=m)
        if np.linalg.norm(psi_apply(p, z_star).stacked - z_star.stacked) > 1e-12:
            psi_ok = False
        z = AugmentedState(stacked=rng.uniform(-0.2, 0.2, p.dim * (m + 1)),
                           block_dim=p.dim)
        if not np.array_equal(psi_apply(p, z).blocks()[1:], z.blocks()[:-1]):
            psi_ok = False

    # lifted map consistent with the windowed accelerator
    p = problem_nonlinear_2x2()
    m = 2
    tr = aa_run(p, np.array([0.2, 0.1]),
                AccelConfig(window_m=m, max_iters=10, stop_tol=0.0))
    history = tr.iterates[-(m + 1):]
    x_next, _ = aa_step(p, history)
    z = AugmentedState.from_blocks(list(reversed(history)))
    consistency_ok = np.linalg.norm(
        psi_apply(p, z).blocks()[0] - x_next) <= 1e-10

    # seed determinism of the Monte-Carlo driver
    p2 = problem_linear_2x2()
    schemes = [AccelConfig(window_m=1, max_iters=60, stop_tol=1e-12)]
    r1 = monte_carlo_sweep(p2, schemes, BOX_2D, 25, seed=SEED)
    r2 = monte_carlo_sweep(p2, schemes, BOX_2D, 25, seed=SEED)
    det_ok = np.array_equal(r1.inits, r2.inits) and all(
        e1.sigma_final == e2.sigma_final
        for e1, e2 in zip(r1.estimates["aa(1)"], r2.estimates["aa(1)"]))

    ok = ls_ok and min_norm_ok and psi_ok and consistency_ok and det_ok
    _report(12, "property suites: least squares, lifted-map invariants, "
                "accelerator consistency, determinism", ok)
