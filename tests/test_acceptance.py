"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; a one-line PASS/FAIL summary
per criterion prints at the end of the session (see conftest).  The suite
favors exact oracles where they exist (closed forms, enumeration, chaos
arithmetic) and seeded Monte Carlo with explicit standard-error bands
everywhere else.
"""
import itertools
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from gstab.chaos import (
    GramSpec,
    PolyGauss,
    eigenregularity,
    matched_family,
    multilinear_lift,
    pair_block_product_difference,
    poly_product,
    product_difference_mc,
    variance_bounds,
)
from gstab.cube import (
    cube_influences,
    cube_stability,
    cube_stability_bruteforce,
    make_voting_rule,
    walsh_transform,
)
from gstab.gauss import gaussian_rng, hermite_eval, hermite_multi_eval
from gstab.hermite import expand, ou_on_points
from gstab.partitions import (
    Halfspace,
    MultiPTF,
    Slabs,
    estimate_cell_stability,
    estimate_stability,
    orthant_probability_quad,
    sheppard_orthant,
)
from gstab.product_space import (
    JointDist,
    binary_symmetric,
    block_strategy,
    correlation,
    correlation_basis,
    estimate_discrete_corr,
    exact_correlation,
    tensor_fourier,
)
from gstab.rounding import ptf_from_truncation, stability_of_rounding
from gstab.search import SearchConfig, ncd_brute_oracle, ncd_decide, optimize_stability
from gstab.tensors import SymmetricTensor, ito_eval, ito_product_tensors, symmetrize

pytestmark = pytest.mark.acceptance

SEED = 20240817


def _random_quadratic(rng, n):
    lin = rng.standard_normal(n)
    quad = symmetrize(rng.standard_normal((n, n)) * 0.5)
    p = PolyGauss(
        n, {1: SymmetricTensor.from_array(lin), 2: quad}, float(rng.normal(scale=0.4))
    )
    return p.scale(1.0 / math.sqrt(p.variance()))


def _random_structured_partition(rng, k):
    """Random partition with an exact smoothing/expansion path, n <= 2."""
    kind = int(rng.integers(0, 3))
    if kind == 0 and k == 2:
        a = rng.normal(scale=0.3, size=2)
        b = rng.standard_normal(2)
        return Halfspace(a, b)
    if kind <= 1:
        n = int(rng.integers(1, 3))
        cuts = np.sort(rng.normal(size=k + 1))
        cuts = np.unique(np.round(cuts, 8))
        labels = list(rng.integers(1, k + 1, size=len(cuts) + 1))
        for lab in range(1, k + 1):
            if lab not in labels:
                labels[int(rng.integers(0, len(labels)))] = lab
        return Slabs(int(rng.integers(0, n)), cuts, labels, n=n, k=k)
    return MultiPTF([_random_quadratic(rng, 1) for _ in range(k)])


def test_criterion_01_sheppard_anchor():
    start = time.perf_counter()
    f = Halfspace([0.0], [1.0])
    est = estimate_cell_stability(f, 1, None, 1_000_000, SEED, rho=0.5)
    elapsed = time.perf_counter() - start
    oracle = orthant_probability_quad(0.5, order=128)
    assert abs(oracle - sheppard_orthant(0.5)) <= 1e-8
    assert est.std_error == pytest.approx(4.7e-4, abs=1e-4)
    assert est.value == pytest.approx(1 / 3, abs=3 * est.std_error)
    assert est.value == pytest.approx(oracle, abs=3 * est.std_error)
    assert elapsed < 5.0
    record_criterion(
        1, f"halfspace cell stability {est.value:.5f} = 1/3 +- 3SE, "
        f"quadrature oracle within 1e-8, {elapsed:.1f}s"
    )


def test_criterion_02_ou_eigenrelation():
    rng = gaussian_rng(SEED, 2)
    worst = 0.0
    for n in (1, 2, 3):
        points = rng.standard_normal((10, n))
        indices = [
            S
            for S in itertools.product(range(5), repeat=n)
            if 0 < sum(S) <= 4 or sum(S) == 0
        ]
        for S in indices:
            def hs(X, S=S):
                out = np.ones(X.shape[0])
                for i, q in enumerate(S):
                    if q:
                        out = out * hermite_eval(q, X[:, i])
                return out

            for t in (0.1, 0.5, 1.0):
                vals = ou_on_points(hs, t, points, quad_order=8)[:, 0]
                expect = np.array(
                    [math.exp(-t * sum(S)) * hermite_multi_eval(S, p) for p in points]
                )
                worst = max(worst, float(np.max(np.abs(vals - expect))))
    assert worst <= 1e-6
    record_criterion(2, f"OU eigenrelation worst error {worst:.2e} <= 1e-6")


def test_criterion_03_parseval():
    rng = gaussian_rng(SEED, 3)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 3))
        family = trial % 3
        if family == 0:
            coeffs = {
                S: float(rng.normal())
                for S in itertools.product(range(7), repeat=n)
                if sum(S) <= 6
            }

            def f(X, coeffs=coeffs, n=n):
                out = np.zeros(X.shape[0])
                for S, c in coeffs.items():
                    term = np.full(X.shape[0], c)
                    for i, q in enumerate(S):
                        if q:
                            term = term * hermite_eval(q, X[:, i])
                    out += term
                return out

        else:
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            a = float(rng.uniform(0.2, 0.6))
            b = float(rng.uniform(0, 2 * math.pi))
            if family == 1:
                f = lambda X, u=u, a=a, b=b: np.sin(a * (X @ u) + b)
            else:
                f = lambda X, u=u, a=a: np.exp(a * (X @ u) - a * a)
        e = expand(f, n, 6, quad_order=40)
        rule_mass = _quad_mass(f, n)
        worst = max(worst, abs(e.norm2() - rule_mass))
    assert worst <= 1e-6
    record_criterion(3, f"Parseval residual over 50 functions <= {worst:.2e}")


def _quad_mass(f, n, quad_order=40):
    from gstab.gauss import gauss_hermite_rule, tensor_grid

    rule = gauss_hermite_rule(quad_order)
    points, weights = tensor_grid(rule, n)
    vals = np.asarray(f(points), dtype=float)
    return float(np.dot(weights, vals**2))


def test_criterion_04_ito_isometry_and_product():
    rng = gaussian_rng(SEED, 4)
    worst_inner = 0.0
    worst_point = 0.0
    for _ in range(30):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        f = symmetrize(rng.standard_normal((3,) * p))
        g = symmetrize(rng.standard_normal((3,) * q))
        comp = ito_product_tensors(f, g)
        # E[I_p(f) I_q(g)] from the multiplication formula is the order-0
        # term; the isometry says it equals delta_{pq} <f, g>
        expect = f.inner(g) if p == q else 0.0
        got = float(comp[0].array) if 0 in comp else 0.0
        worst_inner = max(worst_inner, abs(got - expect))
        x = rng.standard_normal(3)
        lhs = ito_eval(f, x) * ito_eval(g, x)
        rhs = sum(ito_eval(t, x) for t in comp.values())
        worst_point = max(worst_point, abs(lhs - rhs))
    assert worst_inner <= 1e-12
    assert worst_point <= 1e-9
    # H_1^2 = sqrt(2) H_2 + 1 with exact coefficients
    e1 = SymmetricTensor.from_array(np.array([1.0]))
    comp = ito_product_tensors(e1, e1)
    assert float(comp[0].array) == 1.0
    assert comp[2].value((0, 0)) == math.sqrt(2.0)
    record_criterion(
        4, f"Ito isometry {worst_inner:.1e} <= 1e-12, product identity "
        f"{worst_point:.1e} <= 1e-9, H1^2 exact"
    )


def test_criterion_05_rounding_contracts():
    rng = gaussian_rng(SEED, 5)
    failures = 0
    max_mismatch = 0.0
    for trial in range(20):
        k = 2 if trial % 2 == 0 else 3
        f = _random_structured_partition(rng, k)
        rep = stability_of_rounding(
            f, t=0.7, tol=0.01, samples=150_000, seed=SEED + trial
        )
        tol = rep.measure_slack + 6 * (rep.se_f + rep.se_g)
        if rep.stab_g < rep.stab_f - tol:
            failures += 1
        assert rep.converged
        assert rep.measure_slack <= 0.01
        max_mismatch = max(max_mismatch, rep.measure_slack)
    assert failures == 0
    record_criterion(
        5, f"rounding contract held 20/20, measure matching <= {max_mismatch:.4f}"
    )


def test_criterion_06_truncation_bound():
    rng = gaussian_rng(SEED, 6)
    failures = 0
    for trial in range(20):
        k = 2 if trial % 3 else 3
        f = _random_structured_partition(rng, k)
        d = 1 + trial % 3
        rep = ptf_from_truncation(f, d, samples=100_000, seed=SEED + trial)
        slack = 3 * rep.disagreement_se
        if rep.disagreement > rep.bound + slack:
            failures += 1
        if rep.collision > rep.bound + 3 * rep.collision_se:
            failures += 1
    assert failures == 0
    record_criterion(6, "truncation disagreement and collision <= k^2 W^{>d} + 3SE, 20/20")


def test_criterion_07_eigenregularity():
    for kappa in (2, 4, 9, 16):
        arr = np.zeros((kappa, kappa))
        for b in range(kappa):
            arr[b, b] = 1 / math.sqrt(kappa)
        rep = eigenregularity(PolyGauss(kappa, {2: SymmetricTensor.from_array(arr)}))
        assert rep.ratio <= 1 / math.sqrt(kappa) + 1e-9
    rank_one = PolyGauss(
        2, {2: SymmetricTensor.from_array(np.outer([1.0, 0.0], [1.0, 0.0]))}
    )
    assert eigenregularity(rank_one).ratio == pytest.approx(1.0, abs=1e-9)
    record_criterion(7, "block ratios <= 1/sqrt(kappa) + 1e-9, rank-one ratio 1")


def test_criterion_08_variance_bounds():
    rng = gaussian_rng(SEED, 8)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = _unit_poly(rng, n)
        q = _unit_poly(rng, n, centered=True)
        vb = variance_bounds(p, q)
        d_total = p.degree + q.degree
        assert vb.lower_top <= vb.product_variance * (1 + 1e-9) + 1e-12
        assert vb.product_variance <= 9.0**d_total * p.second_moment() * q.second_moment()
        assert vb.lower_schedule <= vb.product_variance
    record_criterion(8, "variance bounds ordered on 50 random unit-variance pairs")


def _unit_poly(rng, n, centered=False):
    chaos = {}
    for q in range(1, 4):
        if rng.random() < 0.75 or not chaos:
            chaos[q] = symmetrize(rng.standard_normal((n,) * q) * 0.6)
    p = PolyGauss(n, chaos, 0.0 if centered else float(rng.normal(scale=0.3)))
    return p.scale(1.0 / math.sqrt(p.variance()))


def test_criterion_09_matched_family():
    rng = gaussian_rng(SEED, 9)
    for _ in range(20):
        levels = {}
        for level in range(1, int(rng.integers(2, 4))):
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((m, m + 2))
            G = A @ A.T
            d = np.sqrt(np.diag(G))
            levels[level] = G / np.outer(d, d)
        delta = float(rng.uniform(0.25, 0.8))
        fam, n0 = matched_family(GramSpec(levels), delta)
        kappa = math.ceil(1 / delta**2)
        assert n0 == kappa * sum(i * G.shape[0] for i, G in levels.items())
        idx = 0
        for level in sorted(levels):
            G = levels[level]
            m = G.shape[0]
            for a in range(m):
                for b in range(m):
                    assert fam[idx + a].inner(fam[idx + b]) == pytest.approx(
                        G[a, b], abs=1e-9
                    )
            if level >= 2:
                for a in range(m):
                    assert eigenregularity(fam[idx + a]).ratio <= delta + 1e-9
            idx += m
    record_criterion(9, "matched families: covariances 1e-9, n0 exact, ratio <= delta")


def test_criterion_10_product_expectation_matching():
    rng = gaussian_rng(SEED, 10)
    A = rng.standard_normal((3, 5))
    G = A @ A.T
    d = np.sqrt(np.diag(G))
    G = G / np.outer(d, d)
    delta = 0.05
    fam_a, _ = matched_family(GramSpec({2: G}), delta)
    O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    fam_b, _ = matched_family(GramSpec({2: G}), delta, factor_rotation={2: O})
    for a in range(3):
        for b in range(3):
            assert fam_b[a].inner(fam_b[b]) == pytest.approx(G[a, b], abs=1e-9)
        assert eigenregularity(fam_a[a]).ratio <= delta + 1e-9
        assert eigenregularity(fam_b[a]).ratio <= delta + 1e-9
    # dual route: the chi-square sufficiency sampler agrees with the
    # generic evaluator on a common instance before carrying the 1e7 run
    check_fast = pair_block_product_difference(fam_a, fam_b, 100_000, SEED + 1)
    check_gen = product_difference_mc(fam_a, fam_b, 100_000, SEED + 1, batch=1 << 13)
    cross_tol = 6 * math.sqrt(check_fast.std_error**2 + check_gen.std_error**2)
    assert abs(check_fast.value - check_gen.value) <= cross_tol
    est = pair_block_product_difference(fam_a, fam_b, 10_000_000, SEED + 2)
    q_total = 6
    trivial = 2.0 ** (3 * (q_total + 1)) * delta
    assert abs(est.value) <= trivial
    assert abs(est.value) <= delta + 6 * est.std_error
    record_criterion(
        10, f"|dE[prod]| = {abs(est.value):.2e} <= 0.05 + 6SE at 1e7 samples"
    )


def test_criterion_11_correlation_basis():
    rng = gaussian_rng(SEED, 11)
    worst = 0.0
    for _ in range(100):
        ma = int(rng.integers(2, 6))
        mb = int(rng.integers(2, 6))
        M = rng.random((ma, mb)) + 0.05
        P = JointDist(M / M.sum())
        basis = correlation_basis(P)
        pa, pb = P.marginal_a(), P.marginal_b()
        worst = max(worst, float(np.max(np.abs(basis.X[:, 0] - 1.0))))
        worst = max(worst, float(np.max(np.abs(basis.Y[:, 0] - 1.0))))
        worst = max(
            worst,
            float(np.max(np.abs(basis.X.T @ np.diag(pa) @ basis.X - np.eye(ma)))),
        )
        worst = max(
            worst,
            float(np.max(np.abs(basis.Y.T @ np.diag(pb) @ basis.Y - np.eye(mb)))),
        )
        cross = basis.X.T @ P.P @ basis.Y
        for i in range(ma):
            for j in range(mb):
                expect = basis.rho_at(i) if i == j else 0.0
                worst = max(worst, abs(cross[i, j] - expect))
        worst = max(worst, float(np.max(np.diff(basis.rho))))
    assert worst <= 1e-10
    bss = correlation_basis(binary_symmetric(0.6))
    assert bss.rho[1] == pytest.approx(0.6, abs=1e-10)
    record_criterion(11, f"basis properties 1-4 worst deviation {worst:.1e} <= 1e-10")


def test_criterion_12_correlation_formula():
    rng = gaussian_rng(SEED, 12)
    worst = 0.0
    for m in (2, 3):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                M = rng.random((m, m)) + 0.05
                P = JointDist(M / M.sum())
                basis = correlation_basis(P)
                ftab = rng.random((m,) * n + (k,))
                gtab = rng.random((m,) * n + (k,))
                F = tensor_fourier(ftab, basis.X, P.marginal_a(), n)
                G = tensor_fourier(gtab, basis.Y, P.marginal_b(), n)
                got = correlation(F, G, basis.rho)
                expect = exact_correlation(ftab, gtab, P, n)
                worst = max(worst, abs(got - expect))
    assert worst <= 1e-10
    record_criterion(12, f"rho^sigma formula vs enumeration worst {worst:.1e} <= 1e-10")


def test_criterion_13_multilinear_lift():
    rng = gaussian_rng(SEED, 13)
    for T in (4, 16):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            p = _unit_poly(rng, n)
            lift = multilinear_lift(p, T)
            d = p.degree
            assert lift.var_gap <= lift.r.variance() * d * d / T + 1e-9
            gap_direct = sum(
                float(np.sum((lift.r.chaos[q].array - lift.w.chaos[q].array) ** 2))
                for q in lift.r.chaos
            )
            assert lift.var_gap == pytest.approx(gap_direct, abs=1e-12)
    # law preservation: r(x) is p at the averaged coordinates, so its
    # sampled mean/variance must match p's analytic values
    p = _unit_poly(rng, 2)
    lift = multilinear_lift(p, 4)
    X = gaussian_rng(SEED, 113).standard_normal((100, lift.r.n))
    averaged = X.reshape(100, 2, 4).sum(axis=2) / 2.0
    np.testing.assert_allclose(lift.r.eval_many(X), p.eval_many(averaged), atol=1e-9)
    n_mc = 200_000
    Y = gaussian_rng(SEED, 114).standard_normal((n_mc, lift.r.n))
    vals = lift.r.eval_many(Y)
    se_mean = vals.std() / math.sqrt(n_mc)
    assert vals.mean() == pytest.approx(p.mean(), abs=3 * se_mean)
    var_se = np.sqrt(np.var((vals - vals.mean()) ** 2) / n_mc)
    assert vals.var() == pytest.approx(p.variance(), abs=3 * var_se)
    record_criterion(13, "lift gap <= Var d^2/T exactly; lifted law matches within 3SE")


def test_criterion_14_cube_exact_values():
    dictator = make_voting_rule("dictator", 4, 2)
    for rho in (0.0, 0.3, 0.5, 0.9):
        assert cube_stability(dictator, rho) == pytest.approx((1 + rho) / 2, abs=1e-12)
    maj3 = make_voting_rule("majority", 3, 2)
    assert cube_stability(maj3, 0.5) == pytest.approx(
        cube_stability_bruteforce(maj3, 0.5), abs=1e-12
    )
    rng = gaussian_rng(SEED, 14)
    f = make_voting_rule("plurality", 6, 3)
    coeffs = walsh_transform(f)
    expect = sum(bin(S).count("1") * float(np.dot(c, c)) for S, c in enumerate(coeffs))
    assert cube_influences(f).sum() == pytest.approx(expect, abs=1e-12)
    del rng
    record_criterion(14, "dictator (1+rho)/2, Maj3 = brute force, influence identity")


def test_criterion_15_search_recovers_borell():
    start = time.perf_counter()
    cfg = SearchConfig(
        k=2, n0=1, d=1, t=math.log(2), target_mu=[0.5, 0.5],
        measure_tol=0.01, budget=500, mode="grid-cover", seed=SEED,
        samples=200_000, coeff_bound=2.0, step=0.25,
    )
    res = optimize_stability(cfg)
    elapsed = time.perf_counter() - start
    assert res.feasible
    cell = estimate_cell_stability(res.best, 1, cfg.t, 400_000, SEED + 1)
    assert cell.value == pytest.approx(1 / 3, abs=0.01)
    assert res.stability == pytest.approx(2 / 3, abs=0.02)
    poly = res.best.polys[0]
    boundary = -poly.constant / poly.chaos[1].array[0]
    assert abs(boundary) <= 0.05
    assert elapsed < 60.0
    record_criterion(
        15, f"search best cell stability {cell.value:.4f} within 0.01 of 1/3, "
        f"boundary {boundary:+.3f}, {elapsed:.0f}s"
    )


def test_criterion_16_ncd_decider():
    rng = gaussian_rng(SEED, 16)
    for _ in range(10):
        M = rng.random((2, 2)) + 0.05
        P = JointDist(M / M.sum())
        mu = [0.5, 0.5]
        dec = ncd_decide(P, mu, mu, kappa=2.0, delta=0.25, n_max=2)
        oracle = ncd_brute_oracle(P, mu, mu, 2, 2, 0.25)
        assert not dec.feasible
        assert dec.achieved == pytest.approx(oracle, abs=1e-9)
    feas = ncd_decide(binary_symmetric(0.5), [0.5, 0.5], [0.5, 0.5], kappa=0.75, delta=0.02)
    assert feas.feasible
    assert feas.achieved == pytest.approx(0.75, abs=1e-12)
    record_criterion(
        16, "decider matches the exhaustive oracle on 10 random sources; "
        "binary symmetric rho=0.5 feasible at kappa=0.75"
    )


def test_criterion_17_block_construction():
    P = binary_symmetric(0.5)
    basis = correlation_basis(P)
    g = Halfspace([0.0], [1.0])
    fstrat = block_strategy(g, basis.X[:, 1], 64, tie_break=True)
    gstrat = block_strategy(g, basis.Y[:, 1], 64, tie_break=True)
    rep = estimate_discrete_corr(fstrat, gstrat, P, 1_000_000, SEED)
    assert rep.joint[0, 0] == pytest.approx(1 / 3, abs=0.03)
    assert rep.agreement == pytest.approx(2 / 3, abs=0.03)
    for marg in (rep.marginals_f[0], rep.marginals_g[0]):
        assert marg == pytest.approx(0.5, abs=3 * rep.agreement_se)
    record_criterion(
        17, f"ell=64 block strategies: both-in-cell {rep.joint[0, 0]:.4f} vs 1/3, "
        f"agreement {rep.agreement:.4f} vs 2/3"
    )
