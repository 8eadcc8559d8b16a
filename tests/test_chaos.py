"""Chaos-form polynomials: products, eigenregularity, bounds, lifts,
matched families, and the Monte Carlo product estimators."""
import math

import numpy as np
import pytest

from conftest import random_quadratic_poly
from gstab.chaos import (
    BlockPoly,
    GramSpec,
    PolyGauss,
    eigenregularity,
    matched_family,
    multilinear_lift,
    pair_block_product_difference,
    pair_block_weights,
    poly_product,
    product_difference_mc,
    product_expectation_mc,
    variance_bounds,
)
from gstab.gauss import gaussian_rng
from gstab.tensors import SymmetricTensor, symmetrize


def h1(n=1, i=0):
    v = np.zeros(n)
    v[i] = 1.0
    return PolyGauss(n, {1: SymmetricTensor.from_array(v)})


def h2(n=1, i=0):
    arr = np.zeros((n, n))
    arr[i, i] = 1.0
    return PolyGauss(n, {2: SymmetricTensor.from_array(arr)})


def blocks_h2(k):
    arr = np.zeros((k, k))
    for b in range(k):
        arr[b, b] = 1 / math.sqrt(k)
    return PolyGauss(k, {2: SymmetricTensor.from_array(arr)})


class TestPolyGauss:
    def test_variance_is_chaos_mass(self, rng):
        p = random_quadratic_poly(rng, 3)
        assert p.variance() == pytest.approx(
            sum(t.frobenius_norm2() for t in p.chaos.values())
        )

    def test_eval_matches_monomial_form(self, rng):
        for _ in range(5):
            p = random_quadratic_poly(rng, 2)
            x = rng.standard_normal(2)
            assert p.eval(x) == pytest.approx(p.eval_monomial(x), abs=1e-9)

    def test_dense_and_sparse_order2_paths_agree(self, rng):
        dense = PolyGauss(3, {2: symmetrize(rng.standard_normal((3, 3)))})
        X = rng.standard_normal((50, 3))
        from gstab.tensors import ito_eval_many

        np.testing.assert_allclose(
            dense.eval_many(X),
            ito_eval_many(dense.chaos[2], X) ,
            atol=1e-9,
        )

    def test_mc_variance_agrees(self, rng):
        p = random_quadratic_poly(rng, 2)
        X = gaussian_rng(5).standard_normal((400_000, 2))
        vals = p.eval_many(X)
        assert vals.var() == pytest.approx(p.variance(), rel=0.02)
        assert vals.mean() == pytest.approx(p.mean(), abs=0.02)

    def test_from_hermite_round_trip(self, rng):
        coeffs = {(0, 0): 0.3, (1, 0): -0.4, (1, 1): 0.25, (2, 0): 0.6, (3, 1): 0.1}
        p = PolyGauss.from_hermite_coeffs(2, coeffs)
        from gstab.gauss import hermite_multi_eval

        x = rng.standard_normal(2)
        expect = sum(c * hermite_multi_eval(S, x) for S, c in coeffs.items())
        assert p.eval(x) == pytest.approx(expect, abs=1e-12)

    def test_hermite_coeffs_inverts_from_hermite_coeffs(self, rng):
        coeffs = {(0, 0): 0.3, (1, 0): -0.4, (1, 1): 0.25, (2, 0): 0.6, (3, 1): 0.1}
        back = PolyGauss.from_hermite_coeffs(2, coeffs).hermite_coeffs()
        assert set(back) == set(coeffs)
        for S, c in coeffs.items():
            assert back[S] == pytest.approx(c, rel=1e-15)
        for n in (1, 2, 3):
            p = random_quadratic_poly(rng, n)
            q = PolyGauss.from_hermite_coeffs(n, p.hermite_coeffs())
            assert q.constant == p.constant
            assert set(q.chaos) == set(p.chaos)
            for order, t in p.chaos.items():
                np.testing.assert_allclose(q.chaos[order].array, t.array, rtol=1e-15, atol=0)
        assert PolyGauss(2, {}, 0.0).hermite_coeffs() == {}

    def test_to_monomial_unchanged(self, rng):
        # linear and unit-variance quadratic polynomials as the benchmark
        # builds them, plus higher-degree ones, against the expansion loop
        # that to_monomial ran before it read hermite_coeffs
        polys = []
        for n in (1, 2, 3):
            polys.append(PolyGauss(n, {1: SymmetricTensor.from_array(rng.standard_normal(n))}, float(rng.normal(scale=0.5))))
            polys.append(random_quadratic_poly(rng, n))
        polys.append(PolyGauss.from_hermite_coeffs(2, {(0, 0): 0.1, (4, 0): 0.5, (2, 2): -0.3, (1, 3): 0.2}))
        polys.append(PolyGauss.from_hermite_coeffs(3, {(1, 1, 1): 0.7, (0, 2, 3): -0.2}))
        for p in polys:
            assert p.to_monomial() == _to_monomial_reference(p)


def _to_monomial_reference(p: PolyGauss) -> dict:
    from gstab.chaos import _hermite_monomial_coeffs

    herm = _hermite_monomial_coeffs(p.degree)
    out = {}
    if p.constant != 0.0:
        out[(0,) * p.n] = p.constant
    for q, t in p.chaos.items():
        for ms, v in t.entries():
            mult = {}
            for i in ms:
                mult[i] = mult.get(i, 0) + 1
            weight = math.factorial(q)
            for m in mult.values():
                weight //= math.factorial(m)
            terms = [((0,) * p.n, v * math.sqrt(weight))]
            for i, m in mult.items():
                new_terms = []
                for exps, c in terms:
                    for power, hc in enumerate(herm[m]):
                        if hc == 0.0:
                            continue
                        e = list(exps)
                        e[i] += power
                        new_terms.append((tuple(e), c * hc))
                terms = new_terms
            for exps, c in terms:
                out[exps] = out.get(exps, 0.0) + c
    return {e: c for e, c in out.items() if c != 0.0}


class TestProduct:
    def test_h1_squared(self):
        p = poly_product(h1(), h1())
        assert p.constant == pytest.approx(1.0)
        assert p.chaos[2].value((0, 0)) == pytest.approx(math.sqrt(2))
        # evaluated: x^2
        assert p.eval([1.7]) == pytest.approx(1.7**2, abs=1e-12)

    def test_product_with_constants(self, rng):
        p = random_quadratic_poly(rng, 2).shift(0.5)
        q = random_quadratic_poly(rng, 2).shift(-1.2)
        prod = poly_product(p, q)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert prod.eval(x) == pytest.approx(p.eval(x) * q.eval(x), abs=1e-9)

    def test_inner_is_expectation(self, rng):
        p = random_quadratic_poly(rng, 2)
        q = random_quadratic_poly(rng, 2)
        X = gaussian_rng(9).standard_normal((400_000, 2))
        emp = float(np.mean(p.eval_many(X) * q.eval_many(X)))
        se = float(np.std(p.eval_many(X) * q.eval_many(X))) / math.sqrt(400_000)
        assert p.inner(q) == pytest.approx(emp, abs=5 * se)


class TestEigenregularity:
    def test_rank_one(self):
        rep = eigenregularity(h2())
        assert rep.lambda_max == pytest.approx(1.0, abs=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 4, 9, 16])
    def test_disjoint_blocks(self, k):
        rep = eigenregularity(blocks_h2(k))
        assert rep.ratio <= 1 / math.sqrt(k) + 1e-9
        assert rep.ratio == pytest.approx(1 / math.sqrt(k), abs=1e-9)

    def test_order_one_excluded(self):
        with pytest.raises(ValueError):
            eigenregularity(h1())

    def test_order3_partitions_enumerated(self, rng):
        p = PolyGauss(3, {3: symmetrize(rng.standard_normal((3, 3, 3)))})
        rep = eigenregularity(p)
        assert len(rep.per_partition) == 3  # {0},{0,1},{0,2} up to complement
        assert rep.lambda_max == pytest.approx(max(rep.per_partition.values()))


class TestVarianceBounds:
    def test_h1_pair(self):
        vb = variance_bounds(h1(), h1())
        assert vb.product_variance == pytest.approx(2.0, abs=1e-12)
        assert vb.lower_top == pytest.approx(1.0)
        assert vb.upper == pytest.approx(9.0)
        assert vb.lower_schedule <= vb.product_variance

    def test_random_pairs_ordered(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            p = _unit_variance_poly(rng, n)
            q = _unit_variance_poly(rng, n, centered=True)
            vb = variance_bounds(p, q)
            assert vb.lower_top <= vb.product_variance * (1 + 1e-9) + 1e-12
            assert vb.product_variance <= vb.upper * (1 + 1e-9)
            assert vb.lower_schedule <= vb.product_variance
            d_total = p.degree + q.degree
            assert vb.product_variance <= 9.0**d_total * p.second_moment() * q.second_moment()

    def test_mean_precondition(self, rng):
        p = _unit_variance_poly(rng, 2)
        with pytest.raises(ValueError):
            variance_bounds(p, p.shift(1.0 - p.mean() + 1.0))


def _unit_variance_poly(rng, n, centered=False, max_degree=3):
    chaos = {}
    for q in range(1, max_degree + 1):
        if rng.random() < 0.7 or q == 1:
            chaos[q] = symmetrize(rng.standard_normal((n,) * q) * 0.6)
    p = PolyGauss(n, chaos, 0.0 if centered else float(rng.normal(scale=0.3)))
    return p.scale(1.0 / math.sqrt(p.variance()))


class TestMultilinearLift:
    def test_linear_already_multilinear(self):
        lift = multilinear_lift(h1(), 5)
        assert lift.var_gap == pytest.approx(0.0)
        assert lift.r.variance() == pytest.approx(lift.w.variance())

    def test_h2_diagonal_mass(self):
        lift = multilinear_lift(h2(), 4)
        assert lift.var_gap == pytest.approx(0.25)
        assert lift.var_gap <= lift.r.variance() * 4 / 4 + 1e-12

    def test_gap_bound_random(self, rng):
        for T in (4, 16):
            for _ in range(10):
                p = _unit_variance_poly(rng, 2)
                lift = multilinear_lift(p, T)
                d = p.degree
                assert lift.var_gap <= lift.r.variance() * d * d / T + 1e-9
                assert lift.var_gap == pytest.approx(
                    lift.r.variance() - lift.w.variance()
                    + 2 * (lift.w.variance() - _cross_inner(lift.r, lift.w)),
                    abs=1e-9,
                )

    def test_law_preserved(self, rng):
        p = _unit_variance_poly(rng, 2, max_degree=2)
        lift = multilinear_lift(p, 4)
        n_mc = 200_000
        Xp = gaussian_rng(31).standard_normal((n_mc, 2))
        Xr = gaussian_rng(32).standard_normal((n_mc, lift.r.n))
        vp = p.eval_many(Xp)
        vr = lift.r.eval_many(Xr)
        se_mean = 3 * math.sqrt(2.0 / n_mc)
        assert vp.mean() == pytest.approx(vr.mean(), abs=2 * se_mean)
        assert vp.var() == pytest.approx(vr.var(), rel=0.05)


def _cross_inner(r, w):
    return r.inner(w) - r.mean() * w.mean()


class TestMatchedFamily:
    def test_identity_gram(self):
        fam, n0 = matched_family(GramSpec({2: np.eye(2)}), 0.5)
        assert n0 == 16
        assert fam[0].inner(fam[1]) == pytest.approx(0.0, abs=1e-12)
        assert fam[0].inner(fam[0]) == pytest.approx(1.0, abs=1e-12)
        for f in fam:
            assert eigenregularity(f).ratio <= 0.5 + 1e-9

    def test_level_one_only(self):
        G = np.array([[1.0, 0.4], [0.4, 1.0]])
        fam, n0 = matched_family(GramSpec({1: G}), 0.5)
        assert n0 == 4 * 2
        assert fam[0].inner(fam[1]) == pytest.approx(0.4, abs=1e-12)

    def test_off_diagonal_matched(self):
        G = np.array([[1.0, 0.3], [0.3, 1.0]])
        fam, _ = matched_family(GramSpec({2: G}), 0.5)
        assert fam[0].inner(fam[1]) == pytest.approx(0.3, abs=1e-9)

    def test_dimension_formula_random(self, rng):
        for _ in range(20):
            levels = {}
            for level in range(1, int(rng.integers(2, 4))):
                m = int(rng.integers(1, 4))
                levels[level] = _random_correlation(rng, m)
            delta = float(rng.uniform(0.3, 0.8))
            fam, n0 = matched_family(GramSpec(levels), delta)
            kappa = math.ceil(1 / delta**2)
            assert n0 == kappa * sum(i * G.shape[0] for i, G in levels.items())
            # covariance reproduction and eigenregularity
            idx = 0
            for level in sorted(levels):
                G = levels[level]
                m = G.shape[0]
                for a in range(m):
                    for b in range(m):
                        got = fam[idx + a].inner(fam[idx + b])
                        assert got == pytest.approx(G[a, b], abs=1e-9)
                if level >= 2:
                    for a in range(m):
                        assert eigenregularity(fam[idx + a]).ratio <= delta + 1e-9
                idx += m

    def test_block_report_matches_dense(self, rng):
        G = _random_correlation(rng, 2)
        fam, _ = matched_family(GramSpec({2: G}), 0.5)
        rep_block = eigenregularity(fam[0])
        rep_dense = eigenregularity(fam[0].densify())
        assert rep_block.ratio == pytest.approx(rep_dense.ratio, abs=1e-8)

    def test_cross_level_orthogonal(self):
        fam, _ = matched_family(GramSpec({1: np.eye(1), 2: np.eye(1)}), 0.5)
        assert fam[0].inner(fam[1]) == pytest.approx(0.0)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            GramSpec({2: np.array([[1.0, 2.0], [2.0, 1.0]])})

    def test_rotation_preserves_gram(self, rng):
        G = _random_correlation(rng, 3)
        O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        fam, _ = matched_family(GramSpec({2: G}), 0.5)
        fam_r, _ = matched_family(GramSpec({2: G}), 0.5, factor_rotation={2: O})
        for a in range(3):
            for b in range(3):
                assert fam_r[a].inner(fam_r[b]) == pytest.approx(G[a, b], abs=1e-9)
        assert not np.allclose(
            fam[0].base.chaos[2].array, fam_r[0].base.chaos[2].array
        )


def _random_correlation(rng, m):
    A = rng.standard_normal((m, m + 2))
    G = A @ A.T
    d = np.sqrt(np.diag(G))
    return G / np.outer(d, d)


class TestProductEstimators:
    def test_square_of_h1(self):
        est = product_expectation_mc([h1(), h1()], 200_000, 3)
        assert est.value == pytest.approx(1.0, abs=3 * est.std_error)

    def test_independent_coordinates(self):
        est = product_expectation_mc([h1(2, 0), h1(2, 1)], 200_000, 3)
        assert abs(est.value) <= 3 * est.std_error

    def test_pair_block_weights_extraction(self):
        G = np.array([[1.0, 0.3], [0.3, 1.0]])
        fam, _ = matched_family(GramSpec({2: G}), 0.5)
        got = pair_block_weights(fam[0])
        assert got is not None
        pairs, w = got
        assert set(pairs) == {(0, 1), (2, 3)}
        # reconstructed base polynomial: sum_l w_l x_a x_b
        x = np.array([0.3, -1.1, 0.8, 2.0])
        expect = sum(
            weight * x[a] * x[b] for (a, b), weight in zip(pairs, w)
        )
        assert fam[0].base.eval(x) == pytest.approx(expect, abs=1e-12)

    def test_pair_block_weights_rejects_diagonal(self):
        bp = BlockPoly(h2(), 4, 4, 0)
        assert pair_block_weights(bp) is None

    def test_fast_sampler_matches_gram(self, rng):
        G = _random_correlation(rng, 3)
        fam, _ = matched_family(GramSpec({2: G}), 0.1)
        est = pair_block_product_difference(
            [fam[0], fam[1]], [fam[0], fam[2]], 1_000_000, 5
        )
        assert est.value == pytest.approx(G[0, 1] - G[0, 2], abs=6 * est.std_error)

    def test_fast_sampler_matches_generic(self, rng):
        G = _random_correlation(rng, 3)
        fam, _ = matched_family(GramSpec({2: G}), 0.25)
        quad_a = [fam[0], fam[1], fam[0], fam[1]]
        quad_b = [fam[0], fam[2], fam[0], fam[2]]
        gen = product_difference_mc(quad_a, quad_b, 40_000, 13, batch=1 << 13)
        fast = pair_block_product_difference(quad_a, quad_b, 400_000, 13)
        tol = 6 * math.sqrt(gen.std_error**2 + fast.std_error**2)
        assert fast.value == pytest.approx(gen.value, abs=tol)


class TestHardening:
    def test_block_inner_overlapping_layouts(self):
        from gstab.chaos import BlockPoly
        from gstab.tensors import SymmetricTensor
        import numpy as np

        base = PolyGauss(2, {2: SymmetricTensor.from_array(np.eye(2) / math.sqrt(2))})
        a = BlockPoly(base, 2, 8, 0)   # covers coords 0..3
        b = BlockPoly(base, 2, 8, 4)   # covers coords 4..7
        c = BlockPoly(base, 2, 8, 2)   # overlaps both
        assert a.inner(b) == pytest.approx(0.0)
        # overlapping layouts fall back to the dense inner product
        assert a.inner(c) == pytest.approx(a.densify().inner(c.densify()), abs=1e-12)

    def test_integer_inputs_coerced(self):
        p = h1(2, 0)
        vals = p.eval_many(np.array([[1, 2], [0, 3]]))
        np.testing.assert_allclose(vals, [1.0, 0.0])
