"""Hermite primitives, quadrature, and the correlated sampler."""
import numpy as np
import pytest

from gstab.gauss import (
    CorrelatedSampler,
    HermiteIndex,
    batch_sizes,
    check_rho,
    gauss_hermite_rule,
    hermite_eval,
    hermite_multi_eval,
    hermite_table,
    tensor_grid,
)


class TestHermiteValues:
    def test_degree_zero_is_one(self):
        assert hermite_eval(0, 3.7) == 1.0

    def test_degree_one_is_identity(self):
        assert hermite_eval(1, 2.0) == 2.0

    def test_degree_two_closed_form(self):
        # (x^2 - 1)/sqrt(2) from the Rodrigues formula
        assert hermite_eval(2, 2.0) == pytest.approx(3.0 / np.sqrt(2), abs=1e-14)

    def test_degree_three_closed_form(self, rng):
        xs = rng.standard_normal(10)
        expect = (xs**3 - 3 * xs) / np.sqrt(6)
        np.testing.assert_allclose(hermite_eval(3, xs), expect, atol=1e-12)

    def test_table_matches_single_eval(self, rng):
        xs = rng.standard_normal(7)
        table = hermite_table(5, xs)
        for q in range(6):
            np.testing.assert_allclose(table[q], hermite_eval(q, xs), atol=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)


class TestMultiIndex:
    def test_degree_is_entry_sum(self):
        S = HermiteIndex((2, 0, 1))
        assert S.degree == 3

    def test_all_zero_index(self):
        assert hermite_multi_eval(HermiteIndex((0, 0)), [1.0, -1.0]) == 1.0

    def test_product_rule(self):
        assert hermite_multi_eval(HermiteIndex((1, 1)), [2.0, 3.0]) == pytest.approx(6.0)
        assert hermite_multi_eval(HermiteIndex((2, 0)), [2.0, 5.0]) == pytest.approx(
            3.0 / np.sqrt(2)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hermite_multi_eval(HermiteIndex((1, 1)), [1.0])


class TestQuadrature:
    def test_order_one_midpoint(self):
        r = gauss_hermite_rule(1)
        np.testing.assert_allclose(r.nodes, [0.0])
        np.testing.assert_allclose(r.weights, [1.0])

    def test_order_two_roots_of_h2(self):
        r = gauss_hermite_rule(2)
        np.testing.assert_allclose(r.nodes, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(r.weights, [0.5, 0.5], atol=1e-14)

    def test_variance_of_gamma(self):
        r = gauss_hermite_rule(20)
        assert np.dot(r.weights, r.nodes**2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [5, 17, 40, 100])
    def test_rule_invariants(self, order):
        r = gauss_hermite_rule(order)
        assert np.all(r.weights > 0)
        assert r.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r.nodes, -r.nodes[::-1], atol=1e-12)

    def test_moment_exactness(self):
        # E[x^m] for gamma_1: 0 odd, (m-1)!! even; order 5 covers m <= 9
        r = gauss_hermite_rule(5)
        moments = [1, 0, 1, 0, 3, 0, 15, 0, 105]
        for m, expect in enumerate(moments):
            assert np.dot(r.weights, r.nodes**m) == pytest.approx(expect, abs=1e-10 * max(1, expect))

    def test_orthonormality(self):
        r = gauss_hermite_rule(40)
        table = hermite_table(6, r.nodes)
        gram = np.einsum("w,iw,jw->ij", r.weights, table, table)
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-10)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)

    def test_tensor_grid_dimension_guard(self):
        r = gauss_hermite_rule(3)
        points, weights = tensor_grid(r, 3)
        assert points.shape == (27, 3)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            tensor_grid(r, 5)


class TestCorrelatedSampler:
    def test_rho_one_degenerate(self):
        x, y = CorrelatedSampler(3, 1.0, 11).pairs(50)
        assert np.array_equal(x, y)

    def test_rho_zero_independent(self):
        x, y = CorrelatedSampler(1, 0.0, 11).pairs(40_000)
        corr = np.corrcoef(x[:, 0], y[:, 0])[0, 1]
        assert abs(corr) <= 5 / np.sqrt(40_000)

    def test_empirical_correlation(self):
        count = 1_000_000
        x, y = CorrelatedSampler(2, 0.5, 3).pairs(count)
        for i in range(2):
            emp = np.mean(x[:, i] * y[:, i])
            assert emp == pytest.approx(0.5, abs=5 / np.sqrt(count))

    def test_determinism_byte_for_byte(self):
        a = CorrelatedSampler(2, 0.3, 99).pairs(1000)
        b = CorrelatedSampler(2, 0.3, 99).pairs(1000)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_batches_match_single_draw(self):
        s = CorrelatedSampler(2, 0.4, 5)
        x, y = s.pairs(1000)
        bx = np.concatenate([b[0] for b in s.pair_batches(1000, batch=256)])
        assert bx.shape == x.shape

    def test_substreams_differ(self):
        s = CorrelatedSampler(1, 0.5, 7)
        x0, _ = s.pairs(10)
        x1, _ = s.substream(1).pairs(10)
        assert not np.allclose(x0, x1)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            CorrelatedSampler(1, 1.5, 0)


class TestRhoRule:
    """One rule for rho everywhere: finite with |rho| <= 1."""

    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_accepted(self, rho):
        from gstab.cube import cube_stability, make_voting_rule
        from gstab.partitions import Halfspace, estimate_stability
        from gstab.product_space import binary_symmetric

        assert check_rho(rho) == rho
        CorrelatedSampler(2, rho, 1).pairs(2)
        dictator = make_voting_rule("dictator", 3, 2)
        assert cube_stability(dictator, rho) == pytest.approx((1 + rho) / 2, abs=1e-12)
        assert binary_symmetric(rho).P.sum() == pytest.approx(1.0)
        est = estimate_stability(Halfspace([0.0], [1.0]), None, 100, 0, rho=rho)
        if rho < 0:
            assert np.isnan(est.t)  # no noise time gives a negative correlation
        elif rho == 0:
            assert est.t == np.inf

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, 1.5, -1.01])
    def test_rejected_everywhere(self, rho):
        from gstab.cube import cube_stability, cube_stability_bruteforce, make_voting_rule
        from gstab.partitions import Halfspace, estimate_stability, sheppard_orthant
        from gstab.product_space import binary_symmetric

        for call in (
            lambda: check_rho(rho),
            lambda: CorrelatedSampler(2, rho, 1),
            lambda: cube_stability(make_voting_rule("majority", 3, 2), rho),
            lambda: cube_stability_bruteforce(make_voting_rule("majority", 3, 2), rho),
            lambda: binary_symmetric(rho),
            lambda: sheppard_orthant(rho),
            lambda: estimate_stability(Halfspace([0.0], [1.0]), None, 100, 0, rho=rho),
        ):
            with pytest.raises(ValueError):
                call()

    def test_nan_t_rejected(self):
        from gstab.partitions import Halfspace, estimate_stability

        with pytest.raises(ValueError):
            estimate_stability(Halfspace([0.0], [1.0]), np.nan, 100, 0)

    def test_negative_rho_halfspace_agreement(self):
        from gstab.partitions import Halfspace, estimate_stability

        est = estimate_stability(Halfspace([0.0, 0.0], [1.0, 2.0]), None, 200_000, 3, rho=-0.5)
        assert est.value == pytest.approx(1 - np.arccos(-0.5) / np.pi, abs=5 * est.std_error)

    @pytest.mark.parametrize("rho", [-0.5, 1.0])
    def test_coupling_oracles_keep_their_range(self, rho):
        from gstab.partitions import Halfspace, orthant_probability_quad, quad_joint_cells_1d

        with pytest.raises(ValueError, match="shared-factor coupling"):
            orthant_probability_quad(rho)
        with pytest.raises(ValueError, match="shared-factor coupling"):
            quad_joint_cells_1d(Halfspace([0.0], [1.0]), rho)


class TestSampleCountGuard:
    """Every Monte Carlo estimator rejects a sample count below 1 before
    it draws or divides."""

    @staticmethod
    def _estimators():
        from gstab.chaos import (
            GramSpec,
            PolyGauss,
            matched_family,
            pair_block_product_difference,
            product_expectation_mc,
        )
        from gstab.partitions import Halfspace, MultiPTF, collision_probability, estimate_stability
        from gstab.product_space import binary_symmetric, block_strategy, correlation_basis, estimate_discrete_corr

        half = Halfspace([0.0], [1.0])
        ptf = MultiPTF([PolyGauss.from_hermite_coeffs(1, {(1,): s}) for s in (1.0, -1.0)])
        P = binary_symmetric(0.5)
        strat = block_strategy(half, correlation_basis(P).X[:, 1], 4)
        fam, _ = matched_family(GramSpec({2: np.eye(3)}), 0.25)
        return {
            "stability": lambda s: estimate_stability(half, 0.5, s, 0),
            "collision": lambda s: collision_probability(ptf, s, 0),
            "discrete_corr": lambda s: estimate_discrete_corr(strat, strat, P, s, 0),
            "product_mc": lambda s: product_expectation_mc(fam[:2], s, 0),
            "pair_block": lambda s: pair_block_product_difference(fam[:2], fam[1:], s, 0),
        }

    @pytest.mark.parametrize("name", ["stability", "collision", "discrete_corr", "product_mc", "pair_block"])
    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejected(self, name, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            self._estimators()[name](samples)

    def test_batch_sizes_cover_the_total(self):
        assert list(batch_sizes(10, 4)) == [4, 4, 2]
        assert list(batch_sizes(1, 4)) == [1]
        with pytest.raises(ValueError):
            batch_sizes(5, 0)
