"""Hermite primitives, quadrature, the bivariate normal law, and the
correlated sampler."""
import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from gstab.gauss import (
    CorrelatedSampler,
    HermiteIndex,
    QuadratureRule,
    batch_sizes,
    bvn_cdf,
    check_distribution,
    check_rho,
    check_tolerance,
    coupling,
    gauss_hermite_rule,
    gaussian_points,
    gaussian_rng,
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

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            QuadratureRule(2, np.array([-1.0, 1.0]), np.array([np.nan, np.nan]))

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

    # sha256 of nodes then weights, recorded while the Christoffel sum ran
    # its own rescaled recurrence: taking it from hermite_table moved no bit
    @pytest.mark.parametrize(
        "order, digest",
        [
            (1, "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d"),
            (2, "d53b18245c03f2406b44c2c249a0133ed8e360c436f1b343505e7e5200bf6dee"),
            (5, "13b0f22e5fe0c8f2c5a297c27f422e611f641627e43361b2286877623080aea8"),
            (16, "56f784496606ba4eb6857cee115ead8e0682da235f746a14cbd879d87292354c"),
            (40, "40b98b34d044a482ee9fe242434547f60e5734d8342c0a9074a5cbc526bae671"),
            (80, "d1dbe4dac3ccd99217ec7a70c35b5cef177c18428fd2d09abae806b5e1bbb849"),
            (128, "06eca44f53491b0e50511664f8c02aa317b19360c46486ec608a7abe791df306"),
            (300, "2a8d5440f7e503dce6082f8a040ba75d48a5ce503dc9bd31d290b6d2c2d1833c"),
        ],
    )
    def test_rule_bytes_are_pinned(self, order, digest):
        r = gauss_hermite_rule(order)
        assert hashlib.sha256(r.nodes.tobytes() + r.weights.tobytes()).hexdigest() == digest

    def test_order_with_subnormal_weights_refused(self):
        # at order 371 the extreme weight is about 1.9e-309, subnormal
        assert gauss_hermite_rule(370).weights.min() > 0.0
        with pytest.raises(ValueError, match="quadrature order too large"):
            gauss_hermite_rule(371)

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
            lambda: bvn_cdf(0.0, 0.0, rho),
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
    def test_joint_cells_take_every_rho(self, rho):
        from gstab.partitions import Halfspace, Slabs, cell_grid, quad_joint_cells_1d

        J = quad_joint_cells_1d(Halfspace([0.0], [1.0]), rho)
        assert J[0, 0] == pytest.approx({-0.5: 1 / 6, 1.0: 1 / 2}[rho], abs=1e-15)
        if rho == 1.0:  # Y = X: both points always share their cell
            f = Slabs(0, [-0.4, 0.3, 1.1], [2, 1, 3, 1], k=3)
            mu = cell_grid(f).smooth(np.zeros((1, 1)), 0.0, 1.0)[0]
            np.testing.assert_allclose(quad_joint_cells_1d(f, rho), np.diag(mu), rtol=0, atol=1e-15)


class TestBvnCdf:
    """Pr[X <= h, Y <= k] in Owen's closed form, against adaptive
    quadrature, Sheppard's orthant value and the rho = +-1 limits."""

    @staticmethod
    def rectangle_quad(a, b, rho):
        """Pr[a0 < X <= b0, a1 < Y <= b1] by adaptive quad over x of
        phi(x) Pr[a1 < Y <= b1 | X = x]."""
        s = math.sqrt(1.0 - rho * rho)

        def integrand(x):
            return math.exp(-x * x / 2) / math.sqrt(2 * math.pi) * (
                ndtr((b[1] - rho * x) / s) - ndtr((a[1] - rho * x) / s)
            )

        return quad(integrand, a[0], b[0], epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    @pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.3, 0.6, 0.92, 0.99])
    def test_rectangles_match_adaptive_quad(self, rho):
        rng = np.random.default_rng(int(1000 * (rho + 1)))
        for _ in range(12):
            a = np.sort(rng.normal(0.0, 1.5, (2, 2)), axis=0)
            ends = rng.random((2, 2)) < 0.3  # some ends at -inf below, +inf above
            lo = np.where(ends[0], -np.inf, a[0])
            hi = np.where(ends[1], np.inf, a[1])
            C = bvn_cdf([[hi[0]], [lo[0]]], [[hi[1], lo[1]]], rho)
            value = C[0, 0] - C[0, 1] - C[1, 0] + C[1, 1]
            assert value == pytest.approx(self.rectangle_quad(lo, hi, rho), abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.3, 0.6, 0.92, 0.99])
    def test_cdf_on_axes_and_ends_matches_adaptive_quad(self, rho):
        for h, k in [(0.0, 0.7), (-0.0, -1.3), (1.1, 0.0), (-2.0, 0.0), (2.5, -0.4), (-3.0, -3.5)]:
            want = self.rectangle_quad((-np.inf, -np.inf), (h, k), rho)
            assert float(bvn_cdf(h, k, rho)) == pytest.approx(want, abs=1e-12)
        for x in (-1.7, 0.0, 0.4):
            assert bvn_cdf(np.inf, x, rho) == ndtr(x) == bvn_cdf(x, np.inf, rho)
            assert bvn_cdf(-np.inf, x, rho) == 0.0 == bvn_cdf(x, -np.inf, rho)
        assert bvn_cdf(np.inf, np.inf, rho) == 1.0

    @pytest.mark.parametrize("rho", np.linspace(-0.99, 0.99, 23))
    def test_origin_is_sheppard(self, rho):
        value = float(bvn_cdf(0.0, 0.0, rho))
        assert value == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), abs=1e-15)

    def test_unit_rho_limits(self):
        x = np.array([-np.inf, -2.0, -0.3, 0.0, 0.3, 1.5, np.inf])
        h, k = np.meshgrid(x, x, indexing="ij")
        np.testing.assert_array_equal(bvn_cdf(h, k, 1.0), ndtr(np.minimum(h, k)))
        # the reference's own sum rounds to within an ulp of 1
        np.testing.assert_allclose(
            bvn_cdf(h, k, -1.0), np.maximum(ndtr(h) + ndtr(k) - 1.0, 0.0), rtol=0, atol=2.3e-16
        )
        # the closed form runs into the limits: O(sqrt(1 - |rho|)) away
        for rho in (1.0, -1.0):
            near = bvn_cdf(h, k, rho * (1.0 - 1e-10))
            np.testing.assert_allclose(near, bvn_cdf(h, k, rho), rtol=0, atol=1e-4)

    def test_broadcasts(self):
        C = bvn_cdf(np.zeros((3, 1)), np.zeros((1, 4)), 0.5)
        assert C.shape == (3, 4)
        assert np.all(C == 0.25 + math.asin(0.5) / (2 * math.pi))


class TestCoupling:
    """One rule for the Gaussian(rho) coupling: t or rho in, (rho, sigma, t)
    out, and every noise-time input checked by it."""

    def test_no_noise(self):
        assert coupling(0.0) == (1.0, 0.0, 0.0)

    def test_independence(self):
        assert coupling(np.inf) == (0.0, 1.0, np.inf)
        assert coupling(rho=0.0) == (0.0, 1.0, np.inf)

    def test_negative_rho_has_no_noise_time(self):
        rho, sigma, t = coupling(rho=-0.3)
        assert rho == -0.3 and sigma == np.sqrt(1.0 - 0.3 * 0.3) and np.isnan(t)

    @pytest.mark.parametrize("t", [0.5, 0.7, 3.0])
    def test_time_maps_to_correlation(self, t):
        rho, sigma, back = coupling(t)
        assert rho == np.exp(-t) and back == t
        assert sigma == np.sqrt(1.0 - rho * rho)

    @pytest.mark.parametrize("kwargs", [{}, {"t": 0.5, "rho": 0.5}], ids=["neither", "both"])
    def test_exactly_one_input(self, kwargs):
        with pytest.raises(ValueError, match="exactly one of t or rho"):
            coupling(**kwargs)

    @pytest.mark.parametrize("rho", [np.nan, 1.5, -1.01])
    def test_rho_rule(self, rho):
        with pytest.raises(ValueError, match="rho must be finite"):
            coupling(rho=rho)


def _rounded_ptf_json(t):
    import json

    from gstab.chaos import PolyGauss
    from gstab.partitions import MultiPTF, partition_to_json
    from gstab.search import _RoundedPartition

    polys = [PolyGauss.from_hermite_coeffs(2, {(1, 0): c, (0, 1): 1.0 - c}) for c in (0.2, 0.5, 0.9)]
    doc = json.loads(partition_to_json(_RoundedPartition(MultiPTF(polys), 0.5, np.zeros(3), 8)))
    doc["payload"]["t"] = t
    return json.dumps(doc)


def _noise_time_entry_points():
    from gstab.hermite import apply_ou, expand, ou_on_points
    from gstab.partitions import Halfspace, estimate_stability, partition_from_json
    from gstab.rounding import smoothed_partition_values, stability_of_rounding
    from gstab.search import SearchConfig

    half = Halfspace([0.0], [1.0])
    return {
        "smoothed_partition_values": lambda t: smoothed_partition_values(half, t, np.zeros((2, 1))),
        "ou_on_points": lambda t: ou_on_points(lambda X: X, t, np.zeros((2, 1))),
        "apply_ou": lambda t: apply_ou(expand(lambda X: X[:, 0], 1, 2), t),
        "stability_of_rounding": lambda t: stability_of_rounding(half, t, samples=100),
        "estimate_stability": lambda t: estimate_stability(half, t, 100, 0),
        "SearchConfig": lambda t: SearchConfig(
            k=2, n0=1, d=1, t=t, target_mu=[0.5, 0.5], measure_tol=0.05, budget=5
        ),
        "partition_from_json": lambda t: partition_from_json(_rounded_ptf_json(t)),
    }


@pytest.mark.parametrize("t", [-0.5, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("entry", sorted(_noise_time_entry_points()))
def test_every_noise_time_input_is_checked(entry, t):
    with pytest.raises(ValueError, match="t must be >= 0"):
        _noise_time_entry_points()[entry](t)


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


class TestInputRules:
    """One probability-vector rule, one tolerance rule and one seeded
    point draw, each checked at every entry point that reads one."""

    def test_distribution_accepted(self):
        p = check_distribution([0.25, 0.75, 0.0], 3)
        assert p.dtype == float and p.tolist() == [0.25, 0.75, 0.0]
        assert check_distribution(np.array([1.0])).tolist() == [1.0]

    @pytest.mark.parametrize(
        "p, k, match",
        [
            ([np.nan, np.nan], None, "entries must be finite"),
            ([np.inf, 0.0], None, "entries must be finite"),
            ([-np.inf, 1.0], None, "entries must be finite"),
            ([1.5, -0.5], None, "entries must be finite and >= 0"),
            ([0.5, 0.5], 3, "a vector of 3 entries"),
            ([[0.5, 0.5]], None, "must be a vector"),
            ([0.5, 0.6], None, "must sum to 1"),
            ([], None, "must sum to 1"),
            ({"a": 1.0}, None, "must be a vector of numbers"),
            ("abc", None, "must be a vector of numbers"),
        ],
        ids=["nan", "inf", "-inf", "negative", "wrong-length", "matrix", "sum-off", "empty", "dict", "string"],
    )
    def test_distribution_rejected(self, p, k, match):
        with pytest.raises(ValueError, match=match) as exc:
            check_distribution(p, k, name="mu")
        assert str(exc.value).startswith("mu ")

    def test_distribution_atol(self):
        check_distribution([0.5, 0.5 + 1e-10])
        with pytest.raises(ValueError, match="within 1e-12"):
            check_distribution([0.5, 0.5 + 1e-10], atol=1e-12)

    @pytest.mark.parametrize("x", [1e-12, 0.01, 5.0])
    def test_tolerance_accepted(self, x):
        assert check_tolerance(x, "tol") == x

    @pytest.mark.parametrize("x", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_tolerance_rejected(self, x):
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            check_tolerance(x, "delta")
        if x != 0.0:
            with pytest.raises(ValueError, match="delta must be finite and >= 0"):
                check_tolerance(x, "delta", allow_zero=True)

    def test_tolerance_zero_where_allowed(self):
        assert check_tolerance(0.0, "delta", allow_zero=True) == 0.0

    def test_points_in_blocks_equal_one_draw(self):
        blocks = list(gaussian_points(3, 1000, 5, 333))
        assert [b.shape for b in blocks] == [(333, 3)] * 3 + [(1, 3)]
        (one,) = gaussian_points(3, 1000, 5, 1000)
        assert np.array_equal(np.concatenate(blocks), one)
        assert np.array_equal(one, gaussian_rng(5).standard_normal((1000, 3)))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_points_need_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            gaussian_points(2, samples, 0, 100)


def _distribution_entry_points():
    from gstab.product_space import JointDist, binary_symmetric
    from gstab.rounding import find_matching_threshold
    from gstab.search import SearchConfig, ncd_brute_oracle, ncd_decide

    P = binary_symmetric(0.5)
    uniform = lambda X: np.full((X.shape[0], 2), 0.5)  # noqa: E731
    return {
        "find_matching_threshold": lambda p: find_matching_threshold(uniform, p, 0.01, 100, 0, 1),
        "SearchConfig": lambda p: SearchConfig(
            k=2, n0=1, d=1, t=0.5, target_mu=p, measure_tol=0.05, budget=5
        ),
        "ncd_decide_mu": lambda p: ncd_decide(P, p, [0.5, 0.5], 0.75, 0.02),
        "ncd_decide_nu": lambda p: ncd_decide(P, [0.5, 0.5], p, 0.75, 0.02),
        "ncd_brute_oracle": lambda p: ncd_brute_oracle(P, p, [0.5, 0.5], 2, 1, 0.02),
        "JointDist": lambda p: JointDist(np.reshape(p, (1, -1))),
    }


_BAD_DISTRIBUTIONS = {
    "nan": [np.nan, np.nan],
    "negative": [1.5, -0.5],
    "sum-off": [0.5, 0.6],
    "short": [1.0],
    "long": [0.2, 0.3, 0.5],
}


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry in sorted(_distribution_entry_points())
        for bad in _BAD_DISTRIBUTIONS
        # a joint law has no fixed length to miss
        if not (entry == "JointDist" and bad in ("short", "long"))
    ],
)
def test_every_distribution_input_is_checked(entry, bad):
    p = _BAD_DISTRIBUTIONS[bad]
    with pytest.raises(ValueError, match="must be a vector|entries must be finite|must sum to 1"):
        _distribution_entry_points()[entry](p)


def _tolerance_entry_points():
    from gstab.partitions import Halfspace
    from gstab.product_space import binary_symmetric
    from gstab.rounding import find_matching_threshold, stability_of_rounding
    from gstab.search import SearchConfig, ncd_brute_oracle, ncd_decide

    P = binary_symmetric(0.5)
    uniform = lambda X: np.full((X.shape[0], 2), 0.5)  # noqa: E731
    return {
        "find_matching_threshold": lambda x: find_matching_threshold(uniform, [0.5, 0.5], x, 100, 0, 1),
        "stability_of_rounding": lambda x: stability_of_rounding(Halfspace([0.0], [1.0]), 0.5, tol=x, samples=100),
        "SearchConfig": lambda x: SearchConfig(
            k=2, n0=1, d=1, t=0.5, target_mu=[0.5, 0.5], measure_tol=x, budget=5
        ),
        "ncd_decide": lambda x: ncd_decide(P, [0.5, 0.5], [0.5, 0.5], 0.75, x),
        "ncd_brute_oracle": lambda x: ncd_brute_oracle(P, [0.5, 0.5], [0.5, 0.5], 2, 1, x),
    }


@pytest.mark.parametrize("x", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(_tolerance_entry_points()))
def test_every_tolerance_input_is_checked(entry, x):
    if entry == "ncd_brute_oracle" and x == 0.0:
        # delta = 0 asks the oracle for the target marginals exactly
        assert _tolerance_entry_points()[entry](x) == pytest.approx(0.75)  # (1 + rho) / 2
        return
    with pytest.raises(ValueError, match="must be finite and >=? 0"):
        _tolerance_entry_points()[entry](x)


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
def test_ncd_kappa_must_be_finite(kappa):
    from gstab.product_space import binary_symmetric
    from gstab.search import ncd_decide

    with pytest.raises(ValueError, match="kappa must be finite"):
        ncd_decide(binary_symmetric(0.5), [0.5, 0.5], [0.5, 0.5], kappa, 0.02)


def test_single_block_draws_need_a_sample():
    from gstab.partitions import equal_slabs
    from gstab.rounding import find_matching_threshold, ptf_from_truncation

    with pytest.raises(ValueError, match="samples must be >= 1"):
        find_matching_threshold(lambda X: np.full((X.shape[0], 2), 0.5), [0.5, 0.5], 0.01, 0, 0, 1)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        ptf_from_truncation(equal_slabs(3), 2, samples=0)
