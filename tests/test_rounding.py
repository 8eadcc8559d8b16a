"""Threshold rounding, measure matching, and PTF extraction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from conftest import random_partition
from gstab.gauss import label_measures
from gstab.partitions import Halfspace, MultiPTF, Slabs, equal_slabs
from gstab.rounding import (
    ThresholdVector,
    _match_threshold_on_values,
    find_matching_threshold,
    ptf_from_truncation,
    round_values,
    smoothed_partition_values,
    stability_of_rounding,
    threshold_round,
)


def simplex_pair(X):
    return np.stack([1 - ndtr(X[:, 0]), ndtr(X[:, 0])], axis=1)


class TestThresholdRound:
    def test_constant_function(self):
        F = lambda X: np.tile([1.0, 0.0], (X.shape[0], 1))
        g = threshold_round(F, ThresholdVector(np.zeros(2)), 1, 2)
        assert np.all(g.labels(np.array([[0.0], [3.0], [-2.0]])) == 1)

    def test_halfspace_at_zero(self):
        g = threshold_round(simplex_pair, ThresholdVector(np.zeros(2)), 1, 2)
        np.testing.assert_array_equal(
            g.labels(np.array([[-0.5], [0.5]])), [1, 2]
        )

    def test_shifted_boundary(self):
        # crossover where F_1 - z_1 = F_2 moves the boundary to x = 1
        z1 = (1 - ndtr(1.0)) - ndtr(1.0)
        g = threshold_round(simplex_pair, ThresholdVector([z1, 0.0]), 1, 2)
        np.testing.assert_array_equal(
            g.labels(np.array([[0.99], [1.01]])), [1, 2]
        )

    def test_translation_invariance(self, rng):
        X = rng.standard_normal((500, 1))
        vals = simplex_pair(X)
        base = round_values(vals, ThresholdVector([0.2, 0.0]))
        shifted = round_values(vals, np.array([0.2, 0.0]) + 3.7)
        np.testing.assert_array_equal(base, shifted)

    def test_tie_breaks_to_smallest_index(self):
        vals = np.array([[0.5, 0.5], [0.2, 0.8]])
        np.testing.assert_array_equal(round_values(vals, np.zeros(2)), [1, 2])

    def test_non_simplex_rejected(self):
        F = lambda X: np.stack([X[:, 0], 1 - X[:, 0]], axis=1)
        g = threshold_round(F, ThresholdVector(np.zeros(2)), 1, 2)
        with pytest.raises(ValueError):
            g.labels(np.array([[5.0]]))


    def test_non_finite_values_rejected(self):
        # NaN passes every comparison test of the simplex check, and
        # argmax would label its row silently
        F = lambda X: np.where(X[:, :1] > 0, np.nan, simplex_pair(X))
        g = threshold_round(F, ThresholdVector(np.zeros(2)), 1, 2)
        with pytest.raises(FloatingPointError):
            g.labels(np.array([[-1.0], [1.0]]))
        np.testing.assert_array_equal(g.labels(np.array([[-1.0], [-2.0]])), [1, 1])


class TestFindMatchingThreshold:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        F = lambda X: np.where(X[:, :1] > 2, bad, simplex_pair(X))
        with pytest.raises(ArithmeticError):
            find_matching_threshold(F, [0.5, 0.5], tol=0.01, samples=10_000, seed=1, n=1)
    def test_symmetric_target_immediate(self):
        res = find_matching_threshold(
            simplex_pair, [0.5, 0.5], tol=0.01,
            samples=100_000, seed=1, n=1,
        )
        assert res.converged
        assert res.l1_error <= 0.01

    def test_skew_target_boundary(self):
        # label 1 carries 1 - Phi(x), so measure 0.3 puts the cut at
        # the 0.3 upper-quantile of F_1, i.e. x = Phi^{-1}(0.3)
        res = find_matching_threshold(
            simplex_pair, [0.3, 0.7], tol=0.005,
            samples=300_000, seed=2, n=1,
        )
        assert res.converged
        z = res.z.z
        boundary = ndtri((1 - z[0] + z[1]) / 2)
        assert boundary == pytest.approx(ndtri(0.3), abs=0.03)

    def test_three_way_smoothed_slabs(self):
        f = equal_slabs(3)
        F = lambda X: smoothed_partition_values(f, 0.5, X)
        res = find_matching_threshold(
            F, [1 / 3, 1 / 3, 1 / 3], tol=0.01,
            samples=200_000, seed=3, n=1,
        )
        assert res.converged
        assert res.l1_error <= 0.01

    def test_nonconvergence_flagged(self):
        # constant values tie every point, so the rounding puts all of
        # them in one cell whatever z is: [0.3, 0.7] is out of reach
        F = lambda X: np.full((X.shape[0], 2), 0.5)
        res = find_matching_threshold(F, [0.3, 0.7], tol=0.01, samples=10_000, seed=4, n=1)
        assert not res.converged
        assert res.l1_error == pytest.approx(0.6, abs=1e-12)

    def test_balanced_slabs_match(self):
        # a damped fixed point stalled here at slack 0.18 against tol 0.01
        f = Slabs(0, [-0.43072729929545744, 0.4307272992954577], [3, 1, 2], n=2, k=3)
        rep = stability_of_rounding(f, 0.7, samples=200_000, seed=1624676301)
        assert rep.converged and rep.measure_slack <= 0.01


class TestQuantileSweeps:
    """The matcher on raw values: exact on tie-free values, never worse
    than z = 0 on tied ones, and reporting the measures of its own z."""

    @staticmethod
    def _values(seed, k, n, levels):
        rng = np.random.default_rng(seed)
        if levels:  # a few distinct values per column, so many ties
            raw = rng.integers(0, levels, (n, k)) + 0.5
        else:
            raw = rng.exponential(size=(n, k))
        counts = rng.multinomial(n, rng.dirichlet(np.ones(k)))
        return raw / raw.sum(axis=1, keepdims=True), counts / n

    def test_best_iterate_is_kept(self):
        # on these tied values the first sweep is 2 of 7 points off and the
        # second 4 of 7; the first is returned
        raw = np.array([[2, 1, 1, 1], [1, 1, 0, 1], [2, 1, 1, 2], [0, 2, 0, 1],
                        [2, 2, 2, 2], [0, 0, 1, 0], [2, 2, 1, 0]]) + 0.5
        FX = raw / raw.sum(axis=1, keepdims=True)
        res = _match_threshold_on_values(FX, np.array([0, 3, 2, 2]) / 7, 0.01)
        assert not res.converged and res.iterations == 3
        assert res.l1_error == pytest.approx(2 / 7, abs=1e-12)
        np.testing.assert_array_equal(res.measures * 7, [0, 2, 3, 2])

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 7),
        n=st.integers(20, 3000),
        levels=st.sampled_from([0, 0, 2, 3, 5]),
    )
    def test_sweeps(self, seed, k, n, levels):
        FX, target = self._values(seed, k, n, levels)
        res = _match_threshold_on_values(FX, target, 0.5 / n)
        labels = round_values(FX, res.z)
        np.testing.assert_array_equal(res.measures, label_measures(labels, k))
        assert res.l1_error == float(np.abs(res.measures - target).sum())
        assert res.converged == (res.l1_error <= 0.5 / n)
        if levels:
            at_zero = label_measures(round_values(FX, np.zeros(k)), k)
            assert res.l1_error <= float(np.abs(at_zero - target).sum())
        else:
            assert res.converged and res.l1_error == 0.0


class TestSmoothedValues:
    def test_halfspace_closed_form_matches_monte_carlo(self, rng):
        f = Halfspace([0.3, 0.0], [1.0, -2.0])
        x = np.array([0.4, -0.9])
        fast = smoothed_partition_values(f, 0.6, x[None, :])[0]
        rho, sig = math.exp(-0.6), math.sqrt(1 - math.exp(-1.2))
        Y = rng.standard_normal((1_000_000, 2))
        mc = float(np.mean(f.labels(rho * x + sig * Y) == 1))
        assert fast[0] == pytest.approx(mc, abs=4 * math.sqrt(0.25 / 1_000_000))

    def test_slab_closed_form_matches_monte_carlo(self, rng):
        f = equal_slabs(3)
        x = np.array([-0.7])
        fast = smoothed_partition_values(f, 0.6, x[None, :])[0]
        rho, sig = math.exp(-0.6), math.sqrt(1 - math.exp(-1.2))
        Y = rng.standard_normal((1_000_000, 1))
        labels = f.labels(rho * x + sig * Y)
        for j in range(3):
            mc = float(np.mean(labels == j + 1))
            assert fast[j] == pytest.approx(mc, abs=4 * math.sqrt(0.25 / 1_000_000))

    def test_one_dim_ptf_reduces_exactly(self, rng):
        from conftest import random_quadratic_poly
        from gstab.partitions import MultiPTF, interval_form

        f = MultiPTF([random_quadratic_poly(rng, 1) for _ in range(2)])
        form = interval_form(f)
        X = rng.standard_normal((3000, 1))
        np.testing.assert_array_equal(f.labels(X), form.projected().labels(X))
        x = np.array([0.4])
        sm = smoothed_partition_values(f, 0.7, x[None, :])[0]
        rho, sig = math.exp(-0.7), math.sqrt(1 - math.exp(-1.4))
        Y = rng.standard_normal((1_000_000, 1))
        mc = float(np.mean(f.labels(rho * x + sig * Y) == 1))
        assert sm[0] == pytest.approx(mc, abs=4 * math.sqrt(0.25 / 1_000_000))

    def test_tabulated_product_form(self, rng):
        from gstab.cube import make_voting_rule
        from gstab.partitions import Tabulated

        f = Tabulated(make_voting_rule("majority", 3, 2))
        x = np.array([0.2, -0.5, 1.1])
        sm = smoothed_partition_values(f, 0.5, x[None, :])[0]
        rho, sig = math.exp(-0.5), math.sqrt(1 - math.exp(-1.0))
        Y = rng.standard_normal((1_000_000, 3))
        mc = float(np.mean(f.labels(rho * x + sig * Y) == 1))
        assert sm[0] == pytest.approx(mc, abs=4 * math.sqrt(0.25 / 1_000_000))
        # against the product over coordinates summed point by point; at
        # n = 12 the points span more than one block of the contraction
        from gstab.cube import CubeFn

        for n, k, count in ((1, 2, 50), (4, 3, 50), (7, 4, 50), (12, 3, 5000)):
            g = Tabulated(CubeFn(n, k, rng.integers(1, k + 1, 1 << n)))
            X = rng.standard_normal((count, n))
            plus = ndtr(rho * X / sig)
            expect = np.zeros((count, k))
            for point in range(1 << n):
                bits = (point >> np.arange(n)) & 1
                expect[:, g.cube.table[point] - 1] += np.prod(np.where(bits, plus, 1.0 - plus), axis=1)
            np.testing.assert_allclose(smoothed_partition_values(g, 0.5, X), expect, rtol=0, atol=1e-12)

    def test_values_in_simplex(self, rng):
        f = equal_slabs(3)
        vals = smoothed_partition_values(f, 0.4, rng.standard_normal((100, 1)))
        assert np.all(vals >= 0) and np.all(vals <= 1)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)


class TestStabilityOfRounding:
    def test_halfspace_fixed_point(self):
        rep = stability_of_rounding(Halfspace([0.0], [1.0]), math.log(2), samples=150_000, seed=5)
        tol = rep.measure_slack + 6 * (rep.se_f + rep.se_g)
        assert rep.stab_g >= rep.stab_f - tol
        assert rep.stab_g == pytest.approx(rep.stab_f, abs=6 * (rep.se_f + rep.se_g))

    def test_sandwich_is_fixed_point_of_rounding(self):
        # the smoothed sandwich thresholds back to the same sandwich, so
        # the lemma holds with equality here rather than a strict gain
        c = ndtri(0.75)
        f = Slabs(0, [-c, c], [2, 1, 2], n=1)
        rep = stability_of_rounding(f, math.log(2), samples=150_000, seed=6)
        assert rep.stab_g >= rep.stab_f - rep.measure_slack - 6 * (rep.se_f + rep.se_g)

    def test_checkerboard_strict_improvement(self):
        f = Slabs(0, [ndtri(0.25), 0.0, ndtri(0.75)], [1, 2, 1, 2], n=1)
        rep = stability_of_rounding(f, math.log(2), samples=150_000, seed=7)
        assert rep.stab_g >= rep.stab_f + 6 * (rep.se_f + rep.se_g)

    def test_cauchy_schwarz_cross_term(self):
        f = Slabs(0, [ndtri(0.25), 0.0, ndtri(0.75)], [1, 2, 1, 2], n=1)
        rep = stability_of_rounding(f, math.log(2), samples=150_000, seed=8)
        se = rep.se_f + rep.se_g
        assert rep.cross <= math.sqrt(rep.stab_f * rep.stab_g) + 6 * se

    def test_random_partitions_contract(self, rng):
        for _ in range(6):
            k = int(rng.integers(2, 4))
            f = random_partition(rng, 1, k)
            rep = stability_of_rounding(f, 0.7, samples=100_000, seed=int(rng.integers(1e6)))
            tol = rep.measure_slack + 6 * (rep.se_f + rep.se_g)
            assert rep.stab_g >= rep.stab_f - tol

    def test_report_serializes(self):
        rep = stability_of_rounding(Halfspace([0.0], [1.0]), 0.5, samples=50_000, seed=9)
        doc = rep.to_json()
        assert "stab_before" in doc and "stab_after" in doc


class TestRoundingOptimality:
    def test_rounding_beats_same_measure_interval_partitions(self, rng):
        # quadrature comparison of <F, g> against interval arrangements
        # with identical cell measures
        amp = 0.35

        def f1(x):
            return 0.5 + amp * np.sin(1.7 * x) * np.exp(-x * x / 6)

        F = lambda X: np.stack([f1(X[:, 0]), 1 - f1(X[:, 0])], axis=1)
        z = ThresholdVector([0.07, 0.0])

        def phi(x):
            return np.exp(-x * x / 2) / math.sqrt(2 * math.pi)

        def g_label(x):
            return 1 if f1(x) - z.z[0] >= 1 - f1(x) else 2

        # locate boundaries of the rounded set on a fine grid
        grid = np.linspace(-8, 8, 4001)
        lab = np.array([g_label(x) for x in grid])
        switches = grid[np.nonzero(np.diff(lab))[0]]
        pieces = np.concatenate(([-np.inf], switches, [np.inf]))
        corr_g = 0.0
        measure_1 = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            mid = np.clip((a + b) / 2, -8, 8)
            lab_piece = g_label(mid)
            val = quad(lambda x: phi(x) * (f1(x) if lab_piece == 1 else 1 - f1(x)), a, b)[0]
            corr_g += val
            if lab_piece == 1:
                measure_1 += quad(phi, a, b)[0]
        # comparison partitions: random interval sets with the same measure
        for trial in range(5):
            rng2 = np.random.default_rng(trial)
            cuts = np.sort(rng2.uniform(0.05, 0.95, size=3))
            segs = np.concatenate(([0], cuts, [1]))
            lens = np.diff(segs)
            w = rng2.random(4)
            score = lens * w
            order = np.argsort(-score)
            chosen = []
            total = 0.0
            for idx in order:
                if total + lens[idx] <= measure_1 + 1e-12:
                    chosen.append(idx)
                    total += lens[idx]
            # pad with a fractional piece to match the measure exactly
            deficit = measure_1 - total
            corr_h = 0.0
            for idx in range(4):
                lo, hi = ndtri(max(segs[idx], 1e-12)), ndtri(min(segs[idx + 1], 1 - 1e-12))
                if idx in chosen:
                    corr_h += quad(lambda x: phi(x) * f1(x), lo, hi)[0]
                else:
                    corr_h += quad(lambda x: phi(x) * (1 - f1(x)), lo, hi)[0]
            if deficit > 1e-9:
                # convert a slice of a label-2 piece; the slice sits at a
                # fixed quantile so measures match exactly
                for idx in range(4):
                    if idx not in chosen and lens[idx] >= deficit:
                        lo = segs[idx]
                        a = ndtri(max(lo, 1e-12))
                        b = ndtri(lo + deficit)
                        corr_h += quad(lambda x: phi(x) * (2 * f1(x) - 1), a, b)[0]
                        break
            assert corr_g >= corr_h - 1e-6


class TestPtfFromTruncation:
    def test_median_halfspace_degree_one(self):
        f = Halfspace([0.0], [1.0])
        rep = ptf_from_truncation(f, 1, samples=100_000, seed=11)
        # truncated coordinate polynomials are +-phi(0) x and the PTF
        # reproduces the halfspace off the boundary
        assert rep.disagreement <= 1e-4
        assert rep.collision <= 1e-4
        # vector-embedding tail: (1 - 1/k) - 0 - 1/pi, exact here
        assert rep.tail_mass == pytest.approx(0.5 - 1 / math.pi, abs=1e-12)
        assert rep.bound == pytest.approx(4 * rep.tail_mass)
        lin = rep.ptf.polys[0].chaos[1].array[0]
        assert lin == pytest.approx(-1 / math.sqrt(2 * math.pi), abs=1e-12)
        assert rep.ptf.polys[0].constant == pytest.approx(0.0, abs=1e-12)

    def test_constant_partition(self):
        f = Slabs(0, [], [1], n=1, k=2)
        rep = ptf_from_truncation(f, 1, quad_order=40, samples=20_000, seed=11)
        assert rep.disagreement == 0.0
        assert rep.ptf.polys[0].constant == pytest.approx(0.5, abs=1e-10)
        assert rep.ptf.polys[1].constant == pytest.approx(-0.5, abs=1e-10)

    def test_h2_region_degree_two(self, rng):
        # a two-sided region decided by the sign of H_2, truncated at d=2
        from gstab.chaos import PolyGauss
        from gstab.tensors import SymmetricTensor

        h2 = PolyGauss(1, {2: SymmetricTensor.from_array(np.array([[1.0]]))})
        f = MultiPTF([h2, h2.scale(-1.0)])
        rep = ptf_from_truncation(f, 2, samples=100_000, seed=13)
        assert rep.disagreement <= rep.bound + 3 * rep.disagreement_se
        # truncating the indicator embedding shifts the cell boundary from
        # |x| = 1 to about 1.33, so the disagreement is the band between
        boundary = math.sqrt(
            1 - rep.ptf.polys[0].constant / (rep.ptf.polys[0].chaos[2].array[0, 0] / math.sqrt(2))
        )
        from scipy.special import ndtr

        band = 2 * (ndtr(boundary) - ndtr(1.0))
        assert rep.disagreement == pytest.approx(band, abs=4 * rep.disagreement_se)

    def test_lemma_bound_random(self, rng):
        for _ in range(6):
            k = int(rng.integers(2, 4))
            f = random_partition(rng, 1, k)
            d = int(rng.integers(1, 4))
            rep = ptf_from_truncation(f, d, quad_order=96, samples=80_000, seed=int(rng.integers(1e6)))
            slack = 3 * rep.disagreement_se + 1e-3
            assert rep.disagreement <= rep.bound + slack
            assert rep.collision <= rep.bound + slack


class TestSimplexInvariant:
    def test_generic_quadrature_smoothing_stays_in_simplex(self, rng):
        # the generic path is a convex combination of one-hot values, so
        # simplex membership is structural even where pointwise accuracy
        # is limited
        from conftest import random_quadratic_poly
        from gstab.partitions import MultiPTF

        f = MultiPTF([random_quadratic_poly(rng, 2) for _ in range(3)])
        from gstab.hermite import ou_on_points

        vals = ou_on_points(lambda P: f.onehot(P), 0.5, rng.standard_normal((30, 2)), quad_order=16, k=3)
        assert np.all(vals >= -1e-10)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-10)


class TestSymmetricThreshold:
    def test_symmetric_target_accepted_at_zero(self):
        res = find_matching_threshold(
            simplex_pair, [0.5, 0.5], tol=0.02,
            samples=200_000, seed=6, n=1,
        )
        assert res.converged and res.iterations == 1
        np.testing.assert_array_equal(res.z.z, np.zeros(2))


class TestPTFAdditionRoute:
    """Multivariate PTF smoothing through the Hermite addition formula
    against the node-by-node integral of the one-hot labels."""

    @staticmethod
    def _random_poly(rng, n, degree, constant_only):
        from gstab.chaos import PolyGauss
        from gstab.hermite import degree_indices

        if constant_only:
            return PolyGauss(n, {}, float(rng.normal()))
        coeffs = {S: float(rng.normal()) for S in degree_indices(n, degree)}
        return PolyGauss.from_hermite_coeffs(n, coeffs)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        n=st.sampled_from([2, 3]),
        degree=st.integers(1, 4),
        k=st.integers(1, 3),
        t=st.floats(0.05, 3.0),
        quad_order=st.integers(2, 9),
        constant_at=st.integers(-1, 2),
        seed=st.integers(0, 2**31),
    )
    def test_matches_node_by_node_integral(self, n, degree, k, t, quad_order, constant_at, seed):
        from gstab.hermite import ou_on_points

        rng = np.random.default_rng(seed)
        f = MultiPTF([self._random_poly(rng, n, degree, j == constant_at) for j in range(k)])
        X = rng.standard_normal((25, n))
        fast = smoothed_partition_values(f, t, X, quad_order)
        slow = ou_on_points(lambda P: f.onehot(P), t, X, quad_order=quad_order, k=k)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fast.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_constant_polynomials(self):
        from gstab.chaos import PolyGauss

        X = np.random.default_rng(3).standard_normal((10, 2))
        # p = 0 is not positive; two positive polynomials collide to label 1
        for constants, label in (([0.0, 0.0], 1), ([-1.0, 0.0], 1), ([1.0, -1.0], 1), ([-1.0, 2.0], 2), ([1.0, 2.0], 1)):
            f = MultiPTF([PolyGauss(2, {}, c) for c in constants])
            expect = np.zeros((10, 2))
            expect[:, label - 1] = 1.0
            np.testing.assert_allclose(smoothed_partition_values(f, 0.5, X, 7), expect, rtol=0, atol=1e-12)

    def test_dimension_cap(self):
        from gstab.gauss import MAX_QUADRATURE_DIM

        f = MultiPTF([self._random_poly(np.random.default_rng(0), MAX_QUADRATURE_DIM + 1, 1, False) for _ in range(2)])
        with pytest.raises(ValueError):
            smoothed_partition_values(f, 0.5, np.zeros((3, MAX_QUADRATURE_DIM + 1)), 4)
