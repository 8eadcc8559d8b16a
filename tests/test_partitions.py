"""Partition representations, estimators, and quadrature oracles."""
import math

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import balanced_two_part, random_partition, random_quadratic_poly
from gstab.chaos import PolyGauss
from gstab.partitions import (
    Halfspace,
    MultiPTF,
    Slabs,
    Tabulated,
    balance,
    random_balanced_slabs,
    collision_probability,
    equal_slabs,
    estimate_cell_stability,
    estimate_cross_stability,
    estimate_measures,
    estimate_stability,
    orthant_probability_quad,
    partition_from_json,
    partition_to_json,
    quad_joint_cells_1d,
    sheppard_orthant,
)
from gstab.cube import make_voting_rule
from gstab.tensors import SymmetricTensor


def x1_poly(n=1):
    v = np.zeros(n)
    v[0] = 1.0
    return PolyGauss(n, {1: SymmetricTensor.from_array(v)})


class TestEvalPartition:
    def test_halfspace_inside(self):
        f = Halfspace(np.zeros(2), np.array([1.0, 0.0]))
        assert f.label([-1.0, 3.0]) == 1
        assert f.label([0.5, -2.0]) == 2

    def test_constant_ptf(self):
        f = MultiPTF([PolyGauss(1, {}, 1.0), PolyGauss(1, {}, -1.0)])
        assert f.label([0.3]) == 1
        assert f.label([-5.0]) == 1

    def test_collision_fallback_label_one(self):
        f = MultiPTF([PolyGauss(1, {}, 1.0), PolyGauss(1, {}, 1.0)])
        assert f.label([2.0]) == 1
        g = MultiPTF([PolyGauss(1, {}, -1.0), PolyGauss(1, {}, -1.0)])
        assert g.label([2.0]) == 1  # all-nonpositive also falls back

    def test_ptf_scaling_invariance(self, rng):
        polys = [random_quadratic_poly(rng, 2) for _ in range(3)]
        f = MultiPTF(polys)
        g = MultiPTF([p.scale(7.3) for p in polys])
        X = rng.standard_normal((500, 2))
        np.testing.assert_array_equal(f.labels(X), g.labels(X))

    def test_tabulated_sign_pattern(self, rng):
        cube = make_voting_rule("majority", 3, 2)
        f = Tabulated(cube)
        X = rng.standard_normal((200, 3))
        expect = np.where((X > 0).sum(axis=1) * 2 > 3, 1, 2)
        np.testing.assert_array_equal(f.labels(X), expect)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Halfspace([0.0], [1.0]).label([1.0, 2.0])


class TestMeasures:
    def test_median_halfspace(self):
        m = estimate_measures(Halfspace([0.0], [1.0]), 200_000, 1)
        assert m.mu[0] == pytest.approx(0.5, abs=3 * m.std_error[0])
        assert m.mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_slab_at_quantile(self):
        f = Slabs(0, [ndtri(0.3)], [1, 2], n=1)
        m = estimate_measures(f, 300_000, 2)
        assert m.mu[0] == pytest.approx(0.3, abs=3 * m.std_error[0])

    def test_three_equal_slabs(self):
        m = estimate_measures(equal_slabs(3), 300_000, 3)
        for j in range(3):
            assert m.mu[j] == pytest.approx(1 / 3, abs=3 * m.std_error[j])


class TestStability:
    def test_t_zero_exact_one(self):
        est = estimate_stability(Halfspace([0.0], [1.0]), 0.0, 1000, 1)
        assert est.value == 1.0

    def test_independence_limit(self):
        f = Halfspace([0.0], [1.0])
        est = estimate_stability(f, 50.0, 200_000, 5)
        assert est.value == pytest.approx(0.5, abs=3 * est.std_error)

    def test_median_halfspace_sheppard(self):
        f = Halfspace([0.0], [1.0])
        agree = estimate_stability(f, None, 400_000, 7, rho=0.5)
        assert agree.value == pytest.approx(2 / 3, abs=3 * agree.std_error)
        cell = estimate_cell_stability(f, 1, None, 400_000, 7, rho=0.5)
        assert cell.value == pytest.approx(1 / 3, abs=3 * cell.std_error)

    def test_cross_stability(self):
        f = Halfspace([0.0], [1.0])
        comp = Halfspace([0.0], [-1.0])
        same = estimate_cross_stability(f, f, 0.0, 1000, 3)
        assert same.value == 1.0
        opp = estimate_cross_stability(f, comp, 0.0, 1000, 3)
        assert opp.value == 0.0
        mid = estimate_cross_stability(f, f, None, 300_000, 3, rho=0.5)
        assert mid.value == pytest.approx(2 / 3, abs=3 * mid.std_error)

    def test_monotone_in_t(self):
        f = equal_slabs(3)
        vals = [
            estimate_stability(f, t, 200_000, 11).value for t in (0.2, 0.6, 1.2)
        ]
        se = math.sqrt(0.25 / 200_000)
        assert vals[0] >= vals[1] - 6 * se
        assert vals[1] >= vals[2] - 6 * se

    def test_independence_lower_bound(self, rng):
        for _ in range(5):
            f = random_partition(rng, 2, 3)
            est = estimate_stability(f, 0.7, 100_000, 13)
            m = estimate_measures(f, 100_000, 13)
            assert est.value >= float(np.sum(m.mu**2)) - 6 * est.std_error

    def test_borell_direction(self, rng):
        # balanced k=2 partitions in n <= 3 never beat the halfspace
        rho = 0.5
        half_agree = 2 * sheppard_orthant(rho)
        for trial in range(50):
            n = 1 + trial % 3
            f = random_balanced_slabs(
                rng, k=2, pieces=int(rng.integers(1, 5)), n=n,
                axis=int(rng.integers(0, n)),
            )
            est = estimate_stability(f, None, 60_000, 17 + trial, rho=rho)
            assert est.value <= half_agree + 6 * est.std_error
            # exact-quadrature version of the same comparison
            J = quad_joint_cells_1d(f, rho)
            assert np.trace(J) <= half_agree + 1e-10


class TestCollision:
    def test_shared_boundary_measure_zero(self):
        f = MultiPTF([x1_poly(), x1_poly().scale(-1.0)])
        est = collision_probability(f, 100_000, 3)
        assert est.value == pytest.approx(0.0, abs=3 * est.std_error + 1e-9)

    def test_identical_polynomials_always_collide(self):
        # zero positives on one half, two positives on the other
        f = MultiPTF([x1_poly(), x1_poly()])
        est = collision_probability(f, 50_000, 3)
        assert est.value == 1.0

    def test_constants_never_collide(self):
        f = MultiPTF([PolyGauss(1, {}, 1.0), PolyGauss(1, {}, -1.0)])
        assert collision_probability(f, 10_000, 1).value == 0.0


class TestBalance:
    def test_variance_one_rescale_only(self):
        f = MultiPTF([x1_poly().scale(3.0), x1_poly().scale(-0.5)])
        g = balance(f, 0.1)
        for p in g.polys:
            assert p.variance() == pytest.approx(1.0, abs=1e-12)
            assert p.mean() == pytest.approx(0.0)

    def test_mean_clamp_formula(self):
        f = MultiPTF([x1_poly().shift(1e6), x1_poly().scale(-1.0)])
        g = balance(f, 0.01)
        assert g.polys[0].mean() == pytest.approx(math.sqrt(math.log(200)), abs=1e-9)

    def test_disagreement_within_delta(self, rng):
        # moderate clamps flip a small Gaussian tail; delta=0.1 covers the
        # worst case for degree 1, k=2
        delta = 0.1
        f = MultiPTF([x1_poly().shift(4.0), x1_poly().scale(-1.0).shift(-4.0)])
        g = balance(f, delta)
        X = rng.standard_normal((1_000_000, 1))
        dis = float(np.mean(f.labels(X) != g.labels(X)))
        se = math.sqrt(dis * (1 - dis) / 1_000_000)
        assert dis <= delta + 3 * se

    def test_collision_shift_bound(self, rng):
        delta = 0.1
        f = MultiPTF([x1_poly().shift(4.0), x1_poly().scale(-1.0).shift(-4.0)])
        g = balance(f, delta)
        X = rng.standard_normal((400_000, 1))
        col_f = float(np.mean(f.collisions(X)))
        col_g = float(np.mean(g.collisions(X)))
        assert col_g <= col_f + delta + 3 * math.sqrt(0.25 / 400_000)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            balance(MultiPTF([PolyGauss(1, {}, 1.0)]), 0.1)


class TestQuadOracles:
    def test_sheppard_closed_form(self):
        assert sheppard_orthant(0.5) == pytest.approx(1 / 3, abs=1e-15)
        assert sheppard_orthant(0.0) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "rho,order,tol",
        [(0.0, 128, 1e-12), (0.2, 128, 1e-10), (0.5, 128, 1e-10),
         (0.8, 128, 1e-9), (0.95, 300, 5e-9)],
    )
    def test_quadrature_matches_closed_form(self, rho, order, tol):
        # steeper integrands at strong correlation need higher order
        assert orthant_probability_quad(rho, order) == pytest.approx(
            sheppard_orthant(rho), abs=tol
        )

    def test_joint_cells_halfspace(self):
        J = quad_joint_cells_1d(Halfspace([0.0], [1.0]), 0.5)
        assert J[0, 0] == pytest.approx(1 / 3, abs=1e-10)
        assert np.trace(J) == pytest.approx(2 / 3, abs=1e-10)
        assert J.sum() == pytest.approx(1.0, abs=1e-10)

    def test_joint_cells_vs_monte_carlo(self, rng):
        f = balanced_two_part(rng)
        J = quad_joint_cells_1d(f, 0.5)
        est = estimate_stability(f, None, 300_000, 19, rho=0.5)
        assert est.value == pytest.approx(np.trace(J), abs=4 * est.std_error)


class TestSerialization:
    def test_round_trip_variants(self, rng):
        parts = [
            Halfspace([0.1, -0.2], [1.0, 2.0]),
            equal_slabs(4),
            MultiPTF([random_quadratic_poly(rng, 2) for _ in range(2)]),
            Tabulated(make_voting_rule("majority", 3, 2)),
        ]
        for f in parts:
            back = partition_from_json(partition_to_json(f))
            X = rng.standard_normal((200, f.n))
            np.testing.assert_array_equal(f.labels(X), back.labels(X))

    def test_determinism_same_seed(self):
        f = equal_slabs(3)
        a = estimate_stability(f, 0.5, 50_000, 123)
        b = estimate_stability(f, 0.5, 50_000, 123)
        assert a.value == b.value
