"""Partition representations, estimators, and exact joint cells."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from conftest import balanced_two_part, random_partition, random_quadratic_poly
from quad_oracles import orthant_probability_quad
from gstab.chaos import PolyGauss
from gstab.partitions import (
    Callback,
    Halfspace,
    MultiPTF,
    Slabs,
    Tabulated,
    balance,
    random_balanced_slabs,
    collision_probability,
    equal_slabs,
    exact_expansion,
    estimate_cell_stability,
    estimate_cross_stability,
    estimate_measures,
    estimate_stability,
    partition_from_json,
    partition_to_json,
    cell_grid,
    quad_joint_cells_1d,
    route,
    sheppard_orthant,
)
from gstab.cube import CubeFn, cube_stability, make_voting_rule
from gstab.gauss import gaussian_rng
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_refused(self, bad):
        with pytest.raises(ValueError, match="halfspace a and b must be finite"):
            Halfspace([0.0, bad], [1.0, 0.0])
        with pytest.raises(ValueError, match="halfspace a and b must be finite"):
            Halfspace([0.0], [bad])
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            Slabs(0, [-0.5, bad], [1, 2, 1], k=2)

    def test_halfspace_through_origin_labels_bit_for_bit(self, rng):
        for n in (1, 2, 3):
            b = rng.standard_normal(n)
            X = rng.standard_normal((2000, n))
            X[::5] = 0.0  # on the boundary
            expect = np.where(np.einsum("xi,i->x", X - np.zeros(n), b) <= 0.0, 1, 2)
            np.testing.assert_array_equal(Halfspace(np.zeros(n), b).labels(X), expect)

    def test_shifted_halfspace_matches_its_interval_cut(self, rng):
        for n in (1, 2, 3):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            f = Halfspace(a, b)
            X = rng.standard_normal((2000, n))
            X[::9] = a  # points on the boundary take label 1
            grid = cell_grid(f)
            s = X @ grid.axes[0]
            off = np.abs(s - grid.cuts[0][0]) > 1e-12
            np.testing.assert_array_equal(f.labels(X)[off], grid.labels(X)[off])
            np.testing.assert_array_equal(f.labels(X[::9]), 1)


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

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.5, 0.92, 0.99])
    def test_every_halfspace_is_sheppard(self, rho):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            f = Halfspace(np.zeros(n), rng.standard_normal(n))
            agreement = float(np.trace(quad_joint_cells_1d(f, rho)))
            assert agreement == pytest.approx(0.5 + math.asin(rho) / math.pi, abs=1e-15)

    @pytest.mark.parametrize("rho", [-0.7, 0.3, 0.99])
    def test_joint_cells_are_a_coupling_of_the_measures(self, rng, rho):
        for f in (random_balanced_slabs(rng, k=3, pieces=3), balanced_two_part(rng)):
            J = quad_joint_cells_1d(f, rho)
            mu = cell_grid(f).smooth(np.zeros((1, f.n)), 0.0, 1.0)[0]
            np.testing.assert_allclose(J, J.T, rtol=0, atol=1e-15)
            np.testing.assert_allclose(J.sum(axis=1), mu, rtol=0, atol=1e-15)
            assert J.min() >= -1e-16

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 4),
        pieces=st.integers(1, 3),
        rho=st.floats(-0.99, 0.99),
        seed=st.integers(0, 2**31),
    )
    def test_trace_matches_seeded_monte_carlo(self, k, pieces, rho, seed):
        f = random_balanced_slabs(np.random.default_rng(seed), k=k, pieces=pieces, n=2, axis=1)
        est = estimate_stability(f, None, 40_000, seed, rho=rho)
        assert np.trace(quad_joint_cells_1d(f, rho)) == pytest.approx(est.value, abs=5 * est.std_error)


SIGN_RHOS = [-0.9, 0.0, 0.6, 0.99]


def _sign_tables():
    rng = np.random.default_rng(23)
    return [
        make_voting_rule("majority", 5, 2),
        make_voting_rule("majority", 9, 2),
        make_voting_rule("plurality", 6, 3),
        make_voting_rule("plurality", 10, 4),
        CubeFn(1, 2, np.array([2, 1])),
        CubeFn(7, 3, rng.integers(1, 4, 1 << 7)),
        CubeFn(10, 2, rng.integers(1, 3, 1 << 10)),
    ]


class TestCellGrid:
    def test_grid_labels_are_the_partition_labels(self, rng):
        parts = [
            Halfspace([0.3, -0.1], [1.0, -2.0]),
            equal_slabs(4, axis=1, n=3),
            MultiPTF([random_quadratic_poly(rng, 1) for _ in range(3)]),
            Tabulated(make_voting_rule("plurality", 6, 3)),
        ]
        for f in parts:
            X = rng.standard_normal((3000, f.n))
            np.testing.assert_array_equal(cell_grid(f).labels(X), f.labels(X))
        assert cell_grid(_ptf(2)) is None
        assert cell_grid(Callback(lambda X: np.ones(X.shape[0]), 1, 2)) is None

    def test_grid_shapes(self):
        grid = cell_grid(Tabulated(make_voting_rule("majority", 3, 2)))
        np.testing.assert_array_equal(grid.axes, np.eye(3))
        assert grid.coordinate and grid.table.shape == (2, 2, 2) and len(grid.cuts) == 3
        grid = cell_grid(Halfspace([0.0, 1.0], [3.0, 4.0]))
        np.testing.assert_allclose(grid.axes, [[0.6, 0.8]], rtol=0, atol=1e-15)
        assert not grid.coordinate and grid.cuts[0].tolist() == [0.8]

    @pytest.mark.parametrize("rho", SIGN_RHOS)
    def test_sign_table_trace_is_the_cube_stability(self, rho):
        # sign(X_i) and sign(Y_i) are bits with correlation (2/pi) asin rho
        for cube in _sign_tables():
            agreement = float(np.trace(quad_joint_cells_1d(Tabulated(cube), rho)))
            assert agreement == pytest.approx(cube_stability(cube, 2.0 / math.pi * math.asin(rho)), abs=1e-12)

    @pytest.mark.parametrize("rho", SIGN_RHOS)
    def test_sign_table_joint_cells_are_a_coupling_of_the_measures(self, rho):
        for cube in _sign_tables():
            J = quad_joint_cells_1d(Tabulated(cube), rho)
            mu = np.bincount(cube.table, minlength=cube.k + 1)[1:] / (1 << cube.n)
            np.testing.assert_allclose(J, J.T, rtol=0, atol=1e-15)
            np.testing.assert_allclose(J.sum(axis=1), mu, rtol=0, atol=1e-15)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        k=st.integers(2, 4),
        rho=st.floats(-0.99, 0.99),
        seed=st.integers(0, 2**31),
    )
    def test_sign_table_trace_matches_seeded_monte_carlo(self, n, k, rho, seed):
        f = Tabulated(CubeFn(n, k, np.random.default_rng(seed).integers(1, k + 1, 1 << n)))
        est = estimate_stability(f, None, 40_000, seed, rho=rho)
        # a constant table agrees surely: its estimate has no spread
        assert np.trace(quad_joint_cells_1d(f, rho)) == pytest.approx(est.value, abs=5 * est.std_error + 1e-12)

    def test_random_balanced_slabs_draws_are_pinned(self):
        # borell-check draws its slabs this way, so its rows rest on these
        pinned = {
            0: ([-1.8836964196415202, -0.6597550744695255, 0.002914763560028683, 0.433339468273572,
                 1.2337694025346508], [1, 2, 1, 2, 1, 2]),
            1: ([-0.7666674333236034, -0.03976095647945003, 0.7143746106382018], [2, 1, 2, 1]),
            2: ([-0.877844360401956, -0.07704971917178623, -0.05265661108625751, 0.5236093243657601],
                [2, 1, 2, 1, 2]),
        }
        for seed, (cuts, labels) in pinned.items():
            f = random_balanced_slabs(gaussian_rng(seed), k=2, pieces=4)
            assert f.breakpoints.tolist() == cuts and f.interval_labels.tolist() == labels
        with pytest.raises(ValueError, match="pieces must be >= 1"):
            random_balanced_slabs(gaussian_rng(0), k=2, pieces=0)


def _ptf(n):
    return MultiPTF([x1_poly(n), x1_poly(n).scale(-1.0)])


def _rounded(n0):
    from gstab.search import _RoundedPartition

    return _RoundedPartition(_ptf(n0), 0.5, np.zeros(2), 8)


ROUTE_TABLE = [  # (partition, smooth route, expand route); None: ValueError
    ("halfspace", lambda: Halfspace([0.3, 0.0], [1.0, -2.0]), "interval", "interval"),
    ("slabs", lambda: equal_slabs(3, n=2), "interval", "interval"),
    ("ptf-1d", lambda: _ptf(1), "interval", "interval"),
    ("ptf-2d", lambda: _ptf(2), "ptf-addition", "quadrature"),
    ("ptf-3d", lambda: _ptf(3), "ptf-addition", "quadrature"),
    ("ptf-4d", lambda: _ptf(4), None, None),
    ("tabulated-3", lambda: Tabulated(make_voting_rule("majority", 3, 2)), "sign-table", "sign-table"),
    ("tabulated-7", lambda: Tabulated(make_voting_rule("majority", 7, 2)), "sign-table", None),
    ("callback", lambda: Callback(lambda X: np.ones(X.shape[0]), 2, 2), "quadrature", "quadrature"),
    ("rounded-ptf-1", lambda: _rounded(1), "quadrature", "quadrature"),
    ("rounded-ptf-2", lambda: _rounded(2), "quadrature", "quadrature"),
]


class TestRoute:
    @pytest.mark.parametrize("make, smooth, expand", [r[1:] for r in ROUTE_TABLE], ids=[r[0] for r in ROUTE_TABLE])
    @pytest.mark.parametrize("op", ["smooth", "expand"])
    def test_route_table(self, make, smooth, expand, op):
        f = make()
        want = smooth if op == "smooth" else expand
        if want is None:
            with pytest.raises(ValueError):
                route(f, op)
        else:
            assert route(f, op) == want

    def test_unknown_operation(self):
        with pytest.raises(ValueError, match="unknown operation"):
            route(equal_slabs(2), "label")

    @pytest.mark.parametrize("make", [lambda: _ptf(2), lambda: Callback(lambda X: np.ones(X.shape[0]), 1, 2)], ids=["ptf-2d", "callback"])
    def test_exact_expansion_refuses_the_quadrature_route(self, make):
        with pytest.raises(ValueError, match="quadrature"):
            exact_expansion(make(), 2)

    def test_sign_table_expansion_cap(self, rng):
        from gstab.partitions import MAX_SIGN_TABLE_EXPAND_DIM

        n = MAX_SIGN_TABLE_EXPAND_DIM
        f = Tabulated(CubeFn(n, 3, rng.integers(1, 4, 1 << n)))
        mu = np.bincount(f.cube.table, minlength=4)[1:] / (1 << n)
        np.testing.assert_allclose(exact_expansion(f, 2).coeffs[(0,) * n], mu, rtol=0, atol=1e-15)


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
