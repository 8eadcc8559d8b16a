"""Expansions, spectral weights, and the Ornstein-Uhlenbeck operator."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gstab.gauss import hermite_eval
from gstab.hermite import (
    HermiteExpansion,
    apply_ou,
    expand,
    gradient_tail_bound,
    ou_on_points,
    ou_pointwise,
    spectral_weights,
)

SQRT2PI = math.sqrt(2 * math.pi)


def halfspace_indicator(X):
    return (X[:, 0] <= 0).astype(float)


class TestExpand:
    def test_constant_function(self):
        e = expand(lambda X: np.ones(X.shape[0]), 1, 4)
        assert set(e.coeffs) == {(0,)}
        assert e.coeffs[(0,)][0] == pytest.approx(1.0, abs=1e-13)

    def test_coordinate_function(self):
        e = expand(lambda X: X[:, 0], 2, 3)
        assert set(e.coeffs) == {(1, 0)}
        assert e.coeffs[(1, 0)][0] == pytest.approx(1.0, abs=1e-13)

    def test_square_function(self):
        # x^2 = 1 + sqrt(2) H_2(x)
        e = expand(lambda X: X[:, 0] ** 2, 2, 3)
        assert e.coeffs[(0, 0)][0] == pytest.approx(1.0, abs=1e-12)
        assert e.coeffs[(2, 0)][0] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert set(e.coeffs) == {(0, 0), (2, 0)}

    def test_vector_valued(self):
        e = expand(lambda X: np.stack([X[:, 0], X[:, 0] ** 2], axis=1), 1, 2, k=2)
        assert e.k == 2
        np.testing.assert_allclose(e.coeffs[(1,)], [1.0, 0.0], atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            expand(lambda X: X[:, 0], 4, 2)

    def test_scalar_callable_raises(self):
        # callables must be batched: a row-wise one fails on the batch,
        # and its error surfaces with no row-by-row retry
        with pytest.raises(TypeError):
            expand(lambda x: math.exp(x[0]), 1, 4)

    @pytest.mark.parametrize(
        "f",
        [
            lambda X: 1.0,
            lambda X: np.ones(X.shape[0] - 1),
            lambda X: np.ones((X.shape[0], 2, 2)),
            lambda X: np.ones((1, X.shape[0])),
        ],
    )
    def test_wrong_return_shape_rejected(self, f):
        with pytest.raises(ValueError, match=r"expected \(N,\) or \(N, k\)"):
            expand(f, 1, 2)

    def test_failing_callable_raises_without_row_retry(self):
        calls = []

        def broken(X):
            calls.append(X.shape)
            raise RuntimeError(f"broken on {X.shape}")

        # the batched call's error surfaces, not the first row's
        with pytest.raises(RuntimeError, match=r"broken on \(1600, 2\)"):
            expand(broken, 2, 3, quad_order=40)
        assert len(calls) <= 2

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            expand(lambda X: np.where(X[:, 0] > 0, np.inf, 0.0), 1, 2)

    def test_parseval_polynomials(self, rng):
        # degree-complete inputs make Parseval an equality to roundoff
        for _ in range(5):
            coeffs = rng.standard_normal(7)
            f = lambda X: sum(c * hermite_eval(q, X[:, 0]) for q, c in enumerate(coeffs))
            e = expand(f, 1, 6)
            assert e.norm2() == pytest.approx(float(np.dot(coeffs, coeffs)), abs=1e-10)


class TestSpectralWeights:
    def test_constant(self):
        e = expand(lambda X: np.ones(X.shape[0]), 1, 3)
        sw = spectral_weights(e, 1.0)
        np.testing.assert_allclose(sw.by_degree, [1, 0, 0, 0], atol=1e-12)
        assert sw.tail == pytest.approx(0.0, abs=1e-12)

    def test_coordinate(self):
        e = expand(lambda X: X[:, 0], 1, 3)
        sw = spectral_weights(e, 1.0)
        np.testing.assert_allclose(sw.by_degree, [0, 1, 0, 0], atol=1e-12)

    def test_halfspace_low_degrees(self):
        # independent 1-D integrals: fhat(0) = 1/2, fhat(1) = -phi(0)
        exact_w1 = quad(lambda x: -x * np.exp(-x * x / 2) / SQRT2PI, -np.inf, 0)[0] ** 2
        assert exact_w1 == pytest.approx(1 / (2 * math.pi), abs=1e-10)
        e = expand(halfspace_indicator, 1, 6, quad_order=300)
        sw = spectral_weights(e, 0.5)
        assert sw.by_degree[0] == pytest.approx(0.25, abs=1e-3)
        assert sw.by_degree[1] == pytest.approx(1 / (2 * math.pi), abs=1e-3)
        assert sw.by_degree[2] == pytest.approx(0.0, abs=1e-6)
        assert sw.tail >= -1e-12

    def test_negative_residual_raises(self):
        e = expand(lambda X: X[:, 0], 1, 3)
        with pytest.raises(ValueError):
            spectral_weights(e, 0.5)

    def test_reported_tail_vs_explicit_sum(self):
        # residual route and explicit high-degree route agree
        e_low = expand(halfspace_indicator, 1, 3, quad_order=300)
        e_high = expand(halfspace_indicator, 1, 9, quad_order=300)
        tail_residual = spectral_weights(e_low, 0.5).above(3)
        explicit = sum(
            float(np.dot(c, c)) for S, c in e_high.coeffs.items() if sum(S) > 3
        )
        residual_high = spectral_weights(e_high, 0.5).tail
        assert tail_residual == pytest.approx(explicit + residual_high, abs=1e-6)


class TestOrnsteinUhlenbeck:
    def test_identity_at_zero(self):
        e = expand(lambda X: X[:, 0] ** 2, 1, 3)
        e0 = apply_ou(e, 0.0)
        for S in e.coeffs:
            np.testing.assert_array_equal(e.coeffs[S], e0.coeffs[S])

    def test_large_time_keeps_only_mean(self):
        e = expand(lambda X: X[:, 0] ** 2, 1, 3)
        et = apply_ou(e, 80.0)
        assert et.coeffs[(0,)][0] == pytest.approx(1.0)
        assert abs(et.coeffs[(2,)][0]) < 1e-30

    def test_eigenvalue_law(self):
        e = HermiteExpansion(1, 1, 3, {(3,): np.array([2.0])})
        et = apply_ou(e, math.log(2))
        assert et.coeffs[(3,)][0] == pytest.approx(2.0 / 8.0)

    def test_semigroup_on_coefficients(self):
        e = expand(lambda X: X[:, 0] ** 3, 1, 4)
        a = apply_ou(apply_ou(e, 0.3), 0.4)
        b = apply_ou(e, 0.7)
        for S in b.coeffs:
            np.testing.assert_allclose(a.coeffs[S], b.coeffs[S], rtol=1e-12)

    def test_self_adjointness(self, rng):
        e1 = expand(lambda X: X[:, 0] ** 2, 1, 4)
        e2 = expand(lambda X: X[:, 0] ** 4, 1, 4)
        t = 0.37
        assert apply_ou(e1, t).inner(e2) == pytest.approx(e1.inner(apply_ou(e2, t)), rel=1e-12)

    def test_pointwise_t_zero(self):
        val = ou_pointwise(lambda X: X[:, 0] ** 2, 0.0, [1.5])
        assert val[0] == pytest.approx(2.25)

    def test_pointwise_linear_eigenfunction(self):
        for t in (0.2, 1.0):
            val = ou_pointwise(lambda X: X[:, 0], t, [0.7, -0.2], quad_order=12)
            assert val[0] == pytest.approx(math.exp(-t) * 0.7, abs=1e-10)

    def test_pointwise_halfspace_symmetry(self):
        val = ou_pointwise(halfspace_indicator, 0.9, [0.0], quad_order=120)
        assert val[0] == pytest.approx(0.5, abs=1e-9)

    def test_eigenrelation_random_points(self, rng):
        # P_t H_S = exp(-t|S|) H_S at scattered points, n = 2
        from gstab.gauss import hermite_multi_eval

        pts = rng.standard_normal((10, 2))
        for S in [(1, 0), (2, 1), (0, 3), (2, 2)]:
            f = lambda X: hermite_eval(S[0], X[:, 0]) * hermite_eval(S[1], X[:, 1])
            for t in (0.1, 0.5):
                vals = np.array([ou_pointwise(f, t, p, quad_order=12)[0] for p in pts])
                expect = np.array(
                    [math.exp(-t * sum(S)) * hermite_multi_eval(S, p) for p in pts]
                )
                np.testing.assert_allclose(vals, expect, atol=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            apply_ou(expand(lambda X: X[:, 0], 1, 2), -0.1)

    @pytest.mark.parametrize("t", [-0.1, math.nan])
    def test_invalid_time_rejected_by_every_route(self, t):
        # NaN fails no t < 0 test; every route must still refuse it
        e = expand(lambda X: X[:, 0], 1, 2)
        with pytest.raises(ValueError, match="t must be >= 0"):
            apply_ou(e, t)
        with pytest.raises(ValueError, match="t must be >= 0"):
            ou_on_points(halfspace_indicator, t, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="t must be >= 0"):
            ou_pointwise(halfspace_indicator, t, [0.0])


class TestGradientTailBound:
    def test_zero_gradient(self):
        assert gradient_tail_bound(0.0, 5) == 0.0

    def test_formula(self):
        assert gradient_tail_bound(1.0, 4) == pytest.approx(0.5)

    def test_halfspace_tail_below_bound(self):
        # measured W^{>=4} of the median halfspace vs the gradient bound
        e = expand(halfspace_indicator, 1, 3, quad_order=300)
        tail = spectral_weights(e, 0.5).above(3)
        grad_l1 = 2 * np.exp(0.0) / SQRT2PI  # Gaussian perimeter of {x <= 0}
        assert tail <= gradient_tail_bound(grad_l1, 4)


class TestSerialization:
    def test_round_trip(self):
        e = expand(lambda X: X[:, 0] ** 2 + 0.5 * X[:, 1], 2, 3)
        back = HermiteExpansion.from_json(e.to_json())
        assert back.n == e.n and back.k == e.k and back.max_degree == e.max_degree
        assert set(back.coeffs) == set(e.coeffs)
        for S in e.coeffs:
            np.testing.assert_allclose(back.coeffs[S], e.coeffs[S], rtol=1e-15)


class TestTailTwoWays:
    def test_smooth_function_routes_agree(self):
        from gstab.hermite import tail_two_ways

        f = lambda X: np.sin(0.4 * X[:, 0])
        total = quad(
            lambda x: np.sin(0.4 * x) ** 2 * np.exp(-x * x / 2) / SQRT2PI,
            -np.inf, np.inf,
        )[0]
        rep = tail_two_ways(f, 1, 2, total)
        assert rep.agree
        assert rep.residual_route == pytest.approx(rep.explicit_route, abs=1e-10)

    def test_discontinuous_function_flagged(self):
        from gstab.hermite import tail_two_ways

        # a shifted half-line indicator defeats the generic rule: the
        # quadrature mass misses the exact total by far more than 1e-6
        f = lambda X: (X[:, 0] <= 0.37).astype(float)
        from scipy.special import ndtr

        total = float(ndtr(0.37))
        rep = tail_two_ways(f, 1, 2, total, quad_order=40)
        assert not rep.agree

    def test_evaluates_f_once(self):
        from gstab.hermite import tail_two_ways

        calls = []

        def f(X):
            calls.append(X.shape)
            return np.sin(0.4 * X[:, 0]) * np.cos(0.3 * X[:, 1])

        rep = tail_two_ways(f, 2, 2, 0.1, quad_order=40)
        assert calls == [(1600, 2)]
        # the shared grid values give the expansion's own coefficient mass
        e = expand(f, 2, 8, quad_order=40)
        assert rep.residual_route == 0.1 - float(e.degree_mass()[:3].sum())
