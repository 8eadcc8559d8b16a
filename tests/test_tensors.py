"""Symmetric tensor algebra and the Ito-integral correspondence."""
import math

import numpy as np
import pytest

from gstab.gauss import CorrelatedSampler
from gstab.tensors import (
    SymmetricTensor,
    basis_tensor,
    contract,
    flattening_top_singular_value,
    ito_eval,
    ito_eval_many,
    ito_product_tensors,
    symmetrize,
)


def unit_vector(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return SymmetricTensor.from_array(v)


class TestSymmetricTensor:
    def test_multiset_value(self, rng):
        t = symmetrize(rng.standard_normal((3, 3, 3)))
        assert t.value((0, 1, 2)) == pytest.approx(t.array[2, 1, 0])

    def test_frobenius_matches_multiset_weights(self, rng):
        t = symmetrize(rng.standard_normal((3, 3)))
        total = 0.0
        for ms, v in t.entries():
            weight = 2.0 if ms[0] != ms[1] else 1.0
            total += weight * v * v
        assert total == pytest.approx(t.frobenius_norm2(), rel=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            SymmetricTensor.from_array(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_json_round_trip(self, rng):
        t = symmetrize(rng.standard_normal((4, 4, 4)))
        back = SymmetricTensor.from_json(t.to_json())
        np.testing.assert_allclose(back.array, t.array, atol=1e-15)


class TestSymmetrize:
    def test_fixed_point(self, rng):
        t = symmetrize(rng.standard_normal((3, 3)))
        again = symmetrize(t)
        np.testing.assert_array_equal(again.array, t.array)

    def test_two_permutation_average(self):
        raw = np.multiply.outer(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        s = symmetrize(raw)
        assert s.value((0, 1)) == pytest.approx(0.5)

    def test_norm_never_increases(self, rng):
        for _ in range(10):
            raw = rng.standard_normal((3, 3, 3))
            assert symmetrize(raw).frobenius_norm() <= np.linalg.norm(raw) + 1e-12


class TestContraction:
    def test_orthogonal_vectors(self):
        e1, e2 = unit_vector(0, 2), unit_vector(1, 2)
        assert float(contract(e1, e2, 1)) == pytest.approx(0.0)
        assert float(contract(e1, e1, 1)) == pytest.approx(1.0)

    def test_outer_product_order(self, rng):
        f = symmetrize(rng.standard_normal((2, 2)))
        g = unit_vector(0, 2)
        out = contract(f, g, 0)
        assert out.shape == (2, 2, 2)

    def test_norm_submultiplicative(self, rng):
        # ||f x_r g||_F <= ||f||_F ||g||_F over random tensors
        for _ in range(100):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            f = symmetrize(rng.standard_normal((3,) * p))
            g = symmetrize(rng.standard_normal((3,) * q))
            for r in range(min(p, q) + 1):
                raw = contract(f, g, r)
                assert np.linalg.norm(raw) <= f.frobenius_norm() * g.frobenius_norm() + 1e-10

    def test_arity_out_of_range(self):
        e1 = unit_vector(0, 2)
        with pytest.raises(ValueError):
            contract(e1, e1, 2)


class TestItoEval:
    def test_order_one(self):
        assert ito_eval(unit_vector(0, 2), [2.0, 5.0]) == pytest.approx(2.0)

    def test_rank_one_order_two(self):
        t = SymmetricTensor.from_array(np.outer([1.0, 0.0], [1.0, 0.0]))
        assert ito_eval(t, [2.0, 0.3]) == pytest.approx((4 - 1) / math.sqrt(2))

    def test_mixed_pair(self):
        t = symmetrize(np.multiply.outer(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        assert ito_eval(t, [2.0, 3.0]) == pytest.approx(6 / math.sqrt(2))
        # variance check: E[(x1 x2)^2]/2 = 1/2 = ||t||_F^2
        assert t.frobenius_norm2() == pytest.approx(0.5)

    def test_rank_one_general_direction(self, rng):
        h = rng.standard_normal(3)
        h /= np.linalg.norm(h)
        t = SymmetricTensor.from_array(
            np.multiply.outer(np.multiply.outer(h, h), h), validate=False
        )
        x = rng.standard_normal(3)
        s = float(np.dot(h, x))
        expect = (s**3 - 3 * s) / math.sqrt(6)
        assert ito_eval(t, x) == pytest.approx(expect, abs=1e-10)

    def test_isometry_exact_and_monte_carlo(self, rng):
        f = symmetrize(rng.standard_normal((3, 3)))
        f = f.scale(1 / f.frobenius_norm())
        g = symmetrize(rng.standard_normal((3, 3)))
        g = g.scale(1 / g.frobenius_norm())
        exact = f.inner(g)
        n = 1_000_000
        X, _ = CorrelatedSampler(3, 0.0, 17).pairs(n)
        vals_f = ito_eval_many(f, X)
        vals_g = ito_eval_many(g, X)
        prod = vals_f * vals_g
        se = prod.std() / math.sqrt(n)
        assert prod.mean() == pytest.approx(exact, abs=4 * se)
        # different orders are orthogonal
        h = unit_vector(0, 3)
        cross = vals_f * ito_eval_many(h, X)
        se2 = cross.std() / math.sqrt(n)
        assert abs(cross.mean()) <= 4 * se2

    def test_basis_tensor_is_orthonormal_hermite(self, rng):
        t = basis_tensor((0, 0, 1), 2)
        assert t.frobenius_norm() == pytest.approx(1.0)
        x = rng.standard_normal(2)
        expect = (x[0] ** 2 - 1) / math.sqrt(2) * x[1]
        assert ito_eval(t, x) == pytest.approx(expect, abs=1e-12)


class TestItoProduct:
    def test_square_of_linear(self):
        # x^2 = sqrt(2) H_2(x) + 1
        e1 = unit_vector(0, 2)
        comp = ito_product_tensors(e1, e1)
        assert set(comp) == {0, 2}
        assert float(comp[0].array) == pytest.approx(1.0)
        assert comp[2].value((0, 0)) == pytest.approx(math.sqrt(2))

    def test_orthogonal_linears(self):
        e1, e2 = unit_vector(0, 2), unit_vector(1, 2)
        comp = ito_product_tensors(e1, e2)
        assert float(comp[0].array) == pytest.approx(0.0)
        assert comp[2].value((0, 1)) == pytest.approx(math.sqrt(2) * 0.5)

    def test_pointwise_identity_random(self, rng):
        for _ in range(20):
            p = int(rng.integers(1, 3))
            q = int(rng.integers(1, 3))
            f = symmetrize(rng.standard_normal((3,) * p))
            g = symmetrize(rng.standard_normal((3,) * q))
            comp = ito_product_tensors(f, g)
            x = rng.standard_normal(3)
            lhs = ito_eval(f, x) * ito_eval(g, x)
            rhs = sum(ito_eval(t, x) for t in comp.values())
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_order_zero_term_is_expectation(self, rng):
        f = symmetrize(rng.standard_normal((2, 2)))
        comp = ito_product_tensors(f, f)
        n = 300_000
        X, _ = CorrelatedSampler(2, 0.0, 23).pairs(n)
        vals = ito_eval_many(f, X) ** 2
        se = vals.std() / math.sqrt(n)
        assert float(comp[0].array) == pytest.approx(vals.mean(), abs=4 * se)


class TestFlattening:
    def test_rank_one_value(self):
        t = SymmetricTensor.from_array(np.outer([1.0, 0.0], [1.0, 0.0]))
        val = flattening_top_singular_value(t, (0,))
        assert isinstance(val, float) and val == pytest.approx(1.0, abs=1e-15)

    def test_zero_tensor(self):
        assert flattening_top_singular_value(SymmetricTensor.zeros(3, 2), (0,)) == 0.0

    def test_matches_svd(self, rng):
        t = symmetrize(rng.standard_normal((3, 3, 3)))
        for left in [(0,), (0, 1), (1,), (0, 2)]:
            val = flattening_top_singular_value(t, left)
            right = tuple(i for i in range(3) if i not in left)
            mat = t.array.transpose(left + right).reshape(3 ** len(left), -1)
            ref = np.linalg.svd(mat, compute_uv=False)[0]
            assert abs(val - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("gap", [1e-4, 1e-8])
    def test_exact_on_near_degenerate_spectrum(self, rng, gap):
        # sigma_2 / sigma_1 = 1 - gap: a power iteration that stops on a
        # small step reports such values with a relative error far above
        # its step tolerance; the flattening must stay exact
        n = 6
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = np.array([1.0, -(1.0 - gap), 0.5, 0.3, -0.2, 0.1])
        t = SymmetricTensor.from_array((Q * eig) @ Q.T, validate=False)
        val = flattening_top_singular_value(t, (0,))
        ref = np.linalg.svd(t.array, compute_uv=False)[0]
        assert abs(val - ref) <= 1e-12 * ref

    def test_improper_bipartition_rejected(self):
        t = SymmetricTensor.zeros(2, 2)
        with pytest.raises(ValueError, match="proper"):
            flattening_top_singular_value(t, (0, 1))

    def test_eigenregular_contraction(self, rng):
        # lambda_max <= kappa forces ||f x_r g|| <= kappa for unit g
        arr = np.zeros((4, 4))
        for b in range(4):
            arr[b, b] = 0.5
        f = SymmetricTensor.from_array(arr)  # lambda_max = 0.5, ||f|| = 1
        for _ in range(10):
            g = symmetrize(rng.standard_normal((4, 4)))
            g = g.scale(1 / g.frobenius_norm())
            raw = contract(f, g, 1)
            assert np.linalg.norm(raw) <= 0.5 + 1e-9
