"""Finite joint distributions: bases, product Fourier analysis, block
strategies, and the discrete correlation estimators."""
import itertools
import math

import numpy as np
import pytest

from gstab.partitions import Halfspace, Slabs
from gstab.product_space import (
    JointDist,
    binary_symmetric,
    block_port,
    block_strategy,
    correlation,
    correlation_basis,
    estimate_discrete_corr,
    exact_correlation,
    influence,
    smooth,
    tensor_fourier,
)


def random_joint(rng, ma, mb):
    M = rng.random((ma, mb)) + 0.05
    return JointDist(M / M.sum())


class TestJointDist:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointDist(np.array([[0.5, 0.6], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            JointDist(np.array([[1.0, 0.0], [0.0, 0.0]]))  # zero marginal

    def test_json_round_trip(self):
        P = binary_symmetric(0.3)
        back = JointDist.from_json(P.to_json())
        np.testing.assert_allclose(back.P, P.P, rtol=1e-15)

    def test_sampler_distribution(self):
        P = binary_symmetric(0.5)
        xs, ys = P.sample(200_000, 1, 3)
        same = float(np.mean(xs[:, 0] == ys[:, 0]))
        assert same == pytest.approx(0.75, abs=3 * math.sqrt(0.25 / 200_000))


class TestCorrelationBasis:
    def test_independent_product(self):
        P = JointDist(np.outer([0.3, 0.7], [0.4, 0.6]))
        assert correlation_basis(P).maximal_correlation == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_recovers_rho(self):
        basis = correlation_basis(binary_symmetric(0.6))
        assert basis.rho[1] == pytest.approx(0.6, abs=1e-10)
        np.testing.assert_allclose(np.abs(basis.X[:, 1]), [1.0, 1.0], atol=1e-10)

    def test_diagonal_perfect_correlation(self):
        basis = correlation_basis(JointDist(np.diag([0.2, 0.3, 0.5])))
        np.testing.assert_allclose(basis.rho, [1.0, 1.0, 1.0], atol=1e-10)

    def test_properties_random_sweep(self, rng):
        # basis properties: constant first, orthonormal, cross-diagonal
        for _ in range(100):
            ma = int(rng.integers(2, 6))
            mb = int(rng.integers(2, 6))
            P = random_joint(rng, ma, mb)
            basis = correlation_basis(P)
            pa, pb = P.marginal_a(), P.marginal_b()
            np.testing.assert_allclose(basis.X[:, 0], 1.0, atol=1e-12)
            np.testing.assert_allclose(basis.Y[:, 0], 1.0, atol=1e-12)
            np.testing.assert_allclose(
                basis.X.T @ np.diag(pa) @ basis.X, np.eye(ma), atol=1e-10
            )
            np.testing.assert_allclose(
                basis.Y.T @ np.diag(pb) @ basis.Y, np.eye(mb), atol=1e-10
            )
            cross = basis.X.T @ P.P @ basis.Y
            for i in range(ma):
                for j in range(mb):
                    expect = basis.rho_at(i) if i == j else 0.0
                    assert cross[i, j] == pytest.approx(expect, abs=1e-10)
            assert np.all(np.diff(basis.rho) <= 1e-12)
            assert basis.rho[0] == pytest.approx(1.0, abs=1e-12)

    def test_data_processing_coarsening(self, rng):
        # merging symbols never increases the maximal correlation
        for _ in range(20)        :
            P = random_joint(rng, 4, 4)
            rho_full = correlation_basis(P).maximal_correlation
            merged = np.zeros((3, 4))
            merged[0] = P.P[0] + P.P[1]
            merged[1:] = P.P[2:]
            rho_merged = correlation_basis(JointDist(merged)).maximal_correlation
            assert rho_merged <= rho_full + 1e-10


class TestProductFourier:
    def test_constant_function(self):
        P = binary_symmetric(0.5)
        basis = correlation_basis(P)
        F = tensor_fourier(np.ones((2, 2)), basis.X, P.marginal_a(), 2)
        assert F.coefficient((0, 0))[0] == pytest.approx(1.0)
        assert F.total_mass() == pytest.approx(1.0)

    def test_basis_element(self):
        P = binary_symmetric(0.5)
        basis = correlation_basis(P)
        table = np.tile(basis.X[:, 1][:, None], (1, 2))
        F = tensor_fourier(table, basis.X, P.marginal_a(), 2)
        assert F.coefficient((1, 0))[0] == pytest.approx(1.0, abs=1e-12)
        assert F.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_parseval_random(self, rng):
        P = random_joint(rng, 3, 3)
        basis = correlation_basis(P)
        table = rng.random((3, 3, 3, 2))
        F = tensor_fourier(table, basis.X, P.marginal_a(), 3)
        w = P.marginal_a()
        mass = sum(
            w[a] * w[b] * w[c] * float(np.dot(table[a, b, c], table[a, b, c]))
            for a, b, c in itertools.product(range(3), repeat=3)
        )
        assert F.total_mass() == pytest.approx(mass, abs=1e-10)

    def test_influences(self, rng):
        P = binary_symmetric(0.4)
        basis = correlation_basis(P)
        # depends only on coordinate 0
        table = np.tile(basis.X[:, 1][:, None], (1, 2))
        F = tensor_fourier(table, basis.X, P.marginal_a(), 2)
        assert influence(F, 0) == pytest.approx(1.0, abs=1e-12)
        assert influence(F, 1) == pytest.approx(0.0, abs=1e-12)
        # symmetric function has equal influences
        sym_table = rng.random((2, 2))
        sym_table = sym_table + sym_table.T
        Fs = tensor_fourier(sym_table, basis.X, P.marginal_a(), 2)
        assert influence(Fs, 0) == pytest.approx(influence(Fs, 1), abs=1e-12)

    def test_smooth_endpoints(self, rng):
        P = binary_symmetric(0.4)
        basis = correlation_basis(P)
        table = rng.random((2, 2))
        F = tensor_fourier(table, basis.X, P.marginal_a(), 2)
        F0 = smooth(F, 0.0)
        np.testing.assert_allclose(F0.coeffs, F.coeffs, rtol=1e-15)
        F1 = smooth(F, 1.0)
        assert F1.total_mass() == pytest.approx(
            float(np.dot(F1.coefficient((0, 0)), F1.coefficient((0, 0))))
        )

    def test_smooth_tail_contraction(self, rng):
        P = binary_symmetric(0.4)
        basis = correlation_basis(P)
        table = rng.random((2, 2, 2))
        F = tensor_fourier(table, basis.X, P.marginal_a(), 3)
        delta = 0.3
        Fs = smooth(F, delta)
        for d in range(3):
            tail = sum(
                float(np.dot(c, c))
                for s, c in F.items()
                if sum(1 for x in s if x) > d
            )
            tail_s = sum(
                float(np.dot(c, c))
                for s, c in Fs.items()
                if sum(1 for x in s if x) > d
            )
            assert tail_s <= (1 - delta) ** (2 * (d + 1)) * tail + 1e-12

    def test_smooth_commutes_with_noise_convolution(self):
        # one-coordinate check: damping coefficients equals expanding the
        # delta-noised table
        P = binary_symmetric(0.5)
        basis = correlation_basis(P)
        table = np.array([0.2, 0.9])
        delta = 0.35
        F = smooth(tensor_fourier(table, basis.X, P.marginal_a(), 1), delta)
        pa = P.marginal_a()
        # resample-with-prob-delta noise: T f(a) = (1-d) f(a) + d E[f]
        noised = (1 - delta) * table + delta * float(np.dot(pa, table))
        G = tensor_fourier(noised, basis.X, pa, 1)
        np.testing.assert_allclose(F.coeffs, G.coeffs, atol=1e-10)


class TestCorrelationFormula:
    def test_identity_at_rho_one(self, rng):
        P = binary_symmetric(0.4)
        basis = correlation_basis(P)
        table = rng.random((2, 2, 2))
        F = tensor_fourier(table, basis.X, P.marginal_a(), 3)
        assert correlation(F, F, np.ones(2)) == pytest.approx(F.total_mass(), abs=1e-10)

    def test_independent_source_keeps_means(self, rng):
        P = JointDist(np.outer([0.5, 0.5], [0.5, 0.5]))
        basis = correlation_basis(P)
        ftab = rng.random((2, 2))
        gtab = rng.random((2, 2))
        F = tensor_fourier(ftab, basis.X, P.marginal_a(), 2)
        G = tensor_fourier(gtab, basis.Y, P.marginal_b(), 2)
        val = correlation(F, G, basis.rho)
        expect = float(np.dot(F.coefficient((0, 0)), G.coefficient((0, 0))))
        assert val == pytest.approx(expect, abs=1e-10)

    def test_identity_strategies_agreement(self):
        P = binary_symmetric(0.5)
        basis = correlation_basis(P)
        onehot = np.eye(2)
        F = tensor_fourier(onehot, basis.X, P.marginal_a(), 1)
        G = tensor_fourier(onehot, basis.Y, P.marginal_b(), 1)
        assert correlation(F, G, basis.rho) == pytest.approx(0.75, abs=1e-12)

    def test_matches_enumeration_sweep(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            P = random_joint(rng, m, m)
            basis = correlation_basis(P)
            ftab = rng.random((m,) * n + (k,))
            gtab = rng.random((m,) * n + (k,))
            F = tensor_fourier(ftab, basis.X, P.marginal_a(), n)
            G = tensor_fourier(gtab, basis.Y, P.marginal_b(), n)
            val = correlation(F, G, basis.rho)
            expect = exact_correlation(ftab, gtab, P, n)
            assert val == pytest.approx(expect, abs=1e-10)


class TestBlockStrategies:
    def test_constant_partition_constant_strategy(self):
        P = binary_symmetric(0.5)
        basis = correlation_basis(P)
        g = Slabs(0, [], [1], n=1, k=2)
        strat = block_strategy(g, basis.X[:, 1], 8)
        xs, _ = P.sample(100, strat.n_coords, 1)
        assert np.all(strat(xs) == 1)

    def test_ell_one_sign_strategy(self):
        P = binary_symmetric(0.5)
        basis = correlation_basis(P)
        g = Halfspace([0.0], [1.0])
        strat = block_strategy(g, basis.X[:, 1], 1)
        xs = np.array([[0], [1]])
        vals = basis.X[xs[:, 0], 1]
        expect = np.where(vals <= 0, 1, 2)
        np.testing.assert_array_equal(strat(xs), expect)

    def test_marginals_and_agreement_converge(self):
        P = binary_symmetric(0.5)
        basis = correlation_basis(P)
        g = Halfspace([0.0], [1.0])
        f64 = block_strategy(g, basis.X[:, 1], 64, tie_break=True)
        g64 = block_strategy(g, basis.Y[:, 1], 64, tie_break=True)
        rep = estimate_discrete_corr(f64, g64, P, 400_000, 3)
        assert rep.marginals_f[0] == pytest.approx(0.5, abs=3 * rep.agreement_se)
        assert rep.joint[0, 0] == pytest.approx(1 / 3, abs=0.03)
        assert rep.agreement == pytest.approx(2 / 3, abs=0.03)

    def test_tie_dither_fixes_atom(self):
        # without the dither the even-sum atom at the boundary biases the
        # marginal by about half the atom mass
        P = binary_symmetric(0.5)
        basis = correlation_basis(P)
        g = Halfspace([0.0], [1.0])
        plain = block_strategy(g, basis.X[:, 1], 64)
        rep = estimate_discrete_corr(plain, plain, P, 100_000, 5)
        assert rep.marginals_f[0] > 0.53  # atom pushed onto label 1

    def test_diagonal_source_identity(self):
        P = JointDist(np.diag([0.5, 0.5]))

        class FirstSymbol:
            n_coords = 1
            k = 2

            def __call__(self, symbols):
                return symbols[:, 0] + 1

        rep = estimate_discrete_corr(FirstSymbol(), FirstSymbol(), P, 20_000, 7)
        assert rep.agreement == 1.0

    def test_independent_source_product_rule(self):
        P = JointDist(np.outer([0.3, 0.7], [0.3, 0.7]))

        class FirstSymbol:
            n_coords = 1
            k = 2

            def __call__(self, symbols):
                return symbols[:, 0] + 1

        rep = estimate_discrete_corr(FirstSymbol(), FirstSymbol(), P, 300_000, 9)
        expect = 0.3 * 0.3 + 0.7 * 0.7
        assert rep.agreement == pytest.approx(expect, abs=3 * rep.agreement_se)


class TestBlockPort:
    def test_port_is_the_hand_built_pair(self, rng):
        P = random_joint(rng, 3, 2)
        basis = correlation_basis(P)
        f = Halfspace([0.0], [1.0])
        g = Slabs(0, [-0.3], [1, 2], n=1)
        fstrat, gstrat = block_port(P, f, g, 12)
        for strat, part, values in ((fstrat, f, basis.X[:, 1]), (gstrat, g, basis.Y[:, 1])):
            want = block_strategy(part, values, 12, tie_break=True)
            assert strat.partition is part
            assert strat.basis_values.tobytes() == want.basis_values.tobytes()
            assert (strat.ell, strat.tie_break) == (want.ell, want.tie_break) == (12, True)

    @pytest.mark.parametrize("rows", [[[0.5, 0.5]], [[0.5], [0.5]]], ids=["1x2", "2x1"])
    def test_one_symbol_side_has_no_port(self, rows):
        P = JointDist(np.array(rows))
        g = Halfspace([0.0], [1.0])
        with pytest.raises(ValueError, match="two symbols on each side"):
            block_port(P, g, g, 8)
