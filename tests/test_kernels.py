"""Kernels against the forms they replaced.

The Monte Carlo hot paths label, round and contract column by column
with einsum and running column operations instead of BLAS products and
reductions along the short k-axis.  The Walsh transform and the
quadrature Hermite expansion are one axis-wise contraction
(gauss.contract_axes) instead of a butterfly and a loop over
multi-indices.  Each test keeps the earlier form as its reference:
labels, rounding and the Walsh coefficients must match it exactly, and
the floating-point contractions within a bound set from the dtype.  The
last test checks that no kernel starts a second BLAS thread.
"""
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstab.chaos import (
    GramSpec,
    PolyGauss,
    matched_family,
    pair_block_product_difference,
    pair_block_weights,
)
from gstab.cube import CubeFn, walsh_transform
from gstab.gauss import (
    CorrelatedSampler,
    batch_sizes,
    gauss_hermite_rule,
    gaussian_rng,
    hermite_table,
    mean_se,
    tensor_grid,
)
from gstab.hermite import COEFF_DROP, degree_indices, expand
from gstab.partitions import MultiPTF
from gstab.rounding import round_values
from gstab.tensors import SymmetricTensor, ito_eval_many, symmetrize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# ---------------------------------------------------------------------------
# reference forms


def reference_ptf(f: MultiPTF, X):
    """Labels and collisions by stacking the values and taking argmax."""
    vals = np.stack([p.eval_many(X) for p in f.polys], axis=1)
    pos = vals > 0.0
    count = pos.sum(axis=1)
    return np.where(count == 1, pos.argmax(axis=1) + 1, 1).astype(np.int64), count != 1


def reference_round(values, z):
    return np.argmax(values - np.asarray(z, dtype=float), axis=1).astype(np.int64) + 1


def reference_eval(p: PolyGauss, X):
    """eval_many with BLAS products, and the absolute-value sum of each
    row's terms, which bounds the rounding error of either form."""
    out = np.full(X.shape[0], p.constant)
    size = np.full(X.shape[0], abs(p.constant))
    for q, t in p.chaos.items():
        if q == 1:
            out = out + X @ t.array
            size = size + np.abs(X) @ np.abs(t.array)
        elif q == 2 and np.count_nonzero(t.array) > 4 * p.n:
            out = out + ((X @ t.array) * X).sum(axis=1) / math.sqrt(2.0)
            out = out - np.trace(t.array) / math.sqrt(2.0)
            size = size + ((np.abs(X) @ np.abs(t.array)) * np.abs(X)).sum(axis=1) / math.sqrt(2.0)
            size = size + abs(np.trace(t.array)) / math.sqrt(2.0)
        else:
            term = ito_eval_many(t, X)
            out = out + term
            size = size + np.abs(term)
    return out, size


def reference_chisq(family_a, family_b, samples, seed, batch=1 << 20):
    """pair_block_product_difference with S @ W and prod(axis=1)."""
    members = list(family_a) + list(family_b)
    structs = [pair_block_weights(p) for p in members]
    slot_of = {}
    for pairs, _ in structs:
        for pair in pairs:
            slot_of.setdefault(pair, len(slot_of))
    W = np.zeros((len(slot_of), len(members)))
    for col, (pairs, w) in enumerate(structs):
        for pair, weight in zip(pairs, w):
            W[slot_of[pair], col] = weight
    na, kappa, L = len(family_a), members[0].kappa, len(slot_of)
    rng = gaussian_rng(seed)
    diff_sum = diff_sq = 0.0
    scale = 1.0 / (2.0 * math.sqrt(kappa))
    for m in batch_sizes(samples, batch):
        S = (rng.chisquare(kappa, (m, L)) - rng.chisquare(kappa, (m, L))) * scale
        vals = S @ W
        d = vals[:, :na].prod(axis=1) - vals[:, na:].prod(axis=1)
        diff_sum += float(d.sum())
        diff_sq += float((d**2).sum())
    return mean_se(diff_sum, diff_sq, samples)


def reference_walsh(f: CubeFn):
    """In-place butterfly over the bits, scaled by 2^-n, with the
    (-1)^{|S|} sign of the bit = 1 <-> +1 convention."""
    out = f.embedding()
    for stage in range(f.n):
        v = out.reshape(-1, 2, 1 << stage, f.k)
        a = v[:, 0].copy()
        b = v[:, 1]
        v[:, 0] = a + b
        v[:, 1] = a - b
    out /= 1 << f.n
    odd = np.zeros(1 << f.n, dtype=bool)
    for i in range(f.n):
        odd ^= ((np.arange(1 << f.n) >> i) & 1).astype(bool)
    out[odd] *= -1.0
    return out


def reference_expand(f, n, max_degree, quad_order):
    """Hermite coefficients one multi-index at a time: the grid product
    H_S, dotted with the weighted values."""
    points, weights = tensor_grid(gauss_hermite_rule(quad_order), n)
    vals = f(points).reshape(points.shape[0], -1)
    table = hermite_table(max_degree, points)
    wvals = vals * weights[:, None]
    coeffs = {}
    for S in degree_indices(n, max_degree):
        h = np.ones(points.shape[0])
        for i, q in enumerate(S):
            if q:
                h = h * table[q, :, i]
        c = h @ wvals
        if np.linalg.norm(c) >= COEFF_DROP:
            coeffs[S] = c
    return coeffs


# ---------------------------------------------------------------------------
# PTF labels: exact equality, with zero values, ties and collisions

# dyadic coefficients and coordinates, so values are exact and many are 0
DYADIC = [-1.0, -0.5, 0.0, 0.5, 1.0]


def _linear(n, const, coeffs):
    return PolyGauss(n, {1: SymmetricTensor.from_array(np.asarray(coeffs, dtype=float))}, const)


@st.composite
def dyadic_ptf(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.sampled_from([1, 2, 3, 5]))
    coeff = st.sampled_from(DYADIC)
    polys = []
    for _ in range(k):
        if polys and draw(st.booleans()):
            polys.append(polys[draw(st.integers(0, len(polys) - 1))])  # exact tie
            continue
        polys.append(_linear(n, draw(coeff), [draw(coeff) for _ in range(n)]))
    return MultiPTF(polys)


class TestPTFLabels:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(f=dyadic_ptf())
    def test_matches_stacked_argmax(self, f):
        grid = np.array(DYADIC)
        X = np.stack(np.meshgrid(*([grid] * f.n), indexing="ij"), axis=-1).reshape(-1, f.n)
        labels, collisions = reference_ptf(f, X)
        np.testing.assert_array_equal(f.labels(X), labels)
        np.testing.assert_array_equal(f.collisions(X), collisions)
        assert f.labels(X).dtype == np.int64

    def test_random_quadratics(self, rng):
        for k in (1, 2, 3, 5):
            for n in (1, 2, 3, 6):
                polys = [
                    PolyGauss(n, {1: SymmetricTensor.from_array(rng.standard_normal(n)),
                                  2: symmetrize(rng.standard_normal((n, n)))}, float(rng.normal()))
                    for _ in range(k)
                ]
                f = MultiPTF(polys)
                X = rng.standard_normal((2000, n))
                labels, collisions = reference_ptf(f, X)
                np.testing.assert_array_equal(f.labels(X), labels)
                np.testing.assert_array_equal(f.collisions(X), collisions)

    @pytest.mark.parametrize("k", [255, 256, 257, 300])
    def test_wide_label_counts(self, k):
        # rows with 0, 1, 2, 255, 256 and 257 positive sets: a uint8 count
        # wraps 256 to 0 and 257 to 1
        rows = [0, 1, 2, 255, 256, 257]
        positive = [np.array([j < min(r, k) for r in rows]) for j in range(k)]
        positive[k - 1][1] = True  # row 1: only the last set
        positive[0][1] = False
        count = np.sum(positive, axis=0)
        expected = np.where(count == 1, np.argmax(positive, axis=0) + 1, 1)
        dtype = np.min_scalar_type(k)  # the dtype of the grid search's labels
        for dt in (dtype, np.int64):
            labels = MultiPTF.labels_from_positive(positive, dt)
            assert labels.dtype == dt
            np.testing.assert_array_equal(labels, expected)
        np.testing.assert_array_equal(MultiPTF.positive_count(positive), count)


class TestLabelMasks:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(k=st.integers(1, 6), rows=st.integers(1, 60), seed=st.integers(0, 2**31))
    def test_masks_partition_the_labels(self, k, rows, seed):
        rng = np.random.default_rng(seed)
        positive = [rng.random((rows, 3)) < 0.4 for _ in range(k)]
        masks = MultiPTF.label_masks(positive)
        labels = MultiPTF.labels_from_positive([p.reshape(-1) for p in positive])
        # the per-node form the PTF smoothing used: one count along k
        pos = np.stack(positive, axis=1)
        single = pos.sum(axis=1) == 1
        for j, mask in enumerate(masks):
            np.testing.assert_array_equal(mask.reshape(-1), labels == j + 1)
            expected = ~single | pos[:, 0] if j == 0 else single & pos[:, j]
            np.testing.assert_array_equal(mask, expected)


# ---------------------------------------------------------------------------
# axis-wise contractions: the Walsh transform and the quadrature expansion


class TestAxisContractions:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_walsh_equals_butterfly(self, rng, k):
        for n in range(1, 15):
            f = CubeFn(n, k, rng.integers(1, k + 1, size=1 << n))
            coeffs = walsh_transform(f)
            assert coeffs.shape == (1 << n, k)
            np.testing.assert_array_equal(coeffs, reference_walsh(f))

    @pytest.mark.parametrize(
        "n, max_degree, quad_order", [(1, 6, 20), (2, 5, 12), (3, 4, 8), (3, 6, 9)]
    )
    def test_expand_matches_per_index_loop(self, rng, n, max_degree, quad_order):
        a = rng.standard_normal(n)

        def f(X):
            # smooth and discontinuous components, and one exact polynomial
            return np.stack([np.tanh(X @ a), (X @ a > 0.3).astype(float), X[:, 0] ** 2], axis=1)

        e = expand(f, n, max_degree, quad_order=quad_order)
        ref = reference_expand(f, n, max_degree, quad_order)
        assert set(e.coeffs) == set(ref)
        for S, c in ref.items():
            np.testing.assert_allclose(e.coeffs[S], c, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# rounding: a running column maximum, ties to the smallest index


class TestRoundValues:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 5),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**31),
        shift=st.booleans(),
    )
    def test_matches_argmax_on_ties(self, k, rows, seed, shift):
        rng = np.random.default_rng(seed)
        # quarter steps: many exact ties, before and after the shift
        values = rng.integers(0, 5, size=(rows, k)) / 4.0
        z = rng.integers(-2, 3, size=k) / 4.0 if shift else np.zeros(k)
        np.testing.assert_array_equal(round_values(values, z), reference_round(values, z))

    def test_all_equal_rows_go_to_label_one(self):
        values = np.full((4, 3), 1.0 / 3.0)
        np.testing.assert_array_equal(round_values(values, np.zeros(3)), [1, 1, 1, 1])

    def test_random_simplex_values(self, rng):
        for k in (1, 2, 3, 7):
            values = rng.dirichlet(np.ones(k), size=5000)
            z = rng.normal(scale=0.1, size=k)
            np.testing.assert_array_equal(round_values(values, z), reference_round(values, z))


# ---------------------------------------------------------------------------
# sampler: y built in place from sigma * z, plus rho * x


class TestSamplerStream:
    @pytest.mark.parametrize("rho", [-1.0, -0.3, 0.0, 0.6, 1.0])
    def test_pair_batches_bit_identical(self, rho):
        sampler = CorrelatedSampler(3, rho, 11, stream=2)
        rng = gaussian_rng(11, 2)
        sigma = np.sqrt(1.0 - rho**2)
        for x, y in sampler.pair_batches(25, batch=7):
            xr = rng.standard_normal((x.shape[0], 3))
            zr = rng.standard_normal((x.shape[0], 3))
            assert np.array_equal(x, xr)
            assert np.array_equal(y, rho * xr + sigma * zr)

    @pytest.mark.parametrize("rho", [-0.3, 0.6])
    def test_pairs_bit_identical(self, rho):
        x, y = CorrelatedSampler(2, rho, 5).pairs(30)
        rng = gaussian_rng(5)
        xr = rng.standard_normal((30, 2))
        zr = rng.standard_normal((30, 2))
        assert np.array_equal(x, xr)
        assert np.array_equal(y, rho * xr + np.sqrt(1.0 - rho**2) * zr)


# ---------------------------------------------------------------------------
# floating-point contractions: within a bound set from the dtype


class TestContractions:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_eval_many_within_four_ulp(self, rng, n):
        for dense in (False, True):
            quad = rng.standard_normal((n, n))
            if not dense:
                quad = np.diag(np.diag(quad))
            p = PolyGauss(
                n, {1: SymmetricTensor.from_array(rng.standard_normal(n)), 2: symmetrize(quad)},
                float(rng.normal()),
            )
            X = rng.standard_normal((4000, n)) * 3.0
            ref, size = reference_eval(p, X)
            err = np.abs(p.eval_many(X) - ref)
            assert np.all(err <= 4 * np.finfo(float).eps * size)

    def test_chisq_sampler_within_1e15(self, rng):
        for _ in range(3):
            A = rng.standard_normal((3, 5))
            G = A @ A.T
            d = np.sqrt(np.diag(G))
            G = G / np.outer(d, d)
            fam_a, _ = matched_family(GramSpec({2: G}), 0.1)
            rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            fam_b, _ = matched_family(GramSpec({2: G}), 0.1, factor_rotation={2: rot})
            seed = int(rng.integers(0, 2**31))
            samples = 300_000
            est = pair_block_product_difference(fam_a, fam_b, samples, seed, batch=1 << 17)
            value, se = reference_chisq(fam_a, fam_b, samples, seed, batch=1 << 17)
            # relative to the spread of the paired difference, which is
            # the scale of the summands
            spread = se * math.sqrt(samples)
            assert abs(est.value - value) <= 1e-15 * spread
            assert est.std_error == pytest.approx(se, rel=1e-12)


# ---------------------------------------------------------------------------
# no second BLAS thread in the per-sample kernels

GUARD = textwrap.dedent(
    """
    import time
    import numpy as np
    from gstab.chaos import GramSpec, PolyGauss, matched_family, pair_block_product_difference
    from gstab.cube import CubeFn, cube_influences, cube_stability, make_voting_rule
    from gstab.partitions import Halfspace, MultiPTF, Tabulated, equal_slabs, estimate_stability
    from gstab.rounding import _match_threshold_on_values, smoothed_partition_values
    from gstab.tensors import SymmetricTensor, symmetrize

    rng = np.random.default_rng(5)
    ptf = MultiPTF([
        PolyGauss(2, {1: SymmetricTensor.from_array(rng.standard_normal(2)),
                      2: symmetrize(rng.standard_normal((2, 2)))}, 0.1)
        for _ in range(3)
    ])
    G = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 1.0]])
    rot = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    fam_a, _ = matched_family(GramSpec({2: G}), 0.05)
    fam_b, _ = matched_family(GramSpec({2: G}), 0.05, factor_rotation={2: rot})
    h = Halfspace(np.zeros(3), [1.0, -0.5, 2.0])
    X2 = rng.standard_normal((1_000_000, 2))
    X3 = rng.standard_normal((1_000_000, 3))
    majority = make_voting_rule("majority", 17, 2)
    signs = Tabulated(CubeFn(12, 3, rng.integers(1, 4, 1 << 12)))
    X12 = rng.standard_normal((100_000, 12))
    F3 = smoothed_partition_values(equal_slabs(3), 0.5, X2[:, :1])
    wall, cpu = time.perf_counter(), time.process_time()
    estimate_stability(h, None, 2_000_000, 0, rho=0.6)
    ptf.labels(X2)
    pair_block_product_difference(fam_a, fam_b, 1_000_000, 0)
    smoothed_partition_values(h, 0.5, X3)
    smoothed_partition_values(signs, 0.5, X12)
    cube_stability(majority, 0.6)
    cube_influences(majority)
    _match_threshold_on_values(F3, np.array([0.2, 0.5, 0.3]), 0.01)
    print(time.process_time() - cpu, time.perf_counter() - wall)
    """
)


@pytest.mark.skipif(CORES < 2, reason="needs two cores to show a second thread")
def test_kernels_run_on_one_thread():
    """CPU time of the kernels stays at their wall time with two BLAS
    threads allowed.  A BLAS product big enough to wake a second thread
    bills that thread's spinning to the process (about 1.6x the wall time
    with the earlier BLAS products); time the host takes from this guest
    only adds to the wall time."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    cpu, wall = map(float, proc.stdout.split())
    assert cpu <= 1.15 * wall + 0.05, f"CPU {cpu:.3f} s over wall {wall:.3f} s"
