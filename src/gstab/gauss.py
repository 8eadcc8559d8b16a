"""
Gaussian-space primitives: orthonormal Hermite polynomials, Gauss-Hermite
quadrature for the standard normal weight, and seeded correlated samplers.

Conventions
-----------
All integrals are against the standard Gaussian measure

    dgamma_1(x) = (2*pi)^(-1/2) exp(-x^2/2) dx,

and the Hermite family used everywhere is the L2(gamma_1)-orthonormal one:

    H_0(x) = 1,  H_1(x) = x,
    H_{q+1}(x) = (x*H_q(x) - sqrt(q)*H_{q-1}(x)) / sqrt(q+1),

so that E[H_p(X) H_q(X)] = delta_{pq} for X ~ N(0,1).  Multi-indexed
products H_S(x) = prod_i H_{S_i}(x_i) form an orthonormal basis of
L2(gamma_n).

Quadrature nodes/weights come from the Golub-Welsch eigendecomposition of
the Jacobi matrix of this recurrence (off-diagonal sqrt(q)), normalized so
the weights sum to 1: an order-m rule integrates polynomials of degree
<= 2m-1 exactly against gamma_1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "QuadratureRule",
    "HermiteIndex",
    "CorrelatedSampler",
    "hermite_eval",
    "hermite_table",
    "hermite_multi_eval",
    "gauss_hermite_rule",
    "tensor_grid",
    "contract_axes",
    "gaussian_rng",
    "batch_sizes",
    "binomial_se",
    "mean_se",
    "label_measures",
    "check_rho",
]

MAX_QUADRATURE_DIM = 3  # largest n for tensor-product rules over R^n


def hermite_eval(q: int, x):
    """Orthonormal Hermite value H_q(x); x may be a scalar or ndarray."""
    if q < 0:
        raise ValueError("Hermite degree must be nonnegative")
    h = hermite_table(q, np.asarray(x, dtype=float))[q]
    return h if h.ndim else float(h)


def hermite_table(max_degree: int, x: np.ndarray) -> np.ndarray:
    """All values H_0(x)..H_max(x), stacked along a leading axis.

    Returns an array of shape (max_degree+1,) + x.shape in the floating
    dtype of x (float64 for other inputs); the one evaluation of the
    three-term recurrence, shared by every caller.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(float)
    out = np.empty((max_degree + 1,) + x.shape, dtype=x.dtype)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for j in range(1, max_degree):
        out[j + 1] = (x * out[j] - math.sqrt(j) * out[j - 1]) / math.sqrt(j + 1)
    return out


@dataclass(frozen=True)
class HermiteIndex:
    """Multi-index S into the product Hermite basis of L2(gamma_n)."""

    entries: tuple[int, ...]
    degree: int = field(init=False)

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if any(e < 0 for e in entries):
            raise ValueError("multi-index entries must be nonnegative")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "degree", sum(entries))

    def __len__(self) -> int:
        return len(self.entries)


def hermite_multi_eval(S, x) -> float:
    """H_S(x) = prod_i H_{S_i}(x_i) for a point x in R^n."""
    entries = S.entries if isinstance(S, HermiteIndex) else tuple(S)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(entries) != x.shape[-1]:
        raise ValueError(
            f"index length {len(entries)} != point dimension {x.shape[-1]}"
        )
    val = 1.0
    for i, q in enumerate(entries):
        if q:
            val = val * hermite_eval(q, x[..., i])
    return float(val) if np.ndim(val) == 0 else val


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for expectations against gamma_1 (weights sum to 1)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("quadrature order must be >= 1")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("quadrature weights must sum to 1")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, fvals: np.ndarray) -> float:
        return float(np.dot(self.weights, fvals))


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Golub-Welsch rule for gamma_1.

    Nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    recurrence (zero diagonal, off-diagonal sqrt(1..order-1)), symmetrized
    about 0 to kill the O(eps) asymmetry of the eigensolver.  Weights use
    the equivalent Christoffel form 1 / sum_q H_q(x_i)^2, which stays
    positive where the squared-first-eigenvector form underflows for
    large orders.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if order == 1:
        return QuadratureRule(1, np.zeros(1), np.ones(1))
    off = np.sqrt(np.arange(1, order, dtype=float))
    nodes = eigh_tridiagonal(np.zeros(order), off, eigvals_only=True)
    nodes = 0.5 * (nodes - nodes[::-1])
    if order % 2 == 1:
        nodes[order // 2] = 0.0
    # Christoffel sum with running rescaling: H_q(x) overflows near the
    # extreme nodes for orders in the hundreds, but log(sum H_q^2) does not
    h_prev = np.ones_like(nodes)
    h_cur = nodes.copy()
    acc = h_prev**2 + h_cur**2
    logscale = np.zeros_like(nodes)
    rescale = 1e130
    for j in range(1, order - 1):
        h_cur, h_prev = (nodes * h_cur - math.sqrt(j) * h_prev) / math.sqrt(j + 1), h_cur
        acc += h_cur**2
        big = np.abs(h_cur) > rescale
        if np.any(big):
            h_prev[big] /= rescale
            h_cur[big] /= rescale
            acc[big] /= rescale**2
            logscale[big] += math.log(rescale)
    weights = np.exp(-(np.log(acc) + 2.0 * logscale))
    if np.any(weights == 0.0):
        raise ValueError("quadrature order too large for double-precision weights")
    weights = 0.5 * (weights + weights[::-1])
    weights = weights / weights.sum()
    return QuadratureRule(order, nodes, weights)


def tensor_grid(rule: QuadratureRule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product grid over R^n: points (m^n, n) and weights (m^n,).

    Cost is order^n, so the dimension is capped; higher-dimensional
    expectations go through the Monte Carlo estimators instead.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n > MAX_QUADRATURE_DIM:
        raise ValueError(
            f"tensor-product quadrature limited to n <= {MAX_QUADRATURE_DIM}; "
            "use Monte Carlo estimators for higher dimensions"
        )
    grids = np.meshgrid(*([rule.nodes] * n), indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    w = rule.weights
    weights = w
    for _ in range(n - 1):
        weights = np.multiply.outer(weights, w)
    return points, weights.reshape(-1)


def contract_axes(table: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """out[s_1..s_n, :] = sum_x table[x_1..x_n, :] prod_i B[x_i, s_i].

    ``table`` has shape (m,)*n + (k,) and B shape (m, r); the n leading
    axes are contracted one at a time, at cost about n m^n r k.
    """
    out = table
    for _ in range(n):
        # contracting axis 0 each time appends s_i last, so after n
        # passes the layout is (k, s_1..s_n)
        out = np.tensordot(out, B, axes=([0], [0]))
    return np.moveaxis(out, 0, -1)


@dataclass(frozen=True)
class CorrelatedSampler:
    """Seeded source of rho-correlated standard Gaussian pairs.

    Pairs satisfy Y = rho*X + sqrt(1-rho^2)*Z with Z fresh, so each
    coordinate pair (X_i, Y_i) has correlation rho.  The stream is a pure
    function of (dimension, rho, seed, substream); ``substream`` produces
    an independent stream for parallel estimation.
    """

    dimension: int
    rho: float
    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        check_rho(self.rho)

    def pairs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = gaussian_rng(self.seed, self.stream)
        x = rng.standard_normal((count, self.dimension))
        y = rng.standard_normal((count, self.dimension))
        y *= np.sqrt(1.0 - self.rho**2)
        y += self.rho * x
        return x, y

    def pair_batches(self, count: int, batch: int = 1 << 19):
        """Yield (X, Y) blocks covering ``count`` pairs, deterministically."""
        rng = gaussian_rng(self.seed, self.stream)
        sigma = np.sqrt(1.0 - self.rho**2)
        for m in batch_sizes(count, batch):
            x = rng.standard_normal((m, self.dimension))
            z = rng.standard_normal((m, self.dimension))
            z *= sigma  # in place: the same sums as rho * x + sigma * z
            z += self.rho * x
            yield x, z

    def substream(self, index: int) -> "CorrelatedSampler":
        return CorrelatedSampler(self.dimension, self.rho, self.seed, index)


# ---------------------------------------------------------------------------
# Monte Carlo core: every seeded estimator draws from gaussian_rng, walks its
# samples in batch_sizes blocks and reports binomial_se or mean_se


def check_rho(rho: float) -> float:
    """The correlation rule shared by every sampler and estimator: rho
    finite with |rho| <= 1.  Negative rho is a valid coupling; routes
    that need rho >= 0 check that themselves."""
    if not abs(rho) <= 1.0:  # also rejects NaN
        raise ValueError(f"rho must be finite with |rho| <= 1, got {rho}")
    return rho


def gaussian_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The seeded generator of stream ``stream``; the one seed -> stream map."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    )


def batch_sizes(total: int, batch: int):
    """Sizes of consecutive blocks of at most ``batch`` covering ``total``.

    Raises ValueError at once when ``total`` (the sample count of an
    estimator) or ``batch`` is below 1.
    """
    if total < 1:
        raise ValueError(f"samples must be >= 1, got {total}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return (min(batch, total - start) for start in range(0, total, batch))


def binomial_se(p, n: int, floor: float = 0.0):
    """Standard error sqrt(max(p (1 - p), floor) / n) of a frequency p over
    n draws; p may be an array.  A positive floor keeps degenerate
    frequencies (0 or 1) from reporting a zero error."""
    var = p * (1.0 - p)
    if floor:
        var = np.maximum(var, floor)
    se = np.sqrt(var / n)
    return float(se) if se.ndim == 0 else se


def mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Sample mean and its standard error from the sum and the sum of
    squares of n draws."""
    mean = total / n
    var = max(total_sq / n - mean**2, 0.0)
    return mean, math.sqrt(var / n)


def label_measures(labels: np.ndarray, k: int) -> np.ndarray:
    """Empirical cell measures of a batch of labels in 1..k."""
    return np.bincount(labels, minlength=k + 1)[1:] / labels.shape[0]


def multisets(dim: int, order: int):
    """Sorted multi-indices (multisets over range(dim)) of a given size."""
    return itertools.combinations_with_replacement(range(dim), order)
