"""
Gaussian-space primitives: orthonormal Hermite polynomials, Gauss-Hermite
quadrature for the standard normal weight, the bivariate normal law, and
seeded correlated samplers.

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
from scipy.special import ndtr, owens_t

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
    "bvn_cdf",
    "gaussian_rng",
    "batch_sizes",
    "binomial_se",
    "mean_se",
    "label_measures",
    "check_rho",
    "coupling",
    "check_distribution",
    "check_tolerance",
    "gaussian_points",
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
        if not np.all(self.weights > 0):  # also rejects NaN
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
    the equivalent Christoffel form 1 / sum_q H_q(x_i)^2 over hermite_table,
    which stays positive where the squared-first-eigenvector form
    underflows for large orders.  From order 371 the smallest weight
    would be subnormal, and the rule is refused.
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
    # the sum overflows only at the extreme nodes of orders past 370, where
    # the weight would be subnormal anyway; the overflow (or NaN, from
    # inf - inf in the recurrence past order ~730) fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        table = hermite_table(order - 1, nodes)
        table *= table
        weights = np.exp(-np.log(table.sum(axis=0)))
    if not np.all(weights > 0.0):
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


def contract_axes(table: np.ndarray, B, n: int) -> np.ndarray:
    """out[s_1..s_n, :] = sum_x table[x_1..x_n, :] prod_i B_i[x_i, s_i].

    ``table`` has shape (m_1..m_n) + (k,); B is one (m, r) matrix for
    every axis or a list of n matrices, B_i of shape (m_i, r_i).  The n
    leading axes are contracted one at a time, at cost about n m^n r k.
    """
    out = table
    for Bi in B if isinstance(B, list) else [B] * n:
        # contracting axis 0 each time appends s_i last, so after n
        # passes the layout is (k, s_1..s_n)
        out = np.tensordot(out, Bi, axes=([0], [0]))
    return np.moveaxis(out, 0, -1)


def bvn_cdf(h, k, rho: float) -> np.ndarray:
    """Pr[X <= h, Y <= k] for rho-correlated standard normals, over h and k
    broadcast together, ends infinite or not.  Owen's (1956) closed form:
    the sum over (x, y) = (h, k), (k, h) of Phi(x)/2 - T(x, (y - rho x) /
    (x sqrt(1 - rho^2))), with T(0, +-inf) = +-1/4, less 1/2 where h and k
    straddle 0; Sheppard's 1/4 + asin(rho)/(2 pi) at h = k = 0, and the
    limits Phi(min(h, k)) at rho = 1, max(Phi(h) + Phi(k) - 1, 0) at -1."""
    check_rho(rho)
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(k, dtype=float))
    if abs(rho) == 1.0:
        return ndtr(np.minimum(h, k)) if rho > 0 else np.maximum(ndtr(h) - ndtr(-k), 0.0)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 and inf/inf only where replaced below
        share = [0.5 * ndtr(x) - owens_t(x, (y - rho * x) / (np.where(x == 0, 0.0, x) * s))
                 for x, y in ((h, k), (k, h))]
    out = share[0] + share[1] - 0.5 * ((h < 0) != (k < 0))
    out = np.where((h == 0) & (k == 0), 0.25 + math.asin(rho) / (2.0 * math.pi), out)
    return np.where(np.isinf(h) | np.isinf(k), ndtr(np.minimum(h, k)), out)


@dataclass(frozen=True)
class CorrelatedSampler:
    """Seeded source of rho-correlated standard Gaussian pairs.

    Pairs satisfy Y = rho*X + sigma*Z with Z fresh and sigma from
    ``coupling``, so each coordinate pair (X_i, Y_i) has correlation rho.
    The stream is a pure function of (dimension, rho, seed, substream);
    ``substream`` produces an independent stream for parallel estimation.
    """

    dimension: int
    rho: float
    seed: int
    stream: int = 0
    sigma: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "sigma", coupling(rho=self.rho)[1])

    def pairs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._draw(gaussian_rng(self.seed, self.stream), count)

    def pair_batches(self, count: int, batch: int = 1 << 19):
        """Yield (X, Y) blocks covering ``count`` pairs, deterministically."""
        rng = gaussian_rng(self.seed, self.stream)
        for m in batch_sizes(count, batch):
            yield self._draw(rng, m)

    def _draw(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The next m pairs of rng's stream: X, then Z turned into Y."""
        x = rng.standard_normal((m, self.dimension))
        y = rng.standard_normal((m, self.dimension))
        y *= self.sigma  # in place: the same sums as rho * x + sigma * z
        y += self.rho * x
        return x, y

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


def coupling(t: float | None = None, rho: float | None = None) -> tuple[float, float, float]:
    """(rho, sigma, t) of the coupling Y = rho X + sigma Z from exactly one
    of the noise time t >= 0 (inf allowed, NaN not) and a rho that passes
    check_rho: rho = exp(-t), sigma = sqrt(1 - rho*rho), and t = -log(rho),
    which is inf at rho = 0 and NaN for rho < 0, where no noise time
    reaches.  The one rule for every sampler, smoother and noise input."""
    if (t is None) == (rho is None):
        raise ValueError("specify exactly one of t or rho")
    if t is not None:
        if not t >= 0:  # also rejects NaN
            raise ValueError(f"t must be >= 0, got {t}")
        rho = math.exp(-t)
    else:
        check_rho(rho)
        t = -math.log(rho) if rho > 0.0 else (math.inf if rho == 0.0 else math.nan)
    return rho, math.sqrt(1.0 - rho * rho), t


def check_distribution(p, k: int | None = None, atol: float = 1e-9, name: str = "p") -> np.ndarray:
    """The probability-vector rule shared by every measure target and
    joint law: a vector of finite entries >= 0, k of them when k is given,
    summing to 1 within atol.  Returns p as a float array."""
    try:
        p = np.asarray(p, dtype=float)
    except (TypeError, ValueError):  # a JSON object or string, say
        raise ValueError(f"{name} must be a vector of numbers, got {p!r}") from None
    if p.ndim != 1 or (k is not None and p.shape[0] != k):
        want = "a vector" if k is None else f"a vector of {k} entries"
        raise ValueError(f"{name} must be {want}, got shape {p.shape}")
    if not np.all((p >= 0.0) & (p < math.inf)):  # also rejects NaN
        raise ValueError(f"{name} entries must be finite and >= 0")
    if not abs(p.sum() - 1.0) <= atol:
        raise ValueError(f"{name} must sum to 1 within {atol:g}, got {float(p.sum())}")
    return p


def check_tolerance(x: float, name: str, allow_zero: bool = False) -> float:
    """The tolerance rule shared by every accuracy input: x finite and
    > 0, or >= 0 with allow_zero, where an exact target is reachable."""
    above = x >= 0.0 if allow_zero else x > 0.0  # False for NaN
    if not (above and x < math.inf):
        raise ValueError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, got {x}")
    return x


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


def gaussian_points(n: int, samples: int, seed: int, batch: int):
    """The seeded N(0, I_n) point stream: blocks of at most ``batch`` rows
    covering ``samples``, equal bit for bit to one draw of ``samples``
    rows.  Raises ValueError at once, as batch_sizes does."""
    rng = gaussian_rng(seed)
    return (rng.standard_normal((m, n)) for m in batch_sizes(samples, batch))


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
