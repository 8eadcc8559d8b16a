"""
Hermite expansions of vector-valued functions on low-dimensional Gaussian
space, per-degree spectral weights, and the Ornstein-Uhlenbeck semigroup.

An expansion stores the coefficients fhat(S) in R^k of

    f = sum_S fhat(S) * H_S,        fhat(S) = E[f(X) H_S(X)],

for |S| <= max_degree, computed by tensor-product Gauss-Hermite quadrature,
so the construction is exact (up to roundoff) whenever f is a polynomial of
degree <= max_degree and the rule has order > max_degree.

The semigroup P_t acts diagonally: P_t H_S = exp(-t|S|) H_S.  Pointwise
values of P_t f are available separately through the defining integral

    (P_t f)(x) = E_y[ f(exp(-t) x + sqrt(1-exp(-2t)) y) ],

which does not require an expansion.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gauss import (
    MAX_QUADRATURE_DIM,
    contract_axes,
    gauss_hermite_rule,
    hermite_table,
    tensor_grid,
)

__all__ = [
    "HermiteExpansion",
    "SpectralWeights",
    "TailReport",
    "expand",
    "spectral_weights",
    "apply_ou",
    "ou_pointwise",
    "ou_on_points",
    "gradient_tail_bound",
    "tail_two_ways",
]

COEFF_DROP = 1e-14


def eval_vector_function(f, points: np.ndarray, k: int | None = None) -> np.ndarray:
    """Evaluate a batched callable f on an (N, n) batch, returning (N, k).

    f takes the whole batch and returns (N,) or (N, k); any other shape
    raises ValueError, and an exception from f propagates.
    """
    n_pts = points.shape[0]
    vals = np.asarray(f(points), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != n_pts:
        raise ValueError(
            f"function returned shape {vals.shape} on a batch of {n_pts} points; "
            "expected (N,) or (N, k)"
        )
    if k is not None and vals.shape[1] != k:
        raise ValueError(f"expected {k} output components, got {vals.shape[1]}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("function returned non-finite values on the grid")
    return vals


def degree_indices(n: int, max_degree: int):
    """All multi-indices S in Z_{>=0}^n with |S| <= max_degree."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for q in range(remaining + 1):
            rec(prefix + [q], remaining - q, slots - 1)

    rec([], max_degree, n)
    return out


@dataclass
class HermiteExpansion:
    """Sparse table of Hermite coefficients fhat(S) in R^k, |S| <= max_degree."""

    n: int
    k: int
    max_degree: int
    coeffs: dict[tuple[int, ...], np.ndarray]

    def coefficient(self, S) -> np.ndarray:
        return self.coeffs.get(tuple(S), np.zeros(self.k))

    def norm2(self) -> float:
        """Coefficient mass sum_S ||fhat(S)||^2 (Parseval lower part)."""
        return float(sum(np.dot(c, c) for c in self.coeffs.values()))

    def degree_mass(self) -> np.ndarray:
        """Mass per degree d = 0..max_degree."""
        out = np.zeros(self.max_degree + 1)
        for S, c in self.coeffs.items():
            out[sum(S)] += np.dot(c, c)
        return out

    def inner(self, other: "HermiteExpansion") -> float:
        """sum_S <fhat(S), ghat(S)> over shared indices."""
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("expansion shapes differ")
        acc = 0.0
        small, big = self.coeffs, other.coeffs
        if len(big) < len(small):
            small, big = big, small
        for S, c in small.items():
            d = big.get(S)
            if d is not None:
                acc += float(np.dot(c, d))
        return acc

    def to_json(self) -> str:
        entries = [
            {"index": list(S), "coeff": list(map(float, c))}
            for S, c in sorted(self.coeffs.items())
        ]
        return json.dumps(
            {"n": self.n, "k": self.k, "max_degree": self.max_degree, "entries": entries}
        )

    @classmethod
    def from_json(cls, text: str) -> "HermiteExpansion":
        doc = json.loads(text)
        coeffs = {
            tuple(e["index"]): np.asarray(e["coeff"], dtype=float)
            for e in doc["entries"]
        }
        return cls(doc["n"], doc["k"], doc["max_degree"], coeffs)


@dataclass(frozen=True)
class SpectralWeights:
    """Per-degree Hermite mass W^{=d} plus the Parseval-residual tail."""

    by_degree: np.ndarray
    tail: float

    def above(self, d: int) -> float:
        """W^{>d}: mass strictly above degree d, tail included."""
        return float(self.by_degree[d + 1 :].sum()) + self.tail


def expand(f, n: int, max_degree: int, quad_order: int = 40, k: int | None = None) -> HermiteExpansion:
    """Hermite-expand f: R^n -> R^k by tensor-product quadrature.

    Coefficients with ||fhat(S)|| below 1e-14 are dropped so that exact
    sparsity patterns (e.g. eigenfunctions) stay exact.
    """
    rule, points, _ = _expansion_grid(n, max_degree, quad_order)
    return _expand_values(eval_vector_function(f, points, k=k), rule, n, max_degree)


def _expansion_grid(n: int, max_degree: int, quad_order: int):
    """(rule, points, weights) of the order-``quad_order`` tensor grid
    that expands up to ``max_degree`` in n dimensions."""
    if n > MAX_QUADRATURE_DIM:
        raise ValueError(
            f"quadrature expansion limited to n <= {MAX_QUADRATURE_DIM}"
        )
    if quad_order <= max_degree:
        raise ValueError("quad_order must exceed max_degree")
    rule = gauss_hermite_rule(quad_order)
    return (rule, *tensor_grid(rule, n))


def _expand_values(vals: np.ndarray, rule, n: int, max_degree: int) -> HermiteExpansion:
    """The expansion of ``expand`` from f's (m^n, k) values on the
    order-m tensor grid of ``rule``."""
    m, kk = rule.nodes.shape[0], vals.shape[1]
    # the "ij" grid order makes axis i coordinate i; each axis contracts
    # against w(y) H_q(y) over the one-dimensional nodes
    B = hermite_table(max_degree, rule.nodes).T * rule.weights[:, None]
    full = contract_axes(vals.reshape((m,) * n + (kk,)), B, n)
    coeffs: dict[tuple[int, ...], np.ndarray] = {}
    for S in degree_indices(n, max_degree):
        if np.linalg.norm(full[S]) >= COEFF_DROP:
            coeffs[S] = full[S]
    return HermiteExpansion(n, kk, max_degree, coeffs)


def spectral_weights(e: HermiteExpansion, total_mass: float) -> SpectralWeights:
    """Split total L2 mass into per-degree weights plus a residual tail.

    ``total_mass`` is the (separately computed) value of E||f||^2; the tail
    is total_mass minus the stored coefficient mass.  A residual below
    -1e-6 signals a quadrature failure and raises.
    """
    by_degree = e.degree_mass()
    tail = total_mass - by_degree.sum()
    if tail < -1e-6:
        raise ValueError(
            f"negative Parseval residual {tail:.3e}: quadrature inconsistent with total mass"
        )
    return SpectralWeights(by_degree, max(tail, 0.0))


def apply_ou(e: HermiteExpansion, t: float) -> HermiteExpansion:
    """P_t on coefficients: fhat(S) -> exp(-t|S|) fhat(S)."""
    if not t >= 0:  # also rejects NaN
        raise ValueError("t must be >= 0")
    coeffs = {S: math.exp(-t * sum(S)) * c for S, c in e.coeffs.items()}
    return HermiteExpansion(e.n, e.k, e.max_degree, coeffs)


def ou_on_points(f, t: float, points: np.ndarray, quad_order: int = 40, k: int | None = None) -> np.ndarray:
    """(P_t f) evaluated on an (N, n) batch via the defining integral.

    The y-integral runs over a tensor-product rule, so the cost is
    quad_order^n vectorized evaluations of f over the batch.
    """
    if not t >= 0:  # also rejects NaN
        raise ValueError("t must be >= 0")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[1]
    if n > MAX_QUADRATURE_DIM:
        raise ValueError(f"quadrature OU limited to n <= {MAX_QUADRATURE_DIM}")
    if t == 0.0:
        return eval_vector_function(f, points, k=k)
    rho = math.exp(-t)
    sigma = math.sqrt(1.0 - rho * rho)
    rule = gauss_hermite_rule(quad_order)
    ynodes, yweights = tensor_grid(rule, n)
    acc = None
    for j in range(ynodes.shape[0]):
        shifted = rho * points + sigma * ynodes[j]
        vals = eval_vector_function(f, shifted, k=k)
        acc = yweights[j] * vals if acc is None else acc + yweights[j] * vals
    return acc


def ou_pointwise(f, t: float, x, quad_order: int = 40, k: int | None = None) -> np.ndarray:
    """(P_t f)(x) at a single point x in R^n."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return ou_on_points(f, t, x[None, :], quad_order=quad_order, k=k)[0]


@dataclass(frozen=True)
class TailReport:
    """W^{>d} computed two ways: Parseval residual vs explicit sums."""

    residual_route: float
    explicit_route: float
    agree: bool


def tail_two_ways(
    f,
    n: int,
    d: int,
    total_mass: float,
    quad_order: int = 40,
    k: int | None = None,
) -> TailReport:
    """Compare the Parseval-residual tail with explicit high-degree sums.

    The residual route is the exact ``total_mass`` minus the coefficient
    mass up to degree d.  The explicit route sums quadrature coefficients
    on degrees (d, d + 6] plus the residual above d + 6 taken against the
    quadrature value of E||f||^2, so it never sees the exact total.  Both
    come from one evaluation of f on the order-``quad_order`` tensor grid
    (quad_order must exceed d + 6).  The routes coincide exactly when
    quadrature integrates f faithfully; ``agree`` is false when they
    differ by more than 1e-6, which flags a quadrature failure for this
    integrand.
    """
    high_degree = d + 6
    rule, points, weights = _expansion_grid(n, high_degree, quad_order)
    vals = eval_vector_function(f, points, k=k)
    quad_mass = float(np.dot(weights, np.sum(vals**2, axis=1)))
    mass = _expand_values(vals, rule, n, high_degree).degree_mass()
    residual = total_mass - float(mass[: d + 1].sum())
    explicit = float(mass[d + 1 :].sum()) + (quad_mass - float(mass.sum()))
    return TailReport(residual, explicit, abs(residual - explicit) <= 1e-6)


def gradient_tail_bound(grad_l1: float, d: int) -> float:
    """Diagnostic upper bound E|grad f| / sqrt(d) on W^{>=d}.

    The decay rate in d is the meaningful part; the unit constant in
    front is a convention, not a proven sharp value.
    """
    if grad_l1 < 0:
        raise ValueError("gradient magnitude must be >= 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    return grad_l1 / math.sqrt(d)
