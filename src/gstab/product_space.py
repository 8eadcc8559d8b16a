"""
Finite joint distributions and their Fourier analysis: maximal-correlation
bases, tensorized expansions over product spaces, influences, noise
smoothing, correlation evaluation, and central-limit block strategies that
port Gaussian partitions onto discrete correlated sources.

For a joint distribution P on [mA] x [mB] the normalized matrix
M(a,b) = P(a,b)/sqrt(PA(a) PB(b)) has top singular pair (sqrt(PA),
sqrt(PB)) with value 1; the remaining singular structure gives orthonormal
bases {X_j}, {Y_j} with E[X_i Y_j] = delta_ij rho_i and rho_1 the maximal
correlation.  Expanding f: A^n -> R^k in the product basis X_sigma turns
E<f(X^n), g(Y^n)> into sum_sigma <fhat(sigma), ghat(sigma)> rho^sigma.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .gauss import batch_sizes, binomial_se, check_distribution, check_rho, contract_axes, gaussian_rng
from .partitions import PartitionFn

__all__ = [
    "JointDist",
    "CorrelationBasis",
    "ProductFourier",
    "correlation_basis",
    "tensor_fourier",
    "influence",
    "smooth",
    "correlation",
    "exact_correlation",
    "BlockStrategy",
    "block_strategy",
    "has_block_port",
    "block_port",
    "DiscreteCorrReport",
    "estimate_discrete_corr",
    "binary_symmetric",
]

MAX_ENUM_POINTS = 1 << 17
TIE_DITHER = 1e-9  # scale of the tie-breaking symbol in BlockStrategy


@dataclass
class JointDist:
    """Probability matrix on [mA] x [mB]; both marginals must be positive."""

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2:
            raise ValueError("P must be a matrix")
        check_distribution(P.ravel(), atol=1e-12, name="source P")
        if np.any(P.sum(axis=1) <= 0) or np.any(P.sum(axis=0) <= 0):
            raise ValueError("zero-mass alphabet symbols are rejected")
        self.P = P

    @property
    def mA(self) -> int:
        return self.P.shape[0]

    @property
    def mB(self) -> int:
        return self.P.shape[1]

    def marginal_a(self) -> np.ndarray:
        return self.P.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.P.sum(axis=0)

    def sample(self, count: int, coords: int, seed: int, stream: int = 0):
        """(count, coords) i.i.d. symbol-pair arrays (xs, ys)."""
        rng = gaussian_rng(seed, stream)
        flat = self.P.reshape(-1)
        idx = rng.choice(flat.size, size=(count, coords), p=flat)
        return idx // self.mB, idx % self.mB

    def to_json(self) -> str:
        return json.dumps({"A": self.mA, "B": self.mB, "rows": self.P.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "JointDist":
        doc = json.loads(text)
        P = np.asarray(doc["rows"], dtype=float)
        if P.shape != (doc["A"], doc["B"]):
            raise ValueError("rows shape disagrees with declared sizes")
        return cls(P)


def binary_symmetric(rho: float) -> JointDist:
    """Uniform-marginal binary source with correlation rho."""
    check_rho(rho)
    same = (1.0 + rho) / 4.0
    diff = (1.0 - rho) / 4.0
    return JointDist(np.array([[same, diff], [diff, same]]))


@dataclass
class CorrelationBasis:
    """Orthonormal systems X (mA x mA), Y (mB x mB) and singular values.

    Column j of X is the function X_j evaluated over the A-alphabet;
    rho[j] = E[X_j Y_j] with rho[0] = 1, nonincreasing.  rho has
    min(mA, mB) entries; unpaired basis functions correlate to 0.
    """

    X: np.ndarray
    Y: np.ndarray
    rho: np.ndarray

    @property
    def maximal_correlation(self) -> float:
        return float(self.rho[1]) if self.rho.size > 1 else 0.0

    def rho_at(self, j: int) -> float:
        return float(self.rho[j]) if j < self.rho.size else 0.0


def _complement_basis(u0: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of the unit vector u0."""
    m = u0.shape[0]
    A = np.eye(m)
    A[:, 0] = u0
    Q, _ = np.linalg.qr(A)
    return Q[:, 1:]


def correlation_basis(P: JointDist) -> CorrelationBasis:
    """Maximal-correlation basis pair of a finite joint distribution.

    The constant pair is split off exactly (it is always the top singular
    pair), and the SVD runs on the complement, which keeps the basis
    orthonormal and deterministic even near degenerate spectra.  Sign
    convention: the first nonvanishing entry of each X_j is positive.
    """
    pa, pb = P.marginal_a(), P.marginal_b()
    sa, sb = np.sqrt(pa), np.sqrt(pb)
    M = P.P / np.outer(sa, sb)
    QA = _complement_basis(sa)
    QB = _complement_basis(sb)
    core = QA.T @ (M - np.outer(sa, sb)) @ QB
    U, S, Vt = np.linalg.svd(core)
    UA = QA @ U
    VB = QB @ Vt.T
    for j in range(UA.shape[1]):
        col = UA[:, j]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        if lead < 0:
            UA[:, j] = -col
            if j < VB.shape[1]:
                VB[:, j] = -VB[:, j]
    mA, mB = P.mA, P.mB
    X = np.empty((mA, mA))
    X[:, 0] = 1.0
    X[:, 1:] = UA / sa[:, None]
    Y = np.empty((mB, mB))
    Y[:, 0] = 1.0
    Y[:, 1:] = VB / sb[:, None]
    rho = np.concatenate(([1.0], np.clip(S[: min(mA, mB) - 1], 0.0, 1.0)))
    return CorrelationBasis(X, Y, rho)


@dataclass
class ProductFourier:
    """Dense coefficient table fhat(sigma) in R^k over sigma in [m]^n."""

    n: int
    k: int
    m: int
    coeffs: np.ndarray  # shape (m,)*n + (k,)

    def coefficient(self, sigma) -> np.ndarray:
        return self.coeffs[tuple(sigma)]

    def total_mass(self) -> float:
        return float(np.sum(self.coeffs**2))

    def degrees(self) -> np.ndarray:
        """deg(sigma) = #nonzero entries, shaped like the sigma lattice."""
        deg = np.zeros((self.m,) * self.n)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = self.m
            deg = deg + (np.arange(self.m) != 0).astype(float).reshape(shape)
        return deg

    def items(self):
        for sigma in iter_product(range(self.m), repeat=self.n):
            yield sigma, self.coeffs[sigma]


def tensor_fourier(table: np.ndarray, basis: np.ndarray, marginal: np.ndarray, n: int) -> ProductFourier:
    """Exact expansion of f: [m]^n -> R^k in the product basis.

    ``table`` has shape (m,)*n for scalar f or (m,)*n + (k,) for vector
    values; ``basis`` is the m x m matrix whose column j is the
    one-coordinate basis function.  The transform contracts one axis at a
    time, so the cost is n m^{n+1} k.
    """
    table = np.asarray(table, dtype=float)
    m = basis.shape[0]
    if table.shape[:n] != (m,) * n:
        raise ValueError("table leading axes disagree with alphabet size")
    if table.ndim == n:
        table = table[..., None]
    elif table.ndim != n + 1:
        raise ValueError("table must have n or n+1 axes")
    k = table.shape[-1]
    if m**n > MAX_ENUM_POINTS:
        raise ValueError("enumeration budget exceeded")
    B = marginal[:, None] * basis  # contraction kernel E[f X_j] per axis
    return ProductFourier(n, k, m, contract_axes(table, B, n))


def influence(F: ProductFourier, i: int) -> float:
    """Mass of coefficients with sigma_i != 0."""
    if not 0 <= i < F.n:
        raise ValueError("coordinate out of range")
    sq = np.sum(F.coeffs**2, axis=-1)
    zero_slice = np.take(sq, 0, axis=i)
    return float(sq.sum() - zero_slice.sum())


def smooth(F: ProductFourier, delta: float) -> ProductFourier:
    """Dampen by (1-delta)^{deg(sigma)}; delta=1 keeps only the mean."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    factors = (1.0 - delta) ** F.degrees()
    return ProductFourier(F.n, F.k, F.m, F.coeffs * factors[..., None])


def correlation(F: ProductFourier, G: ProductFourier, rho: np.ndarray) -> float:
    """sum_sigma <fhat(sigma), ghat(sigma)> prod_i rho_{sigma_i}."""
    if (F.n, F.k, F.m) != (G.n, G.k, G.m):
        raise ValueError("expansion shapes differ")
    rho_full = np.zeros(F.m)
    rho_full[: min(F.m, rho.size)] = rho[: min(F.m, rho.size)]
    pair = np.sum(F.coeffs * G.coeffs, axis=-1)
    return float(contract_axes(pair[..., None], rho_full[:, None], F.n).sum())


def exact_correlation(f_table: np.ndarray, g_table: np.ndarray, P: JointDist, n: int) -> float:
    """E<f(X^n), g(Y^n)> by direct enumeration over P^n (small n only)."""
    mA, mB = P.mA, P.mB
    if mA**n * mB**n > MAX_ENUM_POINTS:
        raise ValueError("enumeration budget exceeded")
    f_flat = np.asarray(f_table, dtype=float).reshape(mA**n, -1)
    g_flat = np.asarray(g_table, dtype=float).reshape(mB**n, -1)
    return float(np.einsum("xy,xk,yk->", _word_law(P.P, n), f_flat, g_flat))


def _word_law(law: np.ndarray, n: int) -> np.ndarray:
    """Law of length-n words from a per-symbol law (marginal or joint)."""
    w = np.ones((1,) * law.ndim)
    for _ in range(n):
        w = np.kron(w, law)
    return w


@dataclass
class BlockStrategy:
    """Discrete strategy: evaluate a Gaussian partition on block averages.

    Consumes n0*ell symbols (plus one for the optional tie dither); block
    i feeds (sum_j basis[x_{i,j}]) / sqrt(ell) into coordinate i of the
    partition.  The dither adds TIE_DITHER * basis[extra symbol] to every
    coordinate, splitting boundary atoms of lattice-valued averages
    between the adjacent cells without moving interior points.
    """

    partition: PartitionFn
    basis_values: np.ndarray
    ell: int
    tie_break: bool = False

    @property
    def n_coords(self) -> int:
        return self.partition.n * self.ell + (1 if self.tie_break else 0)

    @property
    def k(self) -> int:
        return self.partition.k

    def __call__(self, symbols: np.ndarray) -> np.ndarray:
        symbols = np.atleast_2d(np.asarray(symbols, dtype=np.int64))
        if symbols.shape[1] != self.n_coords:
            raise ValueError(f"strategy consumes {self.n_coords} symbols")
        n0 = self.partition.n
        main = symbols[:, : n0 * self.ell]
        vals = self.basis_values[main].reshape(-1, n0, self.ell)
        z = vals.sum(axis=2) / math.sqrt(self.ell)
        if self.tie_break:
            z = z + TIE_DITHER * self.basis_values[symbols[:, -1]][:, None]
        return self.partition.labels(z)


def block_strategy(g: PartitionFn, basis_values, ell: int, tie_break: bool = False) -> BlockStrategy:
    """Strategy applying g to ell-block averages of one basis function."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return BlockStrategy(g, np.asarray(basis_values, dtype=float), ell, tie_break)


def has_block_port(P: JointDist) -> bool:
    """Whether P has a block port: its top correlation pair X_1, Y_1
    exists only with two or more symbols on each side."""
    return min(P.mA, P.mB) >= 2


def block_port(P: JointDist, f: PartitionFn, g: PartitionFn, ell: int) -> tuple[BlockStrategy, BlockStrategy]:
    """The finite-source port of a pair of Gaussian partitions [GKS:16]:
    f on ell-block averages of X_1 over A, g on those of Y_1 over B, both
    with the tie dither, where (X_1, Y_1) is P's top correlation pair."""
    if not has_block_port(P):
        raise ValueError(f"a block port needs two symbols on each side, got {P.mA} x {P.mB}")
    basis = correlation_basis(P)
    return (
        block_strategy(f, basis.X[:, 1], ell, tie_break=True),
        block_strategy(g, basis.Y[:, 1], ell, tie_break=True),
    )


@dataclass
class DiscreteCorrReport:
    marginals_f: np.ndarray
    marginals_g: np.ndarray
    joint: np.ndarray
    agreement: float
    agreement_se: float
    samples: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "marginals_f": self.marginals_f.tolist(),
                "marginals_g": self.marginals_g.tolist(),
                "joint": self.joint.tolist(),
                "agreement": self.agreement,
                "agreement_se": self.agreement_se,
                "samples": self.samples,
                "seed": self.seed,
            }
        )


def estimate_discrete_corr(
    fstrat,
    gstrat,
    P: JointDist,
    samples: int,
    seed: int,
    batch: int = 1 << 16,
) -> DiscreteCorrReport:
    """Simulate two strategies on i.i.d. coordinate pairs from P.

    Reports label marginals, the full joint label matrix, and the
    agreement probability with its binomial standard error.
    """
    if fstrat.k != gstrat.k:
        raise ValueError("strategies must share the label count")
    k = fstrat.k
    coords = max(fstrat.n_coords, gstrat.n_coords)
    joint = np.zeros((k, k))
    for stream, m in enumerate(batch_sizes(samples, batch)):
        xs, ys = P.sample(m, coords, seed, stream)
        lf = fstrat(xs[:, : fstrat.n_coords])
        lg = gstrat(ys[:, : gstrat.n_coords])
        np.add.at(joint, (lf - 1, lg - 1), 1.0)
    joint /= samples
    agreement = float(np.trace(joint))
    return DiscreteCorrReport(
        marginals_f=joint.sum(axis=1),
        marginals_g=joint.sum(axis=0),
        joint=joint,
        agreement=agreement,
        agreement_se=binomial_se(agreement, samples),
        samples=samples,
        seed=seed,
    )
