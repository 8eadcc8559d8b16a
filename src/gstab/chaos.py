"""
Polynomials on Gaussian space stored by Wiener-chaos components, and the
tensor-side machinery built on them: exact products, eigenregularity,
variance bounds for products, the multilinear lift, and construction of
covariance-matched eigenregular families.

A PolyGauss is p = constant + sum_{q>=1} I_q(f_q) with symmetric tensors
f_q; by the Ito isometry Var(p) = sum_q ||f_q||_F^2 and inner products of
chaos components are Frobenius inner products.  A BlockPoly is the
block-averaged form (1/sqrt(kappa)) * sum_b base(X_b) over kappa disjoint
variable blocks, kept unmaterialized so that large kappa stays cheap; sums
of disjoint copies drive the eigenregularity of the matched families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauss import batch_sizes, gaussian_rng, mean_se
from .tensors import (
    SymmetricTensor,
    _chaos_terms,
    basis_tensor,
    flattening_top_singular_value,
    ito_eval_many,
    ito_product_tensors,
)

__all__ = [
    "PolyGauss",
    "BlockPoly",
    "EigenReport",
    "VarianceBounds",
    "LiftResult",
    "GramSpec",
    "poly_product",
    "eigenregularity",
    "variance_bounds",
    "multilinear_lift",
    "matched_family",
    "product_expectation_mc",
    "product_difference_mc",
    "pair_block_weights",
    "pair_block_product_difference",
    "ProductEstimate",
]


@dataclass
class PolyGauss:
    """Polynomial on R^n as chaos components {order: SymmetricTensor}."""

    n: int
    chaos: dict[int, SymmetricTensor]
    constant: float = 0.0

    def __post_init__(self):
        for q, t in self.chaos.items():
            if q < 1:
                raise ValueError("chaos keys start at order 1; use `constant`")
            if t.order != q:
                raise ValueError(f"component at key {q} has order {t.order}")
            if t.dim != self.n:
                raise ValueError("component dimension differs from n")

    @property
    def degree(self) -> int:
        return max(self.chaos) if self.chaos else 0

    def mean(self) -> float:
        return self.constant

    def variance(self) -> float:
        return float(sum(t.frobenius_norm2() for t in self.chaos.values()))

    def second_moment(self) -> float:
        return self.variance() + self.constant**2

    def inner(self, other: "PolyGauss") -> float:
        """E[p*q], using orthogonality of distinct chaos levels."""
        acc = self.constant * other.constant
        for q, t in self.chaos.items():
            o = other.chaos.get(q)
            if o is not None:
                acc += t.inner(o)
        return acc

    def covariance(self, other: "PolyGauss") -> float:
        return self.inner(other) - self.constant * other.constant

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """Values over an (N, n) batch.

        Dense order <= 2 components use closed forms, contracted by
        einsum on one thread (no BLAS product: n is small and a second
        BLAS thread only costs CPU); sparse and higher-order components
        go through the generic multiset sum, which only touches nonzero
        entries.  Terms accumulate in place into one output array.
        """
        X = np.atleast_2d(np.asarray(X))
        if not np.issubdtype(X.dtype, np.floating):
            X = X.astype(float)
        if X.shape[1] != self.n:
            raise ValueError("batch dimension does not match polynomial")
        out = np.full(X.shape[0], self.constant, dtype=X.dtype)
        for q, t in self.chaos.items():
            if q == 1:
                out += np.einsum("xi,i->x", X, t.array.astype(X.dtype, copy=False))
            elif q == 2 and np.count_nonzero(t.array) > 4 * self.n:
                h = t.array.astype(X.dtype, copy=False)
                out += (np.einsum("xi,ij->xj", X, h) * X).sum(axis=1) / math.sqrt(2.0)
                out -= np.trace(h) / math.sqrt(2.0)
            else:
                out += ito_eval_many(t, X)
        return out

    def eval(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.eval_many(x[None, :])[0])

    def scale(self, c: float) -> "PolyGauss":
        return PolyGauss(
            self.n, {q: t.scale(c) for q, t in self.chaos.items()}, c * self.constant
        )

    def shift(self, c: float) -> "PolyGauss":
        return PolyGauss(self.n, dict(self.chaos), self.constant + c)

    def add(self, other: "PolyGauss") -> "PolyGauss":
        if self.n != other.n:
            raise ValueError("dimensions differ")
        chaos = dict(self.chaos)
        for q, t in other.chaos.items():
            chaos[q] = chaos[q].add(t) if q in chaos else t
        return PolyGauss(self.n, chaos, self.constant + other.constant)

    def normalized(self) -> "PolyGauss":
        """Rescale to variance 1 (mean scales along)."""
        v = self.variance()
        if v <= 0.0:
            raise ValueError("cannot normalize a zero-variance polynomial")
        return self.scale(1.0 / math.sqrt(v))

    def hermite_coeffs(self) -> dict[tuple[int, ...], float]:
        """Hermite coefficients {multi-index S: c} with p = sum_S c H_S.

        The inverse of ``from_hermite_coeffs``; zero coefficients are
        left out, so the zero polynomial gives an empty dict.
        """
        out: dict[tuple[int, ...], float] = {}
        if self.constant != 0.0:
            out[(0,) * self.n] = self.constant
        for t in self.chaos.values():
            for mult, coeff in _chaos_terms(t):
                out[tuple(mult.get(i, 0) for i in range(self.n))] = coeff
        return out

    def to_monomial(self) -> dict[tuple[int, ...], float]:
        """Exponent-vector form; the independent evaluation cross-check."""
        herm = _hermite_monomial_coeffs(self.degree)
        out: dict[tuple[int, ...], float] = {}
        for S, coeff in self.hermite_coeffs().items():
            terms = [((0,) * self.n, coeff)]
            for i, m in enumerate(S):
                if not m:
                    continue
                new_terms = []
                for exps, c in terms:
                    for power, hc in enumerate(herm[m]):
                        if hc == 0.0:
                            continue
                        e = list(exps)
                        e[i] += power
                        new_terms.append((tuple(e), c * hc))
                terms = new_terms
            for exps, c in terms:
                out[exps] = out.get(exps, 0.0) + c
        return {e: c for e, c in out.items() if c != 0.0}

    def eval_monomial(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        total = 0.0
        for exps, c in self.to_monomial().items():
            term = c
            for i, e in enumerate(exps):
                if e:
                    term *= x[i] ** e
            total += term
        return float(total)

    @classmethod
    def from_hermite_coeffs(cls, n: int, coeffs: dict[tuple[int, ...], float]) -> "PolyGauss":
        """Build from Hermite coefficients {multi-index S: c}.

        Each H_S is the Ito integral of the unit-norm basis tensor on the
        multiset that repeats coordinate i exactly S_i times.
        """
        chaos_arrays: dict[int, np.ndarray] = {}
        constant = 0.0
        for S, c in coeffs.items():
            q = sum(S)
            if c == 0.0:
                continue
            if q == 0:
                constant += c
                continue
            ms = tuple(i for i, s in enumerate(S) for _ in range(s))
            t = basis_tensor(ms, n)
            if q not in chaos_arrays:
                chaos_arrays[q] = np.zeros((n,) * q)
            chaos_arrays[q] = chaos_arrays[q] + c * t.array
        chaos = {
            q: SymmetricTensor(q, n, arr)
            for q, arr in chaos_arrays.items()
            if np.any(arr != 0.0)
        }
        return cls(n, chaos, constant)


def _hermite_monomial_coeffs(max_degree: int) -> list[list[float]]:
    """Monomial coefficients of the orthonormal H_0..H_max."""
    coeffs = [[1.0]]
    if max_degree >= 1:
        coeffs.append([0.0, 1.0])
    for q in range(1, max_degree):
        prev, cur = coeffs[q - 1], coeffs[q]
        nxt = [0.0] * (q + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += c
        for i, c in enumerate(prev):
            nxt[i] -= math.sqrt(q) * c
        coeffs.append([c / math.sqrt(q + 1) for c in nxt])
    return coeffs


def poly_product(p: PolyGauss, q: PolyGauss) -> PolyGauss:
    """Exact chaos decomposition of the pointwise product p*q."""
    if p.n != q.n:
        raise ValueError("dimensions differ")
    out = PolyGauss(p.n, {}, p.constant * q.constant)
    if q.constant != 0.0:
        out = out.add(PolyGauss(p.n, {o: t.scale(q.constant) for o, t in p.chaos.items()}))
    if p.constant != 0.0:
        out = out.add(PolyGauss(p.n, {o: t.scale(p.constant) for o, t in q.chaos.items()}))
    for _, f in p.chaos.items():
        for _, g in q.chaos.items():
            comp = ito_product_tensors(f, g)
            chaos = {o: t for o, t in comp.items() if o >= 1}
            const = float(comp[0].array) if 0 in comp else 0.0
            out = out.add(PolyGauss(p.n, chaos, const))
    return out


@dataclass
class BlockPoly:
    """(1/sqrt(kappa)) * sum_b base(X_b) over kappa disjoint blocks.

    Lives on ``total_n`` coordinates; the blocks occupy
    [offset, offset + kappa*base.n).  Centered by construction (the base
    carries no constant), so covariances across distinct offsets vanish.
    """

    base: PolyGauss
    kappa: int
    total_n: int
    offset: int = 0

    def __post_init__(self):
        if self.base.constant != 0.0:
            raise ValueError("block base must be centered")
        if self.offset + self.kappa * self.base.n > self.total_n:
            raise ValueError("blocks exceed total dimension")

    @property
    def n(self) -> int:
        return self.total_n

    @property
    def degree(self) -> int:
        return self.base.degree

    def mean(self) -> float:
        return 0.0

    def variance(self) -> float:
        return self.base.variance()

    def second_moment(self) -> float:
        return self.variance()

    def inner(self, other) -> float:
        if isinstance(other, BlockPoly):
            if self.total_n != other.total_n:
                raise ValueError("dimensions differ")
            if self.offset == other.offset and self.kappa == other.kappa and self.base.n == other.base.n:
                return self.base.inner(other.base)
            lo, hi = self.offset, self.offset + self.kappa * self.base.n
            olo, ohi = other.offset, other.offset + other.kappa * other.base.n
            if hi <= olo or ohi <= lo:
                return 0.0  # disjoint supports, both centered
            return self.densify().inner(other.densify())
        return self.densify().inner(other)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.total_n:
            raise ValueError("batch dimension does not match polynomial")
        T = self.base.n
        blocks = X[:, self.offset : self.offset + self.kappa * T]
        flat = np.ascontiguousarray(blocks).reshape(-1, T)
        vals = self.base.eval_many(flat).reshape(X.shape[0], self.kappa)
        return vals.sum(axis=1) / math.sqrt(self.kappa)

    def eval(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(self.eval_many(x[None, :])[0])

    def densify(self) -> PolyGauss:
        """Materialize on the full coordinate range (small kappa only)."""
        chaos: dict[int, SymmetricTensor] = {}
        scale = 1.0 / math.sqrt(self.kappa)
        for q, t in self.base.chaos.items():
            acc = SymmetricTensor.zeros(q, self.total_n)
            for b in range(self.kappa):
                acc = acc.add(t.embed(self.total_n, self.offset + b * self.base.n))
            chaos[q] = acc.scale(scale)
        return PolyGauss(self.total_n, chaos, 0.0)


@dataclass(frozen=True)
class EigenReport:
    """Largest flattening singular value over component bipartitions."""

    lambda_max: float
    per_partition: dict[tuple[int, tuple[int, ...]], float]
    variance: float
    ratio: float


def _canonical_bipartitions(q: int):
    """Proper bipartitions of range(q) up to complementation (0 in left)."""
    import itertools as it

    for size in range(1, q):
        for left in it.combinations(range(q), size):
            if 0 in left and len(left) < q:
                yield left


def eigenregularity(p) -> EigenReport:
    """Flattening spectral report for components of order >= 2.

    Every flattening value is an exact top singular value (one SVD per
    bipartition, see flattening_top_singular_value), so the report
    carries no convergence flag or tolerance.
    Order-1 components are excluded from lambda_max by convention.  For a
    BlockPoly the report is computed on the base and scaled by
    1/sqrt(kappa): the flattening of a repeated-disjoint-block tensor is
    block diagonal, so its top singular value is the block's.
    """
    if isinstance(p, BlockPoly):
        rep = eigenregularity(p.base)
        s = 1.0 / math.sqrt(p.kappa)
        per = {k: v * s for k, v in rep.per_partition.items()}
        lam = rep.lambda_max * s
        var = p.variance()
        return EigenReport(lam, per, var, lam / math.sqrt(var))
    if not any(q >= 2 for q in p.chaos):
        raise ValueError("eigenregularity needs a component of order >= 2")
    per: dict[tuple[int, tuple[int, ...]], float] = {}
    lam = 0.0
    for q, t in sorted(p.chaos.items()):
        if q < 2:
            continue
        for left in _canonical_bipartitions(q):
            val = flattening_top_singular_value(t, left)
            per[(q, left)] = val
            lam = max(lam, val)
    var = p.variance()
    if var <= 0.0:
        raise ValueError("eigenregularity needs positive variance")
    return EigenReport(lam, per, var, lam / math.sqrt(var))


@dataclass(frozen=True)
class VarianceBounds:
    """Bounds on Var(p*q) plus its exact chaos-computed value."""

    upper: float
    lower_top: float
    lower_schedule: float
    product_variance: float


def variance_bounds(p: PolyGauss, q: PolyGauss) -> VarianceBounds:
    """Hypercontractive upper bound, top-component lower bound, and the
    degree-schedule lower bound, checked against the exact Var(p*q).

    The upper bound 9^d E[p^2] E[q^2] (d = max degree) requires E[q] = 0;
    the schedule bound requires Var(p) = Var(q) = 1 and evaluates to
    (1/4) L^{2(1 - 4^d)} with L = 4 T 9^{d+1} (d+1)^2 and T the larger
    second moment.
    """
    if p.n != q.n:
        raise ValueError("dimensions differ")
    if abs(q.mean()) > 1e-12:
        raise ValueError("upper bound path requires E[q] = 0")
    d = max(p.degree, q.degree)
    upper = 9.0**d * p.second_moment() * q.second_moment()
    dp, dq = p.degree, q.degree
    top_p = p.chaos[dp].frobenius_norm2() if dp >= 1 else 0.0
    top_q = q.chaos[dq].frobenius_norm2() if dq >= 1 else 0.0
    lower_top = top_p * top_q
    if abs(p.variance() - 1.0) > 1e-9 or abs(q.variance() - 1.0) > 1e-9:
        raise ValueError("schedule bound requires unit-variance inputs")
    T = max(p.second_moment(), q.second_moment())
    L = 4.0 * T * 9.0 ** (d + 1) * (d + 1) ** 2
    lower_schedule = 0.25 * L ** (2.0 * (1.0 - 4.0**d))
    prod = poly_product(p, q)
    var = prod.variance()
    if var > upper * (1 + 1e-9) + 1e-12:
        raise ArithmeticError("product variance exceeded the upper bound")
    if lower_top > var * (1 + 1e-9) + 1e-12:
        raise ArithmeticError("top-component lower bound exceeded the product variance")
    return VarianceBounds(upper, lower_top, lower_schedule, var)


@dataclass(frozen=True)
class LiftResult:
    """Averaging substitution of a polynomial plus its multilinear part."""

    r: PolyGauss
    w: PolyGauss
    var_gap: float


def multilinear_lift(p: PolyGauss, T: int) -> LiftResult:
    """Replace each variable x_i by (x_{i,1}+...+x_{i,T})/sqrt(T).

    ``r`` has the same law as ``p``; ``w`` drops every tensor entry with a
    repeated coordinate, and Var(r - w) <= Var(r) d^2 / T.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    n = p.n
    m = n * T
    chaos_r: dict[int, SymmetricTensor] = {}
    chaos_w: dict[int, SymmetricTensor] = {}
    gap = 0.0
    for q, t in p.chaos.items():
        lifted = np.multiply.outer(t.array, np.full((T,) * q, T ** (-q / 2.0)))
        perm = []
        for i in range(q):
            perm.extend([i, q + i])
        lifted = lifted.transpose(perm).reshape((m,) * q)
        chaos_r[q] = SymmetricTensor(q, m, lifted.copy())
        if q >= 2:
            idx = np.indices((m,) * q)
            diag = np.zeros((m,) * q, dtype=bool)
            for a in range(q):
                for b in range(a + 1, q):
                    diag |= idx[a] == idx[b]
            gap += float(np.sum(lifted[diag] ** 2))
            lifted = lifted.copy()
            lifted[diag] = 0.0
        chaos_w[q] = SymmetricTensor(q, m, lifted)
    r = PolyGauss(m, chaos_r, p.constant)
    w = PolyGauss(m, chaos_w, p.constant)
    return LiftResult(r, w, gap)


@dataclass(frozen=True)
class GramSpec:
    """Target covariances per chaos level: {level: PSD matrix}."""

    levels: dict[int, np.ndarray]

    def __post_init__(self):
        for i, G in self.levels.items():
            G = np.asarray(G, dtype=float)
            if i < 1:
                raise ValueError("levels start at 1")
            if G.ndim != 2 or G.shape[0] != G.shape[1]:
                raise ValueError("Gram blocks must be square")
            if np.max(np.abs(G - G.T)) > 1e-10:
                raise ValueError("Gram blocks must be symmetric")
            if np.linalg.eigvalsh(G).min() < -1e-10:
                raise ValueError("Gram blocks must be PSD (within 1e-10)")
            self.levels[i] = G


def matched_family(
    spec: GramSpec, delta: float, factor_rotation: dict[int, np.ndarray] | None = None
) -> tuple[list[BlockPoly], int]:
    """Family with the prescribed per-level covariances, eigenregularity
    ratio at most delta (orders >= 2), on kappa * sum_i i*m_i coordinates.

    Per level: factor G = V^T V by symmetric eigendecomposition (negative
    eigenvalues within -1e-10 clipped to zero), embed column j as a
    combination of multilinear monomials on disjoint fresh i-tuples, then
    average over kappa = ceil(1/delta^2) disjoint blocks.

    ``factor_rotation`` optionally left-multiplies the factor of a level
    by an orthogonal matrix, producing a genuinely different family with
    identical covariances (V -> R V keeps V^T V = G).
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    kappa = math.ceil(1.0 / delta**2)
    n0 = kappa * sum(i * G.shape[0] for i, G in spec.levels.items())
    family: list[BlockPoly] = []
    offset = 0
    for level in sorted(spec.levels):
        G = spec.levels[level]
        m = G.shape[0]
        Tdim = level * m
        vals, vecs = np.linalg.eigh(G)
        vals = np.clip(vals, 0.0, None)
        V = (vecs * np.sqrt(vals)).T  # rows l, columns j; V^T V = G
        if factor_rotation and level in factor_rotation:
            R = np.asarray(factor_rotation[level], dtype=float)
            if np.max(np.abs(R.T @ R - np.eye(m))) > 1e-10:
                raise ValueError("factor rotation must be orthogonal")
            V = R @ V
        monomials = [
            basis_tensor(tuple(range(l * level, (l + 1) * level)), Tdim)
            for l in range(m)
        ]
        for j in range(m):
            arr = np.zeros((Tdim,) * level)
            for l in range(m):
                if V[l, j] != 0.0:
                    arr = arr + V[l, j] * monomials[l].array
            base = PolyGauss(Tdim, {level: SymmetricTensor(level, Tdim, arr)})
            family.append(BlockPoly(base, kappa, n0, offset))
        offset += kappa * Tdim
    return family, n0


@dataclass(frozen=True)
class ProductEstimate:
    value: float
    std_error: float
    samples: int


def _mc_stream(families, samples: int, seed: int, batch: int):
    """Accumulate per-family product values over one shared sample stream."""
    n = families[0][0].n
    for fam in families:
        if any(p.n != n for p in fam):
            raise ValueError("family members live on different dimensions")
    rng = gaussian_rng(seed)
    sums = np.zeros(len(families))
    sums_sq = np.zeros(len(families))
    diff_sum = 0.0
    diff_sq = 0.0
    for mcount in batch_sizes(samples, batch):
        X = rng.standard_normal((mcount, n))
        prods = []
        for idx, fam in enumerate(families):
            vals = fam[0].eval_many(X)
            for member in fam[1:]:
                vals = vals * member.eval_many(X)
            sums[idx] += vals.sum()
            sums_sq[idx] += (vals**2).sum()
            prods.append(vals)
        if len(families) == 2:
            d = prods[0] - prods[1]
            diff_sum += d.sum()
            diff_sq += (d**2).sum()
    return sums, sums_sq, diff_sum, diff_sq


def product_expectation_mc(family, samples: int, seed: int, batch: int = 1 << 16) -> ProductEstimate:
    """Monte Carlo estimate of E[prod_i p_i] over the shared dimension."""
    if not family:
        raise ValueError("family must be nonempty")
    sums, sums_sq, _, _ = _mc_stream([list(family)], samples, seed, batch)
    return ProductEstimate(*mean_se(sums[0], sums_sq[0], samples), samples)


def product_difference_mc(family_a, family_b, samples: int, seed: int, batch: int = 1 << 16) -> ProductEstimate:
    """Paired estimate of E[prod family_a] - E[prod family_b].

    Both products are evaluated on the same sample stream, so the reported
    standard error is that of the pointwise difference.
    """
    if not family_a or not family_b:
        raise ValueError("families must be nonempty")
    _, _, diff_sum, diff_sq = _mc_stream([list(family_a), list(family_b)], samples, seed, batch)
    return ProductEstimate(*mean_se(diff_sum, diff_sq, samples), samples)


def pair_block_weights(bp: BlockPoly) -> tuple[tuple[tuple[int, int], ...], np.ndarray] | None:
    """Weights of a level-2 block polynomial over disjoint pair monomials.

    Returns (pairs, w) with bp's base equal to sum_l w_l x_{a_l} x_{b_l}
    on disjoint coordinate pairs, or None when the base has a different
    shape.  Such polynomials are linear in the per-pair product sums, the
    sufficient statistics used by the fast sampler below.
    """
    if set(bp.base.chaos) != {2}:
        return None
    pairs = []
    weights = []
    seen: set[int] = set()
    for (i, j), v in bp.base.chaos[2].entries():
        if i == j or i in seen or j in seen:
            return None
        seen.update((i, j))
        pairs.append((i, j))
        weights.append(v * math.sqrt(2.0))
    return tuple(pairs), np.asarray(weights)


def pair_block_product_difference(
    family_a, family_b, samples: int, seed: int, batch: int = 1 << 20
) -> ProductEstimate:
    """Fast paired estimate of E[prod family_a] - E[prod family_b] for
    families of disjoint-pair level-2 block polynomials on shared blocks.

    Each normalized block sum of a pair product, kappa^{-1/2} sum_b
    xi_b eta_b, equals (C1 - C2)/(2 sqrt(kappa)) for independent
    chi-square(kappa) variables C1, C2 (rotate the pair by 45 degrees and
    take squared norms), so a sample of all family values needs two
    chi-square draws per pair slot instead of kappa Gaussian blocks.
    The law sampled is exactly that of the generic estimator.
    """
    members = list(family_a) + list(family_b)
    structs = [pair_block_weights(p) for p in members]
    if any(s is None for s in structs):
        raise ValueError("families are not in disjoint-pair block form")
    kappa = members[0].kappa
    if any(p.kappa != kappa or p.offset != members[0].offset for p in members):
        raise ValueError("families must share the block layout")
    # align weights over the union of pair slots; pairs from different
    # members must be identical or coordinate-disjoint
    slot_of: dict[tuple[int, int], int] = {}
    used: set[int] = set()
    for pairs, _ in structs:
        for pair in pairs:
            if pair in slot_of:
                continue
            if pair[0] in used or pair[1] in used:
                raise ValueError("families mix incompatible pair layouts")
            slot_of[pair] = len(slot_of)
            used.update(pair)
    L = len(slot_of)
    W = np.zeros((L, len(members)))
    for col, (pairs, w) in enumerate(structs):
        for pair, weight in zip(pairs, w):
            W[slot_of[pair], col] = weight
    na = len(family_a)
    rng = gaussian_rng(seed)
    diff_sum = 0.0
    diff_sq = 0.0
    scale = 1.0 / (2.0 * math.sqrt(kappa))
    for m in batch_sizes(samples, batch):
        S = rng.chisquare(kappa, (m, L))
        S -= rng.chisquare(kappa, (m, L))
        S *= scale
        # one contiguous row per member; the products over rows multiply
        # the members left to right, row by row
        vals = np.einsum("xl,lc->cx", S, W)
        d = vals[:na].prod(axis=0)
        d -= vals[na:].prod(axis=0)
        diff_sum += float(d.sum())
        d *= d
        diff_sq += float(d.sum())
    return ProductEstimate(*mean_se(diff_sum, diff_sq, samples), samples)
