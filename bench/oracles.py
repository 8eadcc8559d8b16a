"""Reference values the benchmark checks gstab's outputs against.

Each oracle reaches its value by another route than the code it checks:
closed forms, direct enumeration, or an axis-wise contraction written
here.  The few library functions used as oracles (``quad_joint_cells_1d``,
``exact_correlation``, ``cube_stability_bruteforce``, ``ncd_brute_oracle``,
a fresh-seed ``estimate_stability``) take a different path through the
library than the operation they check.

Every check returns ``(error, band)``: the operation passes when
``error <= band``.  Bands are a multiple of the standard error for Monte
Carlo outputs, a fixed absolute tolerance for exact routes, and for
quadrature over a discontinuous integrand twice the largest and twice the
root-mean-square error that a rule of the route's own order makes against
an order-128 rule or an exact formula.  Outputs that must also match
measures (rounding, search) are checked against the matching tolerance
the call was given; on quadrature-smoothed PTFs, where that tolerance
can be out of reach, a match reported as unconverged must instead be no
worse than the unshifted rounding of the benchmark's own smoothing of the
same sample (``unmatched_slack``).
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

EXACT_TOL = 1e-9
MC_SIGMAS = 6.0


def ratio(error: float, band: float) -> float:
    """error / band; 0 for no error in a zero band, inf for any other."""
    if band > 0:
        return error / band
    return 0.0 if error == 0 else math.inf


def mc_band(p: float, samples: int, sigmas: float = MC_SIGMAS) -> float:
    """sigmas binomial standard errors of a proportion p at `samples`."""
    return sigmas * math.sqrt(max(p * (1.0 - p), 1e-12) / samples)


def l1_band(mu, samples: int, sigmas: float = MC_SIGMAS) -> float:
    """sigmas standard errors, summed over labels, of empirical measures."""
    return float(sum(mc_band(p, samples, sigmas) for p in mu))


def label_measures(f, samples: int, seed: int) -> np.ndarray:
    """Empirical cell measures of a partition on standard normals drawn
    here, not through the library's samplers."""
    X = np.random.default_rng(seed).standard_normal((samples, f.n))
    return np.bincount(f.labels(X), minlength=f.k + 1)[1:] / samples


# ---------------------------------------------------------------------------
# Gaussian space


def sheppard_orthant(rho: float) -> float:
    """Pr[X <= 0, Y <= 0] for rho-correlated standard normals."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def halfspace_agreement(rho: float) -> float:
    """Agreement of a halfspace through the origin: both orthants."""
    return 2.0 * sheppard_orthant(rho)


def quadrature_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for N(0,1), weights summing to 1."""
    x, w = hermegauss(order)
    return x, w / w.sum()


def hermite_columns(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite values He_q(x)/sqrt(q!), q = 0..max_degree."""
    out = np.empty((max_degree + 1,) + np.shape(x))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for q in range(1, max_degree):
        out[q + 1] = (x * out[q] - math.sqrt(q) * out[q - 1]) / math.sqrt(q + 1)
    return out


def halfline_coeffs(a: float, b: float, max_degree: int) -> np.ndarray:
    """Hermite coefficients E[1{a < X <= b} H_q(X)] of an interval."""
    from scipy.special import ndtr

    def phi_h(x):
        if np.isinf(x):
            return np.zeros(max_degree + 1)
        return hermite_columns(max_degree, np.float64(x)) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi)

    out = np.zeros(max_degree + 1)
    out[0] = float(ndtr(b) - ndtr(a))
    ha, hb = phi_h(a), phi_h(b)
    for q in range(1, max_degree + 1):
        out[q] = (ha[q - 1] - hb[q - 1]) / math.sqrt(q)
    return out


def slab_coeffs(breakpoints, labels, k: int, max_degree: int) -> np.ndarray:
    """(k, max_degree+1) exact 1-D Hermite coefficients of a slab partition."""
    edges = np.concatenate(([-np.inf], np.asarray(breakpoints, float), [np.inf]))
    out = np.zeros((k, max_degree + 1))
    for j, lab in enumerate(labels):
        out[lab - 1] += halfline_coeffs(edges[j], edges[j + 1], max_degree)
    return out


def slab_coeffs_quadrature(breakpoints, labels, k: int, max_degree: int, order: int) -> np.ndarray:
    """The same coefficients by an order-`order` Gauss-Hermite rule."""
    x, w = quadrature_rule(order)
    lab = np.asarray(labels)[np.searchsorted(np.asarray(breakpoints, float), x, side="left")]
    H = hermite_columns(max_degree, x)
    return np.stack([H @ (w * (lab == j + 1)) for j in range(k)])


def sign_table_coeffs(table: np.ndarray, n: int, k: int, max_degree: int) -> np.ndarray:
    """Exact Hermite coefficients of a sign-table partition.

    Returns an array of shape (max_degree+1,)*n + (k,): entry [S] is
    E[1{f = j} H_S].  The orthant cells factor over coordinates, so the
    coefficient tensor is the one-hot table contracted axis by axis with
    the two half-line coefficient vectors.
    """
    half = np.stack([halfline_coeffs(-np.inf, 0.0, max_degree), halfline_coeffs(0.0, np.inf, max_degree)])
    onehot = np.zeros((1 << n, k))
    onehot[np.arange(1 << n), table - 1] = 1.0
    # reshape so axis i is bit i: index = sum bit_i 2^i, C order -> reverse
    out = onehot.reshape((2,) * n + (k,))
    out = np.moveaxis(out, list(range(n)), list(range(n - 1, -1, -1)))
    for _ in range(n):
        out = np.tensordot(out, half, axes=([0], [0]))  # appends degree axis last
    return np.moveaxis(out, 0, -1)


def ptf_values(polys, X: np.ndarray) -> np.ndarray:
    """Values of degree <= 2 chaos polynomials, from their coefficients.

    p(x) = c + <a, x> + (x^T H x - tr H)/sqrt(2) for chaos components
    a (order 1) and H (order 2).
    """
    out = np.empty((X.shape[0], len(polys)))
    for j, p in enumerate(polys):
        if any(q > 2 for q in p.chaos):
            raise ValueError("reference evaluation handles degree <= 2")
        v = np.full(X.shape[0], p.constant)
        if 1 in p.chaos:
            v = v + X @ np.asarray(p.chaos[1].array)
        if 2 in p.chaos:
            H = np.asarray(p.chaos[2].array)
            v = v + (np.einsum("ni,ij,nj->n", X, H, X) - np.trace(H)) / math.sqrt(2.0)
        out[:, j] = v
    return out


def ptf_labels(polys, X: np.ndarray) -> np.ndarray:
    """Label j when p_j alone is positive, else label 1."""
    pos = ptf_values(polys, X) > 0.0
    count = pos.sum(axis=1)
    return np.where(count == 1, pos.argmax(axis=1) + 1, 1)


def smoothed_ptf_reference(polys, t: float, X: np.ndarray, order: int = 128, chunk: int = 64,
                           rows: int = 2048) -> np.ndarray:
    """(P_t 1{f = j})(x) on a tensor Gauss-Hermite rule of the given order.

    The reference for the generic smoothing route: the same integral on a
    rule built here, with the PTF labels evaluated from the polynomial
    coefficients.  Points and nodes are processed in blocks of ``rows``
    by ``chunk``, so the oracle's memory stays below the workload's and
    does not set the run's peak RSS.
    """
    if X.shape[0] > rows:
        return np.concatenate([smoothed_ptf_reference(polys, t, X[lo : lo + rows], order, chunk, rows)
                               for lo in range(0, X.shape[0], rows)])
    n = X.shape[1]
    k = len(polys)
    rho = math.exp(-t)
    sigma = math.sqrt(1.0 - rho * rho)
    nodes, weights = quadrature_rule(order)
    grid = np.stack(np.meshgrid(*([nodes] * n), indexing="ij"), axis=-1).reshape(-1, n)
    w = weights
    for _ in range(n - 1):
        w = np.multiply.outer(w, weights)
    w = w.reshape(-1)
    out = np.zeros((X.shape[0], k))
    base = rho * X
    for lo in range(0, grid.shape[0], chunk):
        g = grid[lo : lo + chunk]
        pts = (base[:, None, :] + sigma * g[None, :, :]).reshape(-1, n)
        lab = ptf_labels(polys, pts).reshape(X.shape[0], -1)
        for j in range(k):
            out[:, j] += (lab == j + 1) @ w[lo : lo + chunk]
    return out


def slab_labels(breakpoints, labels, axis: int, X: np.ndarray) -> np.ndarray:
    """Label of interval (b_{j-1}, b_j] holding x_axis."""
    return np.asarray(labels)[np.searchsorted(np.asarray(breakpoints, float), X[:, axis], side="left")]


def sign_table_labels(table: np.ndarray, n: int, X: np.ndarray) -> np.ndarray:
    return np.asarray(table)[(X[:, :n] > 0.0).astype(np.int64) @ (1 << np.arange(n))]


def unmatched_slack(F: np.ndarray, target) -> float:
    """Bound on the measure slack of a threshold search that returns its
    best iterate, the first iterate being the unshifted rounding argmax F.

    The l1 gap between that rounding's measures and the target, plus twice
    the mass of points whose two largest entries are within 1e-9, whose
    label a rounding difference between two smoothings of the same sample
    can flip, plus 1e-12 for the order of the float sums.
    """
    F = np.asarray(F, float)
    k = F.shape[1]
    mu = np.bincount(np.argmax(F, axis=1), minlength=k) / F.shape[0]
    top = np.sort(F, axis=1)[:, -2:]
    tied = float(np.mean(top[:, 1] - top[:, 0] <= 1e-9))
    return float(np.abs(mu - np.asarray(target, float)).sum()) + 2.0 * tied + 1e-12


def poly_moments(p, q, n: int) -> tuple[float, float]:
    """E[p q] and Var(p q) for degree <= 2 polynomials, by an exact rule.

    (p q)^2 has degree <= 8, which an order-5 tensor rule integrates
    exactly against the standard Gaussian.
    """
    nodes, weights = quadrature_rule(5)
    grid = np.stack(np.meshgrid(*([nodes] * n), indexing="ij"), axis=-1).reshape(-1, n)
    w = weights
    for _ in range(n - 1):
        w = np.multiply.outer(w, weights)
    w = w.reshape(-1)
    vals = ptf_values([p, q], grid)
    prod = vals[:, 0] * vals[:, 1]
    mean = float(w @ prod)
    return mean, float(w @ prod**2) - mean**2


# ---------------------------------------------------------------------------
# the discrete cube


def dictator_stability(rho: float) -> float:
    return (1.0 + rho) / 2.0


def majority_stability(n: int, rho: float) -> float:
    """Pr[Maj(x) = Maj(y)] for rho-correlated bits, odd n.

    x has K ones, K ~ Bin(n, 1/2); each bit flips with p = (1-rho)/2, so
    y has K - A + B ones with A ~ Bin(K, p), B ~ Bin(n-K, p) independent:
    a convolution of two binomials for each K.
    """
    p = (1.0 - rho) / 2.0

    def binom(m):
        return np.array([math.comb(m, i) * p**i * (1 - p) ** (m - i) for i in range(m + 1)])

    ones = np.arange(n + 1)
    total = 0.0
    for K in range(n + 1):
        dist = np.convolve(binom(K)[::-1], binom(n - K))  # index = K - A + B
        same = (2 * ones > n) == (2 * K > n)
        total += math.comb(n, K) / 2.0**n * float(dist[same].sum())
    return total


def majority_influence(n: int) -> float:
    """Influence of each bit on the simplex embedding of majority."""
    return math.comb(n - 1, (n - 1) // 2) / 2.0**n


def cube_noise_stability(table: np.ndarray, n: int, k: int, rho: float) -> float:
    """sum_j <1{f=j}, T_rho 1{f=j}> / 2^n with T_rho applied axis by axis."""
    T = np.array([[1 + rho, 1 - rho], [1 - rho, 1 + rho]]) / 2.0
    onehot = np.zeros((1 << n, k))
    onehot[np.arange(1 << n), table - 1] = 1.0
    cur = onehot.reshape((2,) * n + (k,))
    for axis in range(n):
        cur = np.moveaxis(np.tensordot(T, cur, axes=([1], [axis])), 0, axis)
    return float((cur.reshape(-1, k) * onehot).sum() / (1 << n))


def cube_flip_influences(table: np.ndarray, n: int) -> np.ndarray:
    """Pr[f(x) != f(x with bit i flipped)] / 2: the embedding influence."""
    idx = np.arange(1 << n)
    return np.array([np.mean(table != table[idx ^ (1 << i)]) / 2.0 for i in range(n)])


# ---------------------------------------------------------------------------
# finite sources


def block_halfspace_agreement(P: np.ndarray, values_a, values_b, ell: int, dither: float = 1e-9) -> float:
    """Exact Pr[f = g] for ell-block strategies on a binary source.

    Both strategies label by the sign of the block sum / sqrt(ell) plus a
    dither from one extra symbol pair (label 1 when <= 0), as
    ``block_strategy(Halfspace([0], [1]), values, ell, tie_break=True)``.
    The pair (count of symbol 0 in x, in y) is a sum of ell independent
    draws, so its law is an ell-fold 2-D convolution.
    """
    pmf = np.zeros((1, 1))
    pmf[0, 0] = 1.0
    for _ in range(ell):
        new = np.zeros((pmf.shape[0] + 1, pmf.shape[1] + 1))
        for a in range(2):
            for b in range(2):
                # a symbol 0 on a side raises that side's count by one
                new[int(a == 0) : int(a == 0) + pmf.shape[0], int(b == 0) : int(b == 0) + pmf.shape[1]] += P[a, b] * pmf
        pmf = new
    va = np.asarray(values_a, float)
    vb = np.asarray(values_b, float)
    counts = np.arange(ell + 1)
    sum_a = counts * va[0] + (ell - counts) * va[1]
    sum_b = counts * vb[0] + (ell - counts) * vb[1]
    total = 0.0
    for xe in range(2):
        for ye in range(2):
            la = (sum_a / math.sqrt(ell) + dither * va[xe]) <= 0.0
            lb = (sum_b / math.sqrt(ell) + dither * vb[ye]) <= 0.0
            total += P[xe, ye] * float(pmf[np.equal.outer(la, lb)].sum())
    return total


def maximal_correlation_svd(P: np.ndarray) -> np.ndarray:
    """Singular values of P(a,b)/sqrt(PA(a) PB(b)), leading 1 included."""
    pa, pb = P.sum(axis=1), P.sum(axis=0)
    s = np.linalg.svd(P / np.sqrt(np.outer(pa, pb)), compute_uv=False)
    return np.sort(s)[::-1][: min(P.shape)]


def ncd_enumerate(P: np.ndarray, mu, nu, k: int, n: int, delta: float) -> dict:
    """Best exact agreement over marginal-feasible table pairs, vectorized.

    Returns the best value and the enumeration sizes: tables per side,
    feasible tables per side and feasible pairs.
    """
    mA, mB = P.shape
    W = np.ones((1, 1))
    for _ in range(n):
        W = np.kron(W, P)
    sides = []
    for m, marg, target in ((mA, W.sum(axis=1), mu), (mB, W.sum(axis=0), nu)):
        tables = np.array(list(itertools.product(range(k), repeat=m**n)), dtype=np.int64)
        onehot = np.zeros(tables.shape + (k,))
        np.put_along_axis(onehot, tables[..., None], 1.0, axis=2)
        masses = np.einsum("tw,twk->tk", np.broadcast_to(marg, tables.shape), onehot)
        ok = np.abs(masses - np.asarray(target, float)).sum(axis=1) <= delta + 1e-12
        sides.append((onehot[ok], len(tables), int(ok.sum())))
    (F, total_f, nf), (G, total_g, ng) = sides
    best = 0.0
    if nf and ng:
        lifted = np.einsum("xy,fxk->fyk", W, F)
        best = float(np.einsum("fyk,gyk->fg", lifted, G).max())
    return {"best": best, "tables": total_f + total_g, "feasible": nf + ng, "pairs": nf * ng}
