"""
Threshold rounding of simplex-valued functions, measure-matching threshold
search, the smooth-then-round stability pipeline, and PTF extraction from
truncated Hermite expansions.

The rounding operator maps F: R^n -> Delta_k and a shift vector z to the
partition x -> argmax_j (F_j(x) - z_j) (ties to the smallest index, a
deterministic member of the allowed tie set).  Among all partitions with
the same cell measures, this rounding maximizes E<F, g>; applied to
F = P_t f with z chosen so the measures of f are preserved, the rounded
partition is at least as noise stable as f.  The measure-matching z are
the dual potentials of a semi-discrete transport problem; with the other
entries fixed each z_j is a quantile, so label-by-label cuts find z.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .chaos import PolyGauss
from .gauss import (
    CorrelatedSampler,
    binomial_se,
    check_distribution,
    check_tolerance,
    coupling,
    gauss_hermite_rule,
    gaussian_points,
    hermite_table,
    label_measures,
    tensor_grid,
)
from .hermite import expand, ou_on_points
from .partitions import (
    Callback,
    MultiPTF,
    PartitionFn,
    cell_grid,
    exact_expansion,
    route,
)

__all__ = [
    "ThresholdVector",
    "ThresholdSearch",
    "RoundingReport",
    "TruncationReport",
    "threshold_round",
    "round_values",
    "find_matching_threshold",
    "stability_of_rounding",
    "ptf_from_truncation",
    "smoothed_partition_values",
]


@dataclass(frozen=True)
class ThresholdVector:
    """Shift vector for rounding, normalized so the last entry is 0."""

    z: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if not np.all(np.isfinite(z)):
            raise ValueError("threshold entries must be finite")
        object.__setattr__(self, "z", z - z[-1])
        self.z.setflags(write=False)

    @property
    def k(self) -> int:
        return self.z.shape[0]


def round_values(values: np.ndarray, z: ThresholdVector | np.ndarray) -> np.ndarray:
    """argmax_j (values[:, j] - z_j) + 1, ties to the smallest index.

    A running maximum over the k columns: column j takes a point only
    where it is strictly greater, so ties stay with the smaller index,
    as with np.argmax on finite values.
    """
    zv = z.z if isinstance(z, ThresholdVector) else np.asarray(z, dtype=float)
    best = values[:, 0] - zv[0]
    labels = np.ones(values.shape[0], dtype=np.int64)
    for j in range(1, values.shape[1]):
        shifted = values[:, j] - zv[j]
        better = shifted > best
        np.putmask(labels, better, j + 1)
        np.maximum(best, shifted, out=best)
    return labels


def threshold_round(F, z: ThresholdVector, n: int, k: int, tol: float = 1e-9) -> PartitionFn:
    """Partition x -> argmax_j (F_j(x) - z_j) for simplex-valued F.

    F is a batched callable (N, n) -> (N, k); values are checked to lie in
    the simplex up to ``tol``.
    """
    if z.k != k:
        raise ValueError("threshold length must equal k")

    def labeler(X):
        vals = np.asarray(F(X), dtype=float)
        _check_simplex(vals, tol)
        return round_values(vals, z)

    return Callback(labeler, n, k)


def _check_simplex(vals: np.ndarray, tol: float) -> None:
    if vals.ndim != 2:
        raise ValueError("simplex-valued function must return (N, k) batches")
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("simplex-valued function returned a non-finite value")
    if np.any(vals < -tol) or np.any(np.abs(vals.sum(axis=1) - 1.0) > max(tol, 1e-9)):
        raise ValueError("values leave the probability simplex beyond tolerance")


@dataclass(frozen=True)
class ThresholdSearch:
    """Outcome of the measure-matching sweeps."""

    z: ThresholdVector
    measures: np.ndarray
    l1_error: float
    iterations: int
    converged: bool


_MAX_SWEEPS = 32  # label sweeps per threshold search


def _match_threshold_on_values(FX: np.ndarray, target: np.ndarray, tol: float) -> ThresholdSearch:
    """Sweeps of exact per-label cuts from z = 0.  A point takes label j
    when gap_j = F_j - max_{i != j} (F_i - z_i) exceeds z_j, so a sweep
    puts each z_j in turn midway between two distinct sorted gaps, with
    round(target_j N) points above it as nearly as tied blocks allow, then
    shifts z so that z_k = 0.  The sweeps are not monotone on tied values,
    so the best iterate is kept; the search stops at tol, on a repeated z
    or after _MAX_SWEEPS sweeps.  ``iterations`` counts the z evaluated."""
    n_samples, k = FX.shape
    counts = np.clip(np.rint(np.asarray(target) * n_samples), 0, n_samples).astype(np.int64)
    seen, best = [np.zeros(k)], None
    while True:
        mu = label_measures(round_values(FX, seen[-1]), k)
        err = float(np.abs(mu - target).sum())
        if best is None or err < best[1]:
            best = (seen[-1], err, mu)
        if err <= tol or len(seen) > _MAX_SWEEPS:
            break
        z = seen[-1].copy()
        for j in range(k):
            gap = np.sort(FX[:, j] - np.max([FX[:, i] - z[i] for i in range(k) if i != j], axis=0))
            cut = n_samples - counts[j]  # points at or below the cut
            if cut < n_samples:  # a tied block moves whole, to its nearer side
                lo, hi = np.searchsorted(gap, gap[cut], "left"), np.searchsorted(gap, gap[cut], "right")
                cut = lo if cut - lo <= hi - cut else hi
            gap = np.concatenate(([gap[0] - 2.0], gap, [gap[-1] + 2.0]))  # cuts past either end
            z[j] = (gap[cut] + gap[cut + 1]) / 2.0
        z -= z[-1]
        if any(np.array_equal(z, prev) for prev in seen):
            break
        seen.append(z)
    z, err, mu = best
    return ThresholdSearch(ThresholdVector(z), mu, err, len(seen), err <= tol)


def find_matching_threshold(
    F,
    target,
    tol: float,
    samples: int,
    seed: int,
    n: int,
) -> ThresholdSearch:
    """Find z so the rounded partition's measures match ``target`` in l1.

    F is evaluated once on a seeded sample of ``samples`` standard
    Gaussian points in R^n (common random numbers), and z
    comes from exact per-label quantile cuts on those values.  Tied values
    can put tol out of reach; the best iterate then comes back with
    ``converged`` false rather than raising.
    """
    check_tolerance(tol, "tol")
    (X,) = gaussian_points(n, samples, seed, batch=samples)
    FX = np.asarray(F(X), dtype=float)
    _check_simplex(FX, 1e-6)
    target = check_distribution(target, FX.shape[1], name="target")
    return _match_threshold_on_values(FX, target, tol)


def smoothed_partition_values(f: PartitionFn, t: float, X: np.ndarray, quad_order: int = 32) -> np.ndarray:
    """(P_t f)(x) for the simplex embedding of a partition, batched, on
    the route that partitions.route(f, "smooth") names: CellGrid.smooth
    of cell_grid(f) on the interval and sign-table routes, and the
    order-``quad_order`` tensor rule on the two quadrature routes.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rho, scale, _ = coupling(t)
    if t == 0.0:
        return f.onehot(X)
    way = route(f, "smooth")
    if way in ("interval", "sign-table"):
        return cell_grid(f).smooth(X, rho, scale)
    if way == "ptf-addition":
        return _smooth_ptf(f, rho, scale, X, quad_order)
    return ou_on_points(lambda P: f.onehot(P), t, X, quad_order=quad_order, k=f.k)


_PAIR_BLOCK_ENTRIES = 1 << 16  # (point, polynomial, node) entries per block


def _addition_tables(f: MultiPTF, rho: float, sigma: float, nodes: np.ndarray):
    """Split p_j(rho x + sigma y) = sum_T H_T(x) g_{j,T}(y) on the nodes y.

    Per coordinate, H_m(rho x + sigma y) = sum_{i<=m} sqrt(C(m, i))
    rho^i sigma^(m-i) H_i(x) H_(m-i)(y), so with p_j = sum_S c_{j,S} H_S

        g_{j,T}(y) = sum_{S >= T} c_{j,S} prod_i sqrt(C(S_i, T_i))
                     rho^T_i sigma^(S_i - T_i) H_(S_i - T_i)(y_i).

    Returns the (B, n) multi-indices T and the (B, k * M) node table,
    column j * M + m holding g_{j,T} at node m.
    """
    deg = f.degree
    table = hermite_table(deg, nodes)  # (deg + 1, M, n)
    split = [
        [math.sqrt(math.comb(m, i)) * rho**i * sigma ** (m - i) for i in range(m + 1)]
        for m in range(deg + 1)
    ]
    cols: dict[tuple[int, ...], np.ndarray] = {}
    for j, p in enumerate(f.polys):
        for S, c in p.hermite_coeffs().items():
            for T in itertools.product(*(range(s + 1) for s in S)):
                col = c
                for i, (s, r) in enumerate(zip(S, T)):
                    col = col * (split[s][r] * table[s - r, :, i])
                cols.setdefault(T, np.zeros((f.k, nodes.shape[0])))[j] += col
    index = np.array(list(cols), dtype=np.intp).reshape(-1, f.n)
    return index, np.array(list(cols.values())).reshape(len(cols), f.k * nodes.shape[0])


def _smooth_ptf(f: MultiPTF, rho: float, sigma: float, X: np.ndarray, quad_order: int) -> np.ndarray:
    """sum_m w_m onehot(f(rho x + sigma y_m)) over the order-``quad_order``
    tensor rule, for each row x of X.

    The k polynomial values at every (point, node) pair are one
    contraction of the point-side Hermite products H_T(x) with the
    node-side table of _addition_tables, so no PTF is evaluated at the
    shifted points.  Labels follow MultiPTF.label_masks, and each
    label's node weights are summed per point.  Points go in blocks of
    about _PAIR_BLOCK_ENTRIES (point, polynomial, node) entries.
    """
    if X.shape[1] != f.n:
        raise ValueError("batch dimension does not match the partition")
    nodes, weights = tensor_grid(gauss_hermite_rule(quad_order), f.n)
    index, G = _addition_tables(f, rho, sigma, nodes)
    axes = np.arange(f.n)
    deg = f.degree
    out = np.empty((X.shape[0], f.k))
    step = max(1, _PAIR_BLOCK_ENTRIES // (f.k * weights.shape[0]))
    for lo in range(0, X.shape[0], step):
        table = hermite_table(deg, X[lo : lo + step]).transpose(1, 0, 2)
        hx = table[:, index, axes].prod(axis=2)  # (points, B)
        pos = (np.einsum("xb,bm->xm", hx, G) > 0.0).reshape(hx.shape[0], f.k, -1)
        masks = MultiPTF.label_masks([pos[:, j] for j in range(f.k)])
        block = out[lo : lo + step]
        for j, mask in enumerate(masks):
            block[:, j] = np.einsum("xm,m->x", mask, weights)
    return out


def _smooth_match_round(f: PartitionFn, t: float, X, Y, target, tol: float, quad_order: int):
    """The smooth-then-round image of f on the pairs (X, Y): P_t f on both
    sides, thresholds matched to ``target`` on X, both sides rounded.
    Returns (threshold search, labels on X, labels on Y)."""
    FX = smoothed_partition_values(f, t, X, quad_order)
    FY = smoothed_partition_values(f, t, Y, quad_order)
    search = _match_threshold_on_values(FX, target, tol)
    return search, round_values(FX, search.z), round_values(FY, search.z)


@dataclass
class RoundingReport:
    """Before/after stabilities for the smooth-then-round pipeline."""

    stab_f: float
    stab_g: float
    se_f: float
    se_g: float
    z: ThresholdVector
    measures_f: np.ndarray
    measures_g: np.ndarray
    measure_slack: float
    cross: float
    t: float
    samples: int
    seed: int
    converged: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "z": self.z.z.tolist(),
                "measures_before": self.measures_f.tolist(),
                "measures_after": self.measures_g.tolist(),
                "stab_before": self.stab_f,
                "stab_after": self.stab_g,
                "se_before": self.se_f,
                "se_after": self.se_g,
                "cross": self.cross,
                "measure_slack": self.measure_slack,
                "samples": self.samples,
                "seed": self.seed,
                "converged": self.converged,
            }
        )


def stability_of_rounding(
    f: PartitionFn,
    t: float,
    tol: float = 0.01,
    samples: int = 200_000,
    seed: int = 0,
    quad_order: int = 32,
) -> RoundingReport:
    """Smooth f with P_t, round back with measure matching, compare.

    All quantities are estimated on one pair stream (X, Y), so the
    comparison stab_g >= stab_f - (measure slack + sampling error) runs
    under common random numbers.  The cross term E<g, P_t f> is reported
    for the Cauchy-Schwarz diagnostic.
    """
    rho, _, _ = coupling(t)
    if t == 0.0:
        raise ValueError("t must be > 0: at t = 0 the smoothing is f itself")
    check_tolerance(tol, "tol")
    sampler = CorrelatedSampler(f.n, rho, seed)
    X, Y = sampler.pairs(samples)
    lf_x, lf_y = f.labels(X), f.labels(Y)
    stab_f = float(np.mean(lf_x == lf_y))
    target = label_measures(lf_x, f.k)
    search, gx, gy = _smooth_match_round(f, t, X, Y, target, tol, quad_order)
    stab_g = float(np.mean(gx == gy))
    cross = float(np.mean(gx == lf_y))
    return RoundingReport(
        stab_f=stab_f,
        stab_g=stab_g,
        se_f=binomial_se(stab_f, samples),
        se_g=binomial_se(stab_g, samples),
        z=search.z,
        measures_f=target,
        measures_g=search.measures,
        measure_slack=search.l1_error,
        cross=cross,
        t=t,
        samples=samples,
        seed=seed,
        converged=search.converged,
    )


@dataclass
class TruncationReport:
    """Degree-d PTF extracted from a partition plus its quality numbers."""

    ptf: MultiPTF
    disagreement: float
    disagreement_se: float
    collision: float
    collision_se: float
    tail_mass: float
    bound: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "disagreement": self.disagreement,
                "disagreement_se": self.disagreement_se,
                "collision": self.collision,
                "collision_se": self.collision_se,
                "tail_mass": self.tail_mass,
                "bound": self.bound,
            }
        )


def _onehot_expansion(h: PartitionFn, max_degree: int, quad_order: int, shift: float = 0.0):
    """Hermite expansion to ``max_degree`` of h's one-hot embedding minus
    ``shift``, on the route partitions.route(h, "expand") names: exact on
    the interval and sign-table routes (``shift`` comes off the S = 0
    coefficient, dropped when it vanishes), and on the quadrature route an
    order-``quad_order`` tensor rule, the only route that reads it, whose
    coefficients for discontinuous integrands carry O(1/sqrt(order))
    errors at cell boundaries in general position.
    """
    if route(h, "expand") == "quadrature":
        return expand(lambda X: h.onehot(X) - shift, h.n, max_degree, quad_order=quad_order, k=h.k)
    emb = exact_expansion(h, max_degree)
    if shift:
        zero = (0,) * h.n
        center = emb.coeffs.get(zero, np.zeros(h.k)) - shift
        emb.coeffs[zero] = center
        if np.linalg.norm(center) < 1e-14:
            del emb.coeffs[zero]
    return emb


def ptf_from_truncation(
    h: PartitionFn,
    d: int,
    quad_order: int = 64,
    samples: int = 200_000,
    seed: int = 0,
) -> TruncationReport:
    """PTF from the degree-d truncation of the centered embedding of h.

    Expands h - (1/k) 1 coordinatewise to degree d, uses the k coordinate
    polynomials as the PTF, and measures how often the PTF disagrees with
    h and how often it collides.  Both rates are controlled by
    k^2 * W^{>d}[h], with the tail mass computed from the exact total
    embedding mass 1 - 1/k minus the stored coefficient mass.

    The expansion is that of ``_onehot_expansion`` with shift 1/k.
    """
    points = gaussian_points(h.n, samples, seed, batch=samples)  # checks samples now, draws below
    k = h.k
    emb = _onehot_expansion(h, d, quad_order, shift=1.0 / k)
    per_label: list[dict[tuple[int, ...], float]] = [dict() for _ in range(k)]
    for S, c in emb.coeffs.items():
        for j in range(k):
            if c[j] != 0.0:
                per_label[j][S] = float(c[j])
    polys = [PolyGauss.from_hermite_coeffs(h.n, coeffs) for coeffs in per_label]
    g = MultiPTF(polys)
    tail = (1.0 - 1.0 / k) - emb.norm2()
    (Xs,) = points
    positive = g.positive_sets(Xs)
    glab = MultiPTF.labels_from_positive(positive)
    hlab = h.labels(Xs)
    dis = float(np.mean(glab != hlab))
    col = float(np.mean(MultiPTF.positive_count(positive) != 1))
    return TruncationReport(
        ptf=g,
        disagreement=dis,
        disagreement_se=binomial_se(dis, samples),
        collision=col,
        collision_se=binomial_se(col, samples),
        tail_mass=max(tail, 0.0),
        bound=k**2 * max(tail, 0.0),
    )
