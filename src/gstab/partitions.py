"""
k-ary partitions of Gaussian space, Monte Carlo estimation of their cell
measures and noise stability, and the one cell grid (CellGrid) of interval
partitions and sign tables, whose three per-axis kernels give their exact
smoothing, Hermite expansion and joint cells.

Partition variants: halfspaces, one-dimensional slab arrangements,
multivariate polynomial threshold functions (PTFs), sign-pattern tables,
and arbitrary callbacks.  A multivariate PTF labels x with j when p_j(x)>0
and every other p_i(x)<=0, and falls back to label 1 otherwise; the inputs
where the number of positive polynomials is not exactly one form the
collision set.

Stability conventions.  For the simplex embedding of a partition f,

    agreement stability   Pr[f(X) = f(Y)] = E<f, P_t f>,
    cell stability (j)    Pr[f(X) = j and f(Y) = j],

with (X, Y) exp(-t)-correlated.  The agreement form is the partition-level
objective (1 at t=0, sum mu_i^2 at independence); the cell form is the
indicator-function stability of a single part, e.g. 1/4 + asin(rho)/(2 pi)
for a median halfspace cell.  Estimators for both share one coupled
sampler so seeded comparisons use common random numbers.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .chaos import PolyGauss
from .cube import CubeFn
from .gauss import (
    MAX_QUADRATURE_DIM,
    CorrelatedSampler,
    binomial_se,
    bvn_cdf,
    contract_axes,
    coupling,
    gaussian_points,
    hermite_table,
)
from .hermite import HermiteExpansion, degree_indices
from .tensors import SymmetricTensor

__all__ = [
    "PartitionFn",
    "Halfspace",
    "Slabs",
    "MultiPTF",
    "Tabulated",
    "Callback",
    "StabEstimate",
    "MeasureVector",
    "estimate_measures",
    "estimate_stability",
    "estimate_cell_stability",
    "estimate_cross_stability",
    "collision_probability",
    "balance",
    "sheppard_orthant",
    "quad_joint_cells_1d",
    "CellGrid",
    "cell_grid",
    "route",
    "exact_expansion",
    "partition_to_json",
    "partition_from_json",
    "random_balanced_slabs",
    "equal_slabs",
]

DEFAULT_BATCH = 1 << 19


@dataclass(frozen=True)
class StabEstimate:
    value: float
    std_error: float
    samples: int
    t: float
    seed: int


@dataclass(frozen=True)
class MeasureVector:
    mu: np.ndarray
    std_error: np.ndarray


class PartitionFn:
    """Base class; subclasses label batches of points with 1..k."""

    n: int
    k: int
    kind: str

    def labels(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def label(self, x) -> int:
        """Label of a single point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[0] != self.n:
            raise ValueError(f"point dimension {x.shape[0]} != partition dimension {self.n}")
        return int(self.labels(x[None, :])[0])

    def onehot(self, X: np.ndarray) -> np.ndarray:
        lab = self.labels(X)
        out = np.zeros((lab.shape[0], self.k))
        out[np.arange(lab.shape[0]), lab - 1] = 1.0
        return out

    def payload(self) -> dict:
        raise NotImplementedError


class Halfspace(PartitionFn):
    """Two-part partition: label 1 where <x - a, b> <= 0, that is, where
    <x, b> <= <a, b>."""

    kind = "halfspace"

    def __init__(self, a, b):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must have the same dimension")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("halfspace a and b must be finite")
        if not np.any(self.b != 0.0):
            raise ValueError("normal vector must be nonzero")
        self.n = self.a.shape[0]
        self.k = 2
        self._offset = float(np.einsum("i,i->", self.a, self.b))

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s = np.einsum("xi,i->x", X, self.b)
        return np.where(s <= self._offset, 1, 2).astype(np.int64)

    def payload(self) -> dict:
        return {"a": self.a.tolist(), "b": self.b.tolist()}


class Slabs(PartitionFn):
    """Partition by intervals of one coordinate.

    ``breakpoints`` are strictly increasing; ``labels`` assigns a label to
    each of the len(breakpoints)+1 intervals (left-closed on the right
    endpoint: interval j is (b_{j-1}, b_j]).
    """

    kind = "slabs"

    def __init__(self, axis: int, breakpoints, labels=None, n: int | None = None, k: int | None = None):
        self.axis = int(axis)
        self.breakpoints = np.atleast_1d(np.asarray(breakpoints, dtype=float))
        if not np.all(np.isfinite(self.breakpoints)):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if labels is None:
            labels = list(range(1, self.breakpoints.size + 2))
        self.interval_labels = np.asarray(labels, dtype=np.int64)
        if self.interval_labels.size != self.breakpoints.size + 1:
            raise ValueError("need one label per interval")
        self.n = n if n is not None else self.axis + 1
        if self.axis >= self.n:
            raise ValueError("axis outside dimension")
        self.k = k if k is not None else int(self.interval_labels.max())
        if np.any(self.interval_labels < 1) or np.any(self.interval_labels > self.k):
            raise ValueError("labels must lie in 1..k")

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        idx = np.searchsorted(self.breakpoints, X[:, self.axis], side="left")
        return self.interval_labels[idx]

    def payload(self) -> dict:
        return {
            "axis": self.axis,
            "breakpoints": self.breakpoints.tolist(),
            "labels": self.interval_labels.tolist(),
            "n": self.n,
            "k": self.k,
        }


class MultiPTF(PartitionFn):
    """Multivariate polynomial threshold partition.

    Label j iff p_j(x) > 0 and p_i(x) <= 0 for every i != j; otherwise
    label 1 (this covers both the all-nonpositive and the multi-positive
    collision cases).
    """

    kind = "ptf"

    def __init__(self, polys: list[PolyGauss]):
        if not polys:
            raise ValueError("need at least one polynomial")
        self.polys = list(polys)
        self.n = polys[0].n
        if any(p.n != self.n for p in polys):
            raise ValueError("polynomials live on different dimensions")
        self.k = len(polys)

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.polys)

    def positive_sets(self, X: np.ndarray) -> list[np.ndarray]:
        """The bitmaps p_j(X) > 0, one per polynomial."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return [p.eval_many(X) > 0.0 for p in self.polys]

    @staticmethod
    def positive_count(positive: list[np.ndarray]) -> np.ndarray:
        """How many of the bitmaps hold each point, in the narrowest
        unsigned dtype that holds their number."""
        count = positive[0].astype(np.min_scalar_type(len(positive)))
        for pos in positive[1:]:
            count += pos
        return count

    @staticmethod
    def label_masks(positive: list[np.ndarray]) -> list[np.ndarray]:
        """The labelling rule on the bitmaps p_j > 0, as one mask per
        label: j where p_j alone is positive, 1 elsewhere."""
        alone = MultiPTF.positive_count(positive) == 1
        return [~alone | positive[0]] + [pos & alone for pos in positive[1:]]

    @staticmethod
    def labels_from_positive(positive: list[np.ndarray], dtype=np.int64) -> np.ndarray:
        """Labels 1..k from the bitmaps p_j > 0, by label_masks."""
        masks = MultiPTF.label_masks(positive)
        labels = np.ones(masks[0].shape, dtype=dtype)
        for j, mask in enumerate(masks[1:], start=2):
            np.putmask(labels, mask, j)
        return labels

    def labels(self, X: np.ndarray) -> np.ndarray:
        return self.labels_from_positive(self.positive_sets(X))

    def collisions(self, X: np.ndarray) -> np.ndarray:
        return self.positive_count(self.positive_sets(X)) != 1

    def payload(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "polys": [
                {
                    "constant": p.constant,
                    "chaos": [json.loads(t.to_json()) for t in p.chaos.values()],
                }
                for p in self.polys
            ],
        }


class Tabulated(PartitionFn):
    """Partition by the sign pattern of x looked up in a cube table."""

    kind = "tabulated"

    def __init__(self, cube: CubeFn):
        self.cube = cube
        self.n = cube.n
        self.k = cube.k

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        bits = (X > 0.0).astype(np.int64)
        idx = bits @ (1 << np.arange(self.n, dtype=np.int64))
        return self.cube.table[idx]

    def payload(self) -> dict:
        return {"cube": json.loads(self.cube.to_json())}


class Callback(PartitionFn):
    """Arbitrary labeling function (batched (N, n) -> (N,) of 1..k)."""

    kind = "callback"

    def __init__(self, fn, n: int, k: int):
        self.fn = fn
        self.n = n
        self.k = k

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lab = np.asarray(self.fn(X), dtype=np.int64)
        if lab.shape != (X.shape[0],):
            raise ValueError("callback returned a bad shape")
        return lab

    def payload(self) -> dict:
        raise ValueError("callback partitions are not serializable")


def estimate_measures(f: PartitionFn, samples: int, seed: int, batch: int = DEFAULT_BATCH) -> MeasureVector:
    """Empirical cell frequencies with per-label binomial standard errors."""
    if samples < 100:
        raise ValueError("samples must be >= 100")
    counts = np.zeros(f.k)
    for X in gaussian_points(f.n, samples, seed, batch):
        lab = f.labels(X)
        counts += np.bincount(lab, minlength=f.k + 1)[1:]
    mu = counts / samples
    return MeasureVector(mu, binomial_se(mu, samples))


def _agreement(f, g, t, rho, samples, seed, batch, cell=None):
    rho, _, t = coupling(t, rho)
    sampler = CorrelatedSampler(f.n, rho, seed)
    hits = 0
    for X, Y in sampler.pair_batches(samples, batch):
        lx, ly = f.labels(X), g.labels(Y)
        if cell is None:
            hits += int(np.count_nonzero(lx == ly))
        else:
            hits += int(np.count_nonzero((lx == cell) & (ly == cell)))
    value = hits / samples
    return StabEstimate(value, binomial_se(value, samples), samples, t, seed)


def estimate_stability(f: PartitionFn, t: float | None, samples: int, seed: int, rho: float | None = None, batch: int = DEFAULT_BATCH) -> StabEstimate:
    """Agreement stability Pr[f(X) = f(Y)] under the exp(-t) coupling."""
    return _agreement(f, f, t, rho, samples, seed, batch)


def estimate_cell_stability(f: PartitionFn, label: int, t: float | None, samples: int, seed: int, rho: float | None = None, batch: int = DEFAULT_BATCH) -> StabEstimate:
    """Cell stability Pr[f(X) = label and f(Y) = label]."""
    if not 1 <= label <= f.k:
        raise ValueError("label out of range")
    return _agreement(f, f, t, rho, samples, seed, batch, cell=label)


def estimate_cross_stability(f: PartitionFn, g: PartitionFn, t: float | None, samples: int, seed: int, rho: float | None = None, batch: int = DEFAULT_BATCH) -> StabEstimate:
    """Pr[f(X) = g(Y)] under the same coupling."""
    if f.k != g.k or f.n != g.n:
        raise ValueError("partitions must share k and n")
    return _agreement(f, g, t, rho, samples, seed, batch)


def collision_probability(f: MultiPTF, samples: int, seed: int, batch: int = DEFAULT_BATCH) -> StabEstimate:
    """Pr[#{j : p_j(x) > 0} != 1] for a PTF partition."""
    if not isinstance(f, MultiPTF):
        raise ValueError("collision probability is defined for PTF partitions")
    hits = 0
    for X in gaussian_points(f.n, samples, seed, batch):
        hits += int(np.count_nonzero(f.collisions(X)))
    value = hits / samples
    return StabEstimate(value, binomial_se(value, samples), samples, 0.0, seed)


def balance(f: MultiPTF, delta: float) -> MultiPTF:
    """Rescale defining polynomials to variance 1 and clamp large means.

    Means exceeding log^{d/2}(k d / delta) in absolute value are pulled to
    that bound by a constant shift, which changes the partition on a small
    fraction of space while fixing the scale ambiguity of the PTF.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    d = max(1, f.degree)
    bound = math.log(f.k * d / delta) ** (d / 2.0)
    out = []
    for p in f.polys:
        var = p.variance()
        if var <= 0.0:
            raise ValueError("balance requires positive-variance polynomials")
        q = p.scale(1.0 / math.sqrt(var))
        mean = q.mean()
        if abs(mean) > bound:
            q = q.shift(math.copysign(bound, mean) - mean)
        out.append(q)
    return MultiPTF(out)


# ---------------------------------------------------------------------------
# Cell grids: partitions that are label tables over a product of intervals,
# with their exact smoothing, Hermite expansion and joint cells


_BLOCK_ENTRIES = 1 << 20  # array entries per block of points in CellGrid.smooth


@dataclass(frozen=True)
class CellGrid:
    """A partition as a label table over a product of intervals: axis a
    (row a of ``axes``, orthonormal rows in R^n) is cut at the increasing
    finite ``cuts[a]`` into intervals (c_{j-1}, c_j], and table axis a runs
    over them, labels in 1..k.  The projections <axes[a], x> of a standard
    Gaussian are independent standard normals, so each exact operation
    contracts the one-hot table with one per-axis kernel of the cuts:
    interval probabilities, Hermite coefficients or bvn_cdf rectangles.
    """

    axes: np.ndarray
    cuts: tuple[np.ndarray, ...]
    table: np.ndarray
    k: int

    @property
    def coordinate(self) -> bool:
        """Whether the axes are the n coordinate axes, in order."""
        n = self.axes.shape[1]
        return self.axes.shape[0] == n and np.array_equal(self.axes, np.eye(n))

    def onehot(self) -> np.ndarray:
        return np.eye(self.k)[self.table - 1]

    def labels(self, X: np.ndarray) -> np.ndarray:
        proj = np.einsum("xi,ai->ax", np.atleast_2d(X), self.axes)
        return self.table[tuple(np.searchsorted(c, s) for c, s in zip(self.cuts, proj))]

    def smooth(self, X: np.ndarray, rho: float, sigma: float) -> np.ndarray:
        """sum over cells of the one-hot label times prod_a Pr[rho <axes[a],
        x> + sigma Z_a in the cell's interval], for each row x of X.  With
        the axes walked last to first (a sign table's bit-pattern order),
        the table is contracted over the low half of them against products
        of their interval probabilities, then over the high half point by
        point, in blocks of about _BLOCK_ENTRIES entries."""
        low = (len(self.cuts) + 1) // 2
        hot = self.onehot()
        hot = hot.transpose(tuple(range(hot.ndim - 2, -1, -1)) + (hot.ndim - 1,))
        n_high = math.prod(hot.shape[: -low - 1])  # cells over the high axes
        table = hot.reshape(n_high, -1, self.k)
        out = np.empty((X.shape[0], self.k))
        step = max(1, _BLOCK_ENTRIES // (n_high * self.k + table.shape[1]))
        for lo in range(0, X.shape[0], step):
            block = X[lo : lo + step]
            proj = rho * (block.T if self.coordinate else np.einsum("xi,ai->ax", block, self.axes))
            partial = np.einsum("hlk,lx->hkx", table, _cell_weights(proj, self.cuts, sigma, range(low - 1, -1, -1)))
            w_high = _cell_weights(proj, self.cuts, sigma, range(len(self.cuts) - 1, low - 1, -1))
            out[lo : lo + step] = np.einsum("hx,hkx->xk", w_high, partial)
        return out

    def expansion(self, max_degree: int) -> HermiteExpansion:
        """Exact Hermite expansion of the one-hot embedding to
        ``max_degree``.  On the coordinate axes, one contraction of the
        table with each axis's interval coefficients; on a single other
        axis u, the chaos of g(<u, x>) spreads each 1-D coefficient over
        the degree-q rank-one pattern u^S sqrt(q!/prod S_i!)."""
        n, coordinate = self.axes.shape[1], self.coordinate
        blocks = [_interval_hermite(c, max_degree) for c in self.cuts]
        full = contract_axes(self.onehot(), blocks, len(blocks))
        if not coordinate:
            (u,) = self.axes
        indices = degree_indices(n, max_degree)
        vecs = [full[S] if coordinate else _rank_one_spread(full[sum(S)], u, S) for S in indices]
        keep = np.linalg.norm(vecs, axis=1) >= 1e-14
        return HermiteExpansion(n, self.k, max_degree, {S: v for S, v, ok in zip(indices, vecs, keep) if ok})

    def joint_cells(self, rho: float) -> np.ndarray:
        """J[i, j] = Pr[f(X) = i+1, f(Y) = j+1] for rho-correlated X, Y:
        per axis, the projections are rho-correlated normals, so the table
        is contracted with each axis's bvn_cdf rectangles."""
        hot = self.onehot()
        rects = [_interval_rectangles(c, rho) for c in self.cuts]
        moved = contract_axes(hot, rects, len(rects)).reshape(-1, self.k)
        return moved.T @ hot.reshape(-1, self.k)


def _rank_one_spread(c: np.ndarray, u: np.ndarray, S: tuple[int, ...]) -> np.ndarray:
    """c sqrt(q!/prod S_i!) u^S, q = |S|: the H_S part of c H_q(<u, x>)."""
    factor = math.sqrt(math.factorial(sum(S)))
    for s in S:
        factor /= math.sqrt(math.factorial(s))
    return c * factor * np.prod([u[i] ** s for i, s in enumerate(S)])


def _interval_probs(s: np.ndarray, cuts: np.ndarray, sigma: float) -> np.ndarray:
    """(m, N) probabilities that s + sigma Z falls in each interval, from
    the survival function Pr[s + sigma Z > c]: one ndtr per finite cut."""
    surv = np.empty((cuts.shape[0] + 2, s.shape[0]))
    surv[0], surv[-1] = 1.0, 0.0
    inner = surv[1:-1]
    np.subtract(s, cuts[:, None], out=inner)
    inner /= sigma
    ndtr(inner, out=inner)
    return surv[:-1] - surv[1:]


def _cell_weights(proj: np.ndarray, cuts, sigma: float, axes) -> np.ndarray:
    """(prod m_a, N) products over ``axes`` of the interval probabilities
    of rows proj[a] of the (A, N) projections, rows in C order over
    ``axes`` (the first one slowest), made one axis at a time."""
    w = None
    for a in axes:
        p = _interval_probs(proj[a], cuts[a], sigma)
        w = p if w is None else (w[:, None, :] * p[None, :, :]).reshape(-1, p.shape[1])
    return np.ones((1, proj.shape[1])) if w is None else w


def _interval_hermite(cuts: np.ndarray, max_degree: int) -> np.ndarray:
    """(m, max_degree + 1) exact Hermite coefficients E[1_(a,b] H_q] of
    the intervals cut at ``cuts``: Phi(b) - Phi(a) at q = 0 and, from
    d/dx [H_{q-1}(x) phi(x)] = -sqrt(q) H_q(x) phi(x),
    (H_{q-1} phi)(a) - (H_{q-1} phi)(b) over sqrt(q), zero at infinite ends."""
    at = np.zeros((cuts.shape[0] + 2, max_degree + 1))  # Phi, then H_{q-1} phi, at the edges
    at[-1, 0] = 1.0
    at[1:-1, 0] = ndtr(cuts)
    phi = np.exp(-cuts * cuts / 2) / math.sqrt(2 * math.pi)
    at[1:-1, 1:] = (hermite_table(max_degree, cuts)[:max_degree] * phi).T
    out = at[:-1] - at[1:]
    out[:, 0] *= -1.0
    out[:, 1:] /= np.sqrt(np.arange(1, max_degree + 1))
    return out


def _interval_rectangles(cuts: np.ndarray, rho: float) -> np.ndarray:
    """(m, m) Pr[X in interval i, Y in interval j] for rho-correlated
    standard normals: rectangles of bvn_cdf on the edge grid."""
    edges = np.concatenate(([-np.inf], cuts, [np.inf]))
    return np.diff(np.diff(bvn_cdf(edges[:, None], edges[None, :], rho), axis=0), axis=1)


def _real_roots_1d(p: PolyGauss) -> np.ndarray:
    mono = p.to_monomial()
    deg = max((e[0] for e in mono), default=0)
    coeffs = np.zeros(deg + 1)
    for e, c in mono.items():
        coeffs[e[0]] = c
    poly = np.polynomial.Polynomial(coeffs)
    if poly.degree() < 1:
        return np.empty(0)
    roots = poly.roots()
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    if real.size == 0:
        return real
    keep = [real[0]]
    for r in real[1:]:
        if r - keep[-1] > 1e-12:
            keep.append(r)
    return np.asarray(keep)


def _interval_structured(f: PartitionFn) -> bool:
    return isinstance(f, (Slabs, Halfspace)) or (isinstance(f, MultiPTF) and f.n == 1)


def cell_grid(f: PartitionFn) -> CellGrid | None:
    """f as a CellGrid, when it is one.  A sign table takes the n
    coordinate axes, each cut at 0 (axis i = coordinate i).  Slabs,
    halfspaces and 1-D PTFs take one axis: the slab coordinate, the unit
    normal cut at <a, b>/|b|, or the line cut at the real roots of the
    defining polynomials where the label changes.
    """
    if isinstance(f, Tabulated):
        # C-order axes of the reshaped table run from bit n-1 down to bit
        # 0; reverse them so axis i is coordinate i
        table = f.cube.table.reshape((2,) * f.n).transpose(tuple(range(f.n - 1, -1, -1)))
        return CellGrid(np.eye(f.n), (np.zeros(1),) * f.n, table, f.k)
    if not _interval_structured(f):
        return None
    if isinstance(f, Slabs):
        return CellGrid(np.eye(f.n)[f.axis : f.axis + 1], (f.breakpoints,), f.interval_labels, f.k)
    if isinstance(f, Halfspace):
        norm = float(np.linalg.norm(f.b))
        return CellGrid((f.b / norm)[None, :], (np.array([float(np.dot(f.a, f.b)) / norm]),), np.array([1, 2]), 2)
    cuts = np.unique(np.concatenate([_real_roots_1d(p) for p in f.polys]))
    inside = np.r_[cuts[:1] - 1.0, (cuts[:-1] + cuts[1:]) / 2, cuts[-1:] + 1.0] if cuts.size else np.zeros(1)
    cuts, labels = _merge_runs(cuts, f.labels(inside[:, None]))
    return CellGrid(np.ones((1, 1)), (cuts,), labels, f.k)


def _merge_runs(cuts: np.ndarray, labels: np.ndarray):
    """Intervals labelled ``labels``, between consecutive ``cuts``, with
    the cuts between equal labels dropped: (cuts, labels) of the runs."""
    change = labels[1:] != labels[:-1]
    return cuts[change], labels[np.r_[True, change]]


MAX_SIGN_TABLE_EXPAND_DIM = 6  # largest n whose sign table expands exactly


def route(f: PartitionFn, op: str) -> str:
    """The one choice of route for ``op`` on f: "smooth" (P_t of the
    simplex embedding on points, rounding.smoothed_partition_values) or
    "expand" (Hermite coefficients of the one-hot embedding by
    exact_expansion, or by hermite.expand on "quadrature").

    "interval" (slabs, halfspaces and 1-D PTFs: one axis) and
    "sign-table" (the n coordinate axes, each cut at 0) run the kernels
    of cell_grid(f): closed forms for both ops, the sign-table expansion
    up to MAX_SIGN_TABLE_EXPAND_DIM.  "ptf-addition": smoothing a PTF on
    the tensor rule, its polynomials split by the Hermite addition
    formula.  "quadrature": f at every node of the tensor rule.  These
    two converge slowly across cell boundaries and need
    n <= MAX_QUADRATURE_DIM.  Raises ValueError where no route applies.
    """
    if op not in ("smooth", "expand"):
        raise ValueError(f"unknown operation {op!r}")
    if _interval_structured(f):
        return "interval"
    if isinstance(f, Tabulated) and (op == "smooth" or f.n <= MAX_SIGN_TABLE_EXPAND_DIM):
        return "sign-table"
    if f.n > MAX_QUADRATURE_DIM:
        raise ValueError(
            f"no {op} route for a {f.kind} partition on n={f.n}: quadrature "
            f"is limited to n <= {MAX_QUADRATURE_DIM}"
        )
    return "ptf-addition" if op == "smooth" and isinstance(f, MultiPTF) else "quadrature"


def exact_expansion(f: PartitionFn, max_degree: int):
    """Exact Hermite expansion of the one-hot embedding of f, on the
    route that route(f, "expand") names: CellGrid.expansion of
    cell_grid(f).  Raises ValueError on the quadrature route and where
    route raises.
    """
    way = route(f, "expand")
    if way == "quadrature":
        raise ValueError(f"no exact expansion for a {f.kind} partition: its route is {way!r}")
    return cell_grid(f).expansion(max_degree)


# ---------------------------------------------------------------------------
# Exact joint cells: the bivariate normal law on cell grids


def sheppard_orthant(rho: float) -> float:
    """Pr[X <= 0, Y <= 0] for rho-correlated standard normals."""
    return float(bvn_cdf(0.0, 0.0, rho))


def quad_joint_cells_1d(f: PartitionFn, rho: float) -> np.ndarray:
    """Exact joint cell matrix J[i, j] = Pr[f(X)=i+1, f(Y)=j+1] of a
    partition with a cell grid (slabs, halfspaces, 1-D PTFs, sign tables)
    at any rho: CellGrid.joint_cells.  trace(J) is the agreement
    stability."""
    grid = cell_grid(f)
    if grid is None:
        raise ValueError("joint cells need an interval or sign-table partition")
    return grid.joint_cells(rho)


# ---------------------------------------------------------------------------
# Constructors and serialization


def equal_slabs(k: int, axis: int = 0, n: int = 1) -> Slabs:
    """k parallel slabs of equal Gaussian measure."""
    cuts = ndtri(np.arange(1, k) / k)
    return Slabs(axis, cuts, list(range(1, k + 1)), n=n, k=k)


def random_balanced_slabs(rng: np.random.Generator, k: int = 2, pieces: int = 4, n: int = 1, axis: int = 0) -> Slabs:
    """Random slab arrangement with exactly equal cell measures.

    Random interval lengths are drawn in Phi-space per label and
    renormalized so each label covers mass 1/k, then interleaved in random
    label order (each label's lengths taken last first) and mapped through
    the Gaussian quantile function, merging runs of one label.
    """
    if pieces < 1:
        raise ValueError(f"pieces must be >= 1, got {pieces}")
    lengths = np.stack([rng.random(pieces) for _ in range(k)])
    lengths = lengths / lengths.sum(axis=1, keepdims=True) / k
    order = rng.permutation(np.repeat(np.arange(1, k + 1), pieces))
    seg = np.empty(k * pieces)
    seg[np.argsort(order, kind="stable")] = lengths[:, ::-1].ravel()
    cuts, labels = _merge_runs(np.cumsum(seg)[:-1], order)
    return Slabs(axis, ndtri(cuts), labels, n=n, k=k)


def partition_to_json(f: PartitionFn) -> str:
    return json.dumps({"kind": f.kind, "k": f.k, "n": f.n, "payload": f.payload()})


def _ptf_from_payload(payload: dict) -> MultiPTF:
    polys = []
    for entry in payload["polys"]:
        chaos = {}
        for tdoc in entry["chaos"]:
            t = SymmetricTensor.from_json(json.dumps(tdoc))
            chaos[t.order] = t
        polys.append(PolyGauss(payload["n"], chaos, entry["constant"]))
    return MultiPTF(polys)


def partition_from_json(text: str) -> PartitionFn:
    doc = json.loads(text)
    kind, payload = doc["kind"], doc["payload"]
    if kind == "halfspace":
        return Halfspace(payload["a"], payload["b"])
    if kind == "slabs":
        return Slabs(
            payload["axis"], payload["breakpoints"], payload["labels"],
            n=payload["n"], k=payload["k"],
        )
    if kind == "ptf":
        return _ptf_from_payload(payload)
    if kind == "rounded-ptf":
        from .search import _RoundedPartition

        f = _RoundedPartition(
            _ptf_from_payload(payload["ptf"]), payload["t"], payload["z"], payload["quad_order"]
        )
        if payload["route"] != f.route:
            raise ValueError(f"rounded PTF on n={f.n} smooths by {f.route!r}, not {payload['route']!r}")
        return f
    if kind == "tabulated":
        return Tabulated(CubeFn.from_json(json.dumps(payload["cube"])))
    raise ValueError(f"unknown partition kind {kind!r}")
