"""
k-ary partitions of Gaussian space and Monte Carlo / quadrature estimation
of their cell measures and noise stability.

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
    CorrelatedSampler,
    batch_sizes,
    binomial_se,
    check_rho,
    contract_axes,
    gauss_hermite_rule,
    gaussian_rng,
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
    "orthant_probability_quad",
    "quad_joint_cells_1d",
    "IntervalForm",
    "interval_form",
    "exact_expansion",
    "partition_to_json",
    "partition_from_json",
    "random_balanced_slabs",
    "equal_slabs",
]

DEFAULT_BATCH = 1 << 19


def _rho_t(t: float | None, rho: float | None) -> tuple[float, float]:
    """(rho, t) with rho = exp(-t).  Any rho allowed by gauss.check_rho is
    accepted; t is inf at rho = 0 and NaN for rho < 0, which no noise
    time reaches."""
    if (t is None) == (rho is None):
        raise ValueError("specify exactly one of t or rho")
    if t is not None:
        if not t >= 0:  # also rejects NaN
            raise ValueError(f"t must be >= 0, got {t}")
        return math.exp(-t), t
    check_rho(rho)
    if rho <= 0.0:
        return rho, (math.inf if rho == 0.0 else math.nan)
    return rho, -math.log(rho)


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
    """Two-part partition: label 1 where <x - a, b> <= 0."""

    kind = "halfspace"

    def __init__(self, a, b):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must have the same dimension")
        if not np.any(self.b != 0.0):
            raise ValueError("normal vector must be nonzero")
        self.n = self.a.shape[0]
        self.k = 2

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s = np.einsum("xi,i->x", X - self.a, self.b)
        return np.where(s <= 0.0, 1, 2).astype(np.int64)

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

    def cell_probs(self, loc, scale: float) -> np.ndarray:
        """Pr[label = j] for the coordinate ~ N(loc, scale^2); loc may be
        an array, in which case the result has shape loc.shape + (k,)."""
        loc = np.asarray(loc, dtype=float)
        edges = np.concatenate(([-np.inf], self.breakpoints, [np.inf]))
        cdf = ndtr((edges - loc[..., None]) / scale)
        seg = np.diff(cdf, axis=-1)
        out = np.zeros(loc.shape + (self.k,))
        for j, lab in enumerate(self.interval_labels):
            out[..., lab - 1] += seg[..., j]
        return out

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
    rng = gaussian_rng(seed)
    counts = np.zeros(f.k)
    for m in batch_sizes(samples, batch):
        lab = f.labels(rng.standard_normal((m, f.n)))
        counts += np.bincount(lab, minlength=f.k + 1)[1:]
    mu = counts / samples
    return MeasureVector(mu, binomial_se(mu, samples))


def _agreement(f, g, t, rho, samples, seed, batch, cell=None):
    rho, t = _rho_t(t, rho)
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
    rng = gaussian_rng(seed)
    hits = 0
    for m in batch_sizes(samples, batch):
        hits += int(np.count_nonzero(f.collisions(rng.standard_normal((m, f.n)))))
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
# Interval structure: exact smoothing and exact Hermite coefficients for
# partitions that are piecewise constant along one direction


@dataclass
class IntervalForm:
    """Partition as labeled intervals of s = <direction, x> (unit norm)."""

    direction: np.ndarray
    breakpoints: np.ndarray
    labels: np.ndarray
    k: int

    def projected(self) -> Slabs:
        return Slabs(0, self.breakpoints, self.labels, n=1, k=self.k)

    def cell_probs(self, loc, scale: float) -> np.ndarray:
        return self.projected().cell_probs(np.asarray(loc, dtype=float), scale)


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


def interval_form(f: PartitionFn) -> IntervalForm | None:
    """One-dimensional interval description of f, when one exists.

    Covers slab arrangements, halfspaces in any direction, and
    one-dimensional PTF partitions (whose cells are bounded by the real
    roots of the defining polynomials).
    """
    if isinstance(f, Slabs):
        u = np.zeros(f.n)
        u[f.axis] = 1.0
        return IntervalForm(u, f.breakpoints.copy(), f.interval_labels.copy(), f.k)
    if isinstance(f, Halfspace):
        norm = float(np.linalg.norm(f.b))
        cut = float(np.dot(f.a, f.b)) / norm
        return IntervalForm(f.b / norm, np.array([cut]), np.array([1, 2]), 2)
    if isinstance(f, MultiPTF) and f.n == 1:
        cuts = np.sort(np.unique(np.concatenate([_real_roots_1d(p) for p in f.polys])))
        if cuts.size == 0:
            test_points = np.array([[0.0]])
        else:
            mids = (cuts[:-1] + cuts[1:]) / 2 if cuts.size > 1 else np.empty(0)
            test_points = np.concatenate(
                ([cuts[0] - 1.0], mids, [cuts[-1] + 1.0])
            )[:, None]
        labels = f.labels(test_points)
        keep_cuts, keep_labels = [], [int(labels[0])]
        for cut, lab in zip(cuts, labels[1:]):
            if int(lab) != keep_labels[-1]:
                keep_cuts.append(cut)
                keep_labels.append(int(lab))
        if not keep_cuts:
            return IntervalForm(np.ones(1), np.empty(0), np.array(keep_labels), f.k)
        return IntervalForm(
            np.ones(1), np.asarray(keep_cuts), np.asarray(keep_labels), f.k
        )
    return None


def _interval_hermite_coeffs(a: float, b: float, max_degree: int) -> np.ndarray:
    """Exact 1-D Hermite coefficients of the indicator of (a, b].

    Uses d/dx [H_{q-1}(x) phi(x)] = -sqrt(q) H_q(x) phi(x), so
    E[1_(a,b] H_q] = (H_{q-1}(a) phi(a) - H_{q-1}(b) phi(b)) / sqrt(q).
    """

    def weighted_h(x):
        if np.isinf(x):
            return np.zeros(max_degree)
        phi = math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        return hermite_table(max_degree - 1, np.array([x]))[:, 0] * phi

    out = np.zeros(max_degree + 1)
    out[0] = float(ndtr(b) - ndtr(a)) if not (np.isinf(a) and np.isinf(b)) else 1.0
    if max_degree >= 1:
        ha = weighted_h(a)
        hb = weighted_h(b)
        for q in range(1, max_degree + 1):
            out[q] = (ha[q - 1] - hb[q - 1]) / math.sqrt(q)
    return out


def exact_expansion(f: PartitionFn, max_degree: int):
    """Exact Hermite expansion of the one-hot embedding of f.

    Works for interval-structured partitions on any dimension (the
    chaos of g(<u, x>) spreads each 1-D coefficient over the degree-q
    rank-one pattern u^S sqrt(q!/prod S_i!)) and for sign-table
    partitions (orthant cells factor into per-coordinate half-lines).
    Raises ValueError when no exact structure applies.
    """
    form = interval_form(f)
    if form is not None:
        u = form.direction
        edges = np.concatenate(([-np.inf], form.breakpoints, [np.inf]))
        onedim = np.zeros((f.k, max_degree + 1))
        for j in range(len(form.labels)):
            onedim[form.labels[j] - 1] += _interval_hermite_coeffs(
                edges[j], edges[j + 1], max_degree
            )
        coeffs: dict[tuple[int, ...], np.ndarray] = {}
        for S in degree_indices(f.n, max_degree):
            q = sum(S)
            factor = math.sqrt(math.factorial(q))
            for s in S:
                factor /= math.sqrt(math.factorial(s))
            direction = np.prod([u[i] ** s for i, s in enumerate(S)])
            vec = onedim[:, q] * factor * direction
            if np.linalg.norm(vec) >= 1e-14:
                coeffs[S] = vec
        return HermiteExpansion(f.n, f.k, max_degree, coeffs)
    if isinstance(f, Tabulated) and f.n <= 6:
        half = np.zeros((2, max_degree + 1))
        half[0] = _interval_hermite_coeffs(-np.inf, 0.0, max_degree)  # sign -
        half[1] = _interval_hermite_coeffs(0.0, np.inf, max_degree)  # sign +
        # C-order axes of the reshaped table run from bit n-1 down to bit
        # 0; reverse them so axis i is coordinate i
        table = f.cube.embedding().reshape((2,) * f.n + (f.k,))
        table = table.transpose(tuple(range(f.n - 1, -1, -1)) + (f.n,))
        full = contract_axes(table, half, f.n)
        coeffs = {}
        for S in degree_indices(f.n, max_degree):
            if np.linalg.norm(full[S]) >= 1e-14:
                coeffs[S] = full[S]
        return HermiteExpansion(f.n, f.k, max_degree, coeffs)
    raise ValueError("no exact expansion for this partition variant")


# ---------------------------------------------------------------------------
# Quadrature oracles


def sheppard_orthant(rho: float) -> float:
    """Pr[X <= 0, Y <= 0] for rho-correlated standard normals."""
    check_rho(rho)
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def orthant_probability_quad(rho: float, order: int = 80) -> float:
    """Gauss-Hermite value of the orthant integral Pr[X <= 0, Y <= 0].

    Uses the shared-factor coupling X = sqrt(rho) W + sqrt(1-rho) U,
    Y = sqrt(rho) W + sqrt(1-rho) V, under which the integrand
    Phi(-sqrt(rho) w / sqrt(1-rho))^2 is smooth, so the rule converges to
    machine precision.  Requires 0 <= rho < 1.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"the shared-factor coupling needs rho in [0, 1), got {rho}")
    if rho == 0.0:
        return 0.25
    rule = gauss_hermite_rule(order)
    c = math.sqrt(rho) / math.sqrt(1.0 - rho)
    vals = ndtr(-c * rule.nodes) ** 2
    return float(np.dot(rule.weights, vals))


def quad_joint_cells_1d(f: PartitionFn, rho: float, order: int = 80) -> np.ndarray:
    """Exact-quadrature joint cell matrix J[i, j] = Pr[f(X)=i+1, f(Y)=j+1]
    for partitions with an interval structure (slabs, halfspaces, 1-D
    PTFs).

    Same shared-factor trick as the orthant oracle: conditionally on the
    common factor W the two cell-membership probabilities are independent
    smooth functions of w.  trace(J) is the agreement stability.
    """
    form = interval_form(f)
    if form is None:
        raise ValueError("quadrature oracle needs an interval-structured partition")
    slab = form.projected()
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"the shared-factor coupling needs rho in [0, 1), got {rho}")
    if rho == 0.0:
        p = slab.cell_probs(np.zeros(1), 1.0)[0]
        return np.outer(p, p)
    rule = gauss_hermite_rule(order)
    loc = math.sqrt(rho) * rule.nodes
    scale = math.sqrt(1.0 - rho)
    probs = slab.cell_probs(loc, scale)  # (order, k)
    return np.einsum("w,wi,wj->ij", rule.weights, probs, probs)


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
    label order and mapped through the Gaussian quantile function.
    """
    counts = [pieces for _ in range(k)]
    lengths = {lab: rng.random(counts[lab - 1]) for lab in range(1, k + 1)}
    for lab in lengths:
        lengths[lab] = lengths[lab] / lengths[lab].sum() / k
    order = []
    for lab in range(1, k + 1):
        order += [lab] * counts[lab - 1]
    order = list(rng.permutation(order))
    remaining = {lab: list(lengths[lab]) for lab in range(1, k + 1)}
    segs = [(lab, remaining[lab].pop()) for lab in order]
    merged_labels = []
    cum = []
    total = 0.0
    for lab, ln in segs:
        if merged_labels and merged_labels[-1] == lab:
            total += ln
            cum[-1] = total
        else:
            total += ln
            merged_labels.append(lab)
            cum.append(total)
    cuts = ndtri(np.asarray(cum[:-1]))
    return Slabs(axis, cuts, merged_labels, n=n, k=k)


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
