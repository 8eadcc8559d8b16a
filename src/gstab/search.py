"""
Bounded-dimension stability maximization over PTF covers, and a desk-scale
one-sided decider for non-interactive correlation distillation with an
exhaustive oracle.

The cover enumerates PTFs whose defining polynomials have grid-valued
Hermite coefficients, canonicalized to unit variance (the labeling is
scale invariant).  The optimizer evaluates candidates on one shared
correlated sample stream, so comparisons run under common random numbers
and the argmax is reproducible per seed.

The NCD decider searches strategy pairs over a finite source: exhaustive
label tables for short inputs, block-embedded Gaussian partitions beyond
that.  A "feasible" verdict carries an explicit witness; "not-found" is a
search outcome, not an impossibility proof.
"""
from __future__ import annotations

import itertools
import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .chaos import PolyGauss
from .gauss import CorrelatedSampler, binomial_se, gaussian_rng, label_measures
from .hermite import degree_indices
from .partitions import MultiPTF, PartitionFn, Slabs, partition_to_json
from .product_space import (
    JointDist,
    _word_law,
    block_strategy,
    correlation_basis,
    estimate_discrete_corr,
)
from .rounding import round_values, smoothed_partition_values, _match_threshold_on_values

__all__ = [
    "SearchConfig",
    "SearchResult",
    "CoverSizeError",
    "enumerate_cover",
    "optimize_stability",
    "NcdDecision",
    "ncd_decide",
    "ncd_brute_oracle",
]


class CoverSizeError(ValueError):
    """Raised when a requested PTF cover would exceed the budget guard."""


COVER_GUARD = 200_000  # polynomials or candidates one cover may enumerate


@dataclass
class SearchConfig:
    k: int
    n0: int
    d: int
    t: float
    target_mu: np.ndarray
    measure_tol: float
    budget: int
    mode: str = "grid-cover"
    seed: int = 0
    samples: int = 200_000
    coeff_bound: float = 1.0
    step: float = 0.5
    restarts: int = 8
    quad_order: int = 24

    def __post_init__(self):
        self.target_mu = np.asarray(self.target_mu, dtype=float)
        if self.measure_tol <= 0:
            raise ValueError("measure_tol must be positive")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.mode not in ("grid-cover", "random-restart-local"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.target_mu.shape != (self.k,) or abs(self.target_mu.sum() - 1.0) > 1e-9:
            raise ValueError("target_mu must be a length-k distribution")

    def to_json(self) -> str:
        doc = {f: getattr(self, f) for f in (
            "k", "n0", "d", "t", "measure_tol", "budget", "mode", "seed",
            "samples", "coeff_bound", "step", "restarts", "quad_order",
        )}
        doc["target_mu"] = self.target_mu.tolist()
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "SearchConfig":
        return cls(**json.loads(text))


@dataclass
class SearchResult:
    best: PartitionFn
    stability: float
    stability_se: float
    measures: np.ndarray
    evaluations: int
    feasible: bool
    trace: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "best": json.loads(partition_to_json(self.best)),
                "stability": self.stability,
                "stability_se": self.stability_se,
                "measures": self.measures.tolist(),
                "evaluations": self.evaluations,
                "feasible": self.feasible,
                "trace": self.trace,
            }
        )


def _grid_polynomials(n0: int, d: int, bound: float, step: float, guard: int) -> list[PolyGauss]:
    """Canonical unit-variance grid polynomials of degree <= d on n0 vars.

    The grid lives on Hermite coefficients; scaling redundancy is removed
    by normalizing the degree >= 1 part to norm 1 and deduplicating.
    """
    indices = [S for S in degree_indices(n0, d) if sum(S) >= 1]
    ticks = np.arange(-bound, bound + step / 2, step)
    raw_count = len(ticks) ** (len(indices) + 1)
    if raw_count > guard:
        raise CoverSizeError(
            f"grid would enumerate {raw_count} polynomials (guard {guard})"
        )
    seen = {}
    for combo in itertools.product(ticks, repeat=len(indices)):
        vec = np.asarray(combo)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            continue
        vec = vec / norm
        for c0 in ticks:
            key = tuple(np.round(np.concatenate(([c0 / norm], vec)), 12))
            if key in seen:
                continue
            coeffs = {S: float(v) for S, v in zip(indices, vec) if v != 0.0}
            coeffs[(0,) * n0] = float(c0 / norm)
            seen[key] = PolyGauss.from_hermite_coeffs(n0, coeffs)
    return list(seen.values())


def _cover(k: int, n0: int, d: int, coeff_bound: float, step: float, guard: int):
    """The cover in enumeration order: (polys, candidates).

    ``polys`` are the distinct polynomials the cover is built from, and
    ``candidates`` yields (f, idx) for each cover element f.  A k = 2 cover
    of degree >= 1 pairs polys[idx] with its negation; every other f takes
    label j's polynomial from polys[idx[j]].
    """
    if d == 0:
        polys = [PolyGauss(n0, {}, 1.0), PolyGauss(n0, {}, -1.0)]
        combos = (tuple(0 if i == j else 1 for i in range(k)) for j in range(k))
    else:
        polys = _grid_polynomials(n0, d, coeff_bound, step, guard)
        if k == 2:
            return polys, ((MultiPTF([p, p.scale(-1.0)]), i) for i, p in enumerate(polys))
        total = len(polys) ** k
        if total > guard:
            raise CoverSizeError(f"cover size {total} exceeds guard {guard}")
        combos = itertools.product(range(len(polys)), repeat=k)
    return polys, ((MultiPTF([polys[i] for i in idx]), idx) for idx in combos)


def enumerate_cover(
    k: int, n0: int, d: int, coeff_bound: float, step: float, guard: int = COVER_GUARD
):
    """Yield canonical grid PTFs (degree d, k labels, n0 variables).

    d = 0 yields the k constant-label partitions.  For k = 2 the cover
    pairs each polynomial with its negation (the second polynomial is
    redundant up to collisions); larger k takes the full product, subject
    to the size guard.
    """
    _, candidates = _cover(k, n0, d, coeff_bound, step, guard)
    for f, _ in candidates:
        yield f


def _poly_signature(f: MultiPTF) -> str:
    """Deterministic short hash of the candidate's coefficients."""
    parts = []
    for p in f.polys:
        entries = [f"{p.constant:.6g}"]
        for q in sorted(p.chaos):
            entries.append(f"{q}:{np.round(p.chaos[q].array, 6).tolist()}")
        parts.append("|".join(entries))
    return format(zlib.crc32(";".join(parts).encode()), "08x")


def optimize_stability(cfg: SearchConfig) -> SearchResult:
    """Maximize agreement stability subject to the measure constraint.

    grid-cover mode scores every cover element on the shared sample pair
    stream and keeps the best whose empirical measures are within
    measure_tol of the target (l1).  It evaluates each distinct cover
    polynomial once per side and scores candidates from counts over the
    resulting sign bitmaps, with outputs identical to labelling every
    candidate in full.  random-restart-local mode runs
    coordinate descent on PTF coefficients, scoring each candidate through
    the smooth-then-round pipeline so its measures match the target by
    construction.
    """
    rho = math.exp(-cfg.t)
    sampler = CorrelatedSampler(cfg.n0, rho, cfg.seed)
    X, Y = sampler.pairs(cfg.samples)
    if cfg.mode == "grid-cover":
        return _optimize_grid(cfg, X, Y)
    return _optimize_local(cfg, X, Y)


def _optimize_grid(cfg: SearchConfig, X, Y) -> SearchResult:
    """Score the cover on the shared pairs, one evaluation per polynomial
    and side.

    A pair [p, -p] labels 2 exactly where p < 0 (eval_many is odd in the
    coefficients under round-to-nearest; zero and NaN values label 1, as
    in MultiPTF.labels), so its stability and measures are sign counts.
    Other covers cache the positive set of each polynomial, as bool
    bitmaps rather than values, and label by the MultiPTF rule.
    """
    polys, candidates = _cover(cfg.k, cfg.n0, cfg.d, cfg.coeff_bound, cfg.step, COVER_GUARD)
    n = X.shape[0]
    label_dtype = np.min_scalar_type(cfg.k)
    positive = {}  # polynomial index -> (p > 0 on X, p > 0 on Y)

    def positive_sets(i):
        if i not in positive:
            positive[i] = (polys[i].eval_many(X) > 0.0, polys[i].eval_many(Y) > 0.0)
        return positive[i]

    best = None
    closest = None  # fallback: smallest measure gap, earliest on ties
    trace = []
    evals = 0
    for cand, idx in candidates:
        if evals >= cfg.budget:
            break
        if isinstance(idx, int):
            negx = polys[idx].eval_many(X) < 0.0
            negy = polys[idx].eval_many(Y) < 0.0
            value = int(np.count_nonzero(negx == negy)) / n
            c = int(np.count_nonzero(negx))
            mu = np.array([n - c, c]) / n
        else:
            sets = [positive_sets(i) for i in idx]
            lx = MultiPTF.labels_from_positive([sx for sx, _ in sets], label_dtype)
            ly = MultiPTF.labels_from_positive([sy for _, sy in sets], label_dtype)
            value = int(np.count_nonzero(lx == ly)) / n
            mu = label_measures(lx, cfg.k)
        gap = float(np.abs(mu - cfg.target_mu).sum())
        evals += 1
        trace.append((evals, _poly_signature(cand), value, binomial_se(value, cfg.samples, 1e-12)))
        if gap <= cfg.measure_tol and (best is None or value > best[0]):
            best = (value, cand, mu)
        if closest is None or gap < closest[0]:
            closest = (gap, value, cand, mu)
    if best is not None:
        value, cand, mu = best
        return SearchResult(cand, value, binomial_se(value, cfg.samples), mu, evals, True, trace)
    if closest is None:
        raise ValueError("the PTF cover is empty")
    # infeasible within budget: report the closest-measure candidate
    _, value, cand, mu = closest
    return SearchResult(cand, value, binomial_se(value, cfg.samples), mu, evals, False, trace)


def _rounded_candidate(cfg: SearchConfig, ptf: MultiPTF, X, Y):
    """(feasible, stability, measures, threshold search) of the smooth-
    then-round image of ptf; tuples compare feasible first."""
    FX = smoothed_partition_values(ptf, cfg.t, X, cfg.quad_order)
    FY = smoothed_partition_values(ptf, cfg.t, Y, cfg.quad_order)
    search = _match_threshold_on_values(FX, cfg.target_mu, cfg.measure_tol)
    gx = round_values(FX, search.z)
    gy = round_values(FY, search.z)
    return search.converged, float(np.mean(gx == gy)), search.measures, search


def _optimize_local(cfg: SearchConfig, X, Y) -> SearchResult:
    """Coordinate descent over PTF coefficients.  Candidates rank by
    (feasible, stability): a matched candidate beats any unmatched one,
    both when keeping the best and when accepting a step."""
    rng = gaussian_rng(cfg.seed, 1)
    indices = [S for S in degree_indices(cfg.n0, cfg.d) if sum(S) >= 1]
    dim = len(indices) + 1

    def build(vec: np.ndarray) -> MultiPTF:
        polys = []
        for j in range(cfg.k):
            chunk = vec[j * dim : (j + 1) * dim]
            norm = float(np.linalg.norm(chunk[1:]))
            if norm == 0.0:
                chunk = chunk.copy()
                chunk[1] = 1.0
                norm = 1.0
            coeffs = {S: float(v / norm) for S, v in zip(indices, chunk[1:])}
            coeffs[(0,) * cfg.n0] = float(chunk[0] / norm)
            polys.append(PolyGauss.from_hermite_coeffs(cfg.n0, coeffs))
        return MultiPTF(polys)

    best = None
    trace = []
    evals = 0
    for _restart in range(cfg.restarts):
        if evals >= cfg.budget:
            break
        vec = rng.standard_normal(cfg.k * dim)
        step = 0.5
        ptf = build(vec)
        cur = _rounded_candidate(cfg, ptf, X, Y)
        evals += 1
        trace.append((evals, "restart", cur[1], binomial_se(cur[1], cfg.samples, 1e-12)))
        if best is None or cur[:2] > best[0][:2]:
            best = (cur, ptf)
        improved = True
        while improved and evals < cfg.budget and step > 1e-3:
            improved = False
            for i in range(vec.size):
                for sign in (+1.0, -1.0):
                    if evals >= cfg.budget:
                        break
                    cand_vec = vec.copy()
                    cand_vec[i] += sign * step
                    cand_ptf = build(cand_vec)
                    cand = _rounded_candidate(cfg, cand_ptf, X, Y)
                    evals += 1
                    trace.append((evals, "step", cand[1], binomial_se(cand[1], cfg.samples, 1e-12)))
                    if cand[:2] > cur[:2]:
                        vec, cur = cand_vec, cand
                        improved = True
                        if cand[:2] > best[0][:2]:
                            best = (cand, cand_ptf)
                        break
            if not improved:
                step *= 0.5
                improved = True
    (feasible, value, mu, search), ptf = best
    rounded = _RoundedPartition(ptf, cfg.t, search.z.z, cfg.quad_order)
    return SearchResult(rounded, value, binomial_se(value, cfg.samples), mu, evals, feasible, trace)


class _RoundedPartition(PartitionFn):
    """Threshold rounding of a smoothed PTF, packaged as a partition.

    Its payload records the smoothing route, which follows from n: the
    exact interval form in one dimension, the Hermite addition formula
    on the tensor rule in two and three.
    """

    kind = "rounded-ptf"

    def __init__(self, ptf: MultiPTF, t: float, z: np.ndarray, quad_order: int):
        self.ptf = ptf
        self.t = t
        self.z = np.asarray(z, dtype=float)
        if self.z.shape != (ptf.k,) or not np.all(np.isfinite(self.z)):
            raise ValueError(f"thresholds z must be {ptf.k} finite numbers, got {z!r}")
        self.quad_order = quad_order
        self.n = ptf.n
        self.k = ptf.k

    def labels(self, X: np.ndarray) -> np.ndarray:
        vals = smoothed_partition_values(self.ptf, self.t, X, self.quad_order)
        return round_values(vals, self.z)

    @property
    def route(self) -> str:
        return "interval" if self.n == 1 else "ptf-addition"

    def payload(self) -> dict:
        return {
            "t": self.t,
            "z": self.z.tolist(),
            "ptf": self.ptf.payload(),
            "quad_order": self.quad_order,
            "route": self.route,
        }


# ---------------------------------------------------------------------------
# Non-interactive correlation distillation


@dataclass
class NcdDecision:
    feasible: bool
    achieved: float
    achieved_se: float
    witness_f: object | None
    witness_g: object | None
    n_used: int | None
    detail: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": "feasible" if self.feasible else "not-found",
                "achieved": self.achieved,
                "achieved_se": self.achieved_se,
                "n_used": self.n_used,
                "detail": self.detail,
            }
        )


class TableStrategy:
    """Exhaustive strategy: label table over all symbol words of length n."""

    def __init__(self, table: np.ndarray, m: int, n: int, k: int):
        self.table = np.asarray(table, dtype=np.int64)
        self.m = m
        self.n_coords = n
        self.k = k
        if self.table.shape != (m**n,):
            raise ValueError("table length must be m^n")

    def __call__(self, symbols: np.ndarray) -> np.ndarray:
        symbols = np.atleast_2d(np.asarray(symbols, dtype=np.int64))
        idx = np.zeros(symbols.shape[0], dtype=np.int64)
        for i in range(self.n_coords):
            idx = idx * self.m + symbols[:, i]
        return self.table[idx]


NCD_PAIR_GUARD = 10_000_000  # strategy pairs one word length may enumerate
_BLOCK_ENTRIES = 1 << 20  # array entries per enumeration block


def _feasible_tables(words: int, k: int, weights: np.ndarray, target, delta: float, step: int):
    """Label tables on ``words`` words whose cell masses lie within delta
    (l1) of target, yielded in blocks of at most ``step`` candidates as
    rows of 0-based labels.

    Candidate t is the t-th table of itertools.product(range(k),
    repeat=words): the first word is its most significant base-k digit.
    """
    count = k**words
    powers = k ** np.arange(words - 1, -1, -1, dtype=np.int64)
    for start in range(0, count, step):
        t = np.arange(start, min(start + step, count), dtype=np.int64)
        tables = (t[:, None] // powers) % k
        masses = np.einsum("twk,w->tk", np.eye(k)[tables], weights)
        yield tables[np.abs(masses - target).sum(axis=1) <= delta + 1e-12]


def _ncd_tables(P: JointDist, mu, nu, k: int, n: int, delta: float):
    """Exhaustive enumeration of strategy pairs on words of length n.

    Yields (tf, tg, agree) in row blocks: tf and tg hold the marginal-
    feasible label tables (0-based, in itertools.product order) of each
    side, and agree[i, j] = Pr[f(X^n) = g(Y^n)] exactly for f = tf[i],
    g = tg[j].  The blocks continue one another in the row order of f;
    each lifts its one-hot f stack through the word law with one
    contraction and meets the g stack in one more.  Raises ValueError
    before enumerating more than NCD_PAIR_GUARD pairs.
    """
    words_a, words_b = P.mA**n, P.mB**n
    if k**words_a * k**words_b > NCD_PAIR_GUARD:
        raise ValueError("enumeration guard: too many strategy pairs")
    W = _word_law(P.P, n)
    tg = np.concatenate(list(_feasible_tables(
        words_b, k, _word_law(P.marginal_b(), n), nu, delta,
        max(1, _BLOCK_ENTRIES // (words_b * k)),
    )))
    if not len(tg):
        return
    G = np.eye(k)[tg].reshape(len(tg), -1)
    step = max(1, _BLOCK_ENTRIES // (max(words_a, words_b, len(tg)) * k))
    for tf in _feasible_tables(words_a, k, _word_law(P.marginal_a(), n), mu, delta, step):
        if len(tf):
            lifted = np.einsum("xy,fxk->fyk", W, np.eye(k)[tf])
            yield tf, tg, np.einsum("fr,gr->fg", lifted.reshape(len(tf), -1), G)


def ncd_brute_oracle(P: JointDist, mu, nu, k: int, n: int, delta: float) -> float:
    """Exact best agreement over all strategy pairs with feasible marginals.

    Enumerates every f: A^n -> [k] and g: B^n -> [k] whose marginals are
    within delta (l1) of the targets and maximizes
    Pr[f(X^n) = g(Y^n)] computed by exact summation.  Guarded to keep
    k^(m^n) enumerable; n <= 2 on small alphabets in practice.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    best = 0.0
    for _, _, agree in _ncd_tables(P, mu, nu, k, n, delta):
        best = max(best, float(agree.max()))
    return best


def ncd_decide(
    P: JointDist,
    mu,
    nu,
    kappa: float,
    delta: float,
    n_max: int = 2,
    ell: int = 64,
    samples: int = 200_000,
    seed: int = 0,
) -> NcdDecision:
    """One-sided decider: search for strategies with the target marginals
    and agreement at least kappa - delta.

    Word lengths n <= min(n_max, 2) are searched exhaustively with exact
    probability sums, under the oracle's enumeration guard; the first pair
    in enumeration order (f, then g) that meets the threshold is returned.
    If that fails and n_max allows, a block-embedded Gaussian construction
    (measure-matched slab partitions on the maximal correlation
    coordinates) is scored by simulation.  "not-found" means the search
    failed, not that no protocol exists; it reports the first best pair.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if abs(mu.sum() - 1) > 1e-9 or abs(nu.sum() - 1) > 1e-9:
        raise ValueError("marginal targets must be distributions")
    if delta <= 0:
        raise ValueError("delta must be positive")
    k = mu.shape[0]
    best_val = 0.0  # agreement over an empty feasible set, as in the oracle
    best_detail = "no marginal-feasible pair found"
    best_pair = (None, None)
    best_n = None
    for n in range(1, min(n_max, 2) + 1):
        detail = f"exhaustive tables at n={n}"
        for tf, tg, agree in _ncd_tables(P, mu, nu, k, n, delta):
            hits = agree >= kappa - delta
            # first hit in row-major order, else the block's first maximum
            i, j = np.unravel_index(
                np.argmax(hits) if hits.any() else np.argmax(agree), agree.shape
            )
            pair = (TableStrategy(tf[i] + 1, P.mA, n, k), TableStrategy(tg[j] + 1, P.mB, n, k))
            if hits[i, j]:
                return NcdDecision(True, float(agree[i, j]), 0.0, *pair, n, detail)
            if agree[i, j] > best_val:
                best_val, best_pair, best_n, best_detail = float(agree[i, j]), pair, n, detail
    if n_max > 2 and k == 2:
        basis = correlation_basis(P)
        fpart = Slabs(0, [_quantile(mu[0])], [1, 2], n=1)
        gpart = Slabs(0, [_quantile(nu[0])], [1, 2], n=1)
        fstrat = block_strategy(fpart, basis.X[:, 1], ell, tie_break=True)
        gstrat = block_strategy(gpart, basis.Y[:, 1], ell, tie_break=True)
        rep = estimate_discrete_corr(fstrat, gstrat, P, samples, seed)
        if rep.agreement > best_val:
            best_val = rep.agreement
            best_pair = (fstrat, gstrat)
            best_n = fstrat.n_coords
            best_detail = f"block embedding, ell={ell}"
        if rep.agreement >= kappa - delta:
            return NcdDecision(
                True, rep.agreement, rep.agreement_se, fstrat, gstrat,
                fstrat.n_coords, f"block embedding, ell={ell}",
            )
    return NcdDecision(False, best_val, 0.0, *best_pair, best_n, best_detail)


def _quantile(p: float) -> float:
    from scipy.special import ndtri

    return float(ndtri(min(max(p, 1e-12), 1 - 1e-12)))
