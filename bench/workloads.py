"""The three workloads: inputs generated from the seed, the timed calls,
and the check of each call's output against an oracle.

A workload is a list of operations, one round.  The runner repeats the
round until the run's time is used; every round makes the same calls on
the same inputs.  Calls go through module attributes (``G.search.…``) so
that the traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gstab as G
import gstab.cli  # noqa: F401  (not imported by the package)
import oracles as O

T_LN2 = math.log(2.0)


@dataclass
class Op:
    """One timed call: ``call`` makes it, ``check`` returns (error, band)
    for its output, ``values`` gives the numbers that enter the digest."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[float, float]]
    values: Callable[[Any], Any]


@dataclass
class Workload:
    ops: list[Op]
    # NCD enumeration sizes of one round (pairs, tables, feasible), counted
    # from the inputs; the traced run reports them per round
    ncd_totals: Callable[[], dict] | None = None


class Lazy:
    """A reference value computed once, outside the timed region."""

    def __init__(self, fn):
        self.fn = fn
        self.done = False
        self.value = None

    def __call__(self, *args):
        if not self.done:
            self.value = self.fn(*args)
            self.done = True
        return self.value


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _linear_poly(rng, n: int):
    a = rng.standard_normal(n)
    return G.chaos.PolyGauss(n, {1: G.tensors.SymmetricTensor.from_array(a)}, float(rng.normal(scale=0.5)))


def _quadratic_poly(rng, n: int):
    a = rng.standard_normal(n)
    H = rng.standard_normal((n, n)) * 0.5
    p = G.chaos.PolyGauss(
        n,
        {1: G.tensors.SymmetricTensor.from_array(a), 2: G.tensors.symmetrize(H)},
        float(rng.normal(scale=0.5)),
    )
    return p.scale(1.0 / math.sqrt(p.variance()))


def _rounding_reference(n: int, k: int, t: float, samples: int, seed: int, label, smooth=None):
    """The target measures of a stability_of_rounding call, from the
    benchmark's own labels on the sample the call draws (same sampler,
    same seed), and, given ``smooth``, the unmatched-slack bound from the
    benchmark's own smoothing of that sample; computed once, outside the
    timed region."""

    def build():
        X, _ = G.gauss.CorrelatedSampler(n, math.exp(-t), seed).pairs(samples)
        target = np.bincount(label(X) - 1, minlength=k) / samples
        unmatched = O.unmatched_slack(smooth(X), target) if smooth is not None else None
        return target, unmatched, samples

    return Lazy(build)


def _rounding_check(tol: float, reference):
    """Rounding contract stab_g >= stab_f - (slack + 6 (se_f + se_g)), and
    the measure match that makes the contract mean something: a rounding
    that sends every point to one label has stab_g = 1 and passes any
    contract whose slack is allowed to grow.

    The threshold search either converges (slack within ``tol``) or
    reports that it did not and returns its best iterate; the library
    documents both outcomes.  Where the smoothed values vary continuously
    (interval and sign-table routes) the measures move continuously with
    the thresholds, the tolerance is within reach, and the match must
    converge.  On quadrature-smoothed PTFs the smoothed values take
    finitely many values, one of which can carry several percent of the
    sample, and the tolerance can be out of reach; there the reference
    carries a bound, and an unconverged match must be no worse than the
    unshifted rounding (``O.unmatched_slack``), the search's first
    iterate.  The before-measures must be the ones the benchmark's own
    labels give, and the converged flag and the reported slack must agree
    with the measures.

    The check takes (stab_f, stab_g, se_f, se_g, measures_f, measures_g,
    converged, reported slack).
    """

    def check(stab_f, stab_g, se_f, se_g, measures_f, measures_g, converged, reported):
        target, unmatched, samples = reference()
        measures_f, measures_g = np.asarray(measures_f, float), np.asarray(measures_g, float)
        slack = float(np.abs(measures_g - measures_f).sum())
        honest = (measures_f.shape == target.shape and float(np.abs(measures_f - target).sum()) <= 2.0 / samples
                  and abs(reported - slack) <= 1e-9 and (converged or slack > tol))
        if not honest:
            return math.inf, 1.0
        match = slack / tol if converged or unmatched is None else O.ratio(slack, unmatched)
        contract = O.ratio(max(stab_f - stab_g, 0.0), slack + O.MC_SIGMAS * (se_f + se_g))
        return max(match, contract), 1.0

    return check


def _report_check(tol: float, reference):
    check = _rounding_check(tol, reference)
    return lambda rep: check(rep.stab_f, rep.stab_g, rep.se_f, rep.se_g, rep.measures_f, rep.measures_g,
                             rep.converged, rep.measure_slack)


def _report_values(rep):
    return [rep.stab_f, rep.stab_g, rep.se_f, rep.se_g, rep.measure_slack, *rep.z.z]


def _search_check(cfg, fresh_samples: int, unmatched=None):
    """Search winner: its feasible flag agrees with its measures, and its
    stability and measures are confirmed on a fresh sample drawn outside
    the timed region.

    A feasible winner's measures are within measure_tol of the target, on
    the search's sample and on the fresh one.  An infeasible winner is
    accepted only where ``unmatched`` is given (local mode, whose one
    candidate per restart is rounded by a threshold search that may
    report no convergence): its measures must then be no worse than the
    unshifted rounding of its own smoothed PTF on the search's sample.
    """
    target = np.asarray(cfg.target_mu, float)
    fresh = Lazy(lambda res: (
        G.partitions.estimate_stability(res.best, cfg.t, fresh_samples, cfg.seed + 1_000_003),
        O.label_measures(res.best, fresh_samples, cfg.seed + 2_000_003),
    ))

    def check(res):
        est, mu = fresh(res)
        measures = np.asarray(res.measures, float)
        gap = float(np.abs(measures - target).sum())
        if res.feasible != (gap <= cfg.measure_tol):  # the flag and the measures disagree
            return math.inf, 1.0
        stab = O.ratio(abs(res.stability - est.value), O.MC_SIGMAS * math.hypot(res.stability_se, est.std_error))
        if res.feasible:
            confirmed = O.ratio(float(np.abs(mu - target).sum()),
                                cfg.measure_tol + O.l1_band(target, fresh_samples))
            return max(gap / cfg.measure_tol, confirmed, stab), 1.0
        if unmatched is None:
            return math.inf, 1.0
        confirmed = O.ratio(float(np.abs(mu - measures).sum()),
                            O.l1_band(measures, fresh_samples) + O.l1_band(measures, cfg.samples))
        return max(O.ratio(gap, unmatched(res)), confirmed, stab), 1.0

    return check


def _local_unmatched(cfg):
    """Unmatched-slack bound of a local-mode winner, a rounded PTF: its
    PTF smoothed by the benchmark's own rule on the search's sample."""

    def build(res):
        X, _ = G.gauss.CorrelatedSampler(cfg.n0, math.exp(-cfg.t), cfg.seed).pairs(cfg.samples)
        F = O.smoothed_ptf_reference(res.best.ptf.polys, cfg.t, X, order=cfg.quad_order)
        return O.unmatched_slack(F, cfg.target_mu)

    return Lazy(build)


def _quadrature_check(fine, coarse):
    """Check for a quadrature route over a discontinuous integrand.

    ``fine`` comes from an order-128 rule (or an exact formula), ``coarse``
    from a rule of the route's own order built here.  The route may be any
    method as accurate as its own-order rule, or better, but not worse:
    both its largest and its root-mean-square error against ``fine`` must
    be within twice those of ``coarse``.  The RMS part catches a route that
    is off everywhere by less than the coarse rule's worst point.
    """
    fine = np.asarray(fine, float)
    gap = np.abs(np.asarray(coarse, float) - fine)
    band_max = max(2.0 * float(gap.max()), 1e-6)
    band_rms = max(2.0 * float(np.sqrt(np.mean(gap**2))), 1e-6)

    def check(out):
        err = np.abs(np.asarray(out, float) - fine)
        return max(float(err.max()) / band_max, float(np.sqrt(np.mean(err**2))) / band_rms), 1.0

    return check


def _search_values(res):
    return [res.stability, res.stability_se, res.evaluations, *res.measures]


# ---------------------------------------------------------------------------
# ptf-search: the generic smoothing route on multivariate PTFs


def ptf_search(rng, workdir: str) -> Workload:
    ops: list[Op] = []
    # budget 1: one restart candidate per search, which is where local mode
    # spends its time (smoothing 2 x 30k points on a 256-node rule, then
    # matching); with more candidates the search ranks them by stability
    # alone, so an unmatched candidate can win over a matched one, which
    # no oracle here can tell from an honest infeasible result
    for i in range(3):
        seed = _seed(rng)
        cfg = G.search.SearchConfig(
            k=3, n0=2, d=1, t=T_LN2, target_mu=[1 / 3] * 3, measure_tol=0.02,
            budget=1, mode="random-restart-local", seed=seed, samples=30_000, quad_order=16,
        )
        ops.append(Op(f"local_search[{i}]", lambda c=cfg: G.search.optimize_stability(c),
                      _search_check(cfg, 20_000, _local_unmatched(cfg)), _search_values))
    # two linear and six quadratic PTFs: quadratic ones cost about twice
    # as much, and with the two smoothing calls below and the three
    # searches above the median latency (7th of 13 calls) falls in the
    # middle of the quadratic calls rather than at an edge of that group
    kinds = [("linear", _linear_poly)] * 2 + [("quadratic", _quadratic_poly)] * 6
    for i, (kind, make) in enumerate(kinds):
        f = G.partitions.MultiPTF([make(rng, 2) for _ in range(3)])
        seed = _seed(rng)
        reference = _rounding_reference(2, 3, T_LN2, 3_000, seed, lambda X, f=f: O.ptf_labels(f.polys, X),
                                        lambda X, f=f: O.smoothed_ptf_reference(f.polys, T_LN2, X, order=16))
        ops.append(Op(
            f"round_{kind}[{i}]",
            lambda f=f, s=seed: G.rounding.stability_of_rounding(f, T_LN2, tol=0.01, samples=3_000, seed=s, quad_order=16),
            _report_check(0.01, reference), _report_values,
        ))
    X = rng.standard_normal((300, 2))
    for i, make in enumerate((_linear_poly, _quadratic_poly)):
        f = G.partitions.MultiPTF([make(rng, 2) for _ in range(3)])
        check = Lazy(lambda f=f: _quadrature_check(
            O.smoothed_ptf_reference(f.polys, T_LN2, X, order=128),
            O.smoothed_ptf_reference(f.polys, T_LN2, X, order=16)))
        ops.append(Op(
            f"smooth_generic[{i}]",
            lambda f=f: G.rounding.smoothed_partition_values(f, T_LN2, X, 16),
            lambda out, check=check: check()(out),
            lambda out: out,
        ))
    return Workload(ops)


# ---------------------------------------------------------------------------
# mc-estimators: seeded Monte Carlo at millions of pairs


def _random_slabs(rng, n: int, k: int):
    cuts = np.unique(np.round(np.sort(rng.normal(size=k)), 6))
    labels = list(rng.permutation(np.arange(1, k + 1)))
    labels += [int(rng.integers(1, k + 1)) for _ in range(len(cuts) + 1 - k)]
    return G.partitions.Slabs(int(rng.integers(0, n)), cuts, labels[: len(cuts) + 1], n=n, k=k)


def _chisq_op(rng, i: int) -> Op:
    """Chi-square product-difference sampler on a criterion-10 instance,
    cross-checked against the generic estimator on the same families.

    At 2e6 samples the two of these are the slowest calls after the grid
    search, so op_tail_cpu_s lands on the chi-square sampler, as designed,
    rather than on whichever interval rounding failed to converge.
    """
    A = rng.standard_normal((3, 5))
    Gram = A @ A.T
    d = np.sqrt(np.diag(Gram))
    Gram = Gram / np.outer(d, d)
    delta = 0.05
    fam_a, _ = G.chaos.matched_family(G.chaos.GramSpec({2: Gram}), delta)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    fam_b, _ = G.chaos.matched_family(G.chaos.GramSpec({2: Gram}), delta, factor_rotation={2: rot})
    seed_x = _seed(rng)
    generic = Lazy(lambda: G.chaos.product_difference_mc(fam_a, fam_b, 5_000, seed_x + 1, batch=1 << 9))

    def chisq_check(est):
        gen = generic()
        cross = abs(est.value - gen.value) / (O.MC_SIGMAS * math.hypot(est.std_error, gen.std_error))
        claim = max(abs(est.value) - delta, 0.0) / (O.MC_SIGMAS * est.std_error)
        return max(cross, claim), 1.0

    return Op(
        f"chisq_product_difference[{i}]",
        lambda: G.chaos.pair_block_product_difference(fam_a, fam_b, 2_000_000, seed_x),
        chisq_check,
        lambda est: [est.value, est.std_error],
    )


def mc_estimators(rng, workdir: str) -> Workload:
    P = G.partitions
    ops: list[Op] = []
    # two instances of each light estimator, sized to about the same time,
    # so the tail percentile does not jump between operation kinds
    for i in range(2):
        rho = float(rng.uniform(0.3, 0.8))
        h = P.Halfspace(np.zeros(3), rng.standard_normal(3))
        seed = _seed(rng)
        ops.append(Op(
            f"halfspace_agreement[{i}]",
            lambda h=h, rho=rho, seed=seed: P.estimate_stability(h, None, 700_000, seed, rho=rho),
            lambda est, rho=rho: (abs(est.value - O.halfspace_agreement(rho)), O.mc_band(O.halfspace_agreement(rho), est.samples)),
            lambda est: [est.value, est.std_error],
        ))
        rho_c = float(rng.uniform(0.3, 0.8))
        seed_c = _seed(rng)
        ops.append(Op(
            f"halfspace_cell[{i}]",
            lambda h=h, rho=rho_c, seed=seed_c: P.estimate_cell_stability(h, 1, None, 700_000, seed, rho=rho),
            lambda est, rho=rho_c: (abs(est.value - O.sheppard_orthant(rho)), O.mc_band(O.sheppard_orthant(rho), est.samples)),
            lambda est: [est.value, est.std_error],
        ))
        slabs = _random_slabs(rng, 2, 3)
        rho_s = float(rng.uniform(0.3, 0.8))
        seed_s = _seed(rng)
        ref_s = Lazy(lambda f=slabs, rho=rho_s: float(np.trace(P.quad_joint_cells_1d(f, rho))))
        ops.append(Op(
            f"slabs_agreement[{i}]",
            lambda f=slabs, rho=rho_s, seed=seed_s: P.estimate_stability(f, None, 1_500_000, seed, rho=rho),
            lambda est, ref=ref_s: (abs(est.value - ref()), O.mc_band(ref(), est.samples)),
            lambda est: [est.value, est.std_error],
        ))
        ptf1 = P.MultiPTF([_quadratic_poly(rng, 1) for _ in range(2)])
        rho_p = float(rng.uniform(0.3, 0.8))
        seed_p = _seed(rng)
        ref_p = Lazy(lambda f=ptf1, rho=rho_p: float(P.quad_joint_cells_1d(f, rho)[0, 0]))
        ops.append(Op(
            f"ptf1d_cell[{i}]",
            lambda f=ptf1, rho=rho_p, seed=seed_p: P.estimate_cell_stability(f, 1, None, 1_200_000, seed, rho=rho),
            lambda est, ref=ref_p: (abs(est.value - ref()), O.mc_band(ref(), est.samples)),
            lambda est: [est.value, est.std_error],
        ))
        # balanced slabs at t = 0.7, as in criterion 5, with the library's
        # default iteration cap
        slabs_r = P.random_balanced_slabs(rng, k=3, pieces=2, n=2, axis=int(rng.integers(0, 2)))
        seed_r = _seed(rng)
        reference = _rounding_reference(
            2, slabs_r.k, 0.7, 200_000, seed_r, lambda X, f=slabs_r: O.slab_labels(f.breakpoints, f.interval_labels, f.axis, X))
        ops.append(Op(
            f"round_interval[{i}]",
            lambda f=slabs_r, seed=seed_r: G.rounding.stability_of_rounding(
                f, 0.7, tol=0.01, samples=200_000, seed=seed),
            _report_check(0.01, reference), _report_values,
        ))
        rho_d = float(rng.uniform(0.3, 0.8))
        source = G.product_space.binary_symmetric(rho_d)
        values = np.array([1.0, -1.0])
        strat = G.product_space.block_strategy(P.Halfspace([0.0], [1.0]), values, 64, tie_break=True)
        seed_d = _seed(rng)
        ref_d = Lazy(lambda src=source, v=values: O.block_halfspace_agreement(src.P, v, v, 64))
        ops.append(Op(
            f"block_strategies[{i}]",
            lambda st=strat, src=source, seed=seed_d: G.product_space.estimate_discrete_corr(st, st, src, 60_000, seed),
            lambda rep, ref=ref_d: (abs(rep.agreement - ref()), O.mc_band(ref(), rep.samples)),
            lambda rep: [rep.agreement, *rep.joint.reshape(-1)],
        ))
        ops.append(_chisq_op(rng, i))

    seed_g = _seed(rng)
    cfg = G.search.SearchConfig(
        k=2, n0=1, d=1, t=T_LN2, target_mu=[0.5, 0.5], measure_tol=0.01, budget=500,
        mode="grid-cover", seed=seed_g, samples=200_000, coeff_bound=2.0, step=0.25,
    )
    ops.append(Op("grid_search", lambda: G.search.optimize_stability(cfg), _search_check(cfg, 400_000), _search_values))
    return Workload(ops)


# ---------------------------------------------------------------------------
# exact-spectral: the exact and enumerative routes, mostly through the CLI


class _Cli:
    """Runs ``gstab`` subcommands in-process, the output going to a file."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def op(self, name: str, argv: list[str], check, values) -> Op:
        out = os.path.join(self.workdir, f"{name}.out.json")

        def call():
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = G.cli.cli_dispatch([*argv, "--out", out])
            if code != 0:
                raise RuntimeError(f"gstab {argv[0]} exited {code}: {err.getvalue().strip()}")
            with open(out) as fh:
                return json.load(fh)["result"]

        return Op(name, call, check, values)


def _abs_check(pairs) -> tuple[float, float]:
    """Largest |value - reference| over (value, reference) pairs."""
    return max(float(np.max(np.abs(np.asarray(v, float) - np.asarray(r, float)))) for v, r in pairs), O.EXACT_TOL


def _cube_check(rule: str, n: int, k: int, rho: float):
    def reference():
        table = G.cube.make_voting_rule(rule, n, k).table
        if rule == "majority":
            stab, infl = O.majority_stability(n, rho), np.full(n, O.majority_influence(n))
        elif rule == "dictator":
            stab, infl = O.dictator_stability(rho), O.cube_flip_influences(table, n)
        else:
            stab, infl = O.cube_noise_stability(table, n, k, rho), O.cube_flip_influences(table, n)
        refs = [(stab, O.cube_noise_stability(table, n, k, rho))]
        if n <= 9:
            refs.append((stab, G.cube.cube_stability_bruteforce(G.cube.CubeFn(n, k, table), rho)))
        return stab, infl, refs

    ref = Lazy(reference)

    def check(doc):
        stab, infl, refs = ref()
        return _abs_check([(doc["stability"], stab), (doc["influences"], infl), *refs])

    return check


def _uniform_source(rng, m: int) -> np.ndarray:
    """Joint law with uniform marginals: a random mix of permutations / m."""
    w = rng.dirichlet(np.ones(m))
    M = sum(wi * np.eye(m)[rng.permutation(m)] for wi in w)
    return M / m


def exact_spectral(rng, workdir: str) -> Workload:
    cli = _Cli(workdir)
    ops: list[Op] = []
    cube_cases = [("dictator", 3, 2), ("majority", 5, 2), ("majority", 9, 2), ("majority", 13, 2),
                  ("majority", 17, 2), ("plurality", 6, 3), ("plurality", 10, 3), ("plurality", 16, 3)]
    for rule, n, k in cube_cases:
        rho = round(float(rng.uniform(0.1, 0.9)), 6)
        argv = ["cube", "--rule", rule, "--n", str(n), "--k", str(k), "--rho", repr(rho)]
        ops.append(cli.op(f"cube_{rule}_{n}", argv, _cube_check(rule, n, k, rho),
                          lambda doc: [doc["stability"], *doc["influences"]]))

    ncd_inputs = []
    a = float(rng.uniform(0.05, 0.45))
    ncd_inputs.append(("ncd_binary", np.array([[a, 0.5 - a], [0.5 - a, a]])))
    ncd_inputs.append(("ncd_ternary", _uniform_source(rng, 3)))
    mu, delta, kappa = [0.5, 0.5], 0.25, 2.0
    ncd_refs = []  # (source, enumeration over words of length 2)
    for name, Pm in ncd_inputs:
        dist = G.product_space.JointDist(Pm / Pm.sum())
        path = cli.write(f"{name}.json", dist.to_json())
        ref = Lazy(lambda d=dist: O.ncd_enumerate(d.P, mu, mu, 2, 2, delta))
        ncd_refs.append((dist, ref))
        argv = ["ncd", "--dist", path, "--mu", json.dumps(mu), "--nu", json.dumps(mu),
                "--kappa", repr(kappa), "--delta", repr(delta), "--oracle-n", "2"]
        ops.append(cli.op(name, argv,
                          lambda doc, ref=ref: _abs_check([(doc["achieved"], ref()["best"]), (doc["oracle"], ref()["best"])]),
                          lambda doc: [doc["achieved"], doc["oracle"]]))

    M = rng.random((3, 4)) + 0.05
    basis_dist = G.product_space.JointDist(M / M.sum())
    path = cli.write("basis_dist.json", basis_dist.to_json())

    def basis_check(doc):
        Pm = basis_dist.P
        X, Y, rho = np.asarray(doc["X"]), np.asarray(doc["Y"]), np.asarray(doc["rho"])
        s = O.maximal_correlation_svd(Pm)
        corr = np.zeros((3, 4))
        corr[np.arange(3), np.arange(3)] = s
        return _abs_check([
            (rho, s), (doc["maximal_correlation"], s[1]),
            (X.T @ np.diag(Pm.sum(axis=1)) @ X, np.eye(3)),
            (Y.T @ np.diag(Pm.sum(axis=0)) @ Y, np.eye(4)),
            (X.T @ Pm @ Y, corr),
        ])

    ops.append(cli.op("basis", ["basis", "--dist", path], basis_check, lambda doc: doc["rho"]))

    slabs = _random_slabs(rng, 1, 3)
    path = cli.write("slabs1d.json", G.partitions.partition_to_json(slabs))
    quad_order, max_degree = 40, 6
    coeff_check = Lazy(lambda: _quadrature_check(
        O.slab_coeffs(slabs.breakpoints, slabs.interval_labels, 3, max_degree),
        O.slab_coeffs_quadrature(slabs.breakpoints, slabs.interval_labels, 3, max_degree, quad_order)))

    def hermite_check(doc):
        got = np.zeros((3, max_degree + 1))
        for entry in doc["coefficients"]:
            got[:, entry["index"][0]] = entry["coeff"]
        return coeff_check()(got)

    ops.append(cli.op("hermite", ["hermite", "--partition", path, "--max-degree", str(max_degree),
                                  "--quad-order", str(quad_order)], hermite_check,
                      lambda doc: [c for e in doc["coefficients"] for c in e["coeff"]]))

    n_t = 4
    ptf = G.partitions.MultiPTF([_quadratic_poly(rng, n_t) for _ in range(2)])
    path = cli.write("ptf4.json", G.partitions.partition_to_json(ptf))

    def tensor_reference():
        p0, p1 = ptf.polys
        const, var = O.poly_moments(p0, p1, n_t)
        p = p0.normalized()
        q = p1.normalized()
        q = q.shift(-q.mean())
        _, var_b = O.poly_moments(p, q, n_t)
        lam, ratio, lam_band = [], [], []
        for pj in ptf.polys:
            sv = np.sort(np.abs(np.linalg.eigvalsh(np.asarray(pj.chaos[2].array))))[::-1]
            lam.append(float(sv[0]))
            ratio.append(float(sv[0]) / math.sqrt(pj.variance()))
            # power iteration stops once a step changes the estimate by at
            # most 1e-9 (relative); the error left is that step times
            # r / (1 - r), with r = (sigma_2 / sigma_1)^2
            r = (sv[1] / sv[0]) ** 2
            lam_band.append(O.EXACT_TOL + 1e-9 * max(1.0, sv[0]) * r / max(1.0 - r, 1e-3))
        return const, var, var_b, np.array(lam), np.array(ratio), np.array(lam_band)

    tensor_ref = Lazy(tensor_reference)

    def tensor_check(doc):
        const, var, var_b, lam, ratio, lam_band = tensor_ref()
        vb = doc["variance_bounds"]
        exact, _ = _abs_check([(doc["product"]["constant"], const), (doc["product"]["variance"] / var, 1.0),
                               (vb["product_variance"] / var_b, 1.0)])
        got_lam = np.array([r["lambda_max"] for r in doc["eigenregularity"]])
        got_ratio = np.array([r["ratio"] for r in doc["eigenregularity"]])
        # ratio = lambda / sd, so its band is lambda's band scaled by 1 / sd
        eig = max(np.max(np.abs(got_lam - lam) / lam_band),
                  np.max(np.abs(got_ratio - ratio) / (lam_band * ratio / lam)))
        ordered = vb["lower_top"] <= vb["product_variance"] * (1 + 1e-9) <= vb["upper"] * (1 + 1e-9)
        return (max(exact / O.EXACT_TOL, float(eig)) if ordered else math.inf), 1.0

    ops.append(cli.op("tensor", ["tensor", "--partition", path, "--op", "all"], tensor_check,
                      lambda doc: [doc["product"]["constant"], doc["product"]["variance"],
                                   doc["variance_bounds"]["product_variance"]]))

    n_r = 9
    flips = rng.integers(0, 2, n_r)
    idx = np.arange(1 << n_r)
    table = G.cube.make_voting_rule("majority", n_r, 2).table[idx ^ int((flips << np.arange(n_r)).sum())]
    tab = G.partitions.Tabulated(G.cube.CubeFn(n_r, 2, table))
    path = cli.write("tab9.json", G.partitions.partition_to_json(tab))
    seed_r = _seed(rng)
    round_check = _rounding_check(0.01, _rounding_reference(
        n_r, 2, 0.5, 20_000, seed_r, lambda X: O.sign_table_labels(table, n_r, X)))
    ops.append(cli.op(
        "round_tabulated",
        ["round", "--partition", path, "--t", "0.5", "--tol", "0.01", "--samples", "20000", "--seed", str(seed_r)],
        lambda doc: round_check(doc["stab_before"], doc["stab_after"], doc["se_before"], doc["se_after"],
                                doc["measures_before"], doc["measures_after"], doc["converged"],
                                doc["measure_slack"]),
        lambda doc: [doc["stab_before"], doc["stab_after"], *doc["z"]],
    ))

    m, n_f, k = 3, 5, 3
    Mf = rng.random((m, m)) + 0.05
    src = G.product_space.JointDist(Mf / Mf.sum())
    f_tab = rng.integers(0, k, (m,) * n_f)
    g_tab = rng.integers(0, k, (m,) * n_f)
    f_hot = np.eye(k)[f_tab]
    g_hot = np.eye(k)[g_tab]

    def fourier_call():
        basis = G.product_space.correlation_basis(src)
        F = G.product_space.tensor_fourier(f_hot, basis.X, src.marginal_a(), n_f)
        Gf = G.product_space.tensor_fourier(g_hot, basis.Y, src.marginal_b(), n_f)
        return G.product_space.correlation(F, Gf, basis.rho)

    fourier_ref = Lazy(lambda: G.product_space.exact_correlation(f_hot, g_hot, src, n_f))
    ops.append(Op("fourier_correlation", fourier_call,
                  lambda val: _abs_check([(val, fourier_ref())]), lambda val: [val]))

    n_e, k_e, deg_e = 6, 3, 4
    tab_e = G.partitions.Tabulated(G.cube.CubeFn(n_e, k_e, rng.integers(1, k_e + 1, 1 << n_e)))
    expansion_ref = Lazy(lambda: O.sign_table_coeffs(tab_e.cube.table, n_e, k_e, deg_e))

    def expansion_check(e):
        ref = expansion_ref()
        got = np.zeros_like(ref)
        for S, c in e.coeffs.items():
            got[S] = c
        mask = np.indices(ref.shape[:-1]).sum(axis=0) <= deg_e
        return float(np.abs(got - ref)[mask].max()), O.EXACT_TOL

    ops.append(Op("sign_table_expansion", lambda: G.partitions.exact_expansion(tab_e, deg_e), expansion_check,
                  lambda e: [x for S in sorted(e.coeffs) for x in e.coeffs[S]]))

    def ncd_totals():
        # per source: ncd_decide enumerates words of length 1 and 2, and
        # --oracle-n 2 runs ncd_brute_oracle on words of length 2 again
        sizes = [O.ncd_enumerate(dist.P, mu, mu, 2, 1, delta) for dist, _ in ncd_refs]
        sizes += [words_of_two() for _, words_of_two in ncd_refs] * 2
        return {s: sum(z[s] for z in sizes) for s in ("pairs", "tables", "feasible")}

    return Workload(ops, ncd_totals=ncd_totals)


WORKLOADS = {
    "ptf-search": ptf_search,
    "mc-estimators": mc_estimators,
    "exact-spectral": exact_spectral,
}
