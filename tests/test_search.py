"""Cover enumeration, stability optimization, and the NCD decider."""
import json
import math

import numpy as np
import pytest

from gstab.gauss import CorrelatedSampler, binomial_se, label_measures
from gstab.partitions import (
    MultiPTF,
    estimate_cell_stability,
    partition_from_json,
    partition_to_json,
    quad_joint_cells_1d,
)
from gstab.product_space import JointDist, binary_symmetric, exact_correlation
from gstab.search import (
    CoverSizeError,
    SearchConfig,
    SearchResult,
    _optimize_grid,
    _poly_signature,
    enumerate_cover,
    ncd_brute_oracle,
    ncd_decide,
    optimize_stability,
)


class TestEnumerateCover:
    def test_canonical_count_k2(self):
        # slopes +-1, intercepts {-1, 0, 1} after unit-variance scaling
        cover = list(enumerate_cover(2, 1, 1, 1.0, 1.0))
        assert len(cover) == 6

    def test_constant_partitions_d0(self):
        cover = list(enumerate_cover(3, 1, 0, 1.0, 1.0))
        assert len(cover) == 3
        labels = sorted(int(f.labels(np.array([[0.7]]))[0]) for f in cover)
        assert labels == [1, 2, 3]

    def test_unit_variance_normalization(self):
        for f in enumerate_cover(2, 2, 1, 2.0, 1.0):
            for p in f.polys:
                assert p.variance() == pytest.approx(1.0, abs=1e-9)

    def test_blowup_guard(self):
        with pytest.raises(CoverSizeError):
            list(enumerate_cover(3, 2, 2, 2.0, 0.05, guard=1000))


class TestOptimizeStability:
    def test_grid_recovers_halfspace(self):
        cfg = SearchConfig(
            k=2, n0=1, d=1, t=math.log(2), target_mu=[0.5, 0.5],
            measure_tol=0.01, budget=500, mode="grid-cover", seed=11,
            samples=200_000, coeff_bound=2.0, step=0.25,
        )
        res = optimize_stability(cfg)
        assert res.feasible
        # best is a median halfspace: boundary near 0, cell stability 1/3
        poly = res.best.polys[0]
        boundary = -poly.constant / poly.chaos[1].array[0]
        assert abs(boundary) <= 0.05
        assert res.stability == pytest.approx(2 / 3, abs=0.01)
        cell = estimate_cell_stability(res.best, 1, cfg.t, 200_000, 5)
        assert cell.value == pytest.approx(1 / 3, abs=0.01)

    def test_constant_target_trivial(self):
        cfg = SearchConfig(
            k=2, n0=1, d=0, t=0.5, target_mu=[1.0, 0.0],
            measure_tol=0.01, budget=10, mode="grid-cover", seed=1,
            samples=20_000,
        )
        res = optimize_stability(cfg)
        assert res.feasible
        assert res.stability == pytest.approx(1.0)

    def test_budget_monotonicity(self):
        base = dict(
            k=2, n0=1, d=1, t=math.log(2), target_mu=[0.5, 0.5],
            measure_tol=0.02, mode="grid-cover", seed=7, samples=100_000,
            coeff_bound=2.0, step=0.5,
        )
        small = optimize_stability(SearchConfig(budget=8, **base))
        big = optimize_stability(SearchConfig(budget=100, **base))
        se = 6 * small.stability_se
        assert big.stability >= small.stability - se

    def test_determinism(self):
        cfg = SearchConfig(
            k=2, n0=1, d=1, t=0.5, target_mu=[0.5, 0.5],
            measure_tol=0.02, budget=40, mode="grid-cover", seed=3,
            samples=50_000,
        )
        a = optimize_stability(cfg)
        b = optimize_stability(cfg)
        assert a.stability == b.stability
        assert a.trace == b.trace

    @pytest.mark.slow
    def test_local_mode_three_labels(self):
        cfg = SearchConfig(
            k=3, n0=2, d=1, t=math.log(2), target_mu=[1 / 3] * 3,
            measure_tol=0.02, budget=60, mode="random-restart-local", seed=4,
            samples=30_000, quad_order=16,
        )
        res = optimize_stability(cfg)
        slabs_baseline = float(
            np.trace(quad_joint_cells_1d(_equal_slabs3(), 0.5))
        )
        assert res.feasible
        assert res.stability >= slabs_baseline - 0.01

    def test_local_mode_prefers_feasible_candidates(self, monkeypatch):
        # the restart and its first step report every point in label 1
        # (stability 1, unmatched); the second step is scored as it is
        from gstab import search

        rounded = search._rounded_candidate
        calls = []

        def first_two_unmatched(cfg, ptf, X, Y):
            cand = rounded(cfg, ptf, X, Y)
            calls.append(cand)
            if len(calls) <= 2:
                return False, 1.0, np.array([1.0, 0.0, 0.0]), cand[3]
            return cand

        monkeypatch.setattr(search, "_rounded_candidate", first_two_unmatched)
        cfg = SearchConfig(
            k=3, n0=2, d=1, t=math.log(2), target_mu=[1 / 3] * 3,
            measure_tol=0.02, budget=3, mode="random-restart-local", seed=30,
            samples=3000, quad_order=16,
        )
        res = optimize_stability(cfg)
        assert len(calls) == 3
        assert [v for _, _, v, _ in res.trace][:2] == [1.0, 1.0]
        assert res.feasible
        assert np.abs(res.measures - cfg.target_mu).sum() <= cfg.measure_tol
        assert res.stability == res.trace[2][2]
        assert res.stability < 1.0

    def test_local_mode_winner_is_matched(self):
        # here a damped matcher never left z = 0 and the winner had every
        # point in label 1
        cfg = SearchConfig(
            k=3, n0=2, d=1, t=math.log(2), target_mu=[1 / 3] * 3,
            measure_tol=0.02, budget=1, mode="random-restart-local", seed=556892110,
            samples=30000, quad_order=16,
        )
        res = optimize_stability(cfg)
        assert res.feasible
        assert np.abs(res.measures - cfg.target_mu).sum() <= cfg.measure_tol
        assert res.measures.max() < 1.0 and res.stability < 1.0

    def test_config_round_trip(self):
        cfg = SearchConfig(
            k=2, n0=1, d=1, t=0.5, target_mu=[0.5, 0.5],
            measure_tol=0.02, budget=40, mode="grid-cover", seed=3,
        )
        back = SearchConfig.from_json(cfg.to_json())
        assert back.k == cfg.k and back.budget == cfg.budget
        np.testing.assert_allclose(back.target_mu, cfg.target_mu)


def _labelled_grid(cfg, X, Y):
    """Grid-cover search scored by one full MultiPTF labelling per
    candidate and side: the reference for the sign-count scorer."""
    best = closest = None
    trace = []
    evals = 0
    for f in enumerate_cover(cfg.k, cfg.n0, cfg.d, cfg.coeff_bound, cfg.step):
        if evals >= cfg.budget:
            break
        lx, ly = f.labels(X), f.labels(Y)
        mu = label_measures(lx, f.k)
        value = float(np.mean(lx == ly))
        gap = float(np.abs(mu - cfg.target_mu).sum())
        evals += 1
        trace.append((evals, _poly_signature(f), value, binomial_se(value, cfg.samples, 1e-12)))
        if gap <= cfg.measure_tol and (best is None or value > best[0]):
            best = (value, f, mu)
        if closest is None or gap < closest[0]:
            closest = (gap, value, f, mu)
    value, f, mu = best if best is not None else closest[1:]
    return SearchResult(f, value, binomial_se(value, cfg.samples), mu, evals, best is not None, trace)


def _assert_same_result(got, want):
    assert got.stability == want.stability
    assert got.stability_se == want.stability_se
    np.testing.assert_array_equal(got.measures, want.measures)
    assert got.evaluations == want.evaluations
    assert got.feasible == want.feasible
    assert got.trace == want.trace
    assert partition_to_json(got.best) == partition_to_json(want.best)


_GRID_CASES = {
    "k2_n1_d1": dict(k=2, n0=1, d=1, target_mu=[0.5, 0.5], measure_tol=0.01,
                     budget=100, coeff_bound=2.0, step=0.25),
    "k2_n2_d1": dict(k=2, n0=2, d=1, target_mu=[0.5, 0.5], measure_tol=0.02,
                     budget=40, coeff_bound=1.0, step=0.5),
    "k2_n2_d2": dict(k=2, n0=2, d=2, target_mu=[0.3, 0.7], measure_tol=0.03,
                     budget=40, coeff_bound=1.0, step=1.0),
    "k3_n1_d1": dict(k=3, n0=1, d=1, target_mu=[0.5, 0.34, 0.16], measure_tol=0.02,
                     budget=216, coeff_bound=1.0, step=1.0),
    "k3_n2_d1": dict(k=3, n0=2, d=1, target_mu=[0.5, 0.26, 0.24], measure_tol=0.03,
                     budget=60, coeff_bound=1.0, step=1.0),
    "k3_d0": dict(k=3, n0=1, d=0, target_mu=[0.0, 1.0, 0.0], measure_tol=0.01, budget=10),
    "k2_d0": dict(k=2, n0=2, d=0, target_mu=[1.0, 0.0], measure_tol=0.01, budget=10),
    "k2_fallback": dict(k=2, n0=1, d=1, target_mu=[0.5, 0.5], measure_tol=1e-6,
                        budget=30, coeff_bound=2.0, step=0.25),
    "k3_fallback": dict(k=3, n0=1, d=1, target_mu=[1 / 3] * 3, measure_tol=1e-6,
                        budget=50, coeff_bound=1.0, step=1.0),
}


class TestGridScorer:
    """The sign-count scorer against the labelling loop, bit for bit."""

    @pytest.mark.parametrize("case", sorted(_GRID_CASES))
    def test_matches_labelling_loop(self, case):
        cfg = SearchConfig(t=0.6, mode="grid-cover", seed=21, samples=20_000, **_GRID_CASES[case])
        X, Y = CorrelatedSampler(cfg.n0, math.exp(-cfg.t), cfg.seed).pairs(cfg.samples)
        got = optimize_stability(cfg)
        _assert_same_result(got, _labelled_grid(cfg, X, Y))
        assert got.feasible == (not case.endswith("fallback"))

    @pytest.mark.parametrize("k", [2, 3])
    def test_rows_on_the_boundary_label_one(self, k):
        # H_1 with c0 = 0 is in this cover; it is exactly 0 at x = 0, where
        # neither p nor -p is positive, so the MultiPTF rule gives label 1
        X = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -0.0, 0.5])[:, None]
        Y = np.array([0.0, 1.0, -1.0, 0.0, 0.0, -2.0, 0.0, -0.0])[:, None]
        cfg = SearchConfig(
            k=k, n0=1, d=1, t=0.5, target_mu=[1 / k] * k, measure_tol=0.3,
            budget=300, mode="grid-cover", seed=0, samples=X.shape[0],
            coeff_bound=1.0, step=1.0,
        )
        h1 = [f for f in enumerate_cover(k, 1, 1, 1.0, 1.0)
              if f.polys[0].constant == 0.0 and f.polys[0].eval(np.ones(1)) > 0]
        assert h1 and h1[0].polys[0].eval(np.zeros(1)) == 0.0
        assert h1[0].label([0.0]) == 1
        _assert_same_result(_optimize_grid(cfg, X, Y), _labelled_grid(cfg, X, Y))


class TestSearchSerialization:
    def _reload(self, res):
        doc = json.loads(res.to_json())
        assert doc["best"] == json.loads(partition_to_json(res.best))
        return partition_from_json(json.dumps(doc["best"]))

    def _same_labels(self, f, g):
        X = np.random.default_rng(8).standard_normal((500, f.n))
        np.testing.assert_array_equal(g.labels(X), f.labels(X))

    def test_grid_best_reloads(self):
        res = optimize_stability(SearchConfig(
            k=2, n0=2, d=1, t=0.5, target_mu=[0.5, 0.5], measure_tol=0.02,
            budget=20, mode="grid-cover", seed=3, samples=5000,
        ))
        back = self._reload(res)
        assert isinstance(back, MultiPTF)
        self._same_labels(res.best, back)

    @pytest.mark.parametrize("n0, route", [(1, "interval"), (2, "ptf-addition")])
    def test_local_best_reloads(self, n0, route):
        res = optimize_stability(SearchConfig(
            k=2, n0=n0, d=1, t=0.5, target_mu=[0.5, 0.5], measure_tol=0.05,
            budget=2, mode="random-restart-local", seed=5, samples=2000, quad_order=8,
        ))
        assert json.loads(res.to_json())["best"]["payload"]["route"] == route
        back = self._reload(res)
        assert back.kind == "rounded-ptf" and back.route == route
        np.testing.assert_array_equal(back.z, res.best.z)
        self._same_labels(res.best, back)

    def test_route_mismatch_rejected(self):
        res = optimize_stability(SearchConfig(
            k=2, n0=2, d=1, t=0.5, target_mu=[0.5, 0.5], measure_tol=0.05,
            budget=1, mode="random-restart-local", seed=5, samples=1000, quad_order=8,
        ))
        doc = json.loads(partition_to_json(res.best))
        doc["payload"]["route"] = "interval"
        with pytest.raises(ValueError, match="ptf-addition"):
            partition_from_json(json.dumps(doc))


def _equal_slabs3():
    from gstab.partitions import equal_slabs

    return equal_slabs(3)


def _pair_loop_optimum(P, mu, nu, k, n, delta):
    """Best exact agreement over feasible table pairs, one pair at a time."""
    import itertools

    W = np.ones((1, 1))
    for _ in range(n):
        W = np.kron(W, P.P)

    def feasible(words, weights, target):
        for table in itertools.product(range(k), repeat=words):
            mass = np.zeros(k)
            np.add.at(mass, list(table), weights)
            if np.abs(mass - target).sum() <= delta + 1e-12:
                yield table

    fs = list(feasible(W.shape[0], W.sum(axis=1), mu))
    gs = list(feasible(W.shape[1], W.sum(axis=0), nu))
    best = 0.0
    for tf in fs:
        for tg in gs:
            best = max(best, sum(W[x, y] for x in range(W.shape[0]) for y in range(W.shape[1]) if tf[x] == tg[y]))
    return best


def _witness_agreement(dec, P):
    """Exact Pr[f(X^n) = g(Y^n)] of a decision's table witnesses."""
    n, k = dec.n_used, dec.witness_f.k
    f = np.eye(k)[dec.witness_f.table - 1].reshape((P.mA,) * n + (k,))
    g = np.eye(k)[dec.witness_g.table - 1].reshape((P.mB,) * n + (k,))
    return exact_correlation(f, g, P, n)


class TestNcdOracle:
    def test_diagonal_source(self):
        P = JointDist(np.diag([0.5, 0.5]))
        assert ncd_brute_oracle(P, [0.5, 0.5], [0.5, 0.5], 2, 1, 0.0) == pytest.approx(1.0)

    def test_independent_uniform(self):
        P = JointDist(np.full((2, 2), 0.25))
        assert ncd_brute_oracle(P, [0.5, 0.5], [0.5, 0.5], 2, 1, 0.0) == pytest.approx(0.5)
        assert ncd_brute_oracle(P, [0.5, 0.5], [0.5, 0.5], 2, 2, 0.0) == pytest.approx(0.5)

    def test_binary_symmetric_no_gain_at_two(self):
        P = binary_symmetric(0.5)
        v1 = ncd_brute_oracle(P, [0.5, 0.5], [0.5, 0.5], 2, 1, 0.0)
        v2 = ncd_brute_oracle(P, [0.5, 0.5], [0.5, 0.5], 2, 2, 0.0)
        assert v1 == pytest.approx(0.75)
        assert v2 == pytest.approx(0.75)


class TestNcdDecide:
    def test_diagonal_feasible_identity(self):
        P = JointDist(np.diag([0.5, 0.5]))
        dec = ncd_decide(P, [0.5, 0.5], [0.5, 0.5], kappa=1.0, delta=0.01)
        assert dec.feasible
        assert dec.achieved == pytest.approx(1.0)
        assert dec.n_used == 1

    def test_binary_symmetric_exact_case(self):
        dec = ncd_decide(binary_symmetric(0.5), [0.5, 0.5], [0.5, 0.5], kappa=0.75, delta=0.02)
        assert dec.feasible
        assert dec.achieved == pytest.approx(0.75)

    def test_independent_not_found(self):
        P = JointDist(np.full((2, 2), 0.25))
        dec = ncd_decide(P, [0.5, 0.5], [0.5, 0.5], kappa=0.9, delta=0.05)
        assert not dec.feasible
        assert dec.achieved == pytest.approx(0.5, abs=1e-12)

    def test_achieved_matches_oracle(self, rng):
        # not-found instances must report exactly the exhaustive optimum;
        # feasible ones must meet the threshold they claim
        for m in (2, 3):
            searched = 0
            for _ in range(10):
                M = rng.random((m, m)) + 0.05
                P = JointDist(M / M.sum())
                mu = [0.5, 0.5]
                got = ncd_decide(P, mu, mu, kappa=2.0, delta=0.3, n_max=2)
                oracle = ncd_brute_oracle(P, mu, mu, 2, 2, 0.3)
                # the pair loop is cheap at n = 2 on binary sources only
                loop_n = 2 if m == 2 else 1
                assert ncd_brute_oracle(P, mu, mu, 2, loop_n, 0.3) == pytest.approx(
                    _pair_loop_optimum(P, mu, mu, 2, loop_n, 0.3), abs=1e-12
                )
                assert not got.feasible
                assert got.achieved == pytest.approx(oracle, abs=1e-9)
                if got.n_used is not None:
                    searched += 1
                    assert _witness_agreement(got, P) == pytest.approx(got.achieved, abs=1e-12)
                    # a threshold the optimum clears must be met by the witness
                    kappa = oracle + 0.15
                    dec = ncd_decide(P, mu, mu, kappa=kappa, delta=0.3, n_max=2)
                    assert dec.feasible
                    exact = _witness_agreement(dec, P)
                    assert exact == pytest.approx(dec.achieved, abs=1e-12)
                    assert exact >= kappa - 0.3
            assert searched >= 5  # the sweep must exercise real instances

    def test_first_hit_in_enumeration_order(self):
        # anti-correlated source: the first feasible pair (identity tables,
        # agreement 0.2) clears the threshold before the optimum (0.8)
        P = JointDist(np.array([[0.1, 0.4], [0.4, 0.1]]))
        dec = ncd_decide(P, [0.5, 0.5], [0.5, 0.5], kappa=0.35, delta=0.25)
        assert dec.feasible and dec.n_used == 1
        assert dec.achieved == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_array_equal(dec.witness_g.table, [1, 2])

    def test_enumeration_guard_per_word_length(self):
        P = JointDist(np.diag([1 / 3] * 3))
        mu = [1 / 3] * 3
        # decided by the identity tables at n = 1, before n = 2 is reached
        dec = ncd_decide(P, mu, mu, kappa=1.0, delta=0.01)
        assert dec.feasible and dec.n_used == 1
        assert dec.achieved == pytest.approx(1.0)
        # n = 2 would enumerate 3^9 tables per side
        with pytest.raises(ValueError, match="enumeration guard"):
            ncd_decide(P, mu, mu, kappa=2.0, delta=0.01)
        with pytest.raises(ValueError, match="enumeration guard"):
            ncd_brute_oracle(P, mu, mu, 3, 2, 0.01)

    def test_block_mode_reaches_gaussian_value(self):
        # kappa between the n<=2 optimum shape and the Gaussian halfspace
        # limit exercises the block-embedded fallback
        P = binary_symmetric(0.5)
        dec = ncd_decide(
            P, [0.5, 0.5], [0.5, 0.5], kappa=0.70, delta=0.03,
            n_max=200, ell=64, samples=150_000, seed=3,
        )
        assert dec.feasible
        assert dec.achieved == pytest.approx(0.75, abs=0.02)


class TestCoverScaling:
    def test_proportional_grids_canonicalize_identically(self):
        # unit-variance canonicalization removes the overall scale, so
        # proportionally scaled grids enumerate the same candidates
        import numpy as np

        a = list(enumerate_cover(2, 1, 1, 1.0, 1.0))
        b = list(enumerate_cover(2, 1, 1, 2.0, 2.0))
        assert len(a) == len(b)
        X = np.linspace(-2, 2, 9)[:, None]
        labels_a = sorted(tuple(f.labels(X)) for f in a)
        labels_b = sorted(tuple(f.labels(X)) for f in b)
        assert labels_a == labels_b
