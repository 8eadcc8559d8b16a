"""Tests of the benchmark's own machinery: self-time arithmetic, the span
wrappers, and the closed-form oracles.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as O  # noqa: E402
import spans  # noqa: E402
from gstab import cube, partitions, rounding, search  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def _record(events):
    """Spans from a script of ("open", name, t) / ("close", name, t)."""
    times = [t for _, _, t in events]
    tracer = spans.Tracer(clock=FakeClock(times))
    live = {}
    for kind, name, _ in events:
        if kind == "open":
            live[name] = tracer.open(name, name.split(".")[0])
        else:
            tracer.close(live.pop(name))
    return tracer.spans


def test_self_time_of_nested_spans():
    got = _record([
        ("open", "a.root", 0.0),
        ("open", "b.child1", 1.0),
        ("open", "c.grandchild", 1.5),
        ("close", "c.grandchild", 2.5),
        ("close", "b.child1", 3.0),
        ("open", "b.child2", 4.0),
        ("close", "b.child2", 6.0),
        ("close", "a.root", 10.0),
    ])
    selfs = dict(zip((s.name for s in got), spans.self_times(got)))
    assert selfs == {"a.root": 6.0, "b.child1": 1.0, "c.grandchild": 1.0, "b.child2": 2.0}
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert [s.parent for s in got] == [-1, 0, 1, 0]


def test_self_time_counts_overlapping_children_once():
    root = spans.Span(0, "a.root", "a", 0.0, -1, end=10.0)
    kids = [
        spans.Span(1, "b.x", "b", 1.0, 0, end=4.0),
        spans.Span(2, "b.y", "b", 3.0, 0, end=5.0),   # overlaps b.x
        spans.Span(3, "b.z", "b", 9.0, 0, end=12.0),  # runs past the parent
    ]
    assert spans.self_times([root, *kids])[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_attribute_self_time_by_layer():
    got = _record([
        ("open", "rounding.stability_of_rounding", 0.0),
        ("open", "hermite.ou_on_points", 1.0),
        ("open", "partitions.labels.ptf", 2.0),
        ("close", "partitions.labels.ptf", 5.0),
        ("close", "hermite.ou_on_points", 6.0),
        ("close", "rounding.stability_of_rounding", 8.0),
    ])
    got[1].counts = {"node_points": 100}
    m = spans.layer_metrics(got, rounds=2)
    assert m["rounding.self_s"][0] == pytest.approx(3.0 / 2)
    assert m["hermite.self_s"][0] == pytest.approx(2.0 / 2)
    assert m["hermite.ou.self_s"][0] == pytest.approx(2.0 / 2)
    assert m["partitions.labels.ptf.self_s"][0] == pytest.approx(3.0 / 2)
    assert m["hermite.ou.node_points"][0] == pytest.approx(50)
    assert m["hermite.ou.node_points_per_s"][0] == pytest.approx(100 / 5.0)


def test_wrappers_catch_cross_module_calls_and_restore():
    original = rounding._match_threshold_on_values
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert search._match_threshold_on_values is rounding._match_threshold_on_values
        assert search._match_threshold_on_values is not original
        f = partitions.Slabs(0, [0.0], [1, 2], n=1)
        rounding.stability_of_rounding(f, 0.5, samples=2000, seed=1)
    finally:
        restore()
    assert rounding._match_threshold_on_values is original
    assert search._match_threshold_on_values is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "rounding.stability_of_rounding"
    assert "partitions.labels.slabs" in names
    assert "rounding._match_threshold_on_values" in names
    assert "gauss.sampler.pairs" in names
    assert all(s.parent == 0 for s in tracer.spans[1:] if s.name == "gauss.sampler.pairs")


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("rho", [-0.4, 0.0, 0.3, 0.8, 1.0])
def test_majority_oracle_matches_bruteforce(n, rho):
    f = cube.make_voting_rule("majority", n, 2)
    assert O.majority_stability(n, rho) == pytest.approx(cube.cube_stability_bruteforce(f, rho), abs=1e-12)
    assert O.cube_noise_stability(f.table, n, 2, rho) == pytest.approx(O.majority_stability(n, rho), abs=1e-12)
    assert O.cube_flip_influences(f.table, n) == pytest.approx(np.full(n, O.majority_influence(n)), abs=1e-15)


def test_dictator_and_sheppard_anchors():
    f = cube.make_voting_rule("dictator", 3, 2)
    assert O.dictator_stability(0.5) == pytest.approx(cube.cube_stability_bruteforce(f, 0.5), abs=1e-12)
    assert O.sheppard_orthant(0.5) == pytest.approx(1.0 / 3.0)
    assert O.halfspace_agreement(0.0) == pytest.approx(0.5)


def test_sign_table_coefficients_match_exact_expansion():
    rng = np.random.default_rng(3)
    tab = partitions.Tabulated(cube.CubeFn(3, 2, rng.integers(1, 3, 8)))
    e = partitions.exact_expansion(tab, 3)
    ref = O.sign_table_coeffs(tab.cube.table, 3, 2, 3)
    for S, c in e.coeffs.items():
        np.testing.assert_allclose(c, ref[S], atol=1e-12)


def test_block_oracle_reduces_to_single_bit_at_ell_one():
    # one coordinate: the labels are the sign of the basis value of the
    # main symbol, so agreement is Pr[x = y] = (1 + rho) / 2
    P = np.array([[0.4, 0.1], [0.1, 0.4]])
    got = O.block_halfspace_agreement(P, [1.0, -1.0], [1.0, -1.0], 1)
    assert got == pytest.approx(0.8, abs=1e-12)


def test_ncd_enumeration_matches_library_oracle():
    from gstab.product_space import JointDist

    P = JointDist(np.array([[0.3, 0.2], [0.1, 0.4]]))
    ref = search.ncd_brute_oracle(P, [0.5, 0.5], [0.5, 0.5], 2, 2, 0.25)
    got = O.ncd_enumerate(P.P, [0.5, 0.5], [0.5, 0.5], 2, 2, 0.25)
    assert got["best"] == pytest.approx(ref, abs=1e-12)
    assert got["tables"] == 2 * 2**4


def test_tail_rank_depends_on_the_op_count_only():
    import run

    lat = {f"op{i}": float(i) for i in range(1, 13)}
    assert run.tail(lat) == (11.0, "op11")  # nearest-rank p90 of 12 ops
    assert run.tail({"only": 2.5}) == (2.5, "only")


def _fixed_reference(target, unmatched, samples=3000):
    import workloads as W

    return W.Lazy(lambda: (np.asarray(target, float), unmatched, samples))


def test_rounding_check_fails_a_collapsed_rounding():
    import workloads as W

    third = [1 / 3] * 3
    check = W._rounding_check(0.01, _fixed_reference(third, 0.05))
    after = [0.335, 0.33, 0.335]
    assert check(0.6, 0.61, 0.01, 0.01, third, after, True, float(np.abs(np.subtract(after, third)).sum()))[0] <= 1.0
    # every point in one cell: stab_g = 1 clears the contract, but the
    # slack is worse than the unshifted rounding's
    assert check(0.6, 1.0, 0.01, 0.0, third, [1.0, 0.0, 0.0], False, 4 / 3)[0] > 1.0
    # an unconverged match no worse than the unshifted rounding passes
    after = [0.35, 0.325, 0.325]
    assert check(0.6, 0.61, 0.01, 0.01, third, after, False, float(np.abs(np.subtract(after, third)).sum()))[0] <= 1.0


def test_rounding_check_fails_dishonest_reports():
    import workloads as W

    third = [1 / 3] * 3
    check = W._rounding_check(0.01, _fixed_reference(third, 0.05))
    after = [0.36, 0.32, 0.32]  # slack 0.0533
    assert check(0.6, 0.61, 0.01, 0.01, third, after, True, 0.0533333333333333)[0] > 1.0  # claims convergence
    assert check(0.6, 0.61, 0.01, 0.01, third, after, False, 0.01)[0] > 1.0  # wrong slack
    assert check(0.6, 0.61, 0.01, 0.01, [0.4, 0.3, 0.3], after, False, 0.08)[0] > 1.0  # wrong before-measures


def test_search_check_fails_an_infeasible_winner_without_a_bound():
    import workloads as W

    cfg = search.SearchConfig(k=2, n0=1, d=1, t=math.log(2.0), target_mu=[0.5, 0.5], measure_tol=0.02,
                              budget=1, mode="grid-cover", seed=5, samples=1000)
    half = partitions.Halfspace([0.0], [1.0])
    collapsed = partitions.Slabs(0, [10.0], [1, 2], n=1, k=2)  # label 1 on every sample
    est = partitions.estimate_stability(half, cfg.t, 20_000, 9)
    good = search.SearchResult(half, est.value, est.std_error, np.array([0.5, 0.5]), 1, True, [])
    assert W._search_check(cfg, 20_000)(good)[0] <= 1.0
    bad = search.SearchResult(collapsed, 1.0, 0.0, np.array([1.0, 0.0]), 1, False, [])
    assert W._search_check(cfg, 20_000)(bad)[0] > 1.0
    # with a bound, it must be no worse than the unshifted rounding
    assert W._search_check(cfg, 20_000, W.Lazy(lambda res: 0.1))(bad)[0] > 1.0
    assert W._search_check(cfg, 20_000, W.Lazy(lambda res: 1.0 + 1e-12))(bad)[0] <= 1.0
    lying = search.SearchResult(half, est.value, est.std_error, np.array([0.5, 0.5]), 1, False, [])
    assert W._search_check(cfg, 20_000, W.Lazy(lambda res: 1.0))(lying)[0] > 1.0


def test_unmatched_slack_counts_ties():
    F = np.array([[0.6, 0.4], [0.5, 0.5], [0.2, 0.8], [0.1, 0.9]])
    # argmax gives labels 1, 1, 2, 2; one of four points is tied
    assert O.unmatched_slack(F, [0.5, 0.5]) == pytest.approx(0.5)
    assert O.unmatched_slack(F, [0.25, 0.75]) == pytest.approx(0.5 + 0.5)


@pytest.mark.parametrize("route", ["slabs", "sign_table"])
def test_label_oracles_match_the_library(route):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((400, 3))
    if route == "slabs":
        f = partitions.Slabs(1, [-0.4, 0.3, 1.1], [2, 1, 3, 1], n=3, k=3)
        labels = O.slab_labels(f.breakpoints, f.interval_labels, 1, X)
    else:
        table = rng.integers(1, 4, 8)
        f = partitions.Tabulated(cube.CubeFn(3, 3, table))
        labels = O.sign_table_labels(table, 3, X)
    np.testing.assert_array_equal(labels, f.labels(X))


def test_unconverged_match_fails_where_the_tolerance_is_within_reach():
    import workloads as W

    third = [1 / 3] * 3
    check = W._rounding_check(0.01, _fixed_reference(third, None))
    after = [0.35, 0.325, 0.325]
    assert check(0.6, 0.61, 0.01, 0.01, third, after, False, float(np.abs(np.subtract(after, third)).sum()))[0] > 1.0


def test_quadrature_check_catches_an_offset_below_the_worst_point():
    import workloads as W

    fine = np.zeros(100)
    coarse = np.zeros(100)
    coarse[0] = 0.2  # one bad point: max band 0.4, RMS band 0.04
    check = W._quadrature_check(fine, coarse)
    assert check(coarse)[0] <= 1.0
    assert check(np.full(100, 0.1))[0] > 1.0


def test_cli_failure_keeps_the_message(tmp_path):
    import workloads as W

    op = W._Cli(str(tmp_path)).op("bad", ["cube", "--rule", "majority", "--n", "4", "--rho", "0.5"], None, None)
    with pytest.raises(RuntimeError, match="majority needs odd n"):
        op.call()


def test_ncd_sizes_come_from_the_workload_totals():
    got = _record([
        ("open", "search.ncd_decide", 0.0),
        ("open", "search.ncd_brute_oracle", 1.0),
        ("close", "search.ncd_brute_oracle", 2.0),
        ("close", "search.ncd_decide", 4.0),
    ])
    m = spans.layer_metrics(got, rounds=2, ncd={"pairs": 10, "tables": 20, "feasible": 5})
    assert m["search.ncd.pairs"][0] == 10
    assert m["search.ncd.pairs_per_s"][0] == pytest.approx(2 * 10 / 4.0)
    assert m["search.ncd.feasible_tables_ratio"][0] == pytest.approx(0.25)
