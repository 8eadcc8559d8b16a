"""Pins of the seed -> stream mapping of every seeded estimator.

Each case draws a small seeded sample through the public API and reports
what the draw decides: label counts, block sizes and sampled symbols,
which must match exactly, and floating-point sums, which must match
within rel=1e-12 (any change of stream moves them by far more).  The
expected values were recorded at commit 203c612, before the Monte Carlo
helpers were shared, so a refactor that reorders draws, changes a stream
index or splits blocks differently fails here.  The "rounding" entries
that follow the threshold matcher (the rounded stability, the cross term,
the rounded measures, their SE and z) were re-recorded when the matcher
became exact quantile sweeps; its unrounded entries did not move.
"""
import math

import numpy as np
import pytest

from gstab.chaos import (
    GramSpec,
    PolyGauss,
    matched_family,
    pair_block_product_difference,
    product_difference_mc,
    product_expectation_mc,
)
from gstab.gauss import CorrelatedSampler, gaussian_rng, hermite_eval
from gstab.partitions import (
    Halfspace,
    MultiPTF,
    collision_probability,
    equal_slabs,
    estimate_cell_stability,
    estimate_cross_stability,
    estimate_measures,
    estimate_stability,
)
from gstab.product_space import JointDist, block_strategy, correlation_basis, estimate_discrete_corr
from gstab.rounding import ptf_from_truncation, stability_of_rounding
from gstab.search import SearchConfig, optimize_stability
from gstab.tensors import SymmetricTensor, ito_eval_many, symmetrize


def _linear(n, const, coeffs) -> PolyGauss:
    return PolyGauss(n, {1: SymmetricTensor.from_array(np.asarray(coeffs, dtype=float))}, const)


def _quadratic(n, const, lin, quad) -> PolyGauss:
    return PolyGauss(
        n,
        {
            1: SymmetricTensor.from_array(np.asarray(lin, dtype=float)),
            2: symmetrize(np.asarray(quad, dtype=float)),
        },
        const,
    )


def _count(value: float, samples: int) -> int:
    """Hit count behind a frequency, checked to be an exact ratio."""
    hits = round(value * samples)
    assert value == hits / samples
    return hits


def _pairs():
    x, y = CorrelatedSampler(3, 0.6, 7, stream=2).pairs(40)
    return {"x_sum": float(x.sum()), "y_sum": float(y.sum()), "xy_sum": float((x * y).sum())}


def _pair_batches():
    blocks = list(CorrelatedSampler(2, -0.3, 11).pair_batches(10, batch=4))
    return {
        "sizes": [int(x.shape[0]) for x, _ in blocks],
        "x_sums": [float(x.sum()) for x, _ in blocks],
        "y_sums": [float(y.sum()) for _, y in blocks],
    }


def _stability():
    f = Halfspace([0.2, 0.0], [1.0, 1.0])
    g = Halfspace([0.0, 0.0], [1.0, -0.5])
    ests = [
        estimate_stability(f, 0.5, 5000, 3, batch=2048),
        estimate_cell_stability(f, 2, None, 5000, 3, rho=0.4, batch=2048),
        estimate_cross_stability(f, g, 0.5, 5000, 3, batch=2048),
    ]
    return {
        "hits": [_count(e.value, 5000) for e in ests],
        "se": [e.std_error for e in ests],
    }


def _measures():
    m = estimate_measures(equal_slabs(3, axis=1, n=2), 5000, 4, batch=1500)
    return {"counts": [_count(v, 5000) for v in m.mu], "se": [float(s) for s in m.std_error]}


def _collisions():
    f = MultiPTF([_linear(2, 0.1, [1.0, 0.5]), _linear(2, -0.2, [-0.5, 1.0])])
    est = collision_probability(f, 5000, 5, batch=1500)
    return {"hits": _count(est.value, 5000), "se": est.std_error}


def _products():
    p = _quadratic(2, 0.3, [1.0, -0.5], [[0.5, 0.2], [0.2, -0.3]])
    q = _linear(2, 0.0, [0.4, 0.9])
    fam, _ = matched_family(GramSpec({2: np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.5], [0.1, 0.5, 1.0]])}), 0.5)
    ests = [
        product_expectation_mc([p, q], 3000, 6, batch=1000),
        product_difference_mc([p, q], [q, q], 3000, 6, batch=1000),
        pair_block_product_difference([fam[0], fam[1]], [fam[0], fam[2]], 5000, 7, batch=2000),
    ]
    return {"values": [float(e.value) for e in ests], "se": [e.std_error for e in ests]}


def _joint_sample():
    P = JointDist(np.array([[0.2, 0.1, 0.05], [0.05, 0.3, 0.3]]))
    xs, ys = P.sample(20, 3, 8, stream=2)
    pairs = (xs * P.mB + ys).ravel()
    return {
        "pair_counts": np.bincount(pairs, minlength=6).tolist(),
        "first_rows": pairs[:9].tolist(),
    }


def _discrete_corr():
    P = JointDist(np.array([[0.35, 0.15], [0.1, 0.4]]))
    basis = correlation_basis(P)
    g = Halfspace([0.0], [1.0])
    fstrat = block_strategy(g, basis.X[:, 1], 5, tie_break=True)
    gstrat = block_strategy(g, basis.Y[:, 1], 5, tie_break=True)
    rep = estimate_discrete_corr(fstrat, gstrat, P, 3000, 9, batch=1000)
    return {
        "joint": [_count(v, 3000) for v in rep.joint.ravel()],
        "agreement_se": rep.agreement_se,
    }


def _rounding():
    rep = stability_of_rounding(equal_slabs(3, axis=0, n=2), 0.5, samples=4000, seed=10)
    return {
        "stab": [_count(rep.stab_f, 4000), _count(rep.stab_g, 4000), _count(rep.cross, 4000)],
        "measures": [_count(v, 4000) for v in np.concatenate([rep.measures_f, rep.measures_g])],
        "se": [rep.se_f, rep.se_g],
        "z": rep.z.z.tolist(),
        "converged": rep.converged,
    }


def _truncation():
    rep = ptf_from_truncation(equal_slabs(3), 3, samples=4000, seed=11)
    return {
        "hits": [_count(rep.disagreement, 4000), _count(rep.collision, 4000)],
        "se": [rep.disagreement_se, rep.collision_se],
    }


def _grid_search(target, tol, budget):
    cfg = SearchConfig(
        k=2, n0=1, d=1, t=math.log(2), target_mu=target, measure_tol=tol,
        budget=budget, mode="grid-cover", seed=12, samples=4000,
    )
    res = optimize_stability(cfg)
    return {
        "feasible": res.feasible,
        "evaluations": res.evaluations,
        "stability": _count(res.stability, 4000),
        "measures": [_count(v, 4000) for v in res.measures],
        "se": res.stability_se,
        "trace_hits": [_count(v, 4000) for _, _, v, _ in res.trace],
        "trace_signatures": [s for _, s, _, _ in res.trace],
        "trace_se": [se for _, _, _, se in res.trace],
    }


def _grid_feasible():
    return _grid_search([0.5, 0.5], 0.02, 12)


def _grid_fallback():
    # no candidate within tol; evaluations 3 and 10 tie for the closest
    # measures, and the earlier one is reported
    return _grid_search([0.5, 0.5], 1e-4, 12)


def _local_search():
    # the restart point comes from stream 1 of the seed
    cfg = SearchConfig(
        k=3, n0=2, d=1, t=math.log(2), target_mu=[1 / 3] * 3, measure_tol=0.02,
        budget=2, mode="random-restart-local", seed=5, samples=2000, quad_order=8,
    )
    res = optimize_stability(cfg)
    return {
        "trace_hits": [_count(v, 2000) for _, _, v, _ in res.trace],
        "trace_se": [se for _, _, _, se in res.trace],
    }


def _hermite():
    x = np.linspace(-2.9, 3.1, 13)
    t = symmetrize(np.arange(8, dtype=float).reshape(2, 2, 2) / 7.0)
    X = gaussian_rng(13).standard_normal((50, 2))
    vals = ito_eval_many(t, X)
    return {
        "hermite": [float(hermite_eval(q, x).sum()) for q in range(8)],
        "scalar": hermite_eval(5, 1.3),
        "ito_sum": float(vals.sum()),
        "ito_sq_sum": float((vals**2).sum()),
    }


CASES = {
    "pairs": _pairs,
    "pair_batches": _pair_batches,
    "stability": _stability,
    "measures": _measures,
    "collisions": _collisions,
    "products": _products,
    "joint_sample": _joint_sample,
    "discrete_corr": _discrete_corr,
    "rounding": _rounding,
    "truncation": _truncation,
    "grid_feasible": _grid_feasible,
    "grid_fallback": _grid_fallback,
    "local_search": _local_search,
    "hermite": _hermite,
}

EXPECTED = {
    "collisions": {
        "hits": 2517,
        "se": 0.007070904326887757,
    },
    "discrete_corr": {
        "agreement_se": 0.008562623343258684,
        "joint": [1155, 327, 653, 865],
    },
    "grid_fallback": {
        "evaluations": 12,
        "feasible": False,
        "measures": [2031, 1969],
        "se": 0.007537811975301586,
        "stability": 2603,
        "trace_hits": [3237, 2845, 2603, 2820, 3265, 3847, 3867, 3867, 3265, 2603,
                       3237, 3847],
        "trace_se": [0.006212174287236313, 0.007165428066417246,
                     0.007537811975301586, 0.007210669178377275,
                     0.0061234373006506726, 0.00303261180750191,
                     0.0028348032339123646, 0.0028348032339123646,
                     0.0061234373006506726, 0.007537811975301586,
                     0.006212174287236313, 0.00303261180750191],
        "trace_signatures": ["d66d6027", "bafe2452", "05b6d3c0", "be3d31d1",
                             "8d17441d", "40491128", "cf84fa3b", "de658de7",
                             "9afb7b2e", "ded0c6f5", "aec82e55", "3ee117b5"],
    },
    "grid_feasible": {
        "evaluations": 12,
        "feasible": True,
        "measures": [2031, 1969],
        "se": 0.007537811975301586,
        "stability": 2603,
        "trace_hits": [3237, 2845, 2603, 2820, 3265, 3847, 3867, 3867, 3265, 2603,
                       3237, 3847],
        "trace_se": [0.006212174287236313, 0.007165428066417246,
                     0.007537811975301586, 0.007210669178377275,
                     0.0061234373006506726, 0.00303261180750191,
                     0.0028348032339123646, 0.0028348032339123646,
                     0.0061234373006506726, 0.007537811975301586,
                     0.006212174287236313, 0.00303261180750191],
        "trace_signatures": ["d66d6027", "bafe2452", "05b6d3c0", "be3d31d1",
                             "8d17441d", "40491128", "cf84fa3b", "de658de7",
                             "9afb7b2e", "ded0c6f5", "aec82e55", "3ee117b5"],
    },
    "hermite": {
        "hermite": [13.0, 1.2999999999999998, 23.072894270117047,
                    3.9857280597986975, 10.68106126064962, 2.3289738253805083,
                    -11.419831600357686, -3.0714585177798828],
        "ito_sq_sum": 51.6302988683631,
        "ito_sum": 1.6817453741634387,
        "scalar": 0.11346346639998273,
    },
    "joint_sample": {
        "first_rows": [0, 0, 0, 1, 2, 4, 4, 4, 0],
        "pair_counts": [14, 8, 3, 3, 16, 16],
    },
    "local_search": {
        "trace_hits": [910, 878],
        "trace_se": [0.011134967444945675, 0.011096823869918815],
    },
    "measures": {
        "counts": [1681, 1653, 1666],
        "se": [0.006680861621078527, 0.006652873664815829, 0.0066659996999699905],
    },
    "pair_batches": {
        "sizes": [4, 4, 2],
        "x_sums": [-0.7474967833022053, -3.550599262084388, 3.5628139111519967],
        "y_sums": [0.3162906232351028, 4.133983928591948, 1.028250405287553],
    },
    "pairs": {
        "x_sum": 4.317771349000038,
        "xy_sum": 53.18743081793411,
        "y_sum": 1.1370677372243314,
    },
    "products": {
        "se": [0.02812345447585769, 0.03985096118530473, 0.01640580895344056],
        "values": [-0.09104803426725647, -1.0644610145012954, 0.2034176666829015],
    },
    "rounding": {
        "converged": True,
        "measures": [1316, 1351, 1333, 1316, 1351, 1333],
        "se": [0.00788222287809727, 0.007881608338404034],
        "stab": [2154, 2156, 2154],
        "z": [-8.392399020951125e-06, -0.023140525610151175, 0.0],
    },
    "stability": {
        "hits": [3587, 1339, 2838],
        "se": [0.006367687806417647, 0.006262318420521268, 0.007006143589736082],
    },
    "truncation": {
        "hits": [1611, 2312],
        "se": [0.007754715299416221, 0.007808905172941979],
    },
}


def _same(got, want):
    if isinstance(want, float):
        return got == pytest.approx(want, rel=1e-12)
    if isinstance(want, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_is_pinned(case):
    got = CASES[case]()
    want = EXPECTED[case]
    assert sorted(got) == sorted(want)
    for key in want:
        assert _same(got[key], want[key]), (key, got[key], want[key])
