"""Noise stability estimators against their closed-form anchors.

Two exp(-t)-correlated Gaussian points land in the same cell of a median
halfspace with probability 2/3 at rho = 1/2 (both-in-one-cell: 1/3, which
is Sheppard's orthant value).  Balanced partitions never beat the
halfspace.  Interval partitions have exact joint cells: bivariate normal
rectangles in Owen's closed form (gauss.bvn_cdf).
"""
import numpy as np

from gstab.gauss import bvn_cdf
from gstab.partitions import (
    Halfspace,
    equal_slabs,
    estimate_cell_stability,
    estimate_measures,
    estimate_stability,
    quad_joint_cells_1d,
    random_balanced_slabs,
    sheppard_orthant,
)

rho = 0.5
half = Halfspace([0.0], [1.0])

print("= Median halfspace at rho = 1/2 =")
agree = estimate_stability(half, None, 1_000_000, seed=7, rho=rho)
cell = estimate_cell_stability(half, 1, None, 1_000_000, seed=7, rho=rho)
print(f"  agreement Pr[f(X)=f(Y)]    = {agree.value:.5f} +- {agree.std_error:.5f}  (2/3 = {2/3:.5f})")
print(f"  cell     Pr[f(X)=f(Y)=1]  = {cell.value:.5f} +- {cell.std_error:.5f}  (1/3 = {1/3:.5f})")
print(f"  closed form   1/4 + asin(rho)/(2 pi) = {sheppard_orthant(rho):.10f}")
print(f"  Owen's T kernel   bvn_cdf(0, 0; rho) = {float(bvn_cdf(0.0, 0.0, rho)):.10f}")

print("\n= Exact joint cell matrix from bivariate normal rectangles =")
J = quad_joint_cells_1d(half, rho)
print(np.array_str(J, precision=6))

print("\n= Three equal slabs =")
slabs = equal_slabs(3)
m = estimate_measures(slabs, 300_000, seed=3)
print(f"  measures {np.round(m.mu, 4)} (uniform target)")
print(f"  agreement at rho=0.5: {np.trace(quad_joint_cells_1d(slabs, rho)):.5f} (exact)")

print("\n= Borell sweep: random balanced 2-part partitions =")
rng = np.random.default_rng(1)
half_value = 2 * sheppard_orthant(rho)
worst_gap = np.inf
for _ in range(12):
    f = random_balanced_slabs(rng, k=2, pieces=3)
    val = float(np.trace(quad_joint_cells_1d(f, rho)))
    worst_gap = min(worst_gap, half_value - val)
    print(f"  pieces at {np.round(f.breakpoints, 2)}: stability {val:.5f}  (halfspace {half_value:.5f})")
print(f"  smallest halfspace margin observed: {max(worst_gap, 0.0):.2e} (never negative)")
