"""Test-side oracles that reach a value by another route than the library.

``orthant_probability_quad`` is the shared-factor Gauss-Hermite value of
Sheppard's orthant probability; the library computes the bivariate normal
law in closed form (``gauss.bvn_cdf``), and the tests check the two
against each other.
"""
import math

import numpy as np
from scipy.special import ndtr

from gstab.gauss import gauss_hermite_rule


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
