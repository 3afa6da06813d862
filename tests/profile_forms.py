"""Forms of the profile equation that only the tests use.

The regrouped residual collects the second-derivative terms of the profile
equation, and verify_branch sweeps the six-term residual along the
degenerate circle; tests compare both against the package's forms.
"""
from __future__ import annotations

import math

import numpy as np

from zmclab.profiles import degenerate_branch, profile_residual
from zmclab.residuals import ResidualReport

BRANCH_RHO_RANGE = (0.01, 0.99)  # radii verify_branch samples the circle on


def profile_residual_regrouped(phi, dphi, d2phi, rho):
    """Same equation with the second-derivative terms collected.

    Algebraically identical to profiles.profile_residual; comparing the
    two checks the grouping numerically.
    """
    return (
        rho * (1.0 - rho * rho - phi * phi) * d2phi
        + dphi * (1.0 - phi * phi)
        + 2.0 * rho * phi * dphi * dphi
        + (1.0 - rho * rho) * dphi ** 3
    )


def verify_branch(sign=1, n_samples=1000) -> ResidualReport:
    """Report the six-term residual on the circle profile over BRANCH_RHO_RANGE."""
    rhos = np.linspace(*BRANCH_RHO_RANGE, n_samples)
    worst = (float(rhos[0]), 0.0)
    max_abs = -1.0
    total_sq = 0.0
    for rho in rhos:
        phi, dphi, d2phi = degenerate_branch(sign, float(rho))
        r = abs(profile_residual(phi, dphi, d2phi, float(rho)))
        total_sq += r * r
        if r > max_abs:
            max_abs = r
            worst = (float(rho), phi)
    return ResidualReport(
        equation="profile-ode",
        n_points=n_samples,
        max_abs=max_abs,
        rms=math.sqrt(total_sq / n_samples),
        worst_point=worst,
    )
