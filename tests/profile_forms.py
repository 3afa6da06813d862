"""Forms of the profile equation that only the tests use.

profile_residual is the six-term profile equation as displayed; the
regrouped residual collects its second-derivative terms, and
first_order_branch_residual is what is left once the leading coefficient
rho (1 - rho^2 - phi^2) is factored out. phi_second_derivative solves the
equation for phi'', the slope of the RK4 march in profile_reference.py,
and verify_branch sweeps the six-term residual along the degenerate circle
of profiles.degenerate_branch.
"""
from __future__ import annotations

import math

import numpy as np

from zmclab.errors import DegeneracyError, DomainError
from zmclab.profiles import EPS_DEGENERATE_GAP, degenerate_branch
from zmclab.residuals import ResidualReport

BRANCH_RHO_RANGE = (0.01, 0.99)  # radii verify_branch samples the circle on


def profile_residual(phi, dphi, d2phi, rho):
    """Six-term form of the profile equation, exactly as displayed."""
    return (
        rho * (1.0 - rho * rho) * d2phi
        + dphi
        - dphi * phi * phi
        + 2.0 * rho * phi * dphi * dphi
        - rho * d2phi * phi * phi
        + (1.0 - rho * rho) * dphi ** 3
    )


def first_order_branch_residual(phi, dphi, rho):
    """The first-order remainder left after the leading coefficient is factored.

    On the degenerate circle the leading coefficient vanishes, so a circle
    profile solves the equation only if this remainder vanishes too.
    """
    return (
        dphi * (1.0 - phi * phi)
        + 2.0 * rho * phi * dphi * dphi
        + (1.0 - rho * rho) * dphi ** 3
    )


def phi_second_derivative(phi, dphi, rho):
    """Solve the regrouped equation for phi''.

    Raises DomainError on the axis and DegeneracyError once the
    leading-coefficient gap 1 - rho^2 - phi^2 falls to EPS_DEGENERATE_GAP.
    """
    if rho <= 0.0:
        raise DomainError("profile equation is singular on the axis rho = 0")
    gap = 1.0 - rho * rho - phi * phi
    if gap <= EPS_DEGENERATE_GAP:
        raise DegeneracyError(
            f"leading coefficient degenerates: 1 - rho^2 - phi^2 = {gap:.3e} "
            f"at rho = {rho:.6f}"
        )
    return -first_order_branch_residual(phi, dphi, rho) / (rho * gap)


def profile_residual_regrouped(phi, dphi, d2phi, rho):
    """Same equation with the second-derivative terms collected.

    Algebraically identical to profile_residual; comparing the
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
