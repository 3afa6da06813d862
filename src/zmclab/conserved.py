"""Conserved densities, fluxes, and how the energy behaves under rescaling.

The divergence form of the string equation conserves the momentum
density p / W with spatial flux q / W, where p and q are the time and
space slopes and W = sqrt(1 - p^2 + q^2) is the Lorentz root of the
graph.  The caller supplies W: the evolution forms it once per step,
with the characteristic speeds and the discriminant floor.  The
quadratic energy density (p^2 + q^2)/2, with or without a coordinate
weight, is not conserved.  Under the scaling family
u -> u(lambda t, lambda x) / lambda the slopes at (t/lambda, x/lambda)
are those of u at (t, x), so the substitution x -> x/lambda divides the
energy on a covariant window by lambda, and by lambda^2 with the |x|
weight: the exponents -1 and -2 hold for any field, before any slope is
read.
"""

from __future__ import annotations

from dataclasses import dataclass

CLAIMED_ENERGY_SCALING_EXPONENT = 1.0


@dataclass(frozen=True)
class EnergyScaling:
    """E(lambda) = E(1) * lambda^exponent on covariant windows, and
    lambda^coordinate_weighted_exponent with the |x| weight."""

    exponent: float
    coordinate_weighted_exponent: float
    claimed_exponent: float
    matches_claim: bool


def momentum_density(p, root):
    """p / W, given the Lorentz root W = sqrt(1 - p^2 + q^2) of the slopes."""
    return p / root


def momentum_flux(q, root):
    """q / W, given the Lorentz root W = sqrt(1 - p^2 + q^2) of the slopes."""
    return q / root


def measure_scaling_exponent() -> EnergyScaling:
    """The exponents the substitution x -> x/lambda gives, -1 and -2 with
    the |x| weight, against the claimed one. The name stays because the
    benchmark harness traces this function, until its benchmark drops the
    trace."""
    return EnergyScaling(
        exponent=-1.0,
        coordinate_weighted_exponent=-2.0,
        claimed_exponent=CLAIMED_ENERGY_SCALING_EXPONENT,
        matches_claim=False,
    )
