"""Conserved densities, fluxes, and how the energy behaves under rescaling.

The divergence form of the string equation conserves the momentum
density p / W with spatial flux q / W, where p and q are the time and
space slopes and W = sqrt(1 - p^2 + q^2) is the Lorentz root of the
graph.  The caller supplies W: the evolution forms it once per step,
with the characteristic speeds and the discriminant floor.  The
quadratic energy density (p^2 + q^2)/2, with or without a coordinate
weight, is not conserved; its role here is to expose how the scaling
family u -> u(lambda t, lambda x) / lambda moves energy between scales,
which is measured empirically rather than asserted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormSolution, Family, evaluate_jet
from .errors import DomainError
from .numerics import log_log_fit, trapezoid

CLAIMED_ENERGY_SCALING_EXPONENT = 1.0
SCALING_NODES = 2001  # window nodes of each energy quadrature
# the measured member of the log family, the slice t0 it is sampled on, and
# the window, which lies inside the member's light cone |x| < T - t0 = 0.5
SCALING_MEMBER = ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=0.3)
SCALING_T0 = 0.5
SCALING_WINDOW = (-0.2, 0.3)
# the scale factors lambda of the measured members; dyadic, so the rescaled
# nodes stay exact in floating point
SCALING_LAMBDAS = (0.5, 1.0, 2.0, 4.0)


class QuadratureWeight(enum.Enum):
    UNWEIGHTED = "unweighted"
    COORDINATE = "coordinate"


def momentum_density(p, root):
    """p / W, given the Lorentz root W = sqrt(1 - p^2 + q^2) of the slopes."""
    return p / root


def momentum_flux(q, root):
    """q / W, given the Lorentz root W = sqrt(1 - p^2 + q^2) of the slopes."""
    return q / root


def quadratic_energy(p, q, xs, weight=QuadratureWeight.UNWEIGHTED):
    """Trapezoid integral of (p^2 + q^2)/2, optionally weighted by |x|."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    xs = np.asarray(xs, dtype=float)
    density = 0.5 * (p * p + q * q)
    if weight is QuadratureWeight.COORDINATE:
        density = density * np.abs(xs)
    elif weight is not QuadratureWeight.UNWEIGHTED:
        raise DomainError(f"unknown weight {weight!r}")
    return trapezoid(density, xs)


@dataclass(frozen=True)
class ScalingMeasurement:
    """Fitted power law E(lambda) ~ lambda^exponent for the scaling family,
    one energy per lambda of SCALING_LAMBDAS."""

    energies: tuple
    weight: QuadratureWeight
    exponent: float
    r_squared: float

    @property
    def matches_claim(self) -> bool:
        return abs(self.exponent - CLAIMED_ENERGY_SCALING_EXPONENT) <= 0.05

    def to_json_dict(self):
        return {
            "lambdas": list(SCALING_LAMBDAS),
            "energies": list(self.energies),
            "weight": self.weight.value,
            "exponent": self.exponent,
            "r_squared": self.r_squared,
            "claimed_exponent": CLAIMED_ENERGY_SCALING_EXPONENT,
            "matches_claim": self.matches_claim,
        }


def measure_scaling_exponent(
    sol: ClosedFormSolution,
    t0: float,
    window,
    weight: QuadratureWeight = QuadratureWeight.UNWEIGHTED,
) -> ScalingMeasurement:
    """Measure how the windowed quadratic energy of the rescaled family scales.

    The member with parameter lambda is u(lambda t, lambda x) / lambda; its
    first derivatives at (t0/lambda, x/lambda) coincide with those of the
    base solution at (t0, x), so each member is sampled on the preimage of
    one fixed window and the energies are compared on covariant domains.
    The members are those of SCALING_LAMBDAS.
    """
    lo, hi = window
    if not (-np.inf < lo < hi < np.inf):
        raise DomainError("window must be finite and increasing")

    base_xs = np.linspace(lo, hi, SCALING_NODES)
    p, q = evaluate_jet(sol, (t0, base_xs)).d1

    energies = []
    for lam in SCALING_LAMBDAS:
        xs = base_xs / lam
        energies.append(float(quadratic_energy(p, q, xs, weight)))

    fit = log_log_fit(np.asarray(SCALING_LAMBDAS), np.array(energies))
    return ScalingMeasurement(
        energies=tuple(energies),
        weight=weight,
        exponent=fit.slope,
        r_squared=fit.r_squared,
    )
