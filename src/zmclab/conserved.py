"""Conserved densities, fluxes, and how the energy behaves under rescaling.

The divergence form of the string equation conserves the momentum
density p / W with spatial flux q / W, where p and q are the time and
space slopes and W = sqrt(1 - p^2 + q^2) is the Lorentz root of the
graph.  The quadratic energy density (p^2 + q^2)/2, with or without a
coordinate weight, is not conserved; its role here is to expose how the
scaling family u -> u(lambda t, lambda x) / lambda moves energy between
scales, which is measured empirically rather than asserted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormSolution, evaluate_jet
from .errors import ArityError, DegeneracyError, DomainError
from .numerics import log_log_fit, trapezoid
from .residuals import EPS_DEGENERATE

CLAIMED_ENERGY_SCALING_EXPONENT = 1.0
SCALING_NODES = 2001  # window nodes of each energy quadrature


class QuadratureWeight(enum.Enum):
    UNWEIGHTED = "unweighted"
    COORDINATE = "coordinate"


def lorentz_root(p, q):
    """W = sqrt(1 - p^2 + q^2), elementwise, refusing degenerate slopes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    disc = 1.0 - p * p + q * q
    worst = float(np.min(disc))
    if worst <= EPS_DEGENERATE:
        raise DegeneracyError(
            f"Lorentz root degenerates: min(1 - p^2 + q^2) = {worst:.3e}"
        )
    return np.sqrt(disc)


def momentum_density(p, q):
    return np.asarray(p, dtype=float) / lorentz_root(p, q)


def momentum_flux(p, q):
    return np.asarray(q, dtype=float) / lorentz_root(p, q)


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
    """Fitted power law E(lambda) ~ lambda^exponent for the scaling family."""

    lambdas: tuple
    energies: tuple
    weight: QuadratureWeight
    exponent: float
    r_squared: float

    @property
    def matches_claim(self) -> bool:
        return abs(self.exponent - CLAIMED_ENERGY_SCALING_EXPONENT) <= 0.05

    def to_json_dict(self):
        return {
            "lambdas": list(self.lambdas),
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
    lambdas=(0.5, 1.0, 2.0, 4.0),
    weight: QuadratureWeight = QuadratureWeight.UNWEIGHTED,
) -> ScalingMeasurement:
    """Measure how the windowed quadratic energy of the rescaled family scales.

    The member with parameter lambda is u(lambda t, lambda x) / lambda; its
    first derivatives at (t0/lambda, x/lambda) coincide with those of the
    base solution at (t0, x), so each member is sampled on the preimage of
    one fixed window and the energies are compared on covariant domains.
    Dyadic lambdas keep the rescaled nodes exact in floating point.
    """
    if len(lambdas) < 3:
        raise ArityError("need at least 3 lambdas to fit a power law")
    if len(set(lambdas)) != len(lambdas):
        raise DomainError("lambdas must be distinct")
    if any(not (0 < lam < np.inf) for lam in lambdas):
        raise DomainError("lambdas must be finite and positive")
    lo, hi = window
    if not (-np.inf < lo < hi < np.inf):
        raise DomainError("window must be finite and increasing")

    base_xs = np.linspace(lo, hi, SCALING_NODES)
    p, q = evaluate_jet(sol, (t0, base_xs)).d1

    energies = []
    for lam in lambdas:
        xs = base_xs / lam
        energies.append(float(quadratic_energy(p, q, xs, weight)))

    fit = log_log_fit(np.asarray(lambdas, dtype=float), np.array(energies))
    return ScalingMeasurement(
        lambdas=tuple(float(l) for l in lambdas),
        energies=tuple(energies),
        weight=weight,
        exponent=fit.slope,
        r_squared=fit.r_squared,
    )
