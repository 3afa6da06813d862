"""Linear stability of steady profiles of the scaled radial reduction.

Linearizing the scaled similarity equation about a steady profile
phi(rho) leaves a second-order operator with six coefficients, one per
derivative of the perturbation w(tau, rho).  On the circle profile the
coefficients of w_rhorho, w_taurho and w_rho vanish identically, so at
the axis the perturbation dynamics collapse to a constant-coefficient
quadratic pencil in the tau derivative; its two roots decide growth or
decay of separable modes e^(nu tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPointError
from .numerics import Jet2, rk4_integrate
from .similarity import SimilarityEquation, transformed_equation_residual


@dataclass(frozen=True)
class LinearizedCoefficients:
    """Coefficients of the linearized operator, ordered by derivative."""

    c_tau_tau: float
    c_tau: float
    c_tau_rho: float
    c_rho_rho: float
    c_rho: float
    c_value: float

    def apply(self, jet: Jet2) -> float:
        """Apply the operator to a perturbation 2-jet in (tau, rho) order."""
        return (
            self.c_tau_tau * jet.d2[0]
            + self.c_tau_rho * jet.d2[1]
            + self.c_rho_rho * jet.d2[2]
            + self.c_tau * jet.d1[0]
            + self.c_rho * jet.d1[1]
            + self.c_value * jet.value
        )


def linearized_coefficients(phi, dphi, d2phi, rho) -> LinearizedCoefficients:
    if rho <= 0.0:
        raise SingularPointError("linearization is singular on the axis rho = 0")
    return LinearizedCoefficients(
        c_tau_tau=1.0 + dphi * dphi,
        c_tau=-(1.0 - dphi * dphi + 2.0 * d2phi * phi + 2.0 * phi * dphi / rho),
        c_tau_rho=2.0 * (phi * dphi + rho),
        c_rho_rho=-(1.0 - rho * rho - phi * phi),
        c_rho=-(1.0 + 4.0 * rho * dphi * phi - 3.0 * (rho * rho - 1.0) * dphi * dphi
                - phi * phi) / rho,
        c_value=(-2.0 * rho * dphi * dphi + 2.0 * rho * d2phi * phi
                 + 2.0 * dphi * phi) / rho,
    )


@dataclass(frozen=True)
class LinearizationCheck:
    """Directional derivative of the scaled reduction vs the linear operator."""

    max_abs_difference: float
    max_operator_value: float
    epsilon: float
    n_samples: int


def directional_linearization_check(base, direction, epsilon, rhos) -> LinearizationCheck:
    """Compare the linearized operator against a centered difference of the
    scaled membrane reduction along a perturbation direction.

    base(rho) returns the steady profile (phi, phi', phi''); direction(rho)
    returns a perturbation Jet2 in (tau, rho) at tau = 0, where nothing is
    lost (the reduction has no explicit tau). rho must stay off the axis.
    """
    max_diff = 0.0
    max_op = 0.0
    for rho in rhos:
        rho = float(rho)
        phi, dphi, d2phi = base(rho)
        w = direction(rho)
        lin = linearized_coefficients(phi, dphi, d2phi, rho).apply(w)
        plus, minus = (
            transformed_equation_residual(
                SimilarityEquation.MEMBRANE_SCALED,
                Jet2(phi + step * w.value, (step * w.d1[0], dphi + step * w.d1[1]),
                     (step * w.d2[0], step * w.d2[1], d2phi + step * w.d2[2])),
                (0.0, rho),
            )
            for step in (epsilon, -epsilon)
        )
        fd = (plus - minus) / (2.0 * epsilon)
        max_diff = max(max_diff, abs(fd - lin))
        max_op = max(max_op, abs(lin))
    return LinearizationCheck(max_diff, max_op, epsilon, len(rhos))


def mode_quadratic_at_axis():
    """Axis limit of the pencil coefficients on the circle profile.

    On the circle phi^2 = 1 - rho^2 the surviving coefficients have the
    limits, as rho -> 0:

        c_tau_tau = 1/(1 - rho^2)                        -> 1
        c_tau     = 3/(1 - rho^2)                        -> 3
        c_value   = -4/(1 - rho^2)                       -> -4

    using phi dphi/rho -> -1, phi d2phi -> -1 and dphi^2 -> 0 there.
    """
    return (1.0, 3.0, -4.0)


@dataclass(frozen=True)
class ModeReport:
    quadratic: tuple
    roots: tuple
    n_growing: int
    classification: str
    claimed_roots: tuple
    matches_claim: bool

    def to_json_dict(self):
        return {
            "quadratic": list(self.quadratic),
            "roots": list(self.roots),
            "n_growing": self.n_growing,
            "classification": self.classification,
            "claimed_roots": list(self.claimed_roots),
            "matches_claim": self.matches_claim,
        }


CLAIMED_MODE_ROOTS = (4.0, -1.0)

PROBE_TAU_END = 6.0  # mode_growth_probe integrates over tau in [0, 6]
PROBE_DT = 1e-3


def solve_mode_quadratic() -> ModeReport:
    """Roots of the axis pencil, computed exactly, against the claimed pair."""
    a, b, c = mode_quadratic_at_axis()
    # integer discriminant, so the square root is exact
    disc = b * b - 4.0 * a * c
    root = math.isqrt(int(disc))
    if root * root != int(disc):
        raise ArithmeticError("expected a perfect-square discriminant")
    hi = (-b + root) / (2.0 * a)
    lo = (-b - root) / (2.0 * a)
    roots = (hi, lo)
    n_growing = sum(1 for r in roots if r > 0.0)
    if n_growing:
        classification = f"unstable: {n_growing} growing separable mode"
    elif any(r == 0.0 for r in roots):
        classification = "neutral"
    else:
        classification = "stable: all separable modes decay"
    return ModeReport(
        quadratic=(a, b, c),
        roots=roots,
        n_growing=n_growing,
        classification=classification,
        claimed_roots=CLAIMED_MODE_ROOTS,
        matches_claim=set(roots) == set(CLAIMED_MODE_ROOTS),
    )


def mode_growth_probe():
    """Integrate the axis pencil as an ODE and fit the late-time growth rate.

    Returns the fitted exponent, which should land on the larger root.
    """
    a, b, c = mode_quadratic_at_axis()

    def slope(_, s):
        return (s[1], -(b * s[1] + c * s[0]) / a)

    taus, states = rk4_integrate(slope, 0.0, (1.0, 0.0), PROBE_TAU_END, PROBE_DT)
    w = states[:, 0]
    tail = taus >= 0.5 * PROBE_TAU_END
    coeffs = np.polyfit(taus[tail], np.log(np.abs(w[tail])), 1)
    return float(coeffs[0])
