"""Linear stability of steady profiles of the scaled radial reduction.

Linearizing the scaled similarity equation about a steady profile
phi(rho) leaves a second-order operator with six coefficients, one per
derivative of the perturbation w(tau, rho).  On either cap of the circle
branch the coefficients of w_rhorho, w_taurho and w_rho vanish, and the
other three are one integer pencil over 1 - rho^2 at every radius, not
only at the axis.  Its roots decide growth or decay of separable modes
e^(nu tau) f(rho).  The one growing root, nu = 1, has the blow-up-time
translation e^tau / phi in its eigenspace and, because the caps are
lightlike and no rho derivative survives, every e^tau f(rho) as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .numerics import Jet2
from .profiles import degenerate_branch
from .similarity import membrane_reduction_residual


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
    """The operator's coefficients about a steady profile at rho, or at each
    radius of an array rho with the profile's entries broadcast against it."""
    if np.any(rho <= 0.0):
        raise DomainError("linearization is singular on the axis rho = 0")
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
    scaled membrane reduction along a perturbation direction, at every
    radius of rhos in one array pass.

    base(rhos) returns the steady profile (phi, phi', phi''); direction(rhos)
    returns a perturbation Jet2 in (tau, rho) at tau = 0, where nothing is
    lost (the reduction has no explicit tau). Both are called once, on the
    1-D array of radii, so both must accept an array (np.sin, not
    math.sin); they may return scalars where an entry does not vary. rho
    must stay off the axis.
    """
    rhos = np.array(rhos, dtype=float)
    phi, dphi, d2phi = base(rhos)
    w = direction(rhos)
    lin = linearized_coefficients(phi, dphi, d2phi, rhos).apply(w)
    plus, minus = (
        membrane_reduction_residual(
            Jet2(phi + step * w.value, (step * w.d1[0], dphi + step * w.d1[1]),
                 (step * w.d2[0], step * w.d2[1], d2phi + step * w.d2[2])),
            rhos,
        )
        for step in (epsilon, -epsilon)
    )
    fd = (plus - minus) / (2.0 * epsilon)
    # fmax from 0 skips a NaN, as a running max(0.0, ...) over the radii does
    max_diff = float(np.fmax.reduce(np.abs(fd - lin), initial=0.0))
    max_op = float(np.fmax.reduce(np.abs(lin), initial=0.0))
    return LinearizationCheck(max_diff, max_op, epsilon, rhos.size)


@dataclass(frozen=True)
class ModeReport:
    quadratic: tuple
    roots: tuple
    n_growing: int
    classification: str
    claimed_roots: tuple
    matches_claim: bool


CLAIMED_MODE_ROOTS = (4.0, -1.0)

# radii at which the pencil and the symmetry mode are read, on both caps
BRANCH_RADII = np.linspace(0.01, 0.95, 50)
BRANCH_TOLERANCE = 1e-12


def _branch_samples(sign, cap):
    """(cap, profile, coefficients) on one cap of the circle branch, as
    arrays over BRANCH_RADII."""
    profile = degenerate_branch(sign, BRANCH_RADII)
    return cap, profile, linearized_coefficients(*profile, BRANCH_RADII)


# both caps' samples, formed once: the pencil and the symmetry mode read them
BRANCH_SAMPLES = (_branch_samples(1, "upper"), _branch_samples(-1, "lower"))


def solve_mode_quadratic() -> ModeReport:
    """Exact roots of the pencil (c_tau_tau, c_tau, c_value)(1 - rho^2), one
    integer triple at every branch radius on both caps, against the claim."""
    gap = 1.0 - BRANCH_RADII * BRANCH_RADII
    samples = [(cap, np.array([c.c_tau_tau, c.c_tau, c.c_value]) * gap)
               for cap, _, c in BRANCH_SAMPLES]
    pencil = np.rint(samples[0][1][:, 0])
    for cap, scaled in samples:
        off = np.abs(scaled - pencil[:, None]).max(axis=0) > BRANCH_TOLERANCE
        if off.any():
            i = int(np.argmax(off))
            raise ConsistencyError(f"pencil {scaled[:, i].tolist()} on the {cap} cap at "
                                   f"rho = {float(BRANCH_RADII[i])!r} is not the integer "
                                   f"{pencil.tolist()}")
    a, b, c = pencil.tolist()
    disc = int(b * b - 4.0 * a * c)
    root = math.isqrt(disc)  # integer discriminant, so the square root is exact
    if root * root != disc:
        raise ConsistencyError("expected a perfect-square discriminant")
    roots = ((-b + root) / (2.0 * a), (-b - root) / (2.0 * a))
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


@dataclass(frozen=True)
class SymmetryMode:
    exponent: float
    max_residual: float


def mode_growth_probe() -> SymmetryMode:
    """w = e^tau / phi, the derivative of either cap in the blow-up time, is a
    separable mode with nu = 1, one of the e^tau f(rho) that the lightlike
    caps all admit; max_residual is the worst |L w| / max(|w|, 1) at tau = 0
    on the branch radii. The name stays because the benchmark harness
    traces this function and reads its exponent."""
    worst = 0.0
    for _, (phi, dphi, d2phi), c in BRANCH_SAMPLES:
        w, dw, d2w = 1.0 / phi, -dphi / phi ** 2, (2.0 * dphi * dphi / phi - d2phi) / phi ** 2
        lw = c.apply(Jet2(w, (w, dw), (w, dw, d2w)))
        worst = max(worst, float((np.abs(lw) / np.maximum(np.abs(w), 1.0)).max()))
    if worst > BRANCH_TOLERANCE:
        raise ConsistencyError(f"e^tau/phi misses the linearized operator by {worst!r}")
    return SymmetryMode(exponent=1.0, max_residual=worst)
