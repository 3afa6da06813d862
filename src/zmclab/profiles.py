"""Self-similar profile equation for the radial membrane flow.

For tau-independent profiles phi(rho) the scaled similarity reduction
collapses to a single second-order equation,

    rho (1 - rho^2) phi'' + phi' - phi' phi^2 + 2 rho phi phi'^2
        - rho phi'' phi^2 + (1 - rho^2) phi'^3 = 0.

Collecting the two second-derivative terms exposes the leading
coefficient rho (1 - rho^2 - phi^2), which vanishes on the circle
rho^2 + phi^2 = 1.  The circle carries the collapsing-sphere profile
(and its mirror image), on which the second-order coefficient and the
remaining first-order terms vanish separately.  Shoots launched from
the axis with zero slope stay flat until they run into the circle,
which is where integration stops.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError, StepFloorError
from .numerics import DT_MIN, libm_pow, rk4_adaptive_step, rk4_step

# A shoot is declared degenerate once 1 - rho^2 - phi^2 drops below this.
EPS_DEGENERATE_GAP = 1e-8

# Axis starts are offset to rho = RHO_START_FACTOR * drho; the constant
# continuation from the axis makes the offset exact rather than approximate.
RHO_START_FACTOR = 10.0

# cap of a fixed march: a step costs about 6 us and 123 B of kept trace, so
# 10**6 steps stay near 6 s and 0.12 GB
MAX_FIXED_STEPS = 10**6


class Termination(enum.Enum):
    """How an integration of the profile equation ended."""

    REACHED_END = "reached-end"
    DEGENERACY_HIT = "degeneracy-hit"
    STEP_FLOOR = "step-floor"


@dataclass(frozen=True)
class ProfileRun:
    """Trace of one integration, terminated where the equation says to stop."""

    rhos: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    termination: Termination
    degeneracy_location: float | None


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
    # first_order_branch_residual written out: this runs at every RK4 stage
    # of a shoot, where the call cost about a tenth of the step
    remainder = (
        dphi * (1.0 - phi * phi)
        + 2.0 * rho * phi * dphi * dphi
        + (1.0 - rho * rho) * dphi ** 3
    )
    return -remainder / (rho * gap)


def degenerate_branch(sign, rho):
    """Profile lying on the circle phi^2 + rho^2 = 1, with its derivatives,
    at a radius rho or at each radius of a 1-D array rho.

    sign selects the upper or lower half of the circle.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    array = isinstance(rho, np.ndarray)
    if not (((0.0 <= rho) & (rho < 1.0)).all() if array else 0.0 <= rho < 1.0):
        raise DomainError("circle profile needs 0 <= rho < 1")
    root = (np.sqrt if array else math.sqrt)(1.0 - rho * rho)
    # root^-3 on the C library's pow, so a radius keeps the bits it has alone
    return sign * root, -sign * rho / root, -sign * libm_pow(root, -3.0)


def shoot_profile(
    height: float,
    rho_max: float,
    drho: float,
    tolerance: float | None = None,
) -> ProfileRun:
    """Launch an axis-regular shoot with phi = height and zero slope.

    The start is offset to rho = RHO_START_FACTOR * drho; since
    axis-regular solutions continue as constants, the offset introduces
    no error.  Fixed RK4 steps of size drho march outward to rho_max when
    tolerance is None; otherwise step-doubling adaptive RK4 with drho as
    the first trial step; a fixed march of more than MAX_FIXED_STEPS steps,
    counted to rho_max or to the circle rho = sqrt(1 - height^2) if that is
    nearer, is refused.  The run stops early if the leading coefficient
    degenerates or the adaptive step shrinks below DT_MIN.
    """
    if not math.isfinite(height):
        raise DomainError(f"height {height!r} must be finite")
    gap = 1.0 - height * height
    if gap <= EPS_DEGENERATE_GAP:
        raise DomainError(
            f"height {height!r} starts on or outside the degenerate circle"
        )
    if not 0.0 < drho < math.inf:
        raise DomainError("drho must be finite and positive")
    rho = RHO_START_FACTOR * drho
    if not rho < rho_max < math.inf:
        raise DomainError(f"rho_max={rho_max!r} must be finite and exceed the starting "
                          f"rho {RHO_START_FACTOR:g}*drho = {rho!r}")
    # a zero-slope shoot stays at its height, so it stops at the circle
    circle = math.sqrt(gap)
    end = f"rho_max={rho_max!r}" if rho_max <= circle else f"the circle rho={circle!r}"
    steps = math.ceil((min(rho_max, circle) - rho) / drho)
    if tolerance is None and steps > MAX_FIXED_STEPS:
        raise DomainError(f"drho={drho!r} takes {steps} fixed steps to {end}, "
                          f"more than {MAX_FIXED_STEPS}")

    def slope(r, s):
        return (s[1], phi_second_derivative(s[0], s[1], r))

    rhos = [rho]
    phis = [height]
    dphis = [0.0]
    y = (height, 0.0)
    termination = Termination.REACHED_END
    degeneracy_location = None
    trial = drho

    while rho < rho_max - 1e-13:
        step = min(trial, rho_max - rho)
        try:
            if tolerance is None:
                y_new = rk4_step(y, slope, rho, step)
                rho_new = rho + step
            else:
                rho_new, y_new, _, trial = rk4_adaptive_step(
                    slope, rho, y, step, abs_tol=tolerance
                )
        except DegeneracyError:
            if tolerance is not None and step * 0.5 >= DT_MIN:
                # shrink toward the circle instead of stopping a step early
                trial = step * 0.5
                continue
            termination = Termination.DEGENERACY_HIT
            degeneracy_location = rho
            break
        except StepFloorError:
            termination = Termination.STEP_FLOOR
            break
        rho, y = rho_new, y_new
        rhos.append(rho)
        phis.append(y[0])
        dphis.append(y[1])

    return ProfileRun(
        np.array(rhos), np.array(phis), np.array(dphis),
        termination, degeneracy_location,
    )
