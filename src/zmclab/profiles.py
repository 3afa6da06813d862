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

from .errors import DegeneracyError, DomainError
# rk4_step stays bound here for bench/selftest.py's binding test
from .numerics import DT_MIN, libm_pow, rk4_step  # noqa: F401

# A shoot is declared degenerate once 1 - rho^2 - phi^2 drops below this.
EPS_DEGENERATE_GAP = 1e-8

# Axis starts are offset to rho = RHO_START_FACTOR * drho; the constant
# continuation from the axis makes the offset exact rather than approximate.
RHO_START_FACTOR = 10.0

# cap of a fixed march: a step costs about 0.8 us and 56 B in the march, and
# about 4 us and 140 B through `zmclab profile` with its CSV row, so 10**6
# steps stay near 4 s and 0.14 GB
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
    return -first_order_branch_residual(phi, dphi, rho) / (rho * gap)


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
    no error.  The march takes the step ends of RK4, fixed steps of drho
    when tolerance is None and otherwise step-doubling adaptive steps from
    a first trial of drho, without evaluating the steps: at zero slope
    every stage slope is exactly (0.0, -0.0), so a step keeps its state
    and its step-doubling error is 0, within any tolerance.  A step stops
    where a stage would find the gap 1 - rho^2 - phi^2 at or below
    EPS_DEGENERATE_GAP, which the outermost stage radius decides since the
    gap falls as rho grows; an adaptive step halves toward the circle
    while the half is at least DT_MIN, and doubles once accepted.  The run
    ends at rho_max, degenerate, or (adaptive) at a step below DT_MIN.
    phi is height in the first row and height + 0.0 after it (an RK4 step
    turns -0.0 into 0.0); phi' is 0.0 throughout.  Refused: a fixed march
    of more than MAX_FIXED_STEPS steps, counted to rho_max or to the
    circle rho = sqrt(1 - height^2) if that is nearer, and a tolerance
    that is not finite and positive.
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
    if tolerance is not None and not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance={tolerance!r} must be finite and positive")
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

    square = height * height
    rhos = [rho]
    termination = Termination.REACHED_END
    degeneracy_location = None
    trial = drho
    while rho < rho_max - 1e-13:
        step = min(trial, rho_max - rho)
        if tolerance is None:
            far = rho + step
        elif step < DT_MIN:
            termination = Termination.STEP_FLOOR
            break
        else:
            # the full step's last stage, and the second half step's
            far = max(rho + step, (rho + 0.5 * step) + 0.5 * step)
        if 1.0 - far * far - square <= EPS_DEGENERATE_GAP:
            if tolerance is not None and step * 0.5 >= DT_MIN:
                # shrink toward the circle instead of stopping a step early
                trial = step * 0.5
                continue
            termination = Termination.DEGENERACY_HIT
            degeneracy_location = rho
            break
        rho += step
        rhos.append(rho)
        if tolerance is not None:
            trial = 2.0 * step

    phi = np.full(len(rhos), height + 0.0)
    phi[0] = height
    return ProfileRun(
        np.array(rhos), phi, np.zeros(len(rhos)),
        termination, degeneracy_location,
    )
