"""The axis shoot as an RK4 march over the profile equation.

This is the straightforward form of `profiles.shoot_profile`: the state
(phi, phi') is stepped by `numerics.rk4_step`, or by
`numerics.rk4_adaptive_step` when a tolerance is given, with phi'' from
`profiles.phi_second_derivative`. A step whose stage meets the degenerate
circle raises DegeneracyError, on which an adaptive march halves its trial
step while the half is at least DT_MIN and otherwise stops; an adaptive
step below DT_MIN raises StepFloorError and stops the march. The package
takes the same step ends without evaluating the constant the shoot
carries; tests require the two to agree bit for bit.
"""
from __future__ import annotations

import numpy as np

from zmclab.errors import DegeneracyError, StepFloorError
from zmclab.numerics import DT_MIN, rk4_adaptive_step, rk4_step
from zmclab.profiles import RHO_START_FACTOR, Termination, phi_second_derivative


def reference_shoot(height, rho_max, drho, tolerance=None):
    """(rhos, phi, dphi, termination, degeneracy_location) of a shoot from
    rho = RHO_START_FACTOR * drho with phi = height and zero slope; the
    arguments are taken as valid."""
    def slope(r, s):
        return (s[1], phi_second_derivative(s[0], s[1], r))

    rho = RHO_START_FACTOR * drho
    rhos, phis, dphis = [rho], [height], [0.0]
    y = (height, 0.0)
    termination = Termination.REACHED_END
    location = None
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
                trial = step * 0.5
                continue
            termination = Termination.DEGENERACY_HIT
            location = rho
            break
        except StepFloorError:
            termination = Termination.STEP_FLOOR
            break
        rho, y = rho_new, y_new
        rhos.append(rho)
        phis.append(y[0])
        dphis.append(y[1])
    return np.array(rhos), np.array(phis), np.array(dphis), termination, location
