"""The steady ODEs' RK4 march in product form, one step at a time.

This is the plain form of `similarity.steady_ode_integrate`: a loop over
Python floats that takes the steps a fixed-step march takes (drho each, the
last clipped to land on the range's end) and, on each, multiplies v' by the
step's growth factor and adds the step's increment to v. The package forms
the same factors in whole-array passes and sums them with numpy's running
product and sum; tests require the two to agree bit for bit, so any
reordering of a factor's operations shows.
"""
from __future__ import annotations

from zmclab.similarity import SteadyOdeId


def coefficient(ode, rho):
    """a(rho) in v'' = a(rho) v'."""
    if ode is SteadyOdeId.BORN_INFELD_STEADY:
        return 2.0 * rho / (1.0 - rho * rho)
    return -2.0 * rho / (1.0 + rho * rho)


def reference_march(ode, initial, rho_range, drho):
    """(rhos, v, vp) as lists of floats."""
    rho, rho_end = rho_range
    v, vp = initial
    rhos, vs, vps = [rho], [v], [vp]
    last = rho_end - 1e-14 * max(1.0, abs(rho_end))
    while rho < last:
        h = min(drho, rho_end - rho)
        half = 0.5 * h
        a0 = coefficient(ode, rho)
        a1 = coefficient(ode, rho + half)
        a2 = coefficient(ode, rho + h)
        # RK4's stages on v' = a w, per unit w: k1 = a0, k2 = a1 g2, ...
        g2 = 1.0 + half * a0
        k2 = a1 * g2
        g3 = 1.0 + half * k2
        k3 = a1 * g3
        g4 = 1.0 + h * k3
        sixth = h / 6.0
        growth = 1.0 + sixth * (a0 + 2.0 * k2 + 2.0 * k3 + a2 * g4)
        v = v + sixth * (1.0 + 2.0 * g2 + 2.0 * g3 + g4) * vp
        vp = vp * growth
        rho = rho + h
        rhos.append(rho)
        vs.append(v)
        vps.append(vp)
    return rhos, vs, vps
