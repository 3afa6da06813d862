"""One RK4 step of the evolution written plainly.

Each stage is `state + 0.5 * dt * k`, every expression allocates its
result, each stage is checked finite on its own, and the derivative is
tests/rhs_reference.py's per-field right-hand side. The evolution's step,
evolution._rk4_step, forms each stage in one buffer its four stages share,
c * k with the state added in place, keeps the RK4 sum in place in the
first stage's slope buffer, and takes the fused right-hand side;
numerics.rk4_step forms each stage in a new array instead. Tests require
both to agree with this step bit for bit, so any reordering of the stage
arithmetic shows.
"""
from __future__ import annotations

import numpy as np
from rhs_reference import reference_rhs


def reference_stages(equation, xs, y, h, dt):
    """The four stage slopes k1..k4, each (3, n), of one RK4 step of length
    dt after the (3, n) state y = (u, p, q)."""
    def slope(state):
        k = np.stack(reference_rhs(equation, xs, *state, h))
        assert np.isfinite(k).all()
        return k

    k1 = slope(y)
    k2 = slope(y + 0.5 * dt * k1)
    k3 = slope(y + 0.5 * dt * k2)
    k4 = slope(y + dt * k3)
    return k1, k2, k3, k4


def reference_step(equation, xs, y, h, dt):
    """The (3, n) state (u, p, q) one RK4 step of length dt after y."""
    k1, k2, k3, k4 = reference_stages(equation, xs, y, h, dt)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
