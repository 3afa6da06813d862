"""One RK4 step of the evolution written plainly.

Each stage is `state + 0.5 * dt * k`, every expression allocates its
result, each stage is checked finite on its own, and the derivative is
tests/rhs_reference.py's per-field right-hand side. The package forms
each stage in a new array, c * k with the state added in place, since a
derivative may keep or return the array it was given, and its right-hand
side is the fused one; tests require the two to agree bit for bit, so any
reordering of the stage arithmetic shows.
"""
from __future__ import annotations

import numpy as np
from rhs_reference import reference_rhs


def reference_step(equation, xs, y, h, dt):
    """The (3, n) state (u, p, q) one RK4 step of length dt after y."""
    def slope(state):
        k = np.stack(reference_rhs(equation, xs, *state, h))
        assert np.isfinite(k).all()
        return k

    k1 = slope(y)
    k2 = slope(y + 0.5 * dt * k1)
    k3 = slope(y + 0.5 * dt * k2)
    k4 = slope(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
