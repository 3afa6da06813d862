"""The evolution right-hand side as a plain per-field numpy expression.

This is the straightforward form of `evolution._derivative`: each field
gets its own ghosted copy through np.concatenate, every expression
allocates its result, and the ghosts are summed over numpy scalars. The
package's form shares buffers between p and q and works in place; tests
require the two to agree bit for bit, so any reordering of a stencil's
operations shows.
"""
from __future__ import annotations

import numpy as np

from zmclab.residuals import EquationId


def _extrapolated(e):
    """The value one node before e[0]: the cubic through e[:4] in difference
    form, or on three nodes the quadratic's weights summed from 0."""
    if e.size >= 4:
        return e[0] + 3.0 * (e[0] - e[1]) - 3.0 * (e[1] - e[2]) + (e[2] - e[3])
    return 0.0 + 3.0 * e[0] - 3.0 * e[1] + e[2]


def _ghosted(f, parity_left):
    """Extend by one ghost per side: parity mirror or cubic extrapolation."""
    gl, gr = _extrapolated(f), _extrapolated(f[::-1])
    if parity_left is not None:
        gl = parity_left * f[1]
    return np.concatenate([[gl], f, [gr]])


def _first_derivative(f, h, parity_left):
    fe = _ghosted(f, parity_left)
    return (fe[2:] - fe[:-2]) / (2.0 * h)


def reference_rhs(equation, xs, u, p, q, h):
    """(udot, pdot, qdot) as three separate arrays."""
    axis = equation is EquationId.RADIAL_MEMBRANE and xs[0] == 0.0
    dp = _first_derivative(p, h, +1.0 if axis else None)
    dq = _first_derivative(q, h, -1.0 if axis else None)
    denom = 1.0 + q * q
    pdot = ((1.0 - p * p) * dq + 2.0 * p * q * dp) / denom
    if equation is EquationId.RADIAL_MEMBRANE:
        ratio = np.empty_like(q)
        nz = slice(1, None) if axis else slice(None)
        ratio[nz] = q[nz] / xs[nz]
        if axis:
            ratio[0] = dq[0]  # q/r -> q_r at the axis
        pdot = pdot + ratio * (1.0 - p * p + q * q) / denom
    return p, pdot, dp
