"""The evolution right-hand side as a plain per-field numpy expression.

This is the straightforward form of `evolution._derivative`: each field
gets its own ghosted copy through np.concatenate, every expression
allocates its result, and the ghosts are summed over numpy scalars. The
package's form shares buffers between p and q and works in place; tests
require the two to agree bit for bit, so any reordering of a stencil's
operations shows.
"""
from __future__ import annotations

import math

import numpy as np

from zmclab.residuals import EquationId

# ghost weights of the polynomial through the last m nodes, m = 3, 4, 5
_GHOST_TAILS = {
    m: tuple((-1) ** i * math.comb(m, i + 1) for i in range(m)) for m in (3, 4, 5)
}


def _ghosted(f, parity_left):
    """Extend by one ghost per side: parity mirror or quartic extrapolation."""
    tail = _GHOST_TAILS[min(f.size, 5)]
    gl, gr = (sum(c * e[i] for i, c in enumerate(tail)) for e in (f, f[::-1]))
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
