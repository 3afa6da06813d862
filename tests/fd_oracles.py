"""Finite-difference oracles that only the tests use.

Second-order central stencils give a 2-jet of a sampled field, and
observed_orders turns errors under step halving into convergence orders;
tests compare the hand-derived jets and residuals against both.
"""
from __future__ import annotations

import numpy as np

from zmclab.errors import ArityError, DomainError, LabError
from zmclab.numerics import Jet2


class BoundaryError(LabError, IndexError):
    """A finite-difference stencil was requested too close to an array edge."""


def _central_weights(m: int, i: int, h: float):
    """Offsets and coefficients of the second-order central first- and
    second-derivative stencils at index i of an array of length m."""
    if not 1 <= i <= m - 2:
        raise BoundaryError(
            f"index {i} is at the edge of {m} samples; central stencils need "
            "a sample on each side"
        )
    h2 = h * h
    return ((-1, 1), (-0.5 / h, 0.5 / h)), ((-1, 0, 1), (1.0 / h2, -2.0 / h2, 1.0 / h2))


def central_diff_jet2(
    field: np.ndarray,
    node_index: int,
    spacing: float,
    time_index: int | None = None,
    time_spacing: float | None = None,
) -> Jet2:
    """Second-order finite-difference 2-jet of a sampled field.

    field may be 1D (a single spatial level; the leading variable is then
    treated as frozen and its derivative entries are zero) or 2D with shape
    (time levels, nodes). The central stencils require the index to be at
    least one node/level away from every boundary.
    """
    field = np.asarray(field, dtype=float)
    if spacing <= 0:
        raise DomainError(f"spacing must be positive, got {spacing}")

    if field.ndim == 1:
        m = field.shape[0]
        (off1, w1), (off2, w2) = _central_weights(m, node_index, spacing)
        fx = sum(w * field[node_index + o] for o, w in zip(off1, w1))
        fxx = sum(w * field[node_index + o] for o, w in zip(off2, w2))
        return Jet2(
            value=float(field[node_index]),
            d1=(0.0, float(fx)),
            d2=(0.0, 0.0, float(fxx)),
        )

    if field.ndim != 2:
        raise DomainError("field must be a 1D or 2D array of samples")
    if time_index is None or time_spacing is None:
        raise DomainError("2D fields need time_index and time_spacing")
    if time_spacing <= 0:
        raise DomainError(f"time spacing must be positive, got {time_spacing}")

    levels, m = field.shape
    (t_off1, t_w1), (t_off2, t_w2) = _central_weights(levels, time_index, time_spacing)
    (x_off1, x_w1), (x_off2, x_w2) = _central_weights(m, node_index, spacing)

    j, i = time_index, node_index
    ft = sum(w * field[j + o, i] for o, w in zip(t_off1, t_w1))
    fx = sum(w * field[j, i + o] for o, w in zip(x_off1, x_w1))
    ftt = sum(w * field[j + o, i] for o, w in zip(t_off2, t_w2))
    fxx = sum(w * field[j, i + o] for o, w in zip(x_off2, x_w2))
    # mixed partial: tensor product of the two first-derivative stencils
    ftx = 0.0
    for ot, wt in zip(t_off1, t_w1):
        for ox, wx in zip(x_off1, x_w1):
            ftx += wt * wx * field[j + ot, i + ox]
    return Jet2(
        value=float(field[j, i]),
        d1=(float(ft), float(fx)),
        d2=(float(ftt), float(ftx), float(fxx)),
    )


def observed_orders(errors) -> np.ndarray:
    """log2 ratios of successive errors under refinement by factors of 2.

    Convergence-order measurements across the test-suite funnel through this
    one helper.
    """
    e = np.asarray(errors, dtype=float)
    if e.size < 2:
        raise ArityError("need at least two errors to observe an order")
    if np.any(e <= 0):
        raise DomainError("errors must be positive to take log ratios")
    return np.log2(e[:-1] / e[1:])
