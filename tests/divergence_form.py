"""The conservation-law form of the Born-Infeld string equation, which only
the tests use.

It divides by the hyperbolicity discriminant and therefore degenerates on
lightlike backgrounds, where the package's expanded residual stays regular;
tests check the identity divergence = expanded / W^3 between the two.
"""
from __future__ import annotations

import math

from zmclab.errors import DegeneracyError
from zmclab.numerics import Jet2

EPS_DEGENERATE = 1e-10


def divergence_form_residual(jet: Jet2) -> float:
    """Residual of the conservation-law form d/dt(u_t/W) - d/dx(u_x/W) with
    W = sqrt(1 - u_t^2 + u_x^2).

    The product/quotient rule turns this into arithmetic on the 2-jet alone,
    so second-order data suffices even though differencing the flux of a
    discrete field would touch third differences. Computed along a different
    arithmetic path than the expanded residual, which is what makes the
    equivalence identity (divergence = expanded / W^3) a real test.
    """
    ut, ux = jet.d1
    utt, utx, uxx = jet.d2
    disc = 1 - ut * ut + ux * ux
    if disc <= EPS_DEGENERATE:
        raise DegeneracyError(
            f"discriminant 1 - u_t^2 + u_x^2 = {float(disc)} <= {EPS_DEGENERATE}; "
            "the divergence form degenerates on lightlike backgrounds"
        )
    W = math.sqrt(disc)
    W3 = W * disc
    dt_part = utt / W - ut * (-ut * utt + ux * utx) / W3
    dx_part = uxx / W - ux * (-ut * utx + ux * uxx) / W3
    return dt_part - dx_part
