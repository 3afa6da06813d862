"""Similarity coordinates: the steady ODEs and the scaled membrane reduction.

The similarity coordinates are (tau, rho) = (-log(T-t), x/(T-t)) for the
hyperbolic problems and the analogous (-log(T-x), y/(T-x)) for the spacelike
one. The steady wave and elliptic reductions are linear ODEs in rho, since
for any tau-independent field the exponentially weighted nonlinear block of
the full reductions cancels identically; steady_ode_integrate marches
them by classical RK4 in product form, in array passes, and
steady_family_errors measures the printed steady families against those
runs.

membrane_reduction_residual evaluates the radial membrane equation in the
linear scaling v(tau, rho) = e^tau * u, equivalently u = (T-t) * profile,
term by term as printed, so printed-equation errors surface in tests instead
of being corrected on the sly. The tests keep the frame transport and the
wave and elliptic reductions that tie these forms to the physical equations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closedform import ClosedFormSolution, Family, evaluate_value
from .errors import ArityError, DomainError, NonFiniteError
from .numerics import Jet2, libm_pow


class SteadyOdeId(Enum):
    """The steady wave and elliptic reductions, linear once the nonlinear
    block cancels."""

    BORN_INFELD_STEADY = "born-infeld-steady"  # (rho^2-1) v'' + 2 rho v' = 0
    SPACELIKE_STEADY = "spacelike-steady"  # (rho^2+1) v'' + 2 rho v' = 0


@dataclass(frozen=True)
class SteadyOdeSolution:
    rhos: np.ndarray
    v: np.ndarray
    vp: np.ndarray


def _steady_coefficient(ode: SteadyOdeId, rho):
    """a(rho) of the steady ODE written as v'' = a(rho) v'."""
    if ode is SteadyOdeId.BORN_INFELD_STEADY:
        return 2.0 * rho / (1.0 - rho * rho)
    return -2.0 * rho / (1.0 + rho * rho)


def _march_grid(rho0: float, rho1: float, drho: float):
    """The step ends and steps of a fixed-step march from rho0 to rho1,
    clipped to land on rho1: each end is the last one plus the step, summed
    in order, and stepping stops within 1e-14 * max(1, |rho1|) of rho1.
    One np.add.accumulate sums the full steps as a loop would; the clipped
    step, or any step the estimated count missed, is summed in the loop."""
    last = rho1 - 1e-14 * max(1.0, abs(rho1))
    ends = np.full(math.ceil((rho1 - rho0) / drho) + 1, drho)
    ends[0] = rho0
    np.add.accumulate(ends, out=ends)
    # a full step starts below last and at least drho short of rho1; the
    # ends never decrease, so these starts are a leading run
    full = min(int(np.count_nonzero((ends < last) & (rho1 - ends >= drho))), ends.size - 1)
    ends, steps = ends[: full + 1], np.full(full, drho)
    t, tail = float(ends[-1]), []
    while t < last:
        h = min(drho, rho1 - t)
        t = t + h
        tail.append((t, h))
    if tail:
        tail_ends, tail_steps = zip(*tail)
        ends = np.concatenate((ends, tail_ends))
        steps = np.concatenate((steps, tail_steps))
    return ends, steps


def steady_ode_integrate(
    ode: SteadyOdeId, initial, rho_range, drho: float
) -> SteadyOdeSolution:
    """Classical RK4 integration of the (linear) steady ODE from initial =
    (v, v') at the left end of rho_range, in whole-array passes.

    The ODE is v'' = a(rho) v' with a = 2 rho/(1 - rho^2) (Born-Infeld) or
    -2 rho/(1 + rho^2) (spacelike). v never enters the slope, so one RK4
    step of length h multiplies v' by its growth factor
    R = 1 + (h/6)(a0 + 2 a1 g2 + 2 a1 g3 + a2 g4), with a0, a1, a2 taken at
    rho, rho + h/2 and rho + h and g2 = 1 + (h/2) a0, g3 = 1 + (h/2) a1 g2,
    g4 = 1 + h a1 g3, and adds (h/6) v' (1 + 2 g2 + 2 g3 + g4) to v. So v'
    is one running product (np.multiply.accumulate) and v one running sum
    (np.add.accumulate), each taken in step order as a loop would.

    The steps are numerics.rk4_integrate's: drho each, the last clipped to
    land on the range's end. A drho, a range end or an initial value that
    is not finite is refused with DomainError, naming it, and initial data
    that are not a pair with ArityError; a march that leaves double range
    raises NonFiniteError naming the first rho where it did."""
    rho0, rho1 = float(rho_range[0]), float(rho_range[1])
    if not 0.0 < drho < math.inf:
        raise DomainError(f"drho must be finite and positive, got {drho}")
    if not (math.isfinite(rho0) and math.isfinite(rho1)):
        raise DomainError(f"rho range [{rho0}, {rho1}] must have finite ends")
    if rho1 <= rho0:
        raise DomainError(f"empty rho range [{rho0}, {rho1}]")
    state = tuple(map(float, initial))
    if len(state) != 2:
        raise ArityError(f"initial data must be a pair (v, v'), got {initial!r}")
    if not (math.isfinite(state[0]) and math.isfinite(state[1])):
        raise DomainError(f"initial data (v, v') = {state} must be finite")
    if ode is SteadyOdeId.BORN_INFELD_STEADY:
        if min(abs(abs(rho0) - 1.0), abs(abs(rho1) - 1.0)) < 10.0 * drho or (
            rho0 < 1.0 < rho1
        ) or (rho0 < -1.0 < rho1):
            raise DomainError(
                "integration range must stay at least 10*drho away from |rho| = 1"
            )
    elif ode is not SteadyOdeId.SPACELIKE_STEADY:
        raise DomainError(f"unknown steady ode {ode!r}")

    rhos, h = _march_grid(rho0, rho1, drho)
    half = 0.5 * h
    with np.errstate(over="ignore", invalid="ignore"):
        a = _steady_coefficient(ode, rhos)
        a0, a2 = a[:-1], a[1:]
        a1 = _steady_coefficient(ode, rhos[:-1] + half)
        # the stage slopes per unit v': k1 = a0, k2 = a1 g2, k3 = a1 g3, k4 = a2 g4
        g2 = 1.0 + half * a0
        k2 = a1 * g2
        g3 = 1.0 + half * k2
        k3 = a1 * g3
        g4 = 1.0 + h * k3
        sixth = h / 6.0
        growth = 1.0 + sixth * (a0 + 2.0 * k2 + 2.0 * k3 + a2 * g4)
        vp = np.multiply.accumulate(np.concatenate(([state[1]], growth)))
        dv = sixth * (1.0 + 2.0 * g2 + 2.0 * g3 + g4) * vp[:-1]
        v = np.add.accumulate(np.concatenate(([state[0]], dv)))
    # inf and NaN stay in a running product or sum, so the last entries tell
    if not (math.isfinite(v[-1]) and math.isfinite(vp[-1])):
        first = int(np.argmin(np.isfinite(v) & np.isfinite(vp)))
        raise NonFiniteError(f"the steady march leaves double range at rho={float(rhos[first])}")
    return SteadyOdeSolution(rhos=rhos, v=v, vp=vp)


def steady_family_errors(k: float, drho: float) -> tuple[float, float, float]:
    """Largest deviations of the printed steady families from RK4 runs of
    their ODEs at step drho, started from the families' data at rho = 0:
    (timelike log family on [0, 0.9], printed spacelike k*asinh(rho) on
    [0, 2], corrected k*arctan(rho) on [0, 2]).

    The steady families are the closed forms at T = 1 on the slice t = 0
    (x = 0 for the spacelike ones), whose second coordinate is rho."""
    timelike = steady_ode_integrate(
        SteadyOdeId.BORN_INFELD_STEADY, (0.0, 2.0 * k), (0.0, 0.9), drho
    )
    spacelike = steady_ode_integrate(SteadyOdeId.SPACELIKE_STEADY, (0.0, k), (0.0, 2.0), drho)
    return tuple(
        float(np.max(np.abs(
            run.v - evaluate_value(ClosedFormSolution(family, 1.0, k), (0.0, run.rhos))
        )))
        for run, family in (
            (timelike, Family.BORN_INFELD_LOG),
            (spacelike, Family.SPACELIKE_LOG_CLAIMED),
            (spacelike, Family.SPACELIKE_ARCTAN_CORRECTED),
        )
    )


def membrane_reduction_residual(jet: Jet2, rho) -> float | np.ndarray:
    """Term-by-term residual of the printed linear-scaled radial membrane
    reduction, which has no explicit tau.

    jet is a similarity-frame 2-jet ordered (tau, rho). rho may be an array,
    with the jet's entries broadcast against it, for an array of residuals;
    each keeps the bits of its scalar call. The reduction has 1/rho terms, so
    rho = 0 is refused.
    """
    if np.any(rho == 0.0):
        raise DomainError("the scaled membrane reduction has 1/rho terms")
    v = jet.value
    v_tau, v_rho = jet.d1
    v_tautau, v_taurho, v_rhorho = jet.d2
    lag = v_tau - v  # the combination (v_tau - v) recurs in every nonlinear term
    return (
        v_tautau
        - v_tau
        - (1.0 - rho * rho) * v_rhorho
        - v_rho / rho
        + 2.0 * rho * v_taurho
        + v_rho * v_rho * (v_tautau + v_tau - 2.0 * v)
        + v_rhorho * lag * lag
        - 2.0 * v_rho * v_taurho * lag
        + (v_rho * lag * lag) / rho
        + (rho * rho - 1.0) * libm_pow(v_rho, 3) / rho
    )
