"""Similarity coordinates: the steady ODEs and the scaled membrane reduction.

The similarity coordinates are (tau, rho) = (-log(T-t), x/(T-t)) for the
hyperbolic problems and the analogous (-log(T-x), y/(T-x)) for the spacelike
one. The steady wave and elliptic reductions are linear ODEs in rho, since
for any tau-independent field the exponentially weighted nonlinear block of
the full reductions cancels identically: (rho^2 -+ 1) v'' + 2 rho v' = 0.
steady_residual_ratios judges the printed steady families by their
residual in these reductions, read off closedform's jets, as every other
family is judged. steady_ode_integrate returns the reductions' first
integral in closed form; no claim of the audit reads it.

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

from .closedform import ClosedFormSolution, Family, evaluate_jet
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


def steady_ode_integrate(
    ode: SteadyOdeId, initial, rho_range, drho: float
) -> SteadyOdeSolution:
    """The steady ODE's solution from initial = (v, v') at the left end of
    rho_range, in closed form, sampled drho apart from that end with the
    range's right end last.

    Both ODEs, (rho^2 - 1) v'' + 2 rho v' = 0 (Born-Infeld) and
    (rho^2 + 1) v'' + 2 rho v' = 0 (spacelike), are linear in v' and
    integrate once: (1 -+ rho^2) v' is a constant C, so v' = C/(1 -+ rho^2)
    and v = v(rho0) + C (F(rho) - F(rho0)) with F' = 1/(1 -+ rho^2), that is
    F = atanh(rho) inside |rho| < 1, atanh(1/rho) beyond it, and atan(rho).
    C/(1 -+ rho^2) is taken as v'(rho0) times (1 -+ rho0^2)/(1 -+ rho^2), so
    the first sample is the initial data and C never overflows on its own.

    A drho, a range end or an initial value that is not finite is refused
    with DomainError, naming it, and initial data that are not a pair with
    ArityError; a Born-Infeld range must keep to one side of |rho| = 1, at
    least 10 drho from it. An integral that leaves double range raises
    NonFiniteError naming the first rho where it did.

    Its callers are bench/'s two steady ops and acceptance criterion 4; the
    audit judges the steady families by steady_residual_ratios instead."""
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

    rhos = rho0 + drho * np.arange(math.ceil((rho1 - rho0) / drho))
    # a sample within rounding of rho1 would only repeat it
    rhos = np.append(rhos[rhos < rho1 - 1e-9 * drho], rho1)
    if ode is SteadyOdeId.BORN_INFELD_STEADY:
        weight = 1.0 - rhos * rhos
        inside = abs(rho0) < 1.0  # the whole range is, by the guard above
        antiderivative = np.arctanh(rhos if inside else 1.0 / rhos)
    else:
        weight = 1.0 + rhos * rhos
        antiderivative = np.arctan(rhos)
    with np.errstate(over="ignore", invalid="ignore"):
        vp = state[1] * (weight[0] / weight)
        v = state[0] + state[1] * (weight[0] * (antiderivative - antiderivative[0]))
    finite = np.isfinite(v) & np.isfinite(vp)
    if not finite.all():
        first = float(rhos[np.argmin(finite)])
        raise NonFiniteError(f"the steady integral leaves double range at rho={first}")
    return SteadyOdeSolution(rhos=rhos, v=v, vp=vp)


def steady_residual_ratios() -> tuple[float, float, float]:
    """sup |residual| / sup sum |terms| of the printed steady families in
    their reductions, at k = 0.7: (timelike log family in
    (rho^2 - 1) v'' + 2 rho v' on [0, 0.9], printed spacelike k*asinh(rho)
    and corrected k*arctan(rho) in (rho^2 + 1) v'' + 2 rho v' on [0, 2]),
    at radii 1e-3 apart. The terms are rho^2 v'', -+v'' and 2 rho v'.

    The steady families are the closed forms at T = 1 on the slice t = 0
    (x = 0 for the spacelike ones), whose second coordinate is rho, so v'
    and v'' are the double jet's d1[1] and d2[2]. The solutions read at
    rounding; the printed family's residual k rho/sqrt(1 + rho^2) is a
    third of its terms at every rho > 0."""
    ratios = []
    for family, sign, rho_max in (
        (Family.BORN_INFELD_LOG, -1.0, 0.9),
        (Family.SPACELIKE_LOG_CLAIMED, 1.0, 2.0),
        (Family.SPACELIKE_ARCTAN_CORRECTED, 1.0, 2.0),
    ):
        rhos = np.linspace(0.0, rho_max, round(rho_max * 1e3) + 1)
        jet = evaluate_jet(ClosedFormSolution(family, 1.0, 0.7), (0.0, rhos))
        vp, vpp = jet.d1[1], jet.d2[2]
        terms = (rhos * rhos * vpp, sign * vpp, 2.0 * rhos * vp)
        residual = np.abs(terms[0] + terms[1] + terms[2])
        scale = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
        ratios.append(float(np.max(residual) / np.max(scale)))
    return tuple(ratios)


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
