"""Similarity coordinates and the reduced equations living in them.

The similarity coordinates are (tau, rho) = (-log(T-t), x/(T-t)) for the
hyperbolic problems and the analogous (-log(T-x), y/(T-x)) for the spacelike
one; the functions that move points and jets into them take the blow-up
time T directly. Two field scalings ride on top of the coordinates and must
be named explicitly at every call, because the source material switches
between them silently:

* NONE:   v(tau, rho) = u  (used for the wave and elliptic reductions);
* LINEAR: v(tau, rho) = e^tau * u, equivalently u = (T-t) * profile.

The transformed-equation residuals evaluate the printed reductions exactly
as printed, e^{2 tau} factors included, so printed-equation errors surface
in tests instead of being corrected on the sly; a steady residual is one of
them on a tau-independent jet. For ANY such field the whole exponentially
weighted nonlinear block of the wave and elliptic reductions cancels
identically (a pre-build finding the tests exercise), so the steady log and
arctan families annihilate the full equations, not just their linear parts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closedform import ClosedFormSolution, Family, evaluate_jet
from .errors import DomainError
from .numerics import Jet2, libm_pow, rk4_integrate


class FrameScaling(Enum):
    NONE = "none"
    LINEAR = "linear"


class SteadyOdeId(Enum):
    """Steady WAVE and ELLIPTIC reductions, linear once the block cancels."""

    BORN_INFELD_STEADY = "born-infeld-steady"  # (rho^2-1) v'' + 2 rho v' = 0
    SPACELIKE_STEADY = "spacelike-steady"  # (rho^2+1) v'' + 2 rho v' = 0


class SimilarityEquation(Enum):
    WAVE = "wave-similarity"  # unscaled reduction of the timelike string equation
    MEMBRANE_SCALED = "membrane-similarity-scaled"  # linear-scaled radial reduction
    ELLIPTIC = "elliptic-similarity"  # reduction of the spacelike graph equation


def _gap(T: float, a: float) -> float:
    """T - a, refused where the frame ends (a >= T)."""
    gap = T - a
    if gap <= 0.0:
        raise DomainError(f"similarity frame undefined at first coordinate {a} >= T={T}")
    return gap


def to_similarity(T: float, point) -> tuple[float, float]:
    """(a, b) -> (tau, rho) = (-log(T-a), b/(T-a)), defined while the first
    coordinate stays below T."""
    gap = _gap(T, float(point[0]))
    return (-math.log(gap), float(point[1]) / gap)


def from_similarity(T: float, sim_point) -> tuple[float, float]:
    """Inverse map; composes with to_similarity to the identity."""
    tau, rho = float(sim_point[0]), float(sim_point[1])
    gap = math.exp(-tau)
    return (T - gap, rho * gap)


def transform_field_jet(T: float, point, jet: Jet2, scaling: FrameScaling) -> Jet2:
    """Push a physical 2-jet at `point` into the similarity frame.

    The returned jet is ordered (tau, rho): d1 = (v_tau, v_rho),
    d2 = (v_tautau, v_taurho, v_rhorho). The relations below invert the
    chain-rule list of the reduction and were derived by hand from
    t = T - e^{-tau}, x = rho e^{-tau}.
    """
    gap = _gap(T, float(point[0]))
    rho = float(point[1]) / gap
    u = jet.value
    ut, ux = jet.d1
    utt, utx, uxx = jet.d2

    wave_second = utt - 2.0 * rho * utx + rho * rho * uxx  # a^2-weighted d^2/dtau^2 core

    if scaling is FrameScaling.NONE:
        v = u
        v_tau = gap * ut - gap * rho * ux
        v_rho = gap * ux
        v_rhorho = gap * gap * uxx
        v_taurho = -gap * ux + gap * gap * (utx - rho * uxx)
        v_tautau = -gap * ut + gap * rho * ux + gap * gap * wave_second
        return Jet2(v, (v_tau, v_rho), (v_tautau, v_taurho, v_rhorho))

    if scaling is FrameScaling.LINEAR:
        v = u / gap
        v_tau = v + ut - rho * ux
        v_rho = ux
        v_rhorho = gap * uxx
        v_taurho = gap * (utx - rho * uxx)
        v_tautau = v_tau + gap * wave_second
        return Jet2(v, (v_tau, v_rho), (v_tautau, v_taurho, v_rhorho))

    raise DomainError(f"unknown scaling {scaling!r}")


@dataclass(frozen=True)
class SteadyOdeSolution:
    rhos: np.ndarray
    v: np.ndarray
    vp: np.ndarray


def steady_ode_integrate(
    ode: SteadyOdeId, initial, rho_range, drho: float
) -> SteadyOdeSolution:
    """RK4 integration of the (linear) steady ODE from initial = (v, v')
    at the left end of rho_range."""
    rho0, rho1 = float(rho_range[0]), float(rho_range[1])
    if drho <= 0:
        raise DomainError(f"drho must be positive, got {drho}")
    if rho1 <= rho0:
        raise DomainError(f"empty rho range [{rho0}, {rho1}]")

    if ode is SteadyOdeId.BORN_INFELD_STEADY:
        if min(abs(abs(rho0) - 1.0), abs(abs(rho1) - 1.0)) < 10.0 * drho or (
            rho0 < 1.0 < rho1
        ) or (rho0 < -1.0 < rho1):
            raise DomainError(
                "integration range must stay at least 10*drho away from |rho| = 1"
            )

        def f(rho, s):
            return (s[1], 2.0 * rho * s[1] / (1.0 - rho * rho))

    elif ode is SteadyOdeId.SPACELIKE_STEADY:

        def f(rho, s):
            return (s[1], -2.0 * rho * s[1] / (1.0 + rho * rho))

    else:
        raise DomainError(f"unknown steady ode {ode!r}")

    ts, states = rk4_integrate(f, rho0, tuple(map(float, initial)), rho1, drho)
    return SteadyOdeSolution(rhos=ts, v=states[:, 0], vp=states[:, 1])


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
            run.v - evaluate_jet(ClosedFormSolution(family, 1.0, k), (0.0, run.rhos)).value
        )))
        for run, family in (
            (timelike, Family.BORN_INFELD_LOG),
            (spacelike, Family.SPACELIKE_LOG_CLAIMED),
            (spacelike, Family.SPACELIKE_ARCTAN_CORRECTED),
        )
    )


def _nonlinear_wave_block(v_tau, v_rho, v_tautau, v_taurho, v_rhorho, rho):
    """The bracketed cubic block shared by the wave and elliptic reductions."""
    radial = v_tautau + v_tau + 2.0 * rho * v_rho + 2.0 * rho * v_taurho + rho * rho * v_rhorho
    advect = v_tau + rho * v_rho
    return (
        v_rho * v_rho * radial
        + advect * advect * v_rhorho
        - 2.0 * v_rho * advect * (v_rho + rho * v_rhorho + v_taurho)
    )


def transformed_equation_residual(
    eq: SimilarityEquation, jet: Jet2, sim_point
) -> float | np.ndarray:
    """Term-by-term residual of the printed transformed equations.

    jet is a similarity-frame 2-jet ordered (tau, rho); sim_point = (tau, rho).
    rho may be an array, with the jet's entries broadcast against it, for an
    array of residuals at one tau; each keeps the bits of its scalar call.
    """
    tau, rho = float(sim_point[0]), sim_point[1]
    v = jet.value
    v_tau, v_rho = jet.d1
    v_tautau, v_taurho, v_rhorho = jet.d2

    if eq is SimilarityEquation.WAVE:
        linear = (
            v_tautau
            - (1.0 - rho * rho) * v_rhorho
            + v_tau
            + 2.0 * rho * v_rho
            + 2.0 * rho * v_taurho
        )
        block = _nonlinear_wave_block(v_tau, v_rho, v_tautau, v_taurho, v_rhorho, rho)
        return linear + math.exp(2.0 * tau) * block

    if eq is SimilarityEquation.ELLIPTIC:
        linear = (
            v_tautau
            + (1.0 + rho * rho) * v_rhorho
            + v_tau
            + 2.0 * rho * v_rho
            + 2.0 * rho * v_taurho
        )
        block = _nonlinear_wave_block(v_tau, v_rho, v_tautau, v_taurho, v_rhorho, rho)
        return linear - math.exp(2.0 * tau) * block

    if eq is SimilarityEquation.MEMBRANE_SCALED:
        if np.any(rho == 0.0):
            raise DomainError("the scaled membrane reduction has 1/rho terms")
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

    raise DomainError(f"unknown transformed equation {eq!r}")
