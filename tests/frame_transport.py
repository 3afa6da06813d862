"""The similarity frame as the tests' oracle: coordinates, jet transport and
the wave and elliptic reductions.

The similarity coordinates are (tau, rho) = (-log(T-a), b/(T-a)) for a
point (a, b), defined while a stays below the blow-up time T. A physical
2-jet moves into the frame under one of two field scalings, one function
each, since the source material switches between them silently:

* transform_jet_unscaled: v(tau, rho) = u, for the wave and elliptic
  reductions;
* transform_jet_linear: v(tau, rho) = e^tau * u, equivalently
  u = (T-t) * profile, for similarity.membrane_reduction_residual.

The wave and elliptic reductions are evaluated exactly as printed, e^{2 tau}
factors included. For ANY tau-independent field their whole exponentially
weighted nonlinear block cancels identically, so the steady log and arctan
families annihilate the full equations, not just the linear steady ODEs the
package integrates. Tests tie each reduction to the physical residual
through the transport.
"""
from __future__ import annotations

import math

from zmclab.errors import DomainError
from zmclab.numerics import Jet2


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


# The transports return jets ordered (tau, rho): d1 = (v_tau, v_rho),
# d2 = (v_tautau, v_taurho, v_rhorho). Their relations invert the chain-rule
# list of the reduction and were derived by hand from t = T - e^{-tau},
# x = rho e^{-tau}.


def transform_jet_unscaled(T: float, point, jet: Jet2) -> Jet2:
    """Push a physical 2-jet at `point` into the frame as v = u."""
    gap = _gap(T, float(point[0]))
    rho = float(point[1]) / gap
    ut, ux = jet.d1
    utt, utx, uxx = jet.d2
    wave_second = utt - 2.0 * rho * utx + rho * rho * uxx  # a^2-weighted d^2/dtau^2 core
    v_tau = gap * ut - gap * rho * ux
    v_rho = gap * ux
    v_rhorho = gap * gap * uxx
    v_taurho = -gap * ux + gap * gap * (utx - rho * uxx)
    v_tautau = -gap * ut + gap * rho * ux + gap * gap * wave_second
    return Jet2(jet.value, (v_tau, v_rho), (v_tautau, v_taurho, v_rhorho))


def transform_jet_linear(T: float, point, jet: Jet2) -> Jet2:
    """Push a physical 2-jet at `point` into the frame as v = e^tau * u."""
    gap = _gap(T, float(point[0]))
    rho = float(point[1]) / gap
    ut, ux = jet.d1
    utt, utx, uxx = jet.d2
    wave_second = utt - 2.0 * rho * utx + rho * rho * uxx
    v = jet.value / gap
    v_tau = v + ut - rho * ux
    v_rho = ux
    v_rhorho = gap * uxx
    v_taurho = gap * (utx - rho * uxx)
    v_tautau = v_tau + gap * wave_second
    return Jet2(v, (v_tau, v_rho), (v_tautau, v_taurho, v_rhorho))


def _nonlinear_wave_block(v_tau, v_rho, v_tautau, v_taurho, v_rhorho, rho):
    """The bracketed cubic block shared by the wave and elliptic reductions."""
    radial = v_tautau + v_tau + 2.0 * rho * v_rho + 2.0 * rho * v_taurho + rho * rho * v_rhorho
    advect = v_tau + rho * v_rho
    return (
        v_rho * v_rho * radial
        + advect * advect * v_rhorho
        - 2.0 * v_rho * advect * (v_rho + rho * v_rhorho + v_taurho)
    )


def wave_reduction_residual(jet: Jet2, sim_point) -> float:
    """The printed unscaled reduction of the timelike string equation at
    sim_point = (tau, rho), for a frame jet ordered (tau, rho)."""
    tau, rho = float(sim_point[0]), sim_point[1]
    v_tau, v_rho = jet.d1
    v_tautau, v_taurho, v_rhorho = jet.d2
    linear = (
        v_tautau
        - (1.0 - rho * rho) * v_rhorho
        + v_tau
        + 2.0 * rho * v_rho
        + 2.0 * rho * v_taurho
    )
    block = _nonlinear_wave_block(v_tau, v_rho, v_tautau, v_taurho, v_rhorho, rho)
    return linear + math.exp(2.0 * tau) * block


def elliptic_reduction_residual(jet: Jet2, sim_point) -> float:
    """The printed reduction of the spacelike graph equation at
    sim_point = (tau, rho), for a frame jet ordered (tau, rho)."""
    tau, rho = float(sim_point[0]), sim_point[1]
    v_tau, v_rho = jet.d1
    v_tautau, v_taurho, v_rhorho = jet.d2
    linear = (
        v_tautau
        + (1.0 + rho * rho) * v_rhorho
        + v_tau
        + 2.0 * rho * v_rho
        + 2.0 * rho * v_taurho
    )
    block = _nonlinear_wave_block(v_tau, v_rho, v_tautau, v_taurho, v_rhorho, rho)
    return linear - math.exp(2.0 * tau) * block
