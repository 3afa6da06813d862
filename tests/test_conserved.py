import numpy as np
import pytest

from zmclab.closedform import ClosedFormSolution, Family, evaluate_jet
from zmclab.conserved import (
    CLAIMED_ENERGY_SCALING_EXPONENT,
    measure_scaling_exponent,
    momentum_density,
    momentum_flux,
)

HALF_OVER_ROOT_THREE_QUARTERS = 0.5773502691896258
# numpy's trapezoid rule, named np.trapz before numpy 2.0
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def lorentz_root(p, q):
    return np.sqrt(1.0 - p * p + q * q)


def total_momentum(p, q, xs):
    return trapezoid(momentum_density(p, lorentz_root(p, q)), xs)


def test_momentum_density_values():
    p, q = np.array([0.6]), np.array([0.0])
    m = momentum_density(p, lorentz_root(p, q))
    assert abs(float(m[0]) - 0.75) < 1e-15
    # flux and density share the Lorentz root
    p, q = np.array([0.3]), np.array([0.4])
    root = lorentz_root(p, q)
    ratio = momentum_density(p, root) / momentum_flux(q, root)
    assert abs(float(ratio[0]) - 0.75) < 1e-14


def test_momentum_terms_divide_by_the_given_root():
    p, q = np.array([0.3, -0.5]), np.array([0.4, 2.0])
    root = np.array([0.5, 4.0])
    assert np.array_equal(momentum_density(p, root), p / root)
    assert np.array_equal(momentum_flux(q, root), q / root)


def test_total_momentum_odd_slope_vanishes():
    xs = np.linspace(-1.0, 1.0, 501)
    p = 0.5 * np.sin(3.0 * xs)
    q = np.cos(3.0 * xs)  # even, so W is even and m stays odd
    assert abs(total_momentum(p, q, xs)) <= 1e-14


def test_total_momentum_constant_slope():
    xs = np.linspace(0.0, 1.0, 11)
    p = np.full_like(xs, 0.5)
    q = np.zeros_like(xs)
    assert abs(total_momentum(p, q, xs) - HALF_OVER_ROOT_THREE_QUARTERS) < 1e-14


def test_momentum_balance_on_exact_solution():
    """d/dt of the windowed momentum equals the boundary flux difference."""
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.2)
    xs = np.linspace(-0.3, 0.4, 4001)

    def slopes(t):
        return evaluate_jet(sol, (t, xs)).d1

    t0, dt = 0.5, 1e-5
    p_plus, q_plus = slopes(t0 + dt)
    p_minus, q_minus = slopes(t0 - dt)
    rate = (
        total_momentum(p_plus, q_plus, xs) - total_momentum(p_minus, q_minus, xs)
    ) / (2 * dt)
    p0, q0 = slopes(t0)
    flux = momentum_flux(q0, lorentz_root(p0, q0))
    assert abs(rate - (float(flux[-1]) - float(flux[0]))) <= 1e-5


LOG_MEMBER = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.3)


def halved_energy_ratios(sol, t0, window):
    """E / E_half for the quadratic energy density (p^2 + q^2)/2 of sol's
    slopes at t0, unweighted and with the |x| weight, where E_half is the
    energy of the member u(2t, 2x)/2 on the halved window at t0/2: its
    slopes at (t0/2, x/2) are those of u at (t0, x), so it is the same
    integrand over halved abscissae."""
    xs = np.linspace(*window, 2001)
    p, q = evaluate_jet(sol, (t0, xs)).d1
    density = 0.5 * (p * p + q * q)
    halved = xs / 2
    return (trapezoid(density, xs) / trapezoid(density, halved),
            trapezoid(density * np.abs(xs), xs)
            / trapezoid(density * np.abs(halved), halved))


def test_scaling_exponent_unweighted():
    """Halving the window halves the energy exactly: lambda^-1."""
    assert halved_energy_ratios(LOG_MEMBER, 0.5, (-0.2, 0.3))[0] == 2.0
    scaling = measure_scaling_exponent()
    assert scaling.exponent == -1.0
    assert scaling.claimed_exponent == CLAIMED_ENERGY_SCALING_EXPONENT == 1.0
    assert scaling.matches_claim is False


def test_scaling_exponent_coordinate_weight():
    """The |x| weight adds one power: exactly a quarter, lambda^-2."""
    assert halved_energy_ratios(LOG_MEMBER, 0.5, (-0.2, 0.3))[1] == 4.0
    assert measure_scaling_exponent().coordinate_weighted_exponent == -2.0


def test_scaling_family_membrane_cap():
    """The substitution holds whatever the slopes: a sphere cap's energy
    halves and quarters exactly too."""
    cap = ClosedFormSolution(Family.MEMBRANE_SPHERE_MINUS, T=1.0)
    assert halved_energy_ratios(cap, 0.4, (0.05, 0.4)) == (2.0, 4.0)
