import numpy as np
import pytest

from zmclab.closedform import ClosedFormSolution, Family, evaluate_jet
from zmclab.conserved import (
    QuadratureWeight,
    measure_scaling_exponent,
    momentum_density,
    momentum_flux,
    quadratic_energy,
)
from zmclab.errors import DomainError
from zmclab.numerics import trapezoid

HALF_OVER_ROOT_THREE_QUARTERS = 0.5773502691896258


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


def test_quadratic_energy_weights():
    xs = np.linspace(0.0, 1.0, 101)
    p = np.ones_like(xs)
    q = np.ones_like(xs)
    assert abs(quadratic_energy(p, q, xs) - 1.0) < 1e-12
    weighted = quadratic_energy(p, q, xs, QuadratureWeight.COORDINATE)
    assert abs(weighted - 0.5) < 1e-12


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


def test_scaling_exponent_unweighted():
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.3)
    m = measure_scaling_exponent(sol, t0=0.5, window=(-0.2, 0.3))
    assert abs(m.exponent + 1.0) <= 1e-10
    assert m.r_squared >= 0.999999
    assert m.matches_claim is False
    assert len(m.energies) == 4
    d = m.to_json_dict()
    assert d["weight"] == "unweighted"
    assert d["claimed_exponent"] == 1.0


def test_scaling_exponent_coordinate_weight():
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.3)
    m = measure_scaling_exponent(
        sol, t0=0.5, window=(-0.2, 0.3), weight=QuadratureWeight.COORDINATE
    )
    assert abs(m.exponent + 2.0) <= 1e-10
    assert m.matches_claim is False


def test_scaling_exponent_guards():
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.3)
    with pytest.raises(DomainError):
        measure_scaling_exponent(sol, 0.5, (0.2, -0.2))


def test_scaling_family_membrane_cap():
    """The rescaled sphere caps reproduce the same covariant power law."""
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_MINUS, T=1.0)
    m = measure_scaling_exponent(
        sol, t0=0.4, window=(0.05, 0.4), weight=QuadratureWeight.COORDINATE
    )
    assert abs(m.exponent + 2.0) <= 1e-10
