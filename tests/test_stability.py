import dataclasses
import math

import numpy as np
import pytest

from zmclab import stability
from zmclab.errors import SingularPointError
from zmclab.numerics import Jet2
from zmclab.profiles import degenerate_branch
from zmclab.similarity import SimilarityEquation, transformed_equation_residual
from zmclab.stability import (
    CLAIMED_MODE_ROOTS,
    directional_linearization_check,
    linearized_coefficients,
    mode_growth_probe,
    solve_mode_quadratic,
)

AXIS_PENCIL = (1.0, 3.0, -4.0)

# branch coefficients at rho = 0.5: 1/(1-rho^2), 3/(1-rho^2), -4/(1-rho^2)
C_TAU_TAU_HALF = 1.3333333333333333
C_TAU_HALF = 4.0
C_VALUE_HALF = -5.333333333333333


# steady bases (phi, phi', phi''): both caps of the circle and a quadratic
BASES = [
    lambda rho: degenerate_branch(1, rho),
    lambda rho: degenerate_branch(-1, rho),
    lambda rho: (0.3 + 0.2 * rho * rho, 0.4 * rho, 0.4),
]
BASE_IDS = ["upper-cap", "lower-cap", "quadratic"]


def test_zero_profile_coefficients():
    c = linearized_coefficients(0.0, 0.0, 0.0, 0.5)
    assert c.c_tau_tau == 1.0
    assert c.c_tau == -1.0
    assert c.c_tau_rho == 1.0
    assert c.c_rho_rho == -0.75
    assert c.c_rho == -2.0
    assert c.c_value == 0.0


def test_axis_guard():
    with pytest.raises(SingularPointError):
        linearized_coefficients(0.0, 0.0, 0.0, 0.0)


def test_branch_coefficients_at_half():
    phi, dphi, d2phi = degenerate_branch(1, 0.5)
    c = linearized_coefficients(phi, dphi, d2phi, 0.5)
    assert abs(c.c_rho_rho) <= 1e-14
    assert abs(c.c_tau_rho) <= 1e-14
    assert abs(c.c_rho) <= 1e-14
    assert abs(c.c_tau_tau - C_TAU_TAU_HALF) <= 1e-14
    assert abs(c.c_tau - C_TAU_HALF) <= 1e-12
    assert abs(c.c_value - C_VALUE_HALF) <= 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_rho_coefficients_vanish_along_branch(sign):
    """The three rho-derivative coefficients drop out on the whole circle."""
    for rho in np.linspace(0.001, 0.995, 1000):
        phi, dphi, d2phi = degenerate_branch(sign, float(rho))
        c = linearized_coefficients(phi, dphi, d2phi, float(rho))
        assert abs(c.c_rho_rho) <= 1e-12
        assert abs(c.c_tau_rho) <= 1e-12
        assert abs(c.c_rho) <= 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_branch_pencil_is_the_axis_pencil_at_every_radius(sign):
    """On either cap (c_tau_tau, c_tau, c_value) = (1, 3, -4)/(1 - rho^2),
    so every radius carries the axis pencil nu^2 + 3 nu - 4."""
    for rho in np.linspace(0.01, 0.95, 50):
        phi, dphi, d2phi = degenerate_branch(sign, float(rho))
        c = linearized_coefficients(phi, dphi, d2phi, float(rho))
        scaled = np.array([c.c_tau_tau, c.c_tau, c.c_value]) * (1.0 - rho * rho)
        assert np.abs(scaled - AXIS_PENCIL).max() <= 1e-12, (rho, scaled)


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
def test_linearization_matches_scaled_reduction_in_every_direction(base):
    """Each of the six coefficients is the derivative of the scaled membrane
    reduction at the steady profile along its own jet entry, tau entries
    included; the steady-residual check never perturbs those."""
    for rho in (0.05, 0.3, 0.5, 0.8):
        phi, dphi, d2phi = base(rho)
        c = linearized_coefficients(phi, dphi, d2phi, rho)
        coeffs = (c.c_value, c.c_tau, c.c_rho, c.c_tau_tau, c.c_tau_rho, c.c_rho_rho)
        steady = np.array([phi, 0.0, dphi, 0.0, 0.0, d2phi])
        for entry, coeff in enumerate(coeffs):
            fd = 0.0
            for step in (1e-6, -1e-6):
                v = steady + step * (np.arange(6) == entry)
                jet = Jet2(v[0], (v[1], v[2]), (v[3], v[4], v[5]))
                fd += np.sign(step) * transformed_equation_residual(
                    SimilarityEquation.MEMBRANE_SCALED, jet, (0.0, rho)
                ) / 2e-6
            assert abs(fd - coeff) <= 1e-6 * max(1.0, abs(coeff)), (rho, entry, fd, coeff)


def test_branch_coefficients_reach_axis_limits():
    phi, dphi, d2phi = degenerate_branch(1, 1e-4)
    c = linearized_coefficients(phi, dphi, d2phi, 1e-4)
    a, b, cc = AXIS_PENCIL
    assert abs(c.c_tau_tau - a) <= 1e-6
    assert abs(c.c_tau - b) <= 1e-6
    assert abs(c.c_value - cc) <= 1e-6


def test_operator_application_is_a_dot_product():
    c = linearized_coefficients(0.1, 0.2, 0.3, 0.4)
    jet = Jet2(1.0, (2.0, 3.0), (4.0, 5.0, 6.0))
    # summed in apply's order, so the two agree to the last bit
    expect = (
        4 * c.c_tau_tau + 5 * c.c_tau_rho + 6 * c.c_rho_rho
        + 2 * c.c_tau + 3 * c.c_rho + c.c_value
    )
    assert c.apply(jet) == expect


def test_linearization_check_zero_base():
    def direction(rho):
        return Jet2(math.sin(rho), (0.0, math.cos(rho)), (0.0, 0.0, -math.sin(rho)))

    check = directional_linearization_check(
        lambda rho: (0.0, 0.0, 0.0), direction, 1e-6, np.linspace(0.1, 0.9, 50)
    )
    assert check.max_abs_difference <= 1e-5
    assert check.n_samples == 50
    assert check.max_operator_value > 0.0


def test_linearization_check_branch_base():
    check = directional_linearization_check(
        lambda rho: degenerate_branch(1, rho),
        lambda rho: Jet2(rho * rho, (0.0, 2 * rho), (0.0, 0.0, 2.0)),
        1e-6,
        np.linspace(0.1, 0.9, 50),
    )
    assert check.max_abs_difference <= 1e-8


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
def test_linearization_check_sees_tau_directions(base):
    """Along e^(tau/2) w the check differences the tau entries of the scaled
    reduction as well, so it sees c_tau_tau, c_tau and c_tau_rho."""
    def direction(rho):
        w, dw, d2w = math.sin(3 * rho), 3 * math.cos(3 * rho), -9 * math.sin(3 * rho)
        return Jet2(w, (w / 2, dw), (w / 4, dw / 2, d2w))

    check = directional_linearization_check(base, direction, 1e-6, np.linspace(0.05, 0.9, 40))
    assert check.max_abs_difference <= 1e-8
    assert check.max_operator_value > 0.1


def test_mode_quadratic_and_roots():
    report = solve_mode_quadratic()
    assert report.quadratic == (1.0, 3.0, -4.0)
    assert report.roots == (1.0, -4.0)
    assert report.n_growing == 1
    assert "unstable" in report.classification
    assert report.claimed_roots == CLAIMED_MODE_ROOTS
    assert report.matches_claim is False
    d = report.to_json_dict()
    assert d["roots"] == [1.0, -4.0]
    assert d["matches_claim"] is False


def test_time_translation_is_the_growing_mode():
    """e^tau/phi, the derivative of either cap in the blow-up time, solves
    the linearized equation, so the one growing root is a symmetry."""
    mode = mode_growth_probe()
    assert mode.max_residual <= 1e-12
    assert mode.exponent == max(solve_mode_quadratic().roots)


@pytest.mark.parametrize("sign", [1, -1])
def test_every_e_tau_profile_solves_the_operator_on_the_caps(sign):
    """With c_rho_rho, c_tau_rho and c_rho zero, L(e^tau f) is f times
    c_tau_tau + c_tau + c_value = (1 + 3 - 4) / (1 - rho^2) = 0 for any f(rho):
    the nu = 1 eigenspace holds more than the translation e^tau/phi."""
    for rho in map(float, stability.BRANCH_RADII):
        c = linearized_coefficients(*degenerate_branch(sign, rho), rho)
        for f, df, d2f in ((1.0 + rho * rho, 2.0 * rho, 2.0), (rho, 1.0, 0.0)):
            assert abs(c.apply(Jet2(f, (f, df), (f, df, d2f)))) <= 1e-12, (rho, f)


def coefficients_without_phi_in_c_tau(phi, dphi, d2phi, rho):
    """The operator with c_tau's last term missing its factor phi."""
    c = linearized_coefficients(phi, dphi, d2phi, rho)
    return dataclasses.replace(
        c, c_tau=-(1.0 - dphi * dphi + 2.0 * d2phi * phi + 2.0 * dphi / rho)
    )


def test_pencil_and_symmetry_mode_read_the_operator(monkeypatch):
    """Both are computed from linearized_coefficients, so a wrong c_tau
    breaks the uniform pencil and the time-translation mode."""
    monkeypatch.setattr(stability, "linearized_coefficients", coefficients_without_phi_in_c_tau)
    with pytest.raises(ArithmeticError, match="cap at rho"):
        solve_mode_quadratic()
    with pytest.raises(ArithmeticError, match="e\\^tau/phi"):
        mode_growth_probe()
