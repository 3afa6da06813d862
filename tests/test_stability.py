import dataclasses
import json
import math

import numpy as np
import pytest

from zmclab import stability
from zmclab.errors import ConsistencyError, DomainError
from zmclab.numerics import Jet2, libm_pow
from zmclab.profiles import degenerate_branch
from zmclab.reporting import dumps_json
from zmclab.similarity import membrane_reduction_residual
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
    with pytest.raises(DomainError, match="linearization is singular on the axis rho = 0"):
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
                fd += np.sign(step) * membrane_reduction_residual(jet, rho) / 2e-6
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
        return Jet2(np.sin(rho), (0.0, np.cos(rho)), (0.0, 0.0, -np.sin(rho)))

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
        w, dw, d2w = np.sin(3 * rho), 3 * np.cos(3 * rho), -9 * np.sin(3 * rho)
        return Jet2(w, (w / 2, dw), (w / 4, dw / 2, d2w))

    check = directional_linearization_check(base, direction, 1e-6, np.linspace(0.05, 0.9, 40))
    assert check.max_abs_difference <= 1e-8
    assert check.max_operator_value > 0.1


def audit_bump(rho):
    """The audit's direction, e^(tau/2) times a quartic bump, in floats or
    arrays alike: its square is the C library's pow either way."""
    s = (rho - 0.1) * (0.9 - rho)
    w, dw = s * s, 2.0 * s * (1.0 - 2.0 * rho)
    d2w = 2.0 * libm_pow(1.0 - 2.0 * rho, 2) - 4.0 * s
    return Jet2(w, (w / 2, dw), (w / 4, dw / 2, d2w))


def test_linearization_check_keeps_the_per_radius_bits():
    """The one array pass gives every radius the bits of a scalar evaluation
    there: the perturbed residuals entry by entry, and so the two maxima of
    a check that walks the radii one at a time."""
    rhos = [0.15 + 0.7 * i / 49 for i in range(50)]
    profile = degenerate_branch(1, np.array(rhos))
    for step in (1e-6, -1e-6):
        w = audit_bump(np.array(rhos))
        jet = Jet2(profile[0] + step * w.value, (step * w.d1[0], profile[1] + step * w.d1[1]),
                   (step * w.d2[0], step * w.d2[1], profile[2] + step * w.d2[2]))
        array = membrane_reduction_residual(jet, np.array(rhos))
        scalar = [
            membrane_reduction_residual(Jet2(
                float(jet.value[i]), tuple(float(d[i]) for d in jet.d1),
                tuple(float(d[i]) for d in jet.d2)), rho)
            for i, rho in enumerate(rhos)
        ]
        assert array.tobytes() == np.array(scalar).tobytes()

    diffs, ops = [0.0], [0.0]
    for rho in rhos:
        phi, dphi, d2phi = degenerate_branch(1, rho)
        w = audit_bump(rho)
        lin = linearized_coefficients(phi, dphi, d2phi, rho).apply(w)
        plus, minus = (
            membrane_reduction_residual(
                Jet2(phi + step * w.value, (step * w.d1[0], dphi + step * w.d1[1]),
                     (step * w.d2[0], step * w.d2[1], d2phi + step * w.d2[2])),
                rho)
            for step in (1e-6, -1e-6)
        )
        diffs.append(abs((plus - minus) / 2e-6 - lin))
        ops.append(abs(lin))
    check = directional_linearization_check(
        lambda rho: degenerate_branch(1, rho), audit_bump, 1e-6, rhos)
    assert (check.max_abs_difference, check.max_operator_value) == (max(diffs), max(ops))
    assert check.n_samples == 50


def test_scaled_reduction_refuses_an_axis_radius_in_an_array():
    z = Jet2(np.zeros(2), (0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="1/rho"):
        membrane_reduction_residual(z, np.array([0.5, 0.0]))


def test_mode_quadratic_and_roots():
    report = solve_mode_quadratic()
    assert report.quadratic == (1.0, 3.0, -4.0)
    assert report.roots == (1.0, -4.0)
    assert report.n_growing == 1
    assert "unstable" in report.classification
    assert report.claimed_roots == CLAIMED_MODE_ROOTS
    assert report.matches_claim is False
    d = json.loads(dumps_json(report))
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


@pytest.mark.parametrize("sign", [1, -1])
def test_branch_arrays_match_the_per_radius_calls_bit_for_bit(sign):
    """One call over BRANCH_RADII gives each radius the bits of a call at
    that radius alone, the sign of a zero included, and the circle's root
    and its C-library power as a float computes them."""
    rhos = stability.BRANCH_RADII
    profile = degenerate_branch(sign, rhos)
    coefficients = dataclasses.astuple(linearized_coefficients(*profile, rhos))
    for i, rho in enumerate(map(float, rhos)):
        one = degenerate_branch(sign, rho)
        root = math.sqrt(1.0 - rho * rho)
        assert one == (sign * root, -sign * rho / root, -sign * root ** -3.0)
        want = [*one, *dataclasses.astuple(linearized_coefficients(*one, rho))]
        got = [entry[i] for entry in (*profile, *coefficients)]
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def coefficients_without_phi_in_c_tau(phi, dphi, d2phi, rho):
    """The operator with c_tau's last term missing its factor phi."""
    c = linearized_coefficients(phi, dphi, d2phi, rho)
    return dataclasses.replace(
        c, c_tau=-(1.0 - dphi * dphi + 2.0 * d2phi * phi + 2.0 * dphi / rho)
    )


def test_pencil_and_symmetry_mode_read_the_operator(monkeypatch):
    """Both read the branch samples built from linearized_coefficients, so
    samples built from a wrong c_tau break the uniform pencil and the
    time-translation mode."""
    monkeypatch.setattr(stability, "linearized_coefficients", coefficients_without_phi_in_c_tau)
    monkeypatch.setattr(stability, "BRANCH_SAMPLES", (
        stability._branch_samples(1, "upper"), stability._branch_samples(-1, "lower")))
    with pytest.raises(ConsistencyError, match="cap at rho"):
        solve_mode_quadratic()
    with pytest.raises(ConsistencyError, match="e\\^tau/phi"):
        mode_growth_probe()


def test_pencil_and_symmetry_mode_do_not_rebuild_the_branch(monkeypatch):
    """The branch profile and coefficients depend on BRANCH_RADII alone, so
    they are built once, at import: neither reader calls the profile or the
    operator again, and both give the reports they gave before."""
    reports = solve_mode_quadratic(), mode_growth_probe()

    def rebuilt(*args):
        raise AssertionError("the branch samples were rebuilt")

    monkeypatch.setattr(stability, "degenerate_branch", rebuilt)
    monkeypatch.setattr(stability, "linearized_coefficients", rebuilt)
    assert (solve_mode_quadratic(), mode_growth_probe()) == reports
