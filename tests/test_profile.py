import math
import random

import numpy as np
import pytest

from profile_forms import profile_residual_regrouped, verify_branch
from profile_reference import reference_shoot
from zmclab import profiles
from zmclab.errors import DegeneracyError, DomainError
from zmclab.numerics import DT_MIN, Jet2
from zmclab.profiles import (
    RHO_START_FACTOR,
    Termination,
    degenerate_branch,
    first_order_branch_residual,
    phi_second_derivative,
    profile_residual,
    shoot_profile,
)
from zmclab.similarity import SimilarityEquation, transformed_equation_residual

# hand-evaluated six-term residual at phi=1, dphi=1, d2phi=0, rho=0.5
RESIDUAL_AT_UNIT_STATE = 1.75


def test_residual_frozen_value():
    assert abs(profile_residual(1.0, 1.0, 0.0, 0.5) - RESIDUAL_AT_UNIT_STATE) < 1e-15
    assert abs(profile_residual_regrouped(1.0, 1.0, 0.0, 0.5) - RESIDUAL_AT_UNIT_STATE) < 1e-15


def test_grouping_identity_on_random_states():
    rng = np.random.default_rng(20260817)
    for _ in range(1000):
        phi, dphi, d2phi = rng.uniform(-1.0, 1.0, size=3)
        rho = rng.uniform(0.05, 0.95)
        a = profile_residual(phi, dphi, d2phi, rho)
        b = profile_residual_regrouped(phi, dphi, d2phi, rho)
        assert abs(a - b) <= 1e-12


def test_solved_second_derivative_satisfies_equation():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rho = rng.uniform(0.1, 0.8)
        phi = rng.uniform(-0.5, 0.5)
        dphi = rng.uniform(-1.0, 1.0)
        d2phi = phi_second_derivative(phi, dphi, rho)
        assert abs(profile_residual(phi, dphi, d2phi, rho)) <= 1e-12


def test_second_derivative_is_the_remainder_over_the_gap_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        rho = rng.uniform(0.01, 0.99)
        phi = rng.uniform(-1.0, 1.0) * math.sqrt(1.0 - rho * rho)
        dphi = rng.uniform(-2.0, 2.0) * 10.0 ** rng.integers(-3, 1)
        gap = 1.0 - rho * rho - phi * phi
        if gap <= profiles.EPS_DEGENERATE_GAP:
            continue
        expected = -first_order_branch_residual(phi, dphi, rho) / (rho * gap)
        assert phi_second_derivative(phi, dphi, rho).hex() == expected.hex()


def test_second_derivative_guards():
    with pytest.raises(DomainError, match="singular on the axis rho = 0"):
        phi_second_derivative(0.1, 0.2, 0.0)
    with pytest.raises(DomainError, match="singular on the axis rho = 0"):
        phi_second_derivative(0.1, 0.2, -0.3)
    # gap is exactly zero at rho = 0.6, phi = 0.8
    with pytest.raises(DegeneracyError):
        phi_second_derivative(0.8, 0.0, 0.6)


def test_branch_values_and_derivative_consistency():
    phi, dphi, d2phi = degenerate_branch(1, 0.6)
    assert abs(phi - 0.8) < 1e-15
    assert abs(dphi + 0.75) < 1e-15
    assert abs(d2phi + 1.0 / 0.512) < 1e-12
    h = 1e-5
    for sign in (1, -1):
        up = degenerate_branch(sign, 0.6 + h)[0]
        dn = degenerate_branch(sign, 0.6 - h)[0]
        assert abs((up - dn) / (2 * h) - dphi * sign) < 1e-9
        assert abs((up - 2 * phi * sign + dn) / h ** 2 - d2phi * sign) < 1e-5


def test_branch_guards():
    with pytest.raises(DomainError):
        degenerate_branch(2, 0.5)
    with pytest.raises(DomainError):
        degenerate_branch(1, 1.0)


def test_first_order_remainder_vanishes_on_branch():
    for sign in (1, -1):
        for rho in np.linspace(0.01, 0.99, 200):
            phi, dphi, _ = degenerate_branch(sign, float(rho))
            assert abs(first_order_branch_residual(phi, dphi, float(rho))) <= 1e-12


def test_verify_branch_report():
    for sign in (1, -1):
        rep = verify_branch(sign=sign, n_samples=500)
        assert rep.equation == "profile-ode"
        assert rep.n_points == 500
        assert rep.max_abs <= 1e-12
        assert 0.01 <= rep.worst_point[0] <= 0.99


def test_steady_reduction_consistency():
    """The scaled membrane reduction on a steady jet equals -(1/rho) times
    the profile form."""
    rng = np.random.default_rng(20260817)
    for _ in range(500):
        phi, dphi, d2phi = rng.uniform(-1.0, 1.0, size=3)
        rho = rng.uniform(0.1, 0.9)
        jet = Jet2(phi, (0.0, dphi), (0.0, 0.0, d2phi))
        lhs = transformed_equation_residual(SimilarityEquation.MEMBRANE_SCALED, jet, (0.0, rho))
        rhs = -profile_residual(phi, dphi, d2phi, rho) / rho
        assert abs(lhs - rhs) <= 1e-12


def test_shoot_stays_flat_and_hits_circle():
    run = shoot_profile(0.5, rho_max=2.0, drho=1e-4)
    assert run.termination is Termination.DEGENERACY_HIT
    assert abs(run.degeneracy_location - math.sqrt(0.75)) <= 1e-3
    assert float(np.max(np.abs(run.phi - 0.5))) <= 1e-10
    assert float(np.max(np.abs(run.dphi))) <= 1e-10


def test_shoot_near_unit_height_dies_early():
    run = shoot_profile(0.999, rho_max=1.0, drho=1e-4)
    assert run.termination is Termination.DEGENERACY_HIT
    assert abs(run.degeneracy_location - math.sqrt(1.0 - 0.999 ** 2)) <= 5e-4


def test_shoot_zero_height_reaches_end():
    run = shoot_profile(0.0, rho_max=0.9, drho=1e-3)
    assert run.termination is Termination.REACHED_END
    assert np.all(run.phi == 0.0)
    assert abs(run.rhos[-1] - 0.9) <= 1e-12


def test_shoot_short_range_reaches_end():
    run = shoot_profile(0.3, rho_max=0.5, drho=1e-3)
    assert run.termination is Termination.REACHED_END
    assert abs(float(run.phi[-1]) - 0.3) <= 1e-10


def test_degenerate_start_rejected():
    with pytest.raises(DomainError):
        shoot_profile(1.0, rho_max=0.5, drho=1e-3)
    with pytest.raises(DomainError):
        shoot_profile(-1.0001, rho_max=0.5, drho=1e-3)


def test_adaptive_shoot_locates_circle_tightly():
    run = shoot_profile(0.5, rho_max=2.0, drho=1e-4, tolerance=1e-10)
    assert run.termination is Termination.DEGENERACY_HIT
    assert abs(run.degeneracy_location - math.sqrt(0.75)) <= 1e-6
    fixed = shoot_profile(0.5, rho_max=2.0, drho=1e-4)
    assert run.rhos.size < fixed.rhos.size


def test_integrator_guards():
    # the start sits at 10 * drho = 0.01
    for rho_max in (0.01, 0.005, math.nan, math.inf):
        with pytest.raises(DomainError, match="rho_max"):
            shoot_profile(0.3, rho_max=rho_max, drho=1e-3)
    for drho in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(DomainError, match="drho must be finite and positive"):
            shoot_profile(0.3, rho_max=0.6, drho=drho)
    # no error is <= NaN, so a NaN tolerance would halve every step to DT_MIN
    for tolerance in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"^tolerance=.* must be finite and positive$"):
            shoot_profile(0.3, rho_max=0.6, drho=1e-3, tolerance=tolerance)


def test_fixed_march_step_cap(monkeypatch):
    """A fixed march of more than MAX_FIXED_STEPS steps is refused before it
    starts, naming drho, rho_max and the count; one of exactly that many
    steps runs, and so does an adaptive shoot, which the cap does not bound.
    Four steps of 1/16 from the start 10/16 reach 14/16, all exact."""
    monkeypatch.setattr(profiles, "MAX_FIXED_STEPS", 4)
    assert shoot_profile(0.3, rho_max=0.875, drho=0.0625).rhos.size == 5
    monkeypatch.setattr(profiles, "MAX_FIXED_STEPS", 3)
    with pytest.raises(DomainError, match=r"^drho=0\.0625 takes 4 fixed steps to "
                       r"rho_max=0\.875, more than 3$"):
        shoot_profile(0.3, rho_max=0.875, drho=0.0625)
    run = shoot_profile(0.3, rho_max=0.875, drho=0.0625, tolerance=1e-10)
    assert run.termination is Termination.REACHED_END


def test_fixed_march_step_cap_counts_to_the_circle(monkeypatch):
    """A zero-slope shoot stops at the circle rho = sqrt(1 - height^2), so
    the cap counts the steps to it when it is nearer than rho_max: at height
    0.99 that is 132 steps of 1e-3, where rho_max = 0.9 is 890."""
    monkeypatch.setattr(profiles, "MAX_FIXED_STEPS", 200)
    run = shoot_profile(0.99, rho_max=0.9, drho=1e-3)
    assert run.termination is Termination.DEGENERACY_HIT
    assert run.rhos.size == 132
    monkeypatch.setattr(profiles, "MAX_FIXED_STEPS", 131)
    with pytest.raises(DomainError, match=r"^drho=0\.001 takes 132 fixed steps to the circle "
                       r"rho=0\.14106735979665894, more than 131$"):
        shoot_profile(0.99, rho_max=0.9, drho=1e-3)


@pytest.mark.parametrize("height, tolerance, termination, n_points, location", [
    (0.6, None, Termination.DEGENERACY_HIT, 790, 0.7990000000000006),
    (0.6, 1e-10, Termination.DEGENERACY_HIT, 32, 0.7999999937498833),
    (0.3, None, Termination.REACHED_END, 891, None),
], ids=["fixed-degeneracy", "adaptive-degeneracy", "fixed-reached-end"])
def test_shoot_step_sequence_is_pinned(height, tolerance, termination, n_points, location):
    """The step sequence of a shoot, pinned to the bit: the point count and
    the place it stops, as the fixed and adaptive marches take them."""
    run = shoot_profile(height, rho_max=0.9, drho=1e-3, tolerance=tolerance)
    assert run.termination is termination
    assert run.rhos.size == n_points
    assert run.degeneracy_location == location


# adaptive shoots whose first step's full-step end rho + drho lies inside
# the gap bound while its second half step's end (rho + drho/2) + drho/2,
# one ulp further out, does not
HALF_STEP_END_CASES = (
    (0.9083291348475311, 2.0, 0.038023282644113976, 1e-10),
    (0.4992458535868226, 2.0, 0.07876912427768948, 1e-10),
)


def _reference_cases(seed, count):
    """Seeded shoot arguments that reach every way a march ends: heights
    uniform in [-0.9999, 0.9999] or one of -0.0, 0.0 and +-0.9999 (whose
    circle most starts lie past), drho log-uniform in [1e-4, 0.3] or
    DT_MIN times a power of two (so the adaptive trials meet DT_MIN and
    2 DT_MIN exactly), rho_max within 1e-9 of the circle, within 1e-12 of
    the start (an adaptive step-floor) or up to 1.5 past it, and fixed
    steps or tolerances log-uniform in [1e-14, 1e-1]."""
    rng = random.Random(seed)
    for _ in range(count):
        height = (rng.choice((-0.0, 0.0, 0.9999, -0.9999)) if rng.random() < 0.25
                  else rng.uniform(-0.9999, 0.9999))
        drho = (DT_MIN * 2.0 ** rng.randint(27, 38) if rng.random() < 0.25
                else 10.0 ** rng.uniform(-4.0, math.log10(0.3)))
        start = RHO_START_FACTOR * drho
        circle = math.sqrt(1.0 - height * height)
        kind = rng.randrange(3)
        if kind == 0 and circle - 1e-9 > start:
            rho_max = circle + rng.uniform(-1e-9, 1e-9)
        elif kind == 1:
            rho_max = start + rng.uniform(1e-15, 1e-12)
        else:
            rho_max = start + rng.uniform(1e-3, 1.5)
        tolerance = None if rng.random() < 0.5 else 10.0 ** rng.uniform(-14.0, -1.0)
        yield height, rho_max, drho, tolerance


def test_shoot_matches_the_rk4_march_bit_for_bit():
    """shoot_profile takes the RK4 march's step ends without stepping the
    constant: rows (signbits too), termination and stop point agree to the
    bit with the march in profile_reference over a seeded sweep that ends
    in each termination, fixed and adaptive."""
    ends = set()
    for height, rho_max, drho, tolerance in (*HALF_STEP_END_CASES,
                                             *_reference_cases(1, 200)):
        run = shoot_profile(height, rho_max, drho, tolerance=tolerance)
        rhos, phi, dphi, termination, location = reference_shoot(
            height, rho_max, drho, tolerance)
        case = (height, rho_max, drho, tolerance)
        assert run.rhos.tobytes() == rhos.tobytes(), case
        assert run.phi.tobytes() == phi.tobytes(), case
        assert run.dphi.tobytes() == dphi.tobytes(), case
        assert run.termination is termination, case
        assert run.degeneracy_location == location, case
        ends.add((termination, tolerance is None))
    assert len(ends) == 5  # a fixed march never reaches the step floor
