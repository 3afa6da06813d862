import math

import numpy as np
import pytest

from fd_oracles import central_diff_jet2, observed_orders
from frame_transport import (
    elliptic_reduction_residual,
    from_similarity,
    to_similarity,
    transform_jet_linear,
    transform_jet_unscaled,
    wave_reduction_residual,
)
from zmclab.closedform import ClosedFormSolution, Family, evaluate_jet, evaluate_value
from zmclab.errors import DomainError
from zmclab.numerics import Jet2
from zmclab.residuals import EquationId, residual_at
from zmclab.similarity import (
    SteadyOdeId,
    membrane_reduction_residual,
    steady_family_errors,
    steady_ode_integrate,
)

TWO_LN3 = 2.1972245773362196
ASINH_1 = 0.881373587019543
PI_OVER_4 = 0.7853981633974483
# |arctan(2) - asinh(2)|, the divergence the integrator must reproduce
CLAIMED_VS_CORRECTED_GAP_AT_2 = 0.33648675738471984
# rho (1+rho^2)^(-1/2) at rho = 0.7: the claimed family's steady residual
ASINH_STEADY_RESIDUAL_0P7 = 0.5734623443633283


def test_map_basic_points():
    assert to_similarity(1.0, (0.0, 0.0)) == (0.0, 0.0)
    tau, rho = to_similarity(1.0, (1.0 - math.exp(-1.0), 0.5 * math.exp(-1.0)))
    assert abs(tau - 1.0) < 1e-12
    assert abs(rho - 0.5) < 1e-12


def test_map_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pt = (rng.uniform(-1.0, 1.9), rng.uniform(-3.0, 3.0))
        back = from_similarity(2.0, to_similarity(2.0, pt))
        assert abs(back[0] - pt[0]) <= 1e-12 * max(1.0, abs(pt[0]))
        assert abs(back[1] - pt[1]) <= 1e-12 * max(1.0, abs(pt[1]))


def test_map_rejects_past_blowup():
    with pytest.raises(DomainError):
        to_similarity(1.0, (1.0, 0.0))
    with pytest.raises(DomainError):
        to_similarity(1.0, (1.5, 0.0))
    with pytest.raises(DomainError):
        transform_jet_unscaled(1.0, (1.0, 0.0), Jet2(0.0, (0.0, 0.0), (0.0, 0.0, 0.0)))


def test_constant_field_transforms():
    const_jet = Jet2(2.5, (0.0, 0.0), (0.0, 0.0, 0.0))
    v = transform_jet_unscaled(1.0, (0.3, 0.1), const_jet)
    assert v.value == 2.5
    assert v.d1 == (0.0, 0.0)
    assert v.d2 == (0.0, 0.0, 0.0)
    # linear scaling turns a constant into e^tau * c, so v_tau = v
    w = transform_jet_linear(1.0, (0.3, 0.1), const_jet)
    assert abs(w.value - 2.5 / 0.7) < 1e-14
    assert abs(w.d1[0] - w.value) < 1e-14


def test_log_family_is_steady_in_similarity_frame():
    """The log family becomes k log((1+rho)/(1-rho)) with no tau dependence."""
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.7)
    for (t, x) in [(0.0, 0.3), (0.5, 0.2), (0.9, -0.05)]:
        jet = evaluate_jet(sol, (t, x))
        v = transform_jet_unscaled(1.0, (t, x), jet)
        tau, rho = to_similarity(1.0, (t, x))
        expect = 0.7 * math.log((1 + rho) / (1 - rho))
        assert abs(v.value - expect) < 1e-12
        assert abs(v.d1[0]) < 1e-12  # v_tau = 0
        assert abs(v.d1[1] - 1.4 / (1 - rho * rho)) < 1e-11


def test_sphere_becomes_the_branch_profile():
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    for (t, r) in [(0.2, 0.3), (0.6, 0.1), (0.1, 0.6)]:
        jet = evaluate_jet(sol, (t, r))
        v = transform_jet_linear(1.0, (t, r), jet)
        rho = r / (1.0 - t)
        assert abs(v.value - math.sqrt(1 - rho * rho)) < 1e-12
        assert abs(v.d1[0]) < 1e-12  # tau-independent
        assert abs(v.d1[1] + rho / math.sqrt(1 - rho * rho)) < 1e-11


def test_steady_closed_forms():
    """The closed forms at T = 1 on the slice t = 0 (x = 0 for the spacelike
    families) are the printed steady families of the similarity radius."""

    def steady(family, k, rho):
        return evaluate_jet(ClosedFormSolution(family, 1.0, k), (0.0, rho)).value

    assert abs(steady(Family.BORN_INFELD_LOG, 2.0, 0.5) - TWO_LN3) < 1e-12
    assert steady(Family.BORN_INFELD_LOG, 1.0, 0.0) == 0.0
    assert abs(steady(Family.SPACELIKE_LOG_CLAIMED, 1.0, 1.0) - ASINH_1) < 1e-12
    assert abs(steady(Family.SPACELIKE_ARCTAN_CORRECTED, 1.0, 1.0) - PI_OVER_4) < 1e-12
    with pytest.raises(DomainError):
        steady(Family.BORN_INFELD_LOG, 1.0, 1.0)


def test_steady_family_errors_match_scalar_closed_forms():
    """The array closed forms give the errors the printed scalar formulas give."""
    k, drho = 0.7, 1e-3
    timelike = steady_ode_integrate(SteadyOdeId.BORN_INFELD_STEADY, (0.0, 2 * k), (0.0, 0.9), drho)
    spacelike = steady_ode_integrate(SteadyOdeId.SPACELIKE_STEADY, (0.0, k), (0.0, 2.0), drho)
    scalar = (
        max(abs(v - k * math.log((1 + r) / (1 - r))) for r, v in zip(timelike.rhos, timelike.v)),
        max(abs(v - k * math.asinh(r)) for r, v in zip(spacelike.rhos, spacelike.v)),
        max(abs(v - k * math.atan(r)) for r, v in zip(spacelike.rhos, spacelike.v)),
    )
    for got, want in zip(steady_family_errors(k, drho), scalar):
        assert abs(got - want) <= 1e-15, (got, want)


def test_steady_family_errors_read_the_jets_value_entries():
    """steady_family_errors reads each family's value alone: on its three
    grids (901, 2002 and 2002 radii) that is evaluate_jet's value entry bit
    for bit, the errors are those the entries give, and a point outside the
    family's domain is refused as evaluate_jet refuses it."""
    k, drho = 0.7, 1e-3
    timelike = steady_ode_integrate(SteadyOdeId.BORN_INFELD_STEADY, (0.0, 2 * k), (0.0, 0.9), drho)
    spacelike = steady_ode_integrate(SteadyOdeId.SPACELIKE_STEADY, (0.0, k), (0.0, 2.0), drho)
    errors = []
    for run, family in ((timelike, Family.BORN_INFELD_LOG),
                        (spacelike, Family.SPACELIKE_LOG_CLAIMED),
                        (spacelike, Family.SPACELIKE_ARCTAN_CORRECTED)):
        sol = ClosedFormSolution(family, 1.0, k)
        value = evaluate_value(sol, (0.0, run.rhos))
        entry = evaluate_jet(sol, (0.0, run.rhos)).value
        assert np.array_equal(value.view(np.int64), entry.view(np.int64)), family
        errors.append(float(np.max(np.abs(run.v - entry))))
    assert [r.rhos.size for r in (timelike, spacelike)] == [901, 2002]
    assert steady_family_errors(k, drho) == tuple(errors)
    outside = (0.0, np.array([0.5, 1.0]))
    log = ClosedFormSolution(Family.BORN_INFELD_LOG, 1.0, k)
    with pytest.raises(DomainError) as exc:
        evaluate_value(log, outside)
    with pytest.raises(DomainError) as jet_exc:
        evaluate_jet(log, outside)
    assert str(exc.value) == str(jet_exc.value) == "|x| < T-t violated: |1.0| >= 1.0"


def steady_jet(v, vp, vpp):
    """The similarity-frame jet of a tau-independent profile."""
    return Jet2(v, (0.0, vp), (0.0, 0.0, vpp))


def test_steady_residual_on_log_family():
    """The steady log family solves the WAVE reduction at every tau."""
    k, rho = 1.3, 0.3
    v = k * math.log((1 + rho) / (1 - rho))
    vp = 2 * k / (1 - rho * rho)
    jet = steady_jet(v, vp, 4 * k * rho / (1 - rho * rho) ** 2)
    for tau in (0.0, 2.0, 5.0):
        r = wave_reduction_residual(jet, (tau, rho))
        assert abs(r) <= 1e-12, (tau, r)


def test_steady_residual_spacelike_pair():
    """Through the ELLIPTIC reduction, at tau = 0 and tau = 2."""
    rho = 0.7
    # corrected: arctan
    v = math.atan(rho)
    vp = 1.0 / (1 + rho * rho)
    vpp = -2 * rho / (1 + rho * rho) ** 2
    arctan = steady_jet(v, vp, vpp)
    # claimed: asinh leaves a residual equal to rho/sqrt(1+rho^2)
    v = math.asinh(rho)
    vp = (1 + rho * rho) ** -0.5
    vpp = -rho * (1 + rho * rho) ** -1.5
    asinh = steady_jet(v, vp, vpp)
    for tau in (0.0, 2.0):
        r = elliptic_reduction_residual(arctan, (tau, rho))
        assert abs(r) <= 1e-12
        r = elliptic_reduction_residual(asinh, (tau, rho))
        assert abs(r - ASINH_STEADY_RESIDUAL_0P7) <= 1e-12


def test_integrate_log_family():
    sol = steady_ode_integrate(
        SteadyOdeId.BORN_INFELD_STEADY, (0.0, 2.0), (0.0, 0.9), drho=1e-3
    )
    exact = np.log((1 + sol.rhos) / (1 - sol.rhos))
    assert float(np.max(np.abs(sol.v - exact))) <= 1e-8


def test_integrate_spacelike_matches_arctan_not_asinh():
    sol = steady_ode_integrate(SteadyOdeId.SPACELIKE_STEADY, (0.0, 1.0), (0.0, 2.0), drho=1e-3)
    assert float(np.max(np.abs(sol.v - np.arctan(sol.rhos)))) <= 1e-8
    end_gap = abs(sol.v[-1] - math.asinh(2.0))
    assert end_gap >= 0.09
    assert abs(end_gap - CLAIMED_VS_CORRECTED_GAP_AT_2) < 1e-6


def test_integrate_zero_data_stays_zero():
    sol = steady_ode_integrate(SteadyOdeId.SPACELIKE_STEADY, (0.0, 0.0), (0.0, 1.0), drho=0.01)
    assert np.all(sol.v == 0.0)
    assert np.all(sol.vp == 0.0)


def test_integrate_range_guard():
    with pytest.raises(DomainError):
        steady_ode_integrate(SteadyOdeId.BORN_INFELD_STEADY, (0.0, 2.0), (0.0, 0.999), drho=1e-3)


def test_integrate_rk4_order():
    errs = []
    for drho in (0.02, 0.01, 0.005):
        sol = steady_ode_integrate(
            SteadyOdeId.BORN_INFELD_STEADY, (0.0, 2.0), (0.0, 0.5), drho=drho
        )
        exact = math.log(3.0)  # log((1+0.5)/(1-0.5))
        errs.append(abs(float(sol.v[-1]) - exact))
    assert np.all(observed_orders(errs) >= 3.9)


# --- transformed equation residuals -------------------------------------------


def test_wave_reduction_zero_field():
    z = Jet2(0.0, (0.0, 0.0), (0.0, 0.0, 0.0))
    assert wave_reduction_residual(z, (0.7, 0.4)) == 0.0


def test_wave_reduction_annihilates_steady_log_family():
    """tau-independence kills the exponentially weighted block entirely, so
    the steady family solves the full reduction at every tau."""
    k = 1.0
    for rho in (0.1, 0.4, 0.8):
        v = k * math.log((1 + rho) / (1 - rho))
        vp = 2 * k / (1 - rho * rho)
        vpp = 4 * k * rho / (1 - rho * rho) ** 2
        jet = Jet2(v, (0.0, vp), (0.0, 0.0, vpp))
        for tau in (0.0, 1.0, 5.0):
            r = wave_reduction_residual(jet, (tau, rho))
            assert abs(r) <= 1e-10, (rho, tau, r)


def test_elliptic_reduction_annihilates_arctan_family():
    k = -0.6
    for rho in (0.2, 1.0, 2.5):
        v = k * math.atan(rho)
        vp = k / (1 + rho * rho)
        vpp = -2 * k * rho / (1 + rho * rho) ** 2
        jet = Jet2(v, (0.0, vp), (0.0, 0.0, vpp))
        for tau in (0.0, 2.0):
            r = elliptic_reduction_residual(jet, (tau, rho))
            assert abs(r) <= 1e-10


def test_membrane_reduction_on_branch_profile():
    for rho in (0.3, 0.5, 0.7):
        phi = math.sqrt(1 - rho * rho)
        jet = Jet2(
            phi,
            (0.0, -rho / phi),
            (0.0, 0.0, -((1 - rho * rho) ** -1.5)),
        )
        r = membrane_reduction_residual(jet, rho)
        assert abs(r) <= 1e-10


def test_membrane_reduction_axis_guard():
    z = Jet2(0.0, (0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="the scaled membrane reduction has 1/rho terms"):
        membrane_reduction_residual(z, 0.0)


def manufactured_physical_jet(t, x):
    # smooth non-solution used for covariance identities
    s, c = math.sin(1.7 * x + 0.3), math.cos(1.7 * x + 0.3)
    ct, st = math.cos(0.9 * t), math.sin(0.9 * t)
    return Jet2(
        value=0.4 * s * ct,
        d1=(-0.36 * s * st, 0.68 * c * ct),
        d2=(-0.324 * s * ct, -0.612 * c * st, -1.156 * s * ct),
    )


def test_physical_similarity_residual_covariance():
    """Each printed reduction is the physical residual times a power of
    T - t = e^{-tau}: the square for the unscaled wave reduction, the first
    power for the linear-scaled membrane reduction (off the axis r = 0)."""
    def membrane(jet, sim_point):
        return membrane_reduction_residual(jet, sim_point[1])

    cases = (
        (wave_reduction_residual, transform_jet_unscaled, EquationId.BORN_INFELD, 2,
         [(0.0, 0.2), (0.4, -0.3), (0.75, 0.1)]),
        (membrane, transform_jet_linear,
         EquationId.RADIAL_MEMBRANE, 1,
         [(0.0, 0.2), (0.4, 0.3), (0.75, 0.1), (0.5, 0.45)]),
    )
    for sim_eq, transform, phys_eq, power, points in cases:
        for (t, x) in points:
            u_jet = manufactured_physical_jet(t, x)
            tau, rho = to_similarity(1.0, (t, x))
            v_jet = transform(1.0, (t, x), u_jet)
            phys = residual_at(phys_eq, u_jet, (t, x))
            sim = sim_eq(v_jet, (tau, rho))
            expect = (1.0 - t) ** power * phys
            assert abs(sim - expect) <= 1e-8 * max(1.0, abs(sim)), (sim_eq, t, x)


def test_chain_rule_consistency_by_refinement():
    """transform_jet_unscaled agrees with finite differences taken directly in
    (tau, rho), at second order."""
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.4)
    t0, x0 = 0.35, 0.15
    tau0, rho0 = to_similarity(1.0, (t0, x0))
    analytic = transform_jet_unscaled(1.0, (t0, x0), evaluate_jet(sol, (t0, x0)))

    def v_of(tau, rho):
        t, x = from_similarity(1.0, (tau, rho))
        return evaluate_jet(sol, (t, x)).value

    errs = []
    for h in (0.02, 0.01, 0.005):
        taus = tau0 + h * np.arange(-2, 3)
        rhos = rho0 + h * np.arange(-2, 3)
        F = np.array([[v_of(tt, rr) for rr in rhos] for tt in taus])
        fd = central_diff_jet2(F, 2, h, time_index=2, time_spacing=h)
        err = max(
            abs(fd.d1[0] - analytic.d1[0]),
            abs(fd.d1[1] - analytic.d1[1]),
            abs(fd.d2[0] - analytic.d2[0]),
            abs(fd.d2[1] - analytic.d2[1]),
            abs(fd.d2[2] - analytic.d2[2]),
        )
        errs.append(err)
    assert np.all(observed_orders(errs) >= 1.9), errs
