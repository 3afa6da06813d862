"""Excised evolution of the string and membrane flows.

The timelike string runs use the logarithmic closed form (k=0.2, T=1) as
both initial data and reference.  Its window of dependence closes around
t ~ 0.55: nodes drop at the local incoming characteristic speed, so every
run from |x| <= 0.5 data ends in domain exhaustion near that time, and
errors are measured at fixed earlier times or at the surviving nodes.
"""

import math

import numpy as np
import pytest
from rhs_reference import reference_rhs

import zmclab.evolution
from zmclab.closedform import ClosedFormSolution, Family, evaluate_jet
from zmclab.errors import ArityError, ConsistencyError, DegeneracyError, DomainError
from zmclab.evolution import (
    EvolutionConfig,
    EvolutionState,
    RunStatus,
    characteristic_speeds,
    check_state,
    fit_blowup_rate,
    fit_blowup_series,
    initial_state_from_solution,
    run_evolution,
    sup_error_against,
    _ghosts,
    _rhs,
)
from zmclab.numerics import Grid1D
from zmclab.residuals import EquationId

# lambda_{-+} = (-pq -+ sqrt(1 - p^2 + q^2)) / (1 + q^2) at p=0.6, q=0.8
SPEED_LO_AT_0P6_0P8 = -0.9825432011576074
SPEED_HI_AT_0P6_0P8 = 0.39717734749907085

STRING_LOG = ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=0.2)


def string_state(n, lo=-0.5, hi=0.5, t0=0.0):
    grid = Grid1D(lo=lo, hi=hi, n=n)
    return initial_state_from_solution(STRING_LOG, grid, t0=t0)


def test_characteristic_speeds_frozen_values():
    lo, hi, disc = characteristic_speeds(np.array([0.6]), np.array([0.8]))
    assert math.isclose(lo[0], SPEED_LO_AT_0P6_0P8, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(hi[0], SPEED_HI_AT_0P6_0P8, rel_tol=0, abs_tol=1e-15)
    assert disc[0] == 1.0 - 0.6 * 0.6 + 0.8 * 0.8
    # flat state: unit lightcone
    lo, hi, disc = characteristic_speeds(np.zeros(3), np.zeros(3))
    assert np.all(lo == -1.0) and np.all(hi == 1.0) and np.all(disc == 1.0)


def test_characteristic_speeds_never_exceed_background_cone():
    """The graph's causal cones sit inside the background ones: |speed| <= 1.

    Equality holds exactly where q = +-p, which is where (1 + q^2 -+ pq)^2
    equals the discriminant.
    """
    rng = np.random.default_rng(20260817)
    p = rng.uniform(-0.99, 0.99, size=2000)
    q = rng.uniform(-3.0, 3.0, size=2000)
    lo, hi, _ = characteristic_speeds(p, q)
    assert np.all(lo < 0) and np.all(hi > 0)
    assert np.max(np.abs(lo)) <= 1.0 + 1e-12
    assert np.max(np.abs(hi)) <= 1.0 + 1e-12


def test_characteristic_speeds_refuse_degenerate_state():
    with pytest.raises(DegeneracyError):
        characteristic_speeds(np.array([1.0]), np.array([0.0]))


def test_rhs_matches_exact_time_derivatives():
    """pdot and qdot reproduce u_tt and u_tx of the closed form at O(h^2)."""
    worst = {}
    for h in (0.005, 0.00125):
        xs = np.arange(-0.159, 0.159 + h / 2, h)
        jets = [evaluate_jet(STRING_LOG, (0.5, float(x))) for x in xs]
        u = np.array([j.value for j in jets])
        p = np.array([j.d1[0] for j in jets])
        q = np.array([j.d1[1] for j in jets])
        utt = np.array([j.d2[0] for j in jets])
        utx = np.array([j.d2[1] for j in jets])
        _, pdot, qdot = _rhs(EquationId.BORN_INFELD, xs, u, p, q, h, 0.0)
        worst[h] = max(np.max(np.abs(pdot - utt)), np.max(np.abs(qdot - utx)))
    assert worst[0.005] <= 5e-4
    order = math.log2(worst[0.005] / worst[0.00125]) / 2.0
    assert order >= 1.8


RHS_WINDOWS = {
    "string": (EquationId.BORN_INFELD, -0.3),
    "membrane-axis": (EquationId.RADIAL_MEMBRANE, 0.0),
    "membrane-off-axis": (EquationId.RADIAL_MEMBRANE, 0.1),
}


@pytest.mark.parametrize("size", (3, 4, 5, 6, 201))
@pytest.mark.parametrize("sigma", (0.0, 0.01))
@pytest.mark.parametrize("window", sorted(RHS_WINDOWS))
def test_rhs_matches_reference_bit_for_bit(window, sigma, size):
    """Sizes 3, 4 and 5 take the quadratic, cubic and quartic ghost tails;
    dissipation runs from 5 on, at 5 and 6 with nearly every node taking a
    stencil end value, and 201 is a full window."""
    equation, x0 = RHS_WINDOWS[window]
    rng = np.random.default_rng(size)
    h = 0.002
    xs = x0 + h * np.arange(size)
    amp, freq = rng.uniform(0.1, 0.4, size=3), rng.uniform(1.0, 4.0, size=3)
    u = amp[0] * np.cos(freq[0] * xs)
    p = amp[1] * np.cos(freq[1] * xs) - 0.1
    q = amp[2] * np.sin(freq[2] * xs)  # odd: exactly zero on the axis
    got = _rhs(equation, xs, u, p, q, h, sigma)
    want = np.stack(reference_rhs(equation, xs, u, p, q, h, sigma))
    assert got.shape == want.shape == (3, size)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("size", (3, 4, 5, 9))
def test_ghosts_extrapolate_polynomials_exactly(size):
    """Through the m = min(size, 5) nodes at each end, the ghost weights
    continue any polynomial of degree m - 1; on integer data, exactly."""
    m = min(size, 5)
    poly = np.polynomial.Polynomial(np.random.default_rng(size).integers(-9, 10, m))
    f = poly(np.arange(size, dtype=float))
    left, right = _ghosts(f, None)
    assert left == poly(-1.0)
    assert right == poly(float(size))
    # the axis ghost mirrors the first node off the axis instead
    for parity in (1.0, -1.0):
        assert _ghosts(f, parity) == (parity * f[1], right)


def test_rhs_constant_slopes_are_stationary():
    # a traveling plane: u = 0.3 x - 0.1 t has constant p, q
    xs = np.linspace(-1.0, 1.0, 41)
    u = 0.3 * xs - 0.1
    p = np.full_like(xs, -0.1)
    q = np.full_like(xs, 0.3)
    udot, pdot, qdot = _rhs(EquationId.BORN_INFELD, xs, u, p, q, 0.05, 0.01)
    # the ghost weights leave ulp-level crumbs on non-representable constants
    assert np.max(np.abs(pdot)) <= 1e-17
    assert np.max(np.abs(qdot)) <= 1e-17
    assert np.array_equal(udot, p)


def test_zero_data_stays_zero_and_takes_unit_cfl_steps():
    xs = np.linspace(-0.5, 0.5, 51)
    state = EvolutionState(t=0.0, xs=xs, u=np.zeros(51), p=np.zeros(51),
                           q=np.zeros(51), spacing=xs[1] - xs[0])
    cfg = EvolutionConfig(blowup_time=10.0, t_end=0.1)
    run = run_evolution(state, cfg)
    assert run.status is RunStatus.COMPLETED
    assert np.max(np.abs(run.final.u)) == 0.0
    assert np.max(np.abs(run.final.q)) == 0.0
    # flat state: fastest speed is exactly 1, so the first step is CFL * h
    assert math.isclose(run.times[1] - run.times[0], 0.5 * state.spacing,
                        rel_tol=1e-12)


def test_single_step_tracks_closed_form():
    state = string_state(200)
    lo, hi, _ = characteristic_speeds(state.p, state.q)
    dt = 0.5 * state.spacing / max(np.max(np.abs(lo)), np.max(np.abs(hi)))
    run = run_evolution(state, EvolutionConfig(blowup_time=1.0, t_end=float(0.999 * dt)))
    assert run.n_steps == 1
    assert sup_error_against(run, STRING_LOG) <= 1e-9


def test_string_convergence_at_fixed_time():
    """Supremum error against the closed form at t=0.52 refines at order ~2."""
    errs = []
    for n in (200, 400, 800):
        run = run_evolution(string_state(n), EvolutionConfig(blowup_time=1.0, t_end=0.52))
        assert run.status is RunStatus.COMPLETED
        errs.append(sup_error_against(run, STRING_LOG))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[1] <= 5e-7
    assert np.all(orders >= 1.8)


def test_window_exhausts_at_dependence_collapse():
    """No data reaches past the window of dependence, which closes near 0.55."""
    run = run_evolution(string_state(200), EvolutionConfig(blowup_time=1.0, t_end=0.8))
    assert run.status is RunStatus.DOMAIN_EXHAUSTED
    assert 0.52 <= run.final.t <= 0.551
    # the surviving nodes are still tracking the closed form
    assert sup_error_against(run, STRING_LOG) <= 1e-6
    assert np.all(np.diff(run.active_nodes) <= 0)


def test_speeds_and_fluxes_are_computed_once_per_step(monkeypatch):
    """Each step's post-step speeds and fluxes serve as the next step's old
    values, so neither is recomputed on the same nodes."""
    calls = {"characteristic_speeds": 0, "momentum_flux": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(zmclab.evolution, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(zmclab.evolution, name, counted)
    run = run_evolution(string_state(200), EvolutionConfig(blowup_time=1.0, t_end=0.8))
    assert run.status is RunStatus.DOMAIN_EXHAUSTED
    assert run.n_steps >= 100
    for name, count in calls.items():
        assert run.n_steps < count <= run.n_steps + 2, name


def test_parity_preserved_by_symmetric_run():
    run = run_evolution(string_state(200), EvolutionConfig(blowup_time=1.0, t_end=0.5))
    f = run.final
    assert np.max(np.abs(f.xs + f.xs[::-1])) <= 1e-12
    assert np.max(np.abs(f.u + f.u[::-1])) <= 1e-10
    assert np.max(np.abs(f.p + f.p[::-1])) <= 1e-10
    assert np.max(np.abs(f.q - f.q[::-1])) <= 1e-10


def test_mirrored_window_is_mirror_image():
    """x -> -x maps the string equation to itself, so a run from mirrored
    data must be the mirror image of the original run. An off-center window
    makes the two edges move differently, so each edge update is compared
    with the other's."""
    state = string_state(200, lo=-0.3, hi=0.5)
    mirror = EvolutionState(
        t=state.t, xs=-state.xs[::-1], u=state.u[::-1].copy(), p=state.p[::-1].copy(),
        q=-state.q[::-1], spacing=state.spacing,
    )
    config = EvolutionConfig(blowup_time=1.0, t_end=0.8)
    run, run_m = run_evolution(state, config), run_evolution(mirror, config)
    assert run_m.status is run.status
    assert run_m.n_steps == run.n_steps
    assert np.array_equal(run_m.active_nodes, run.active_nodes)
    assert np.max(np.abs(run_m.times - run.times)) <= 1e-15
    f, g = run.final, run_m.final
    assert np.array_equal(g.xs, -f.xs[::-1])
    assert np.max(np.abs(g.u - f.u[::-1])) <= 1e-12
    assert np.max(np.abs(g.p - f.p[::-1])) <= 1e-12
    assert np.max(np.abs(g.q + f.q[::-1])) <= 1e-12


def test_momentum_invariant_on_asymmetric_window():
    """Flux-corrected momentum stays put while the raw integral moves.

    An off-center window makes the edge fluxes and dropped strips genuinely
    unequal, so this exercises the bookkeeping rather than parity
    cancellation.
    """
    grid = Grid1D(lo=-0.1, hi=0.5, n=240)
    state = initial_state_from_solution(STRING_LOG, grid)
    run = run_evolution(state, EvolutionConfig(blowup_time=1.0, t_end=0.45))
    raw_move = np.max(np.abs(run.momentum - run.momentum[0])) / run.mass_scale
    assert raw_move >= 0.5
    assert run.relative_momentum_drift <= 5e-5


def test_center_slope_series_follows_blowup_law():
    run = run_evolution(string_state(200), EvolutionConfig(blowup_time=1.0, t_end=0.8))
    expected = 0.4 / (1.0 - run.times)
    assert np.max(np.abs(run.center_series - expected)) <= 2e-4
    fit = fit_blowup_rate(run, (0.4, 0.95))
    assert abs(fit.exponent - 1.0) <= 5e-3
    assert abs(fit.amplitude - 0.4) <= 5e-3
    assert fit.fit.r_squared >= 0.999999


def test_fit_blowup_series_synthetic_is_exact():
    times = np.linspace(0.1, 0.9, 81)
    series = 0.4 / (1.0 - times)
    fit = fit_blowup_series(times, series, 1.0, (0.1, 0.9))
    assert abs(fit.exponent - 1.0) <= 1e-10
    assert abs(fit.amplitude - 0.4) <= 1e-10
    assert fit.window == (0.1, 0.9)


def test_fit_blowup_series_guards():
    times = np.linspace(0.1, 0.5, 11)
    series = 1.0 / (1.0 - times)
    with pytest.raises(ArityError):
        fit_blowup_series(times, series, 1.0, (0.6, 0.9))  # empty window
    with pytest.raises(DomainError):
        fit_blowup_series(times, 0.0 * series, 1.0, (0.1, 0.5))
    with pytest.raises(DomainError):
        fit_blowup_series(times, series, 0.4, (0.1, 0.5))  # samples past T


def test_membrane_constant_profile_evolves_exactly():
    """u = c (T - t) solves the membrane flow with zero spatial slope."""
    sol = ClosedFormSolution(family=Family.CONSTANT_PROFILE, T=1.0, k=0.3)
    grid = Grid1D(lo=0.0, hi=0.5, n=100)
    state = initial_state_from_solution(sol, grid)
    cfg = EvolutionConfig(blowup_time=1.0, t_end=0.5,
                          equation=EquationId.RADIAL_MEMBRANE)
    run = run_evolution(state, cfg)
    f = run.final
    assert run.status is RunStatus.COMPLETED
    assert f.xs[0] == 0.0  # the axis edge never moves
    assert np.max(np.abs(f.u - 0.3 * (1.0 - f.t))) <= 1e-12
    assert np.max(np.abs(f.p + 0.3)) <= 1e-12
    assert np.max(np.abs(f.q)) <= 1e-12
    assert np.max(np.abs(run.center_series)) <= 1e-12


def test_membrane_lightlike_sphere_data_refused():
    sph = ClosedFormSolution(family=Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    grid = Grid1D(lo=0.0, hi=0.5, n=64)
    state = initial_state_from_solution(sph, grid, t0=0.2)
    assert abs(state.min_discriminant()) <= 1e-10
    with pytest.raises(DegeneracyError):
        run_evolution(state, EvolutionConfig(
            blowup_time=1.0, t_end=0.5, equation=EquationId.RADIAL_MEMBRANE))


def test_membrane_perturbed_sphere_stops_at_floor():
    """Data kicked off the lightlike cone runs, then degenerates again."""
    sph = ClosedFormSolution(family=Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    grid = Grid1D(lo=0.0, hi=0.5, n=64)
    base = initial_state_from_solution(sph, grid, t0=0.2)
    eps = 1e-2
    state = EvolutionState(t=0.2, xs=base.xs, u=base.u,
                           p=(1.0 - eps) * base.p, q=base.q,
                           spacing=base.spacing)
    cfg = EvolutionConfig(blowup_time=1.0, t_end=0.79,
                          equation=EquationId.RADIAL_MEMBRANE)
    run = run_evolution(state, cfg)
    assert run.status is RunStatus.DEGENERACY_FLOOR
    assert run.n_steps >= 10
    assert run.final.t < 0.79
    assert run.min_disc[0] > 1e-2
    assert run.min_disc[-1] <= 2e-3
    assert abs(run.final.q[0]) == 0.0  # axis parity is pinned


def test_check_state_rejects_inconsistent_slope_array():
    state = string_state(100)
    bad = EvolutionState(t=state.t, xs=state.xs, u=state.u,
                         p=state.p, q=state.q + 0.05, spacing=state.spacing)
    with pytest.raises(ConsistencyError):
        check_state(bad)


def test_config_validation():
    with pytest.raises(DomainError):
        EvolutionConfig(blowup_time=1.0, t_end=1.0)
    with pytest.raises(DomainError):
        EvolutionConfig(blowup_time=1.0, t_end=0.5,
                        equation=EquationId.SPACELIKE_GRAPH)


def test_diagnostic_series_are_aligned():
    run = run_evolution(string_state(100), EvolutionConfig(blowup_time=1.0, t_end=0.4))
    n = run.times.size
    for arr in (run.sup_slope, run.center_series, run.momentum,
                run.invariant, run.min_disc, run.active_nodes):
        assert arr.size == n
    assert np.all(np.diff(run.times) > 0)
    assert np.all(run.min_disc > 0)
    assert run.times[-1] == run.final.t
