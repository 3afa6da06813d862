"""Excised evolution of the string and membrane flows.

The timelike string runs use the logarithmic closed form (k=0.2, T=1) as
both initial data and reference.  Its window of dependence closes around
t ~ 0.55: nodes drop at the local incoming characteristic speed, so every
run from |x| <= 0.5 data ends in domain exhaustion near that time, and
errors are measured at fixed earlier times or at the surviving nodes.
"""

import math
import re

import numpy as np
import pytest
from exact_error import sup_error_against
from rhs_reference import reference_rhs
from step_reference import reference_stages, reference_step

import zmclab.evolution
from zmclab.closedform import ClosedFormSolution, Family, evaluate_jet
from zmclab.errors import (
    ArityError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    NonFiniteError,
)
from zmclab.evolution import (
    CFL,
    EvolutionConfig,
    EvolutionState,
    RunStatus,
    characteristic_speeds,
    check_state,
    fit_blowup_series,
    initial_state_from_solution,
    run_evolution,
    _advance_edge,
    _ghosts,
    _rk4_step,
    _Workspace,
)
from zmclab.numerics import Grid1D, rk4_step
from zmclab.residuals import EquationId

# lambda_{-+} = (-pq -+ sqrt(1 - p^2 + q^2)) / (1 + q^2) at p=0.6, q=0.8
SPEED_LO_AT_0P6_0P8 = -0.9825432011576074
SPEED_HI_AT_0P6_0P8 = 0.39717734749907085

STRING_LOG = ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=0.2)


def _derivative(equation, xs, y, h):
    """d/dt of the (3, n) state y as one (3, n) array: one stage of the
    evolution's step, on a workspace of its own."""
    work = _Workspace(equation, xs, h)
    work.y[...] = y
    return work.rates(work.slopes[0])


def string_state(n, lo=-0.5, hi=0.5, t0=0.0):
    grid = Grid1D(lo=lo, hi=hi, n=n)
    return initial_state_from_solution(STRING_LOG, grid, t0=t0)


def test_characteristic_speeds_frozen_values():
    (lo, hi), disc, root = characteristic_speeds(np.array([0.6]), np.array([0.8]))
    assert math.isclose(lo[0], SPEED_LO_AT_0P6_0P8, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(hi[0], SPEED_HI_AT_0P6_0P8, rel_tol=0, abs_tol=1e-15)
    assert disc[0] == 1.0 - 0.6 * 0.6 + 0.8 * 0.8
    assert root[0] == math.sqrt(disc[0])
    # flat state: unit lightcone
    (lo, hi), disc, root = characteristic_speeds(np.zeros(3), np.zeros(3))
    assert np.all(lo == -1.0) and np.all(hi == 1.0)
    assert np.all(disc == 1.0) and np.all(root == 1.0)


def test_characteristic_speeds_never_exceed_background_cone():
    """The graph's causal cones sit inside the background ones: |speed| <= 1.

    Equality holds exactly where q = +-p, which is where (1 + q^2 -+ pq)^2
    equals the discriminant.
    """
    rng = np.random.default_rng(20260817)
    p = rng.uniform(-0.99, 0.99, size=2000)
    q = rng.uniform(-3.0, 3.0, size=2000)
    (lo, hi), _, _ = characteristic_speeds(p, q)
    assert np.all(lo < 0) and np.all(hi > 0)
    assert np.max(np.abs(lo)) <= 1.0 + 1e-12
    assert np.max(np.abs(hi)) <= 1.0 + 1e-12


def test_characteristic_speeds_are_the_plain_formula_to_the_bit():
    """Speeds, discriminant and root equal (-p q -+ W) / (1 + q^2) with
    W = sqrt(1 - p^2 + q^2), zero signs included: signed zeros in p and q,
    and exactly zero speeds where p q = +-W (p = +-1). The run's CFL
    maximum over |speeds| equals max(max lambda+, -min lambda-)."""
    rng = np.random.default_rng(20261019)
    signed = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25]
    grid_p, grid_q = (a.ravel() for a in np.meshgrid(signed, signed))
    p = np.concatenate([rng.uniform(-0.99, 0.99, 500), grid_p])
    q = np.concatenate([rng.uniform(-3.0, 3.0, 500), grid_q])
    keep = 1.0 - p * p + q * q > 1e-6
    p, q = p[keep], q[keep]
    speeds, disc, root = characteristic_speeds(p, q)
    want_disc = 1.0 - p * p + q * q
    want_root = np.sqrt(want_disc)
    want = np.array([(-p * q - want_root) / (1.0 + q * q),
                     (-p * q + want_root) / (1.0 + q * q)])
    for got, ref in ((speeds, want), (disc, want_disc), (root, want_root)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.count_nonzero(want == 0.0) >= 8
    fastest = float(np.maximum.reduce(np.abs(speeds), axis=None))
    assert fastest == max(float(speeds[1].max()), -float(speeds[0].min()))


def test_characteristic_speeds_refuse_degenerate_state():
    with pytest.raises(DegeneracyError):
        characteristic_speeds(np.array([1.0]), np.array([0.0]))


def test_characteristic_speeds_refuse_non_finite_discriminant():
    """A NaN fails every comparison with the floor: it is refused as
    non-finite, never reported as a degeneracy. A +inf, from an infinite q,
    leaves the minimum finite and is refused by the maximum."""
    p, q = np.full(9, 0.3), np.full(9, 0.2)
    p[7] = math.nan
    with pytest.raises(NonFiniteError, match=r"= nan$"):
        characteristic_speeds(p, q)
    with pytest.raises(NonFiniteError, match=r"max = inf$"):
        characteristic_speeds(np.array([0.1] * 3), np.array([0.1, np.inf, 0.1]))


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
        y = np.stack((u, p, q))
        _, pdot, qdot = _derivative(EquationId.BORN_INFELD, xs, y, h)
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
@pytest.mark.parametrize("window", sorted(RHS_WINDOWS))
def test_rhs_matches_reference_bit_for_bit(window, size):
    """Sizes 3, 4 and 5 take the quadratic, cubic and quartic ghost tails,
    6 is the smallest window whose two quartic ghosts read different nodes,
    and 201 is a full window."""
    equation, x0 = RHS_WINDOWS[window]
    rng = np.random.default_rng(size)
    h = 0.002
    xs = x0 + h * np.arange(size)
    amp, freq = rng.uniform(0.1, 0.4, size=3), rng.uniform(1.0, 4.0, size=3)
    u = amp[0] * np.cos(freq[0] * xs)
    p = amp[1] * np.cos(freq[1] * xs) - 0.1
    q = amp[2] * np.sin(freq[2] * xs)  # odd: exactly zero on the axis
    got = _derivative(equation, xs, np.stack((u, p, q)), h)
    want = np.stack(reference_rhs(equation, xs, u, p, q, h))
    assert got.shape == want.shape == (3, size)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def rhs_window_state(window, size):
    """A smooth state on one of RHS_WINDOWS: (equation, xs, (u, p, q), h)."""
    equation, x0 = RHS_WINDOWS[window]
    rng = np.random.default_rng(size)
    h = 0.002
    xs = x0 + h * np.arange(size)
    amp, freq = rng.uniform(0.1, 0.4, size=3), rng.uniform(1.0, 4.0, size=3)
    u = amp[0] * np.cos(freq[0] * xs)
    p = amp[1] * np.cos(freq[1] * xs) - 0.1
    q = amp[2] * np.sin(freq[2] * xs)  # odd: exactly zero on the axis
    return equation, xs, (u, p, q), h


@pytest.mark.parametrize("dt", (1e-3, 3.7e-4, 2.5e-2))
@pytest.mark.parametrize("size", (3, 5, 6, 201))
@pytest.mark.parametrize("window", sorted(RHS_WINDOWS))
def test_rk4_step_matches_reference_bit_for_bit(window, size, dt):
    """rk4_step over _derivative is
    tests/step_reference.py's plain step to the last bit, and leaves its
    input state alone."""
    equation, xs, fields, h = rhs_window_state(window, size)
    y = np.stack(fields)
    before = y.copy()
    got = rk4_step(y, lambda t, s: _derivative(equation, xs, s, h), 0.25, dt)
    want = reference_step(equation, xs, y, h, dt)
    assert got.shape == want.shape == (3, size)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(y, before)


@pytest.mark.parametrize("layout", ("contiguous", "strided"))
@pytest.mark.parametrize("dt", (1e-3, 3.7e-4, 2.5e-2))
@pytest.mark.parametrize("size", (3, 4, 5, 6, 201))
@pytest.mark.parametrize("window", sorted(RHS_WINDOWS))
def test_evolution_step_matches_reference_bit_for_bit(window, size, dt, layout):
    """_rk4_step, the step run_evolution takes, is tests/step_reference.py's
    plain step to the last bit, signs of zero included, and its centre
    values are the reference's stage values of q_t there.  The state is
    passed whole or, as a run passes it, as a strided window of a wider
    array; either comes back unchanged."""
    equation, xs, fields, h = rhs_window_state(window, size)
    y = np.stack(fields)
    wide = np.zeros((3, size + 5))
    wide[:, 2:2 + size] = y
    given = wide[:, 2:2 + size] if layout == "strided" else y
    before = wide.copy(), y.copy()
    center = size // 2
    got, slopes = _rk4_step(equation, xs, given, h, 0.25, dt, center)
    want = reference_step(equation, xs, y, h, dt)
    assert got.shape == want.shape == (3, size)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    stages = reference_stages(equation, xs, y, h, dt)
    assert slopes == tuple(float(k[2, center]) for k in stages)
    assert np.array_equal(wide, before[0])
    assert np.array_equal(y, before[1])


def perturbed_sphere_state(n):
    """Membrane data off the lightlike sphere, with q != 0 next to the axis."""
    sph = ClosedFormSolution(family=Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    base = initial_state_from_solution(sph, Grid1D(lo=0.0, hi=0.5, n=n), t0=0.2)
    return EvolutionState(t=0.2, xs=base.xs, u=base.u, p=0.99 * base.p, q=base.q,
                          spacing=base.spacing)


@pytest.mark.parametrize("equation, state", [
    (EquationId.BORN_INFELD, string_state(200, lo=-0.1, hi=0.5)),
    (EquationId.RADIAL_MEMBRANE, perturbed_sphere_state(64)),
], ids=["string-off-centre", "membrane-axis"])
def test_run_evolution_step_is_the_reference_step(equation, state):
    """run_evolution's own step (its derivative on the stacked state, its
    kept window) is tests/step_reference.py's plain step to the bit."""
    (lo, hi), _, _ = characteristic_speeds(state.p, state.q)
    dt = 0.999 * 0.5 * state.spacing / max(np.max(np.abs(lo)), np.max(np.abs(hi)))
    t_end = state.t + dt
    run = run_evolution(state, EvolutionConfig(
        blowup_time=1.0, t_end=t_end, equation=equation))
    assert run.n_steps == 1
    y = np.stack([state.u, state.p, state.q])
    want = reference_step(equation, state.xs, y, state.spacing, t_end - state.t)
    f = run.final
    first = int(np.searchsorted(state.xs, f.xs[0]))
    kept = want[:, first:first + f.xs.size]
    assert np.array_equal(f.xs, state.xs[first:first + f.xs.size])
    for got, ref in zip((f.u, f.p, f.q), kept):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("size", (3, 4, 5, 9))
def test_ghosts_extrapolate_polynomials_exactly(size):
    """Through the m = min(size, 4) nodes at each end, the ghost weights
    continue any polynomial of degree m - 1; on integer data, exactly."""
    m = min(size, 4)
    rng = np.random.default_rng(size)
    polys = [np.polynomial.Polynomial(rng.integers(-9, 10, m)) for _ in "pq"]
    fp, fq = (poly(np.arange(size, dtype=float)) for poly in polys)
    rows = [f[:m].tolist() for f in (fp, fq, fp[::-1], fq[::-1])]
    ghosts = [*(poly(-1.0) for poly in polys), *(poly(float(size)) for poly in polys)]
    assert _ghosts(rows, False) == ghosts
    # the axis ghosts mirror the first node off the axis instead, p even
    # and q odd
    assert _ghosts(rows, True) == [fp[1], -fq[1], *ghosts[2:]]


@pytest.mark.parametrize("size", (5, 6, 9))
@pytest.mark.parametrize("axis", (False, True), ids=["string", "membrane-axis"])
def test_derivative_edge_differences_continue_polynomials(size, axis):
    """The edge entries of _derivative's centred differences read the
    ghosts the data's own cubic puts at -1 and at n, and on the axis the
    parity mirror instead (p even, q odd), exactly on integer data.  Every
    node value is at least 1, so each ghost weight shows, and spacing 1/2
    makes the difference quotient the plain difference.  p gives the
    q_t = p_x row; q with p = 0 gives p_t = q_x / (1 + q^2), plus on the
    membrane (q/r)(1 + q^2) / (1 + q^2) with q/r -> q_x on the axis."""
    poly = np.polynomial.Polynomial(np.random.default_rng(size).integers(1, 10, 4))
    f = poly(np.arange(size, dtype=float))
    equation = EquationId.RADIAL_MEMBRANE if axis else EquationId.BORN_INFELD
    h = 0.5
    xs = h * np.arange(size)
    zero = np.zeros(size)
    right = poly(float(size)) - f[-2]

    def left(parity):
        return f[1] - parity * f[1] if axis else f[1] - poly(-1.0)

    qdot = _derivative(equation, xs, np.stack((zero, f, zero)), h)[2]
    assert (qdot[0], qdot[-1]) == (left(1.0), right)

    pdot = _derivative(equation, xs, np.stack((zero, zero, f)), h)[1]
    dq = np.array([left(-1.0), right])
    denom = 1.0 + f[[0, -1]] * f[[0, -1]]
    want = dq / denom
    if axis:
        ratio = np.array([dq[0], f[-1] / xs[-1]])
        want += ratio * denom / denom
    assert np.array_equal(pdot[[0, -1]], want)


def test_rhs_constant_slopes_are_stationary():
    # a traveling plane: u = 0.3 x - 0.1 t has constant p, q
    xs = np.linspace(-1.0, 1.0, 41)
    u = 0.3 * xs - 0.1
    p = np.full_like(xs, -0.1)
    q = np.full_like(xs, 0.3)
    y = np.stack((u, p, q))
    udot, pdot, qdot = _derivative(EquationId.BORN_INFELD, xs, y, 0.05)
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
    assert math.isclose(run.times[1] - run.times[0],
                        CFL * state.spacing, rel_tol=1e-12)


@pytest.mark.parametrize("slope", (0.3, -0.3))
def test_cfl_step_takes_the_fastest_speed_of_either_family(slope):
    """On the travelling plane u = slope x - 0.1 t the two speeds differ in
    size, the faster being lambda+ for slope > 0 and lambda- for slope < 0;
    the first step is CFL * h over the faster one."""
    xs = np.linspace(-0.5, 0.5, 41)
    state = EvolutionState(t=0.0, xs=xs, u=slope * xs, p=np.full(41, -0.1),
                           q=np.full(41, slope), spacing=xs[1] - xs[0])
    (lo, hi), _, _ = characteristic_speeds(state.p, state.q)
    assert (abs(lo[0]) < abs(hi[0])) == (slope > 0)
    run = run_evolution(state, EvolutionConfig(blowup_time=10.0, t_end=0.05))
    fastest = max(np.max(np.abs(lo)), np.max(np.abs(hi)))
    assert run.times[1] - run.times[0] == CFL * state.spacing / fastest


def test_single_step_tracks_closed_form():
    state = string_state(200)
    (lo, hi), _, _ = characteristic_speeds(state.p, state.q)
    dt = CFL * state.spacing / max(np.max(np.abs(lo)), np.max(np.abs(hi)))
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


def test_checkerboard_mode_stays_bounded():
    """The grid's odd-even mode, the one centred differences cannot see,
    stays bounded without any dissipation, and uniformly in h.  By t = 0.5,
    1e-8 (-1)^j added to p changes the fields by about 3.2e-8 at n = 400
    and 5.5e-8 at n = 1600, mostly through the smooth modes the edge
    ghosts make of it (a quartic ghost makes 18e-8 and 45e-8 of it); the
    odd-even part of the change, a quarter of its second difference, stays
    near 1.5e-8 (adding 0.01 / (16 h) times the fourth difference of p and
    q to their rates, an anti-dissipation, grows it to 1.1e-7 at n = 400
    and 4.3e-5 at n = 1600).  The perturbed run keeps the plain run's
    steps and kept window."""
    eps = 1e-8
    config = EvolutionConfig(blowup_time=1.0, t_end=0.5)
    for n in (400, 1600):
        state = string_state(n)
        checker = eps * (-1.0) ** np.arange(state.xs.size)
        perturbed = EvolutionState(t=state.t, xs=state.xs, u=state.u, p=state.p + checker,
                                   q=state.q, spacing=state.spacing)
        plain, kicked = run_evolution(state, config), run_evolution(perturbed, config)
        assert plain.status is kicked.status is RunStatus.COMPLETED
        assert plain.n_steps == kicked.n_steps
        assert np.array_equal(plain.final.xs, kicked.final.xs)
        change = np.stack((kicked.final.u, kicked.final.p, kicked.final.q)) - np.stack(
            (plain.final.u, plain.final.p, plain.final.q))
        growth = float(np.max(np.abs(change))) / eps
        odd_even = float(np.max(np.abs(np.diff(change, n=2, axis=1)))) / (4.0 * eps)
        assert growth < 40.0, n
        assert odd_even < 4.0, n


def test_window_exhausts_at_dependence_collapse():
    """No data reaches past the window of dependence, which closes near 0.55."""
    run = run_evolution(string_state(200), EvolutionConfig(blowup_time=1.0, t_end=0.8))
    assert run.status is RunStatus.DOMAIN_EXHAUSTED
    assert 0.52 <= run.final.t <= 0.551
    # the surviving nodes are still tracking the closed form
    assert sup_error_against(run, STRING_LOG) <= 1e-6
    assert np.all(np.diff(run.active_nodes) <= 0)


def test_speeds_and_fluxes_are_computed_once_per_step(monkeypatch):
    """Each step's post-step speeds and momentum terms serve as the next
    step's old values, so none is recomputed on the same nodes, and the
    momentum density and flux divide by the root the speeds were formed
    with instead of forming the discriminant again."""
    calls = {"characteristic_speeds": [], "momentum_flux": [], "momentum_density": []}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(zmclab.evolution, name)):
            result = _inner(*args)
            calls[_name].append((args, result))
            return result
        monkeypatch.setattr(zmclab.evolution, name, counted)
    run = run_evolution(string_state(400), EvolutionConfig(blowup_time=1.0, t_end=0.8))
    assert run.status is RunStatus.DOMAIN_EXHAUSTED
    assert run.n_steps >= 100
    for name, made in calls.items():
        assert run.n_steps < len(made) <= run.n_steps + 2, name
    # each speeds call is followed by one momentum pair dividing by its root
    roots = [result[2] for _, result in calls["characteristic_speeds"]]
    for name in ("momentum_flux", "momentum_density"):
        given = [args[1] for args, _ in calls[name]]
        assert len(given) == len(roots), name
        assert all(a is b for a, b in zip(given, roots)), name


def test_parity_preserved_by_symmetric_run():
    run = run_evolution(string_state(200), EvolutionConfig(blowup_time=1.0, t_end=0.5))
    f = run.final
    assert np.max(np.abs(f.xs + f.xs[::-1])) <= 1e-12
    assert np.max(np.abs(f.u + f.u[::-1])) <= 1e-10
    assert np.max(np.abs(f.p + f.p[::-1])) <= 1e-10
    assert np.max(np.abs(f.q - f.q[::-1])) <= 1e-10


@pytest.mark.parametrize("k", [0, 3])
def test_right_edge_rule_is_left_rule_on_mirrored_window(k):
    """The right edge steps by the left edge's rule read on the mirrored
    window (x -> -x, (lo, hi) -> (-hi, -lo) reversed), to the last bit."""
    rng = np.random.default_rng(20261018 + k)
    n, h, dt = 12, 0.01, 0.004
    xs = np.arange(n) * h - 0.05
    # (lambda-, lambda+) blocks at the start and the end of the step; the
    # mirror swaps the rows, reverses the nodes and negates
    pairs = [rng.uniform(-0.9, 0.9, (2, n)) for _ in range(2)]
    mirrored = [-pair[::-1, ::-1] for pair in pairs]
    for edge in xs[-1] + h * rng.uniform(0.0, 1.0, 20):
        right = _advance_edge(edge, slice(-1 - k, -4 - k, -1), xs, *pairs, h, dt)
        left = _advance_edge(-edge, slice(k, k + 3, 1), -xs[::-1], *mirrored, h, dt)
        assert right == -left
        assert right <= edge


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
    fit = fit_blowup_series(run.times, run.center_series, 1.0, (0.4, 0.95))
    assert abs(fit.exponent - 1.0) <= 5e-3
    assert abs(fit.amplitude - 0.4) <= 5e-3
    assert fit.r_squared >= 0.999999


def test_midpoint_samples_are_as_accurate_as_the_step_ends():
    """Each step also samples the centre slope at its midpoint, by RK4's
    continuous extension over the stages the step already formed.  On the
    README data those samples are within 1.5 times the step ends' error
    and converge with them at second order (1.90 between n = 400 and 800);
    the fit's series is both, interleaved in time order."""
    def centre_errors(n):
        run = run_evolution(string_state(n), EvolutionConfig(blowup_time=1.0, t_end=0.8))
        mid, end = (
            float(np.max(np.abs(values - evaluate_jet(STRING_LOG, (times, 0.0 * times)).d1[1])))
            for times, values in ((run.mid_times, run.mid_center),
                                  (run.times, run.center_series))
        )
        return run, mid, end

    _, coarse, _ = centre_errors(400)
    run, mid, end = centre_errors(800)
    assert mid <= 1.5 * end
    assert math.log2(coarse / mid) >= 1.8
    times, values = run.center_samples
    assert times.size == 2 * run.n_steps + 1 == 2 * run.mid_times.size + 1
    assert np.all(np.diff(times) > 0)
    assert np.array_equal(times[::2], run.times)
    assert np.array_equal(values[::2], run.center_series)
    assert np.array_equal(times[1::2], run.mid_times)
    assert np.array_equal(values[1::2], run.mid_center)


@pytest.mark.parametrize("scale", (2.0, 0.5, 4.0))
def test_string_run_is_scale_covariant_bit_for_bit(scale):
    """(t, x, u) -> s (t, x, u) maps the string equation to itself and the
    log family at (k, T) to the one at (s k, s T), with the slopes p and q
    unchanged.  For s a power of two the whole run scales exactly: a run
    with k, T, lo, hi and t_end scaled by s takes the same steps to the
    same status, with the same slopes and its u, nodes and times (the fit's
    samples' too) scaled."""
    def run(s):
        sol = ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=s, k=0.2 * s)
        state = initial_state_from_solution(sol, Grid1D(lo=-0.5 * s, hi=0.5 * s, n=200))
        return run_evolution(state, EvolutionConfig(blowup_time=s, t_end=0.8 * s))

    base, scaled = run(1.0), run(scale)
    assert scaled.status is base.status is RunStatus.DOMAIN_EXHAUSTED
    assert scaled.n_steps == base.n_steps
    f, g = base.final, scaled.final
    assert np.array_equal(g.p, f.p) and np.array_equal(g.q, f.q)
    assert g.t == scale * f.t
    (base_times, base_values), (times, values) = base.center_samples, scaled.center_samples
    assert np.array_equal(values, base_values)
    for got, want in ((g.u, f.u), (g.xs, f.xs), (scaled.times, base.times),
                      (times, base_times)):
        assert np.array_equal(got, scale * want)


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


@pytest.mark.parametrize("t0", (0.5, 0.6))
def test_run_refuses_to_start_at_or_past_t_end(t0):
    """From t0 >= t_end no step is taken, so a "completed" run would report
    a t_final at or past t_end."""
    with pytest.raises(DomainError, match=f"got t0 = {t0}, t_end = 0.5"):
        run_evolution(string_state(100, lo=-0.3, hi=0.3, t0=t0),
                      EvolutionConfig(blowup_time=1.0, t_end=0.5))


@pytest.mark.parametrize("hi", (0.4, 0.5))
def test_membrane_refuses_negative_radii(hi):
    """The radial flow's 1/r terms read a window left of the axis as radii:
    through r = 0 the run divides by zero, and short of it it is
    meaningless."""
    sol = ClosedFormSolution(family=Family.CONSTANT_PROFILE, T=1.0, k=0.3)
    state = initial_state_from_solution(sol, Grid1D(lo=-0.5, hi=hi, n=200))
    with pytest.raises(DomainError, match="got lo = -0.5"):
        run_evolution(state, EvolutionConfig(
            blowup_time=1.0, t_end=0.8, equation=EquationId.RADIAL_MEMBRANE))


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


@pytest.mark.parametrize("field", ("u", "p", "q"))
@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_check_state_refuses_non_finite_data(field, bad):
    """A NaN passes the consistency check (it fails its comparison), so the
    fields are checked first, by name and node, before characteristic_speeds
    meets the discriminant."""
    state = string_state(40)
    fields = {"u": state.u.copy(), "p": state.p.copy(), "q": state.q.copy()}
    fields[field][7] = bad
    fields[field][30] = bad
    bad_state = EvolutionState(t=state.t, xs=state.xs, spacing=state.spacing, **fields)
    message = f"initial data not finite: {field}[7] = {bad}"
    with pytest.raises(NonFiniteError) as exc:
        check_state(bad_state)
    assert str(exc.value) == message
    with pytest.raises(NonFiniteError, match=re.escape(message)):
        run_evolution(bad_state, EvolutionConfig(blowup_time=1.0, t_end=0.5))


def test_non_finite_stage_names_row_and_node():
    """A 2-D state's non-finite derivative is located by (row, node): a NaN
    at p[7] of a 41-node state is u_t at node 7, reaches p_t at 7 through
    its coefficients and at 6 and 8 through the centred difference p_x, and
    reaches q_t = p_x at 6 and 8.  The message names the first five of
    these nodes in row order."""
    state = string_state(40)
    y = np.stack([state.u, state.p, state.q])
    y[1, 7] = math.nan
    with pytest.raises(NonFiniteError) as exc:
        rk4_step(y, lambda t, s: _derivative(EquationId.BORN_INFELD, state.xs, s,
                                              state.spacing), 0.0, 1e-3)
    assert str(exc.value) == (
        "non-finite derivative at RK4 stage 1, t=0.0 "
        "((row, node) [(0, 7), (1, 6), (1, 7), (1, 8), (2, 6)])"
    )


def test_evolution_step_non_finite_stage_names_row_and_node():
    """test_non_finite_stage_names_row_and_node for the evolution's own
    step: the same message, naming the stage, its t and the (row, node)."""
    state = string_state(40)
    y = np.stack([state.u, state.p, state.q])
    y[1, 7] = math.nan
    with pytest.raises(NonFiniteError) as exc:
        _rk4_step(EquationId.BORN_INFELD, state.xs, y, state.spacing, 0.0, 1e-3, 20)
    assert str(exc.value) == (
        "non-finite derivative at RK4 stage 1, t=0.0 "
        "((row, node) [(0, 7), (1, 6), (1, 7), (1, 8), (2, 6)])"
    )


def test_config_validation():
    with pytest.raises(DomainError):
        EvolutionConfig(blowup_time=1.0, t_end=1.0)
    for equation in (EquationId.SPACELIKE_GRAPH, EquationId.EIKONAL):
        with pytest.raises(DomainError, match=f"cannot evolve {equation.value}: not a flow"):
            EvolutionConfig(blowup_time=1.0, t_end=0.5, equation=equation)


def test_diagnostic_series_are_aligned():
    run = run_evolution(string_state(100), EvolutionConfig(blowup_time=1.0, t_end=0.4))
    n = run.times.size
    for arr in (run.sup_slope, run.center_series, run.momentum,
                run.invariant, run.min_disc, run.active_nodes):
        assert arr.size == n
    assert np.all(np.diff(run.times) > 0)
    assert np.all(run.min_disc > 0)
    assert run.times[-1] == run.final.t
