import math

import numpy as np
import pytest

from fd_oracles import BoundaryError, central_diff_jet2, observed_orders
from zmclab.errors import ArityError, DomainError, NonFiniteError
from zmclab.numerics import (
    FitResult,
    Grid1D,
    Jet2,
    log_log_fit,
    rk4_adaptive_step,
    rk4_integrate,
    rk4_step,
    trapezoid,
)
from zmclab.profiles import phi_second_derivative
from zmclab.similarity import SteadyOdeId, steady_ode_integrate

# frozen reference values, evaluated once in extended precision
EXP_0P1 = 1.1051709180756477
EXP_M1 = 0.36787944117144233
LN3 = 1.0986122886681098
SIN_DD_0P5 = -0.479425538604203  # second derivative of sin at 0.5 is -sin(0.5)


def test_grid_nodes_and_spacing():
    g = Grid1D(0.0, 1.0, 100)
    assert g.spacing == 0.01
    nodes = g.nodes()
    assert nodes.shape == (101,)
    assert nodes[0] == 0.0
    assert abs(nodes[-1] - 1.0) < 1e-14
    assert abs(nodes[37] - 0.37) < 1e-14


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1D(1.0, 0.0, 100)
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 4)  # fewer than 8 cells
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 12.5)


def test_fit_result_validation():
    with pytest.raises(ArityError):
        FitResult(slope=1.0, intercept=0.0, r_squared=1.0, n_points=1)
    with pytest.raises(DomainError):
        FitResult(slope=1.0, intercept=0.0, r_squared=1.5, n_points=3)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), np.float64("nan"), np.array([0.0, np.nan]),
], ids=["float-nan", "float-inf", "float64-nan", "array-nan"])
@pytest.mark.parametrize("slot", [0, 2, 5], ids=["value", "d1[1]", "d2[2]"])
def test_jet2_rejects_non_finite(slot, bad):
    """Floats take the math.isfinite path, arrays the numpy one; both name
    the bad entry the same way."""
    entries = [0.0] * 6
    entries[slot] = bad
    with pytest.raises(NonFiniteError) as exc:
        Jet2(entries[0], tuple(entries[1:3]), tuple(entries[3:]))
    shown = bad if np.ndim(bad) == 0 else bad[1]
    assert str(exc.value) == f"non-finite jet entry {shown!r}"


# --- finite differences -----------------------------------------------------


def test_central_diff_quadratic_exact():
    """Central stencils reproduce a quadratic's 2-jet to rounding."""
    g = Grid1D(0.0, 1.0, 100)
    f = g.nodes() ** 2
    jet = central_diff_jet2(f, 50, g.spacing)
    x = g.nodes()[50]
    assert abs(jet.value - x * x) < 1e-14
    assert abs(jet.d1[1] - 2 * x) < 1e-10
    assert abs(jet.d2[2] - 2.0) < 1e-10


def test_central_diff_constant():
    f = np.full(64, 3.7)
    jet = central_diff_jet2(f, 10, 0.05)
    assert abs(jet.d1[1]) < 1e-12
    assert abs(jet.d2[2]) < 1e-12


def test_central_diff_sine():
    h = 1e-2
    xs = 0.5 + h * np.arange(-3, 4)
    jet = central_diff_jet2(np.sin(xs), 3, h)
    assert abs(jet.d2[2] - SIN_DD_0P5) <= 1e-4
    assert abs(jet.d1[1] - math.cos(0.5)) <= 1e-4


def test_central_diff_boundary_errors():
    f = np.arange(12, dtype=float)
    with pytest.raises(BoundaryError):
        central_diff_jet2(f, 0, 0.1)
    with pytest.raises(BoundaryError):
        central_diff_jet2(f, 11, 0.1)


def test_two_variable_jet_with_mixed_partial():
    """f(t,x) = t^2 x + 3 t x^2 has an exact FD 2-jet up to cubic truncation."""
    dt, dx = 0.01, 0.02
    tg = 0.4 + dt * np.arange(-2, 3)
    xg = 0.7 + dx * np.arange(-2, 3)
    Tm, Xm = np.meshgrid(tg, xg, indexing="ij")
    F = Tm**2 * Xm + 3 * Tm * Xm**2
    jet = central_diff_jet2(F, 2, dx, time_index=2, time_spacing=dt)
    t0, x0 = 0.4, 0.7
    assert abs(jet.d1[0] - (2 * t0 * x0 + 3 * x0**2)) < 1e-9
    assert abs(jet.d1[1] - (t0**2 + 6 * t0 * x0)) < 1e-9
    assert abs(jet.d2[0] - 2 * x0) < 1e-8
    assert abs(jet.d2[1] - (2 * t0 + 6 * x0)) < 1e-9
    assert abs(jet.d2[2] - 6 * t0) < 1e-8


def test_central_diff_convergence_order():
    """Observed order under spacing halving is at least 1.9 on a smooth field."""
    errs = []
    for n in (40, 80, 160, 320):
        g = Grid1D(0.0, 1.0, n)
        f = np.sin(3.0 * g.nodes())
        i = n // 2
        x = g.nodes()[i]
        jet = central_diff_jet2(f, i, g.spacing)
        errs.append(abs(jet.d2[2] - (-9.0 * math.sin(3.0 * x))))
    orders = observed_orders(errs)
    assert np.all(orders >= 1.9)


# --- RK4 ---------------------------------------------------------------------


def test_rk4_exponential_single_step():
    y = rk4_step(1.0, lambda t, y: y, 0.0, 0.1)
    assert abs(y - EXP_0P1) <= 1e-7


def test_rk4_zero_derivative():
    y = rk4_step(2.5, lambda t, y: 0.0, 0.0, 0.3)
    assert y == 2.5


def test_rk4_gaussian_decay():
    # y' = -2 t y integrates to exp(-t^2)
    ts, ys = rk4_integrate(lambda t, y: -2.0 * t * y, 0.0, 1.0, 1.0, 1e-3)
    assert abs(float(ys[-1]) - EXP_M1) <= 1e-9
    assert abs(ts[-1] - 1.0) < 1e-12


def test_rk4_convergence_order():
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        y = 1.0
        t = 0.0
        while t < 1.0 - 1e-12:
            y = rk4_step(y, lambda t, y: y, t, dt)
            t += dt
        errs.append(abs(y - math.e))
    orders = observed_orders(errs)
    assert np.all(orders >= 3.9)


def test_rk4_vector_state():
    # harmonic oscillator keeps its radius
    def f(t, s):
        return np.array([s[1], -s[0]])

    ts, ys = rk4_integrate(f, 0.0, np.array([1.0, 0.0]), 2 * math.pi, 1e-3)
    assert abs(ys[-1][0] - 1.0) < 1e-10
    assert abs(ys[-1][1]) < 1e-10


def test_rk4_nonfinite_stage_reported():
    def bad(t, y):
        return float("inf")

    with pytest.raises(NonFiniteError, match="stage 1"):
        rk4_step(1.0, bad, 0.0, 0.1)

    def bad_after_start(t, s):
        return (s[1], math.inf if t > 0.0 else 0.0)

    # a tuple state is checked in Python floats and names the component too
    with pytest.raises(NonFiniteError, match=r"stage 2, .*component\(s\) \[1\]"):
        rk4_step((1.0, 0.0), bad_after_start, 0.0, 0.1)


def test_rk4_adaptive_step_matches_reference():
    t, y, used, nxt = rk4_adaptive_step(lambda t, y: y, 0.0, 1.0, 0.5, abs_tol=1e-12)
    assert abs(y - math.exp(t)) < 1e-10
    assert used <= 0.5 and nxt >= used


# --- RK4 on tuples of floats -------------------------------------------------
# The two-component ODEs step tuples of floats; the array path is the
# reference, and both must produce the same bits.

PENCIL = (1.0, 3.0, -4.0)  # the membrane branch's separable-mode pencil


def profile_slope(r, s):
    return (s[1], phi_second_derivative(s[0], s[1], r))


def pencil_slope(_, s):
    a, b, c = PENCIL
    return (s[1], -(b * s[1] + c * s[0]) / a)


def born_infeld_steady_slope(rho, s):
    return (s[1], 2.0 * rho * s[1] / (1.0 - rho * rho))


def spacelike_steady_slope(rho, s):
    return (s[1], -2.0 * rho * s[1] / (1.0 + rho * rho))


# slope, start time, start state; the profile starts at height a = 0.6 with
# a small slope, where 1 - rho^2 - phi^2 = 0.0775, and fifty steps of 1e-3
# bring that gap down to 8e-4
TUPLE_CASES = {
    "profile-near-circle": (profile_slope, 0.75, (0.6, -0.02)),
    "axis-pencil": (pencil_slope, 0.0, (1.0, 0.0)),
    "born-infeld-steady": (born_infeld_steady_slope, 0.0, (0.0, 1.4)),
    "spacelike-steady": (spacelike_steady_slope, 0.0, (0.0, 0.7)),
}


def array_slope(slope):
    return lambda t, s: np.array(slope(t, s))


def same_bits(floats, array):
    return np.asarray(floats, dtype=float).tobytes() == np.asarray(array, dtype=float).tobytes()


def is_float_tuple(state):
    return type(state) is tuple and all(type(v) is float for v in state)


@pytest.mark.parametrize("case", sorted(TUPLE_CASES))
def test_rk4_step_on_tuples_matches_array_path(case):
    slope, t, y = TUPLE_CASES[case]
    ref = np.array(y)
    dt = 1e-3
    for _ in range(50):
        y = rk4_step(y, slope, t, dt)
        ref = rk4_step(ref, array_slope(slope), t, dt)
        assert is_float_tuple(y)
        assert same_bits(y, ref)
        t += dt


@pytest.mark.parametrize("case", sorted(TUPLE_CASES))
def test_rk4_integrate_on_tuples_matches_array_path(case):
    slope, t0, y0 = TUPLE_CASES[case]
    seen = []

    def recording(t, s):
        seen.append(type(s))
        return slope(t, s)

    # 0.0495 is not a whole number of steps, so the last step is clipped
    ts, states = rk4_integrate(recording, t0, y0, t0 + 0.0495, 1e-3)
    ref_ts, ref_states = rk4_integrate(array_slope(slope), t0, np.array(y0), t0 + 0.0495, 1e-3)
    assert set(seen) == {tuple}
    assert states.shape == ref_states.shape == (51, 2)
    assert states.dtype == ref_states.dtype
    assert same_bits(ts, ref_ts) and same_bits(states, ref_states)


@pytest.mark.parametrize("case", sorted(TUPLE_CASES))
def test_rk4_adaptive_step_on_tuples_matches_array_path(case):
    slope, t, y = TUPLE_CASES[case]
    ref_t, ref = t, np.array(y)
    dt = ref_dt = 0.05  # wide enough that the profile case halves its step
    for _ in range(6):
        t, y, used, dt = rk4_adaptive_step(slope, t, y, dt, abs_tol=1e-10)
        ref_t, ref, ref_used, ref_dt = rk4_adaptive_step(
            array_slope(slope), ref_t, ref, ref_dt, abs_tol=1e-10
        )
        assert is_float_tuple(y)
        assert same_bits(y, ref)
        assert (t, used, dt) == (ref_t, ref_used, ref_dt)


@pytest.mark.parametrize("ode, slope, initial, rho_range", [
    (SteadyOdeId.BORN_INFELD_STEADY, born_infeld_steady_slope, (0.0, 1.4), (0.0, 0.9)),
    (SteadyOdeId.SPACELIKE_STEADY, spacelike_steady_slope, (0.0, 0.7), (0.0, 2.0)),
], ids=["born-infeld", "spacelike"])
def test_steady_ode_integrate_matches_array_path(ode, slope, initial, rho_range):
    sol = steady_ode_integrate(ode, initial, rho_range, 1e-3)
    ts, states = rk4_integrate(array_slope(slope), rho_range[0], np.array(initial),
                               rho_range[1], 1e-3)
    assert same_bits(sol.rhos, ts)
    assert same_bits(sol.v, states[:, 0]) and same_bits(sol.vp, states[:, 1])


# --- fits and quadrature -----------------------------------------------------


def test_trapezoid_matches_numpy_bit_for_bit():
    """trapezoid writes out numpy's own rule, so the two agree exactly."""
    numpy_rule = getattr(np, "trapezoid", None) or np.trapz
    rng = np.random.default_rng(8)
    for size in (1, 2, 3, 17, 801):
        xs = np.sort(rng.uniform(-1.0, 1.0, size))
        ys = rng.normal(size=size)
        assert trapezoid(ys, xs) == float(numpy_rule(ys, xs))
    assert trapezoid([0.0, 1.0, 4.0], [0.0, 1.0, 2.0]) == 3.0


def test_log_log_fit_exact_square():
    a = np.linspace(1.0, 5.0, 20)
    fit = log_log_fit(a, a**2)
    assert abs(fit.slope - 2.0) <= 1e-12
    assert fit.r_squared == 1.0
    assert fit.n_points == 20


def test_log_log_fit_linear_intercept():
    a = np.linspace(0.5, 4.0, 15)
    fit = log_log_fit(a, 3.0 * a)
    assert abs(fit.slope - 1.0) <= 1e-12
    assert abs(fit.intercept - LN3) <= 1e-12


def test_log_log_fit_noisy_recovery():
    rng = np.random.default_rng(20260817)
    a = np.linspace(1.0, 10.0, 50)
    delta = rng.uniform(-1e-3, 1e-3, size=50)
    fit = log_log_fit(a, a**1.5 * (1.0 + delta))
    assert abs(fit.slope - 1.5) <= 5e-3


def test_log_log_fit_errors():
    with pytest.raises(DomainError):
        log_log_fit([1.0, -2.0], [1.0, 4.0])
    with pytest.raises(DomainError):
        log_log_fit([1.0, 2.0], [0.0, 4.0])
    with pytest.raises(ArityError):
        log_log_fit([1.0], [2.0])


@pytest.mark.parametrize("spacing", [0.1, 0.05, 0.01])
def test_quadratic_jet_relative_accuracy(spacing):
    """Any quadratic's 2-jet comes back to 1e-10 relative for spacing <= 0.1."""
    n = 16
    xs = 2.0 + spacing * np.arange(n)
    f = 1.3 * xs**2 - 0.7 * xs + 0.2
    i = n // 2
    x = xs[i]
    jet = central_diff_jet2(f, i, spacing)
    d1_exact = 2.6 * x - 0.7
    assert abs(jet.d1[1] - d1_exact) <= 1e-10 * max(1.0, abs(d1_exact))
    assert abs(jet.d2[2] - 2.6) <= 1e-10 * 2.6
