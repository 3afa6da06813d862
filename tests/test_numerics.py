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
)

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


def test_jet2_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Jet2(value=float("nan"), d1=(0.0, 0.0), d2=(0.0, 0.0, 0.0))


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


def test_rk4_adaptive_step_matches_reference():
    t, y, used, nxt = rk4_adaptive_step(lambda t, y: y, 0.0, 1.0, 0.5, abs_tol=1e-12)
    assert abs(y - math.exp(t)) < 1e-10
    assert used <= 0.5 and nxt >= used


# --- fits and quadrature -----------------------------------------------------


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
