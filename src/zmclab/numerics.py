"""Shared numerical substrate.

Uniform 1D grids, the 2-jet container, the classical RK4 integrator
(fixed step and a step-halving adaptive wrapper), trapezoid quadrature, and
least-squares fits in log-log coordinates.

All arithmetic here is IEEE double precision. RK4 steps a tuple of floats
in Python floats (the two-component ODEs, where numpy's per-call overhead
would dominate) and a float or an ndarray in numpy (the evolution state).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DomainError, NonFiniteError, StepFloorError

DT_MIN = 1e-12  # floor of the adaptive RK4 step


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [lo, hi] with n cells, hence n+1 nodes.

    Node i sits at lo + i*spacing for i in 0..n.
    """

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise DomainError(f"cell count must be an integer, got {self.n!r}")
        if self.n < 8:
            raise DomainError(f"cell count must satisfy n >= 8, got n={self.n}")
        if not (-math.inf < self.lo < self.hi < math.inf):
            raise DomainError(f"grid needs finite lo < hi, got lo={self.lo}, hi={self.hi}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n

    def nodes(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n + 1)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ArityError("a fit needs at least 2 points")
        if not (0.0 <= self.r_squared <= 1.0):
            raise DomainError(f"r_squared must lie in [0,1], got {self.r_squared}")


@dataclass(frozen=True)
class Jet2:
    """Value plus all first and second partials of a scalar field of two
    variables at one point or at each point of an array.

    d1 = (d/da, d/db) and d2 = (d2/daa, d2/dadb, d2/dbb) where (a, b) is the
    coordinate pair in the order the producer declares -- (t, x) for the
    timelike string equation, (t, r) for the radial membrane, (x, y) for the
    spacelike graph equation. Only one mixed partial is stored; symmetry is
    by construction.

    Entries are Python floats or double-double values
    (closedform.DoubleDouble), or arrays of either sharing one shape;
    finiteness is checked on floats directly and on the others' conversion
    to float.
    """

    value: float
    d1: tuple[float, float]
    d2: tuple[float, float, float]

    def __post_init__(self) -> None:
        entries = (self.value, *self.d1, *self.d2)
        if len(self.d1) != 2 or len(self.d2) != 3:
            raise DomainError("Jet2 wants d1 of length 2 and d2 of length 3")
        for v in entries:
            if isinstance(v, float) and math.isfinite(v):  # np.float64 too
                continue
            values = np.asarray(v, dtype=float)
            finite = np.isfinite(values)
            if not finite.all():
                bad = v if finite.ndim == 0 else values.flat[np.argmin(finite)]
                raise NonFiniteError(f"non-finite jet entry {bad!r}")


def _check_stage_finite(value, stage: str, t: float):
    if isinstance(value, tuple) and all(map(math.isfinite, value)):
        return
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        if arr.ndim == 0:
            where = "scalar state"
        else:
            bad = np.flatnonzero(~np.isfinite(arr))
            where = f"component(s) {bad[:5].tolist()}"
        raise NonFiniteError(f"non-finite derivative at RK4 {stage}, t={t} ({where})")


def rk4_step(state, derivative, t: float, dt: float):
    """One classical fourth-order Runge-Kutta step.

    derivative(t, state) returns the same kind of state. A tuple of floats
    (the two-component profile and steady ODEs) is stepped in Python
    floats, where numpy's per-call overhead would be most of the cost; a
    float or an ndarray (the (3, n) evolution state) is stepped in
    numpy. Both do the same operations in the same order, so they agree
    bit for bit. Local error is O(dt^5) on smooth systems. A non-finite
    stage value raises NonFiniteError naming the stage and component.
    """
    if dt <= 0:
        raise DomainError(f"rk4_step needs dt > 0, got {dt}")
    if isinstance(state, tuple):
        return _rk4_step_floats(state, derivative, t, dt)
    k1 = derivative(t, state)
    _check_stage_finite(k1, "stage 1", t)
    k2 = derivative(t + 0.5 * dt, state + 0.5 * dt * np.asarray(k1))
    _check_stage_finite(k2, "stage 2", t + 0.5 * dt)
    k3 = derivative(t + 0.5 * dt, state + 0.5 * dt * np.asarray(k2))
    _check_stage_finite(k3, "stage 3", t + 0.5 * dt)
    k4 = derivative(t + dt, state + dt * np.asarray(k3))
    _check_stage_finite(k4, "stage 4", t + dt)
    return state + (dt / 6.0) * (
        np.asarray(k1) + 2.0 * np.asarray(k2) + 2.0 * np.asarray(k3) + np.asarray(k4)
    )


def _rk4_step_floats(y, derivative, t: float, dt: float):
    """rk4_step on a tuple of floats, component by component."""
    half = 0.5 * dt
    k1 = derivative(t, y)
    _check_stage_finite(k1, "stage 1", t)
    k2 = derivative(t + half, tuple([a + half * k for a, k in zip(y, k1)]))
    _check_stage_finite(k2, "stage 2", t + half)
    k3 = derivative(t + half, tuple([a + half * k for a, k in zip(y, k2)]))
    _check_stage_finite(k3, "stage 3", t + half)
    k4 = derivative(t + dt, tuple([a + dt * k for a, k in zip(y, k3)]))
    _check_stage_finite(k4, "stage 4", t + dt)
    return tuple([a + (dt / 6.0) * (p + 2.0 * q + 2.0 * r + s)
                  for a, p, q, r, s in zip(y, k1, k2, k3, k4)])


def rk4_integrate(derivative, t0: float, state0, t_end: float, dt: float):
    """Fixed-step RK4 from t0 to t_end; the final step is clipped to land
    exactly on t_end. Returns (times, states) with the initial point first;
    a tuple state0 is carried as tuples of floats (see rk4_step)."""
    if dt <= 0:
        raise DomainError(f"rk4_integrate needs dt > 0, got {dt}")
    if t_end < t0:
        raise DomainError(f"t_end={t_end} must be >= t0={t0}")
    ts = [t0]
    t = t0
    y = state0 if isinstance(state0, tuple) else np.array(state0, dtype=float)
    states = [y]
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(dt, t_end - t)
        y = rk4_step(y, derivative, t, h)
        t = t + h
        ts.append(t)
        states.append(y)
    return np.asarray(ts), np.asarray(states, dtype=float)


def rk4_adaptive_step(
    derivative,
    t: float,
    state,
    dt: float,
    abs_tol: float = 1e-10,
):
    """One accepted RK4 step with step-doubling error control.

    Compares a full step against two half steps; halves dt until the
    discrepancy is within abs_tol, raising StepFloorError below DT_MIN. Returns
    (t_new, state_new, dt_used, dt_next) where state_new is the two-half-step
    result and dt_next grows by 2 when the error was far below tolerance.

    This is the wrapper the profile shooter uses near its singular points.
    """
    if abs_tol <= 0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")
    while True:
        if dt < DT_MIN:
            raise StepFloorError(f"step size {dt} fell below the floor {DT_MIN} at t={t}")
        full = rk4_step(state, derivative, t, dt)
        half = rk4_step(state, derivative, t, 0.5 * dt)
        half2 = rk4_step(half, derivative, t + 0.5 * dt, 0.5 * dt)
        err = float(np.max(np.abs(np.subtract(full, half2))))
        if err <= abs_tol:
            dt_next = 2.0 * dt if err <= abs_tol / 64.0 else dt
            return t + dt, half2, dt, dt_next
        dt = 0.5 * dt


def log_log_fit(abscissae, ordinates) -> FitResult:
    """Ordinary least squares on (log a_i, log b_i).

    The slope is the measured power-law exponent. Inputs must be strictly
    positive; fewer than 2 points is an arity error.
    """
    a = np.asarray(abscissae, dtype=float).ravel()
    b = np.asarray(ordinates, dtype=float).ravel()
    if a.size != b.size:
        raise ArityError(f"mismatched lengths {a.size} vs {b.size}")
    if a.size < 2:
        raise ArityError(f"log_log_fit needs at least 2 points, got {a.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("log_log_fit inputs must be finite")
    if np.any(a <= 0) or np.any(b <= 0):
        raise DomainError("log_log_fit needs strictly positive inputs (log scale)")
    x = np.log(a)
    y = np.log(b)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 * max(1, y.size) else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    r_squared = min(1.0, max(0.0, r_squared))
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        n_points=int(a.size),
    )


def trapezoid(values, xs) -> float:
    """Plain trapezoid rule over explicitly given abscissae: numpy's own
    expression (np.trapezoid, formerly np.trapz), to the same bits."""
    y, x = np.asarray(values, dtype=float), np.asarray(xs, dtype=float)
    return float(((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0).sum())
