"""Shared numerical substrate.

Uniform 1D grids, the 2-jet container, the classical RK4 integrator
(fixed step and a step-halving adaptive wrapper) and the trapezoid rule's
per-interval terms.

All arithmetic here is IEEE double precision. rk4_step steps an array
in numpy, and rk4_adaptive_step steps through it; rk4_integrate steps a
pair of floats, written out as two scalar expressions per stage. No
other module steps with any of the three: the evolution takes its steps
through evolution._rk4_step, whose four stages share one workspace, the
steady ODEs integrate in closed form (similarity.steady_ode_integrate), the
audit judges their families by residual (similarity.steady_residual_ratios),
and the profile shoot takes its steps without a stepper. Each RK4 entry
refuses a step, an end or a tolerance that is not finite with
DomainError, once, before it steps.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DomainError, NonFiniteError, StepFloorError

DT_MIN = 1e-12  # floor of the adaptive RK4 step
MIN_CELLS = 8  # the fewest cells of a Grid1D


def _constant(value):
    """value as a read-only 0-d float64 array, an operand numpy takes as it
    is: it converts a Python float operand on every call, about 0.2 us of
    a 0.85 us call on 800 nodes, and an np.float64 saves almost none of
    that. The result is the same IEEE operation either way, and a shared
    constant refuses the in-place op that would change every later call."""
    c = np.array(value, dtype=np.float64)
    c.flags.writeable = False
    return c


_HALF = _constant(0.5)


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
        if self.n < MIN_CELLS:
            raise DomainError(f"cell count must satisfy n >= {MIN_CELLS}, got n={self.n}")
        if not (-math.inf < self.lo < self.hi < math.inf):
            raise DomainError(f"grid needs finite lo < hi, got lo={self.lo}, hi={self.hi}")
        if not math.isfinite(self.spacing):  # hi - lo overflows past 1.8e308
            raise DomainError(f"grid needs a finite spacing, got lo={self.lo}, hi={self.hi}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n

    def nodes(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n + 1)


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
    finiteness is checked on floats directly, on arrays through the sum of
    their squares, and on a double-double value through its words, hi and
    (unless it is an exact double) lo, whose products sum to a finite value
    only if each word is finite. Where such a sum is not finite, each entry
    is checked as a float, and a bad one is named by that value's repr as a
    Python float.
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
            # one np.vdot (which raises no floating-point error) of a
            # double-double value's words, or of an array with itself, is
            # finite only if every word is; only a sum that is not checks
            # entry by entry, on hi + lo, which also names a bad entry
            hi, lo = getattr(v, "hi", v), getattr(v, "lo", None)
            if math.isfinite(np.vdot(hi, hi if lo is None else lo)):
                continue
            values = np.asarray(v, dtype=float)
            finite = np.isfinite(values)
            if not finite.all():
                # named as a Python float, whose repr is the same on every
                # numpy and for every kind of entry
                bad = float(values.flat[np.argmin(finite)])
                raise NonFiniteError(f"non-finite jet entry {bad!r}")


@contextlib.contextmanager
def double_range(what: str):
    """Run a block whose overflow, division by zero, NaN or non-finite Jet2
    entry is refused with DomainError naming what, instead of warning and
    carrying it on."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (FloatingPointError, NonFiniteError) as exc:
        raise DomainError(f"{what} leaves double range ({exc})") from None


def libm_pow(x, exponent):
    """x ** exponent by the C library's pow, element by element for an
    array. numpy's array power rounds some results differently (its own pow,
    and a plain product for a square), so values that must keep the bits of
    a scalar evaluation take this."""
    if isinstance(x, np.ndarray):
        return np.reshape([v ** exponent for v in x.ravel().tolist()], x.shape)
    return x ** exponent


def _check_stage_finite(value, stage: str, t: float):
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        if arr.ndim == 0:
            where = "scalar state"
        elif arr.ndim == 1:
            bad = np.flatnonzero(~np.isfinite(arr))
            where = f"component(s) {bad[:5].tolist()}"
        else:
            bad = np.argwhere(~np.isfinite(arr))[:5].tolist()
            where = f"(row, node) {list(map(tuple, bad))}"
        raise NonFiniteError(f"non-finite derivative at RK4 {stage}, t={t} ({where})")


def _stage_slope(k, shape, stage: str, t: float):
    """A stage's derivative as an array of the state's shape, checked finite:
    the sum of |k|^2 (np.vdot; np.dot warns on overflow) is finite unless an
    entry is or the squares pass 1e308, and only then is each entry checked."""
    k = np.asarray(k)
    if k.shape != shape:
        raise ArityError(
            f"derivative returned shape {k.shape} for a state of shape {shape} "
            f"at RK4 {stage}"
        )
    if not math.isfinite(np.vdot(k, k).real):
        _check_stage_finite(k, stage, t)
    return k


def rk4_step(state, derivative, t: float, dt: float):
    """One classical fourth-order Runge-Kutta step on an array state; a
    float or any array-like steps through numpy too.

    derivative(t, state) returns an array of the state's shape. Local error
    is O(dt^5) on smooth systems. A derivative of another shape raises
    ArityError, since it would broadcast into the stage sums; a non-finite
    stage value raises NonFiniteError naming the stage and the component,
    or for a 2-D state the (row, node). A dt that is not finite and
    positive raises DomainError.
    """
    if not 0.0 < dt < math.inf:
        raise DomainError(f"rk4_step needs a finite dt > 0, got {dt}")
    # each stage is state + c * k, formed as c * k then += state in a new
    # array (both products and sums commute exactly); the derivative's own
    # arrays are never written, since it may return its input or keep it
    shape = np.shape(state)
    half = 0.5 * dt
    k1 = _stage_slope(derivative(t, state), shape, "stage 1", t)
    y = k1 * half
    y += state
    k2 = _stage_slope(derivative(t + half, y), shape, "stage 2", t + half)
    y = k2 * half
    y += state
    k3 = _stage_slope(derivative(t + half, y), shape, "stage 3", t + half)
    y = k3 * dt
    y += state
    k4 = _stage_slope(derivative(t + dt, y), shape, "stage 4", t + dt)
    # state + (dt / 6) * (((k1 + 2 k2) + 2 k3) + k4)
    y = k2 * 2.0
    y += k1
    y += k3 * 2.0
    y += k4
    y *= dt / 6.0
    y += state
    return y


def rk4_integrate(derivative, t0: float, state0, t_end: float, dt: float):
    """Fixed-step RK4 on a pair of floats from t0 to t_end; the final step
    is clipped to land exactly on t_end. Returns (times, states), states of
    shape (len(times), 2), with the initial point first.

    derivative(t, (y0, y1)) returns a pair. Each stage is written out as
    two scalar expressions, the operations of rk4_step in its order, so the
    two agree bit for bit. A dt, t0 or t_end that is not finite raises
    DomainError, a state0 that is not a 2-tuple ArityError, and a
    non-finite stage value NonFiniteError naming the stage and the
    component; the derivative's own errors pass through, as does the
    unpacking error of a return that is no pair.

    No caller in the package marches with it: the steady ODEs it would
    march integrate in closed form (similarity.steady_ode_integrate), and
    the tests hold this march to that integral at fourth order. It is kept
    because bench/run.py's trace list names it, until the benchmark drops
    that trace.
    """
    if not 0.0 < dt < math.inf:
        raise DomainError(f"rk4_integrate needs a finite dt > 0, got {dt}")
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise DomainError(f"rk4_integrate needs finite ends, got t0={t0}, t_end={t_end}")
    if t_end < t0:
        raise DomainError(f"t_end={t_end} must be >= t0={t0}")
    if type(state0) is not tuple or len(state0) != 2:
        raise ArityError(f"rk4_integrate's state0 must be a pair (a 2-tuple), got {state0!r}")
    a0, a1 = state0
    ts = [t0]
    t = t0
    # one flat list of floats, which np.asarray reads far faster than a
    # list of pairs
    states = [a0, a1]
    last = t_end - 1e-14 * max(1.0, abs(t_end))
    while t < last:
        h = min(dt, t_end - t)
        half = 0.5 * h
        p0, p1 = derivative(t, (a0, a1))
        if not (math.isfinite(p0) and math.isfinite(p1)):
            _check_stage_finite((p0, p1), "stage 1", t)
        q0, q1 = derivative(t + half, (a0 + half * p0, a1 + half * p1))
        if not (math.isfinite(q0) and math.isfinite(q1)):
            _check_stage_finite((q0, q1), "stage 2", t + half)
        r0, r1 = derivative(t + half, (a0 + half * q0, a1 + half * q1))
        if not (math.isfinite(r0) and math.isfinite(r1)):
            _check_stage_finite((r0, r1), "stage 3", t + half)
        s0, s1 = derivative(t + h, (a0 + h * r0, a1 + h * r1))
        if not (math.isfinite(s0) and math.isfinite(s1)):
            _check_stage_finite((s0, s1), "stage 4", t + h)
        sixth = h / 6.0
        a0 = a0 + sixth * (p0 + 2.0 * q0 + 2.0 * r0 + s0)
        a1 = a1 + sixth * (p1 + 2.0 * q1 + 2.0 * r1 + s1)
        t = t + h
        ts.append(t)
        states += (a0, a1)
    return np.asarray(ts), np.asarray(states, dtype=float).reshape(len(ts), 2)


def rk4_adaptive_step(derivative, t: float, state, dt: float, abs_tol: float):
    """One accepted RK4 step with step-doubling error control.

    Compares a full step against two half steps; halves dt until the
    discrepancy is within abs_tol, raising StepFloorError below DT_MIN. Returns
    (t_new, state_new, dt_used, dt_next) where state_new is the two-half-step
    result and dt_next grows by 2 when the error was far below tolerance.
    An abs_tol that is not finite and positive raises DomainError.

    No caller in the package steps with it: profiles.shoot_profile takes
    the steps it would take on the constant an axis shoot carries, and
    tests/profile_reference.py keeps the march that calls it.
    """
    if not 0.0 < abs_tol < math.inf:
        raise DomainError(f"abs_tol must be finite and positive, got {abs_tol}")
    while True:
        if dt < DT_MIN:
            raise StepFloorError(f"step size {dt} fell below the floor {DT_MIN} at t={t}")
        full = rk4_step(state, derivative, t, dt)
        half = rk4_step(state, derivative, t, 0.5 * dt)
        half2 = rk4_step(half, derivative, t + 0.5 * dt, 0.5 * dt)
        err = float(np.max(np.abs(full - half2)))
        if err <= abs_tol:
            dt_next = 2.0 * dt if err <= abs_tol / 64.0 else dt
            return t + dt, half2, dt, dt_next
        dt = 0.5 * dt


def trapezoid_terms(values, gaps):
    """The trapezoid rule's term (x[i+1] - x[i]) * (y[i+1] + y[i]) / 2 per
    interval, given the gaps x[1:] - x[:-1]. Summed with np.add.reduce
    (which ndarray.sum is), any run of them is numpy's trapezoid rule
    (np.trapezoid, formerly np.trapz) over that run of nodes, to the same
    bits: so windows of one grid share its gaps and one pass of terms."""
    terms = values[1:] + values[:-1]
    terms *= gaps
    terms *= _HALF  # x * 0.5 is x / 2.0 to the bit, at half the cost
    return terms
