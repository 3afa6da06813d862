"""Time evolution of the string and radial-membrane equations.

The second-order equations are run as first-order systems in
(u, p, q) = (graph, time slope, space slope).  Space derivatives are
second-order finite differences (one-sided at the window edges), time
stepping is RK4 under a CFL condition on the characteristic speeds, and
a small fourth-difference dissipation keeps odd-even modes down.

There are no artificial boundary conditions anywhere.  Each step the
window edges move inward at the local speed of the characteristics that
would otherwise carry unknown exterior data into the grid, and nodes
the edges pass are dropped: the run evolves only the numerical domain
of dependence of its initial window.  For data leading to finite-time
blow-up that domain closes up shortly after the last time it can still
certify, so a run may end with an exhausted window rather than at its
requested final time; the run's status says which happened.  A radial
window keeps its axis edge pinned at r = 0, where parity ghosts close
the stencils.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedFormSolution, evaluate_jet
from .conserved import momentum_density, momentum_flux
from .errors import (
    ArityError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    StepFloorError,
)
from .numerics import FitResult, Grid1D, log_log_fit, rk4_step, trapezoid
from .residuals import EquationId

# smallest window the edge ghosts can still close over
MIN_ACTIVE_NODES = 3


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    DOMAIN_EXHAUSTED = "domain-exhausted"
    DEGENERACY_FLOOR = "degeneracy-floor"
    GRADIENT_STOP = "gradient-stop"


@dataclass(frozen=True)
class EvolutionConfig:
    blowup_time: float
    t_end: float
    equation: EquationId = EquationId.BORN_INFELD
    cfl: float = 0.5
    dissipation: float = 0.01  # fourth-difference coefficient
    max_gradient: float | None = None  # stop once sup|q| reaches this
    min_disc_floor: float = 1e-6
    dt_floor: float = 1e-12

    def __post_init__(self):
        if self.equation not in (EquationId.BORN_INFELD, EquationId.RADIAL_MEMBRANE):
            raise DomainError(f"cannot evolve {self.equation.value}: not a flow")
        if not 0.0 < self.t_end < self.blowup_time:
            raise DomainError("need 0 < t_end < blowup_time")
        if not 0.0 < self.cfl <= 1.0:
            raise DomainError("cfl must lie in (0, 1]")
        if self.dissipation < 0.0:
            raise DomainError("dissipation must be nonnegative")


@dataclass
class EvolutionState:
    t: float
    xs: np.ndarray
    u: np.ndarray
    p: np.ndarray
    q: np.ndarray
    spacing: float

    def min_discriminant(self) -> float:
        return float(np.min(1.0 - self.p * self.p + self.q * self.q))


def initial_state_from_solution(sol: ClosedFormSolution, grid: Grid1D, t0=0.0):
    xs = grid.nodes()
    jet = evaluate_jet(sol, (t0, xs))
    return EvolutionState(
        t=t0, xs=xs, u=jet.value, p=jet.d1[0], q=jet.d1[1], spacing=grid.spacing
    )


def check_state(state: EvolutionState, min_disc_floor=1e-6):
    """Refuse initial data that is degenerate or internally inconsistent.

    The stored q array must agree with differences of u to the accuracy a
    second-order stencil can deliver, bounded through the third differences
    of the data itself.
    """
    disc = state.min_discriminant()
    if disc <= min_disc_floor:
        raise DegeneracyError(
            f"initial data degenerate: min(1 - p^2 + q^2) = {disc:.3e} "
            f"<= floor {min_disc_floor:.1e}"
        )
    h = state.spacing
    du = np.gradient(state.u, h, edge_order=2)
    third = np.abs(np.diff(state.u, n=3))
    m3 = float(np.max(third)) / h ** 3 if third.size else 0.0
    tol = 10.0 * h * h * max(m3, 1.0)
    worst = float(np.max(np.abs(state.q - du)))
    if worst > tol:
        raise ConsistencyError(
            f"q disagrees with differences of u: max gap {worst:.3e} > {tol:.3e}"
        )


def characteristic_speeds(p, q, min_disc_floor=1e-6):
    disc = 1.0 - p * p + q * q
    worst = float(np.min(disc))
    if worst <= min_disc_floor:
        raise DegeneracyError(
            f"evolution left the hyperbolic regime: min discriminant "
            f"{worst:.3e} <= floor {min_disc_floor:.1e}"
        )
    root = np.sqrt(disc)
    denom = 1.0 + q * q
    return (-p * q - root) / denom, (-p * q + root) / denom


def _mirrored(arr, parity):
    """Prepend two ghost nodes reflected across r = 0."""
    return np.concatenate([parity * arr[2:0:-1], arr])


def _ghosted(f, parity_left):
    """Extend by one ghost per side: parity mirror or quartic extrapolation.

    A free excision edge has no boundary data by design, so the ghost can
    only extrapolate.  The nodes within reach of the edge stencils carry an
    irreducible error layer for it (their exact values depend on exterior
    data the window never held); the layer rides the shrinking edge and
    decays into the interior, and its amplitude falls fast with the
    extrapolation degree.  Low-degree ghosts make it large enough to drag
    the excision edges measurably inward, so spend the extra degree.
    """
    if f.size >= 5:
        tail = (5.0, -10.0, 10.0, -5.0, 1.0)
    elif f.size == 4:
        tail = (4.0, -6.0, 4.0, -1.0)
    else:
        tail = (3.0, -3.0, 1.0)
    gl = sum(c * f[i] for i, c in enumerate(tail))
    if parity_left is not None:
        gl = parity_left * f[1]
    gr = sum(c * f[-1 - i] for i, c in enumerate(tail))
    return np.concatenate([[gl], f, [gr]])


def _first_derivative(f, h, parity_left):
    fe = _ghosted(f, parity_left)
    return (fe[2:] - fe[:-2]) / (2.0 * h)


def _rhs(equation, xs, u, p, q, h, sigma):
    axis = equation is EquationId.RADIAL_MEMBRANE and xs[0] == 0.0
    dp = _first_derivative(p, h, +1.0 if axis else None)
    dq = _first_derivative(q, h, -1.0 if axis else None)
    denom = 1.0 + q * q
    pdot = ((1.0 - p * p) * dq + 2.0 * p * q * dp) / denom
    if equation is EquationId.RADIAL_MEMBRANE:
        ratio = np.empty_like(q)
        nz = slice(1, None) if axis else slice(None)
        ratio[nz] = q[nz] / xs[nz]
        if axis:
            ratio[0] = dq[0]  # q/r -> q_r at the axis
        pdot = pdot + ratio * (1.0 - p * p + q * q) / denom
    qdot = dp.copy()
    udot = p.copy()
    if sigma > 0.0 and u.size >= 5:
        scale = sigma / (16.0 * h)
        for f, fdot, parity in ((p, pdot, 1.0), (q, qdot, -1.0)):
            delta4 = f[:-4] - 4.0 * f[1:-3] + 6.0 * f[2:-2] - 4.0 * f[3:-1] + f[4:]
            fdot[2:-2] -= scale * delta4
            # the excision edges need damping most: close the stencil with
            # the end-anchored difference, or ghosts across the axis
            if axis:
                fe = _mirrored(f, parity)
                fdot[0] -= scale * (fe[0] - 4 * fe[1] + 6 * fe[2] - 4 * fe[3] + fe[4])
                fdot[1] -= scale * (fe[1] - 4 * fe[2] + 6 * fe[3] - 4 * fe[4] + fe[5])
            else:
                fdot[0] -= scale * delta4[0]
                fdot[1] -= scale * delta4[0]
            fdot[-1] -= scale * delta4[-1]
            fdot[-2] -= scale * delta4[-1]
    return udot, pdot, qdot


def _quadratic_tail(f0, f1, f2, d):
    """Value d spacings outside the end node of an evenly spaced triple."""
    return f0 + d * (1.5 * f0 - 2.0 * f1 + 0.5 * f2) + 0.5 * d * d * (f0 - 2.0 * f1 + f2)


def _edge_offset(n_nodes):
    """How far inside the window to sample speeds for the edge update.

    The outermost nodes sit in the edge error layer, so speeds read there
    are biased; the edge trajectory amplifies any bias, and a biased edge
    loses the window well before the true domain of dependence closes.
    Sample past the layer when the window affords it.
    """
    return max(0, min(3, (n_nodes - 6) // 2))


def _incoming_left(lo_speed, hi_speed, xs, x_edge, h):
    """Rightward speed of exterior information at the left float edge.

    The speeds live on the nodes; the edge sits up to one spacing outside
    the outermost retained node.  Extrapolate quadratically from just
    inside the edge error layer: the tail must carry the curvature of the
    speed profile, a linear one biases the edge measurably.
    """
    k = _edge_offset(xs.size)
    d = (xs[k] - x_edge) / h
    lo = _quadratic_tail(lo_speed[k], lo_speed[k + 1], lo_speed[k + 2], d)
    hi = _quadratic_tail(hi_speed[k], hi_speed[k + 1], hi_speed[k + 2], d)
    return max(0.0, float(lo), float(hi))


def _incoming_right(lo_speed, hi_speed, xs, x_edge, h):
    k = _edge_offset(xs.size) + 1
    d = (x_edge - xs[-k]) / h
    lo = _quadratic_tail(lo_speed[-k], lo_speed[-k - 1], lo_speed[-k - 2], d)
    hi = _quadratic_tail(hi_speed[-k], hi_speed[-k - 1], hi_speed[-k - 2], d)
    return min(0.0, float(lo), float(hi))


def _center_series_value(equation, xs, q, h):
    """q at the origin for the string; the axis curvature u_rr for the membrane."""
    if equation is EquationId.RADIAL_MEMBRANE and xs[0] == 0.0:
        return float(q[1]) / h  # odd extension: (q1 - (-q1)) / 2h
    return float(q[int(np.argmin(np.abs(xs)))])


@dataclass
class EvolutionRun:
    """Diagnostics and final state of one excised run."""

    config: EvolutionConfig
    status: RunStatus
    times: np.ndarray
    sup_slope: np.ndarray
    center_series: np.ndarray
    momentum: np.ndarray
    invariant: np.ndarray
    min_disc: np.ndarray
    active_nodes: np.ndarray
    mass_scale: float
    final: EvolutionState
    n_steps: int

    @property
    def relative_momentum_drift(self) -> float:
        scale = self.mass_scale if self.mass_scale > 0.0 else 1.0
        return float(np.max(np.abs(self.invariant - self.invariant[0]))) / scale


def run_evolution(state: EvolutionState, config: EvolutionConfig) -> EvolutionRun:
    check_state(state, config.min_disc_floor)
    track_momentum = config.equation is EquationId.BORN_INFELD
    axis_pinned = (
        config.equation is EquationId.RADIAL_MEMBRANE and state.xs[0] == 0.0
    )

    t = state.t
    xs, u, p, q = state.xs, state.u.copy(), state.p.copy(), state.q.copy()
    h = state.spacing
    left_edge = float(xs[0])
    right_edge = float(xs[-1])

    times = [t]
    sups = [float(np.max(np.abs(q)))]
    center = [_center_series_value(config.equation, xs, q, h)]
    min_discs = [float(np.min(1.0 - p * p + q * q))]
    counts = [xs.size]
    flux_acc = 0.0
    strip_acc = 0.0
    if track_momentum:
        m0 = momentum_density(p, q)
        mass_scale = float(trapezoid(np.abs(m0), xs))
        momenta = [float(trapezoid(m0, xs))]
        invariants = [momenta[0]]
    else:
        mass_scale = 0.0
        momenta = [0.0]
        invariants = [0.0]
    n_steps = 0
    status = RunStatus.COMPLETED

    def rhs(_, y):
        uu, pp, qq = y
        du, dp, dq = _rhs(config.equation, xs, uu, pp, qq, h, config.dissipation)
        return np.stack([du, dp, dq])

    while t < config.t_end - 1e-13:
        try:
            lo_speed, hi_speed = characteristic_speeds(p, q, config.min_disc_floor)
        except DegeneracyError:
            status = RunStatus.DEGENERACY_FLOOR
            break
        fastest = max(float(np.max(np.abs(lo_speed))), float(np.max(np.abs(hi_speed))))
        dt = config.cfl * h / max(fastest, 1e-30)
        if dt < config.dt_floor:
            raise StepFloorError(f"time step {dt:.3e} below floor at t = {t:.6f}")
        dt = min(dt, config.t_end - t)

        y_new = rk4_step(np.stack([u, p, q]), rhs, t, dt)
        u_new, p_new, q_new = y_new
        t_new = t + dt
        try:
            lo_new, hi_new = characteristic_speeds(p_new, q_new, config.min_disc_floor)
        except DegeneracyError:
            status = RunStatus.DEGENERACY_FLOOR
            break

        if track_momentum:
            f_old = momentum_flux(p, q)
            f_new = momentum_flux(p_new, q_new)
            flux_acc += 0.5 * dt * (
                float(f_old[-1] - f_old[0]) + float(f_new[-1] - f_new[0])
            )
            m_new = momentum_density(p_new, q_new)

        # advance the excision edges at the local incoming characteristic
        # speed (Heun in time): exterior data can never reach a kept node
        if not axis_pinned:
            v0 = _incoming_left(lo_speed, hi_speed, xs, left_edge, h)
            pred = left_edge + dt * v0
            v1 = _incoming_left(lo_new, hi_new, xs, pred, h)
            left_edge += 0.5 * dt * (v0 + v1)
        v0 = _incoming_right(lo_speed, hi_speed, xs, right_edge, h)
        pred = right_edge + dt * v0
        v1 = _incoming_right(lo_new, hi_new, xs, pred, h)
        right_edge += 0.5 * dt * (v0 + v1)

        keep = (xs >= left_edge - 1e-12) & (xs <= right_edge + 1e-12)
        kept = int(np.sum(keep))
        if kept < MIN_ACTIVE_NODES:
            status = RunStatus.DOMAIN_EXHAUSTED
            break
        lo = int(np.argmax(keep))
        hi = xs.size - int(np.argmax(keep[::-1]))  # one past the last kept node
        if track_momentum:
            if lo > 0:
                strip_acc += float(trapezoid(m_new[: lo + 1], xs[: lo + 1]))
            if hi < xs.size:
                strip_acc += float(trapezoid(m_new[hi - 1:], xs[hi - 1:]))

        t = t_new
        xs = xs[lo:hi]
        u, p, q = u_new[lo:hi], p_new[lo:hi], q_new[lo:hi]
        n_steps += 1

        times.append(t)
        sups.append(float(np.max(np.abs(q))))
        center.append(_center_series_value(config.equation, xs, q, h))
        min_discs.append(float(np.min(1.0 - p * p + q * q)))
        counts.append(xs.size)
        if track_momentum:
            mom = float(trapezoid(momentum_density(p, q), xs))
            momenta.append(mom)
            invariants.append(mom + strip_acc - flux_acc)
        else:
            momenta.append(0.0)
            invariants.append(0.0)

        if config.max_gradient is not None and sups[-1] >= config.max_gradient:
            status = RunStatus.GRADIENT_STOP
            break

    final = EvolutionState(t=t, xs=xs, u=u, p=p, q=q, spacing=h)
    return EvolutionRun(
        config=config,
        status=status,
        times=np.array(times),
        sup_slope=np.array(sups),
        center_series=np.array(center),
        momentum=np.array(momenta),
        invariant=np.array(invariants),
        min_disc=np.array(min_discs),
        active_nodes=np.array(counts),
        mass_scale=mass_scale,
        final=final,
        n_steps=n_steps,
    )


def sup_error_against(run: EvolutionRun, sol: ClosedFormSolution) -> float:
    """Sup norm of u - exact over the surviving nodes at the final time."""
    final = run.final
    exact = evaluate_jet(sol, (final.t, final.xs)).value
    return float(np.max(np.abs(final.u - exact)))


@dataclass(frozen=True)
class BlowupFit:
    exponent: float
    amplitude: float
    fit: FitResult
    window: tuple

    def to_json_dict(self):
        return {
            "exponent": self.exponent,
            "amplitude": self.amplitude,
            "r_squared": self.fit.r_squared,
            "n_points": self.fit.n_points,
            "window": list(self.window),
        }


def fit_blowup_series(times, values, blowup_time, window) -> BlowupFit:
    """Fit values ~ amplitude * (blowup_time - t)^(-exponent) over a window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    if float(np.max(times, initial=-math.inf)) >= blowup_time:
        raise DomainError("all sample times must precede the blow-up time")
    mask = (times >= lo) & (times <= hi)
    if int(np.sum(mask)) < 2:
        raise ArityError("fit window contains fewer than 2 samples")
    gaps = 1.0 / (blowup_time - times[mask])
    fit = log_log_fit(gaps, np.abs(values[mask]))
    return BlowupFit(
        exponent=fit.slope,
        amplitude=math.exp(fit.intercept),
        fit=fit,
        window=(lo, hi),
    )


def fit_blowup_rate(run: EvolutionRun, t_window) -> BlowupFit:
    """Blow-up fit of a run's center series.

    The window is intersected with the times the run actually reached; an
    exhausted run contributes whatever samples it collected.
    """
    return fit_blowup_series(
        run.times, run.center_series, run.config.blowup_time, t_window
    )
