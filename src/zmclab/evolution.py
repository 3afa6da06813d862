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
from functools import reduce
from operator import add, mul

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

# ghost weights of the polynomial through the last m nodes, m = 3, 4, 5
_GHOST_TAILS = {
    m: tuple((-1) ** i * math.comb(m, i + 1) for i in range(m)) for m in (3, 4, 5)
}


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
        for name in ("dissipation", "min_disc_floor", "dt_floor"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise DomainError(f"{name} must be finite and nonnegative, got {value}")
        if self.max_gradient is not None and not 0.0 < self.max_gradient < math.inf:
            raise DomainError(
                f"max_gradient must be finite and positive, got {self.max_gradient}"
            )


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


def check_state(state: EvolutionState, min_disc_floor):
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


def characteristic_speeds(p, q, min_disc_floor):
    """Both characteristic speeds and the discriminant 1 - p^2 + q^2."""
    disc = 1.0 - p * p + q * q
    worst = float(disc.min())
    if worst <= min_disc_floor:
        raise DegeneracyError(
            f"evolution left the hyperbolic regime: min discriminant "
            f"{worst:.3e} <= floor {min_disc_floor:.1e}"
        )
    root = np.sqrt(disc)
    denom = 1.0 + q * q
    return (-p * q - root) / denom, (-p * q + root) / denom, disc


def _ghosts(f, parity_left):
    """The values extending f by one node per side: parity mirror (left
    only) or quartic extrapolation.

    A free excision edge has no boundary data by design, so the ghost can
    only extrapolate.  The nodes within reach of the edge stencils carry an
    irreducible error layer for it (their exact values depend on exterior
    data the window never held); the layer rides the shrinking edge and
    decays into the interior, and its amplitude falls fast with the
    extrapolation degree.  Low-degree ghosts make it large enough to drag
    the excision edges measurably inward, so spend the extra degree.
    """
    tail = _GHOST_TAILS[min(f.size, 5)]
    head = f[:len(tail)].tolist()
    # summed in order from 0.0; builtin sum() compensates Python floats
    # from 3.12 on, which would move the last bit
    left = (reduce(add, map(mul, tail, head), 0.0) if parity_left is None
            else parity_left * head[1])
    return left, reduce(add, map(mul, tail, f[:-len(tail) - 1:-1].tolist()), 0.0)


def _rhs(equation, xs, u, p, q, h, sigma):
    """(udot, pdot, qdot) as the rows of one (3, n) array.

    A numpy call costs about a microsecond here whatever the array length,
    so p and q share one ghosted buffer and each stencil is one flattened
    pass over it (entries straddling the two rows are never read); every
    node gets tests/rhs_reference.py's operations in the same order.
    """
    axis = equation is EquationId.RADIAL_MEMBRANE and xs[0] == 0.0
    n = u.size
    # rows p and q with one ghost per side; at the axis a second parity
    # ghost on the left lets the dissipation stencil reach the axis nodes
    k = 2 if axis else 1
    g = np.empty((2, n + k + 1))
    for row, f, parity in ((g[0], p, 1.0), (g[1], q, -1.0)):
        row[k:-1] = f
        row[k - 1], row[-1] = _ghosts(f, parity if axis else None)
        if axis:
            row[0] = parity * f[2]
    flat, w = g.ravel(), n + k + 1
    dfdx = (flat[k + 1:] - flat[k - 1:-2]) / (2.0 * h)
    dp, dq = dfdx[:n], dfdx[w:w + n]
    pp, qq = p * p, q * q
    denom = 1.0 + qq
    out = np.empty((3, n))
    out[0], out[2] = p, dp
    _, pdot, qdot = out
    np.multiply(1.0 - pp, dq, out=pdot)
    pdot += 2.0 * p * q * dp
    pdot /= denom
    if equation is EquationId.RADIAL_MEMBRANE:
        ratio = np.empty_like(q)
        nz = slice(1, None) if axis else slice(None)
        ratio[nz] = q[nz] / xs[nz]
        if axis:
            ratio[0] = dq[0]  # q/r -> q_r at the axis
        pdot += ratio * (1.0 - pp + qq) / denom
    if sigma > 0.0 and n >= 5:
        f = flat[2 - k:]  # each row from the first node the stencil reads
        delta4 = f[:-4] - 4.0 * f[1:-3] + 6.0 * f[2:-2] - 4.0 * f[3:-1] + f[4:]
        delta4 *= sigma / (16.0 * h)
        m = n + 2 * k - 6  # stencil values per row
        for fdot, d in ((pdot, delta4[:m]), (qdot, delta4[w:w + m])):
            # the excision edges need damping most: the nodes the stencil
            # cannot centre on take its end values
            fdot[-2 - m:-2] -= d
            fdot[:-2 - m] -= d[0]
            fdot[-2:] -= d[-1]
    return out


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


def _incoming_speed(speeds, x_node, x_edge, h):
    """Rightward speed of exterior information at the left float edge.

    speeds holds both characteristic speeds on the three nodes from x_node
    inward, just inside the edge error layer; the edge sits up to one
    spacing outside the outermost retained node.  Extrapolate
    quadratically: the tail must carry the curvature of the speed profile,
    a linear one biases the edge measurably.
    """
    d = (x_node - x_edge) / h
    lo, hi = (_quadratic_tail(*s.tolist(), d) for s in speeds)
    return max(0.0, lo, hi)


def _advance_edge(speeds, speeds_new, x_node, x_edge, h, dt):
    """Heun step of the left float edge at the incoming characteristic speed.

    The right edge takes the same step on the mirrored nodes, which is
    exact in floating point: negation commutes with every operation here.
    """
    v0 = _incoming_speed(speeds, x_node, x_edge, h)
    v1 = _incoming_speed(speeds_new, x_node, x_edge + dt * v0, h)
    return x_edge + 0.5 * dt * (v0 + v1)


def _center_series_value(equation, xs, q, h):
    """q at the origin for the string; the axis curvature u_rr for the membrane."""
    if equation is EquationId.RADIAL_MEMBRANE and xs[0] == 0.0:
        return float(q[1]) / h  # odd extension: (q1 - (-q1)) / 2h
    return float(q[int(np.abs(xs).argmin())])


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
    xs, y, h = state.xs, np.stack([state.u, state.p, state.q]), state.spacing
    left_edge = float(xs[0])
    right_edge = float(xs[-1])
    # per-node quantities are computed once, on the full post-step arrays,
    # and their kept slices serve as the next step's old values
    *speeds, disc = characteristic_speeds(state.p, state.q, config.min_disc_floor)
    if track_momentum:
        flux = momentum_flux(state.p, state.q)
        m = momentum_density(state.p, state.q)
        mass_scale = float(trapezoid(np.abs(m), xs))
        momentum = float(trapezoid(m, xs))
    else:
        mass_scale = momentum = 0.0
    flux_acc = 0.0
    strip_acc = 0.0
    n_steps = 0
    status = RunStatus.COMPLETED
    rows = []

    def record(t, xs, q, momentum, invariant, disc):
        # one value per diagnostics field of EvolutionRun, in field order
        rows.append((
            t,
            float(np.abs(q).max()),
            _center_series_value(config.equation, xs, q, h),
            momentum,
            invariant,
            float(disc.min()),
            xs.size,
        ))

    def rhs(_, y):
        return _rhs(config.equation, xs, *y, h, config.dissipation)

    record(t, xs, state.q, momentum, momentum, disc)
    while t < config.t_end - 1e-13:
        fastest = max(float(np.abs(s).max()) for s in speeds)
        dt = config.cfl * h / max(fastest, 1e-30)
        if dt < config.dt_floor:
            raise StepFloorError(f"time step {dt:.3e} below floor at t = {t:.6f}")
        dt = min(dt, config.t_end - t)

        y_new = rk4_step(y, rhs, t, dt)
        _, p_new, q_new = y_new
        try:
            *speeds_new, disc = characteristic_speeds(p_new, q_new, config.min_disc_floor)
        except DegeneracyError:
            status = RunStatus.DEGENERACY_FLOOR
            break

        if track_momentum:
            flux_new = momentum_flux(p_new, q_new)
            flux_acc += 0.5 * dt * (
                float(flux[-1] - flux[0]) + float(flux_new[-1] - flux_new[0])
            )
            m = momentum_density(p_new, q_new)

        # advance the excision edges at the local incoming characteristic
        # speed (Heun in time): exterior data can never reach a kept node
        k = _edge_offset(xs.size)
        if not axis_pinned:
            near = [[s[k:k + 3] for s in pair] for pair in (speeds, speeds_new)]
            left_edge = _advance_edge(*near, xs[k], left_edge, h, dt)
        far = slice(xs.size - 3 - k, xs.size - k)
        mirrored = [(-hi[far][::-1], -lo[far][::-1]) for lo, hi in (speeds, speeds_new)]
        right_edge = -_advance_edge(*mirrored, -xs[-1 - k], -right_edge, h, dt)

        # xs increases, so the kept nodes are one run [lo, hi)
        lo = int(xs.searchsorted(left_edge - 1e-12))
        hi = int(xs.searchsorted(right_edge + 1e-12, side="right"))
        if hi - lo < MIN_ACTIVE_NODES:
            status = RunStatus.DOMAIN_EXHAUSTED
            break
        if track_momentum:
            if lo > 0:
                strip_acc += float(trapezoid(m[: lo + 1], xs[: lo + 1]))
            if hi < xs.size:
                strip_acc += float(trapezoid(m[hi - 1:], xs[hi - 1:]))
            flux = flux_new[lo:hi]
            momentum = float(trapezoid(m[lo:hi], xs[lo:hi]))

        t += dt
        xs = xs[lo:hi]
        y = y_new[:, lo:hi]
        speeds = [s[lo:hi] for s in speeds_new]
        n_steps += 1
        record(t, xs, y[2], momentum, momentum + strip_acc - flux_acc, disc[lo:hi])

        sup_slope = rows[-1][1]
        if config.max_gradient is not None and sup_slope >= config.max_gradient:
            status = RunStatus.GRADIENT_STOP
            break

    u, p, q = y
    final = EvolutionState(t=t, xs=xs, u=u, p=p, q=q, spacing=h)
    series = map(np.array, zip(*rows))
    return EvolutionRun(config, status, *series, mass_scale, final, n_steps)


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
