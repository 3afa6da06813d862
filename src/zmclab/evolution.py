"""Time evolution of the string and radial-membrane equations.

The second-order equations are run as first-order systems in
(u, p, q) = (graph, time slope, space slope).  Space derivatives are
second-order finite differences (one-sided at the window edges), and time
stepping is RK4 under a CFL condition on the characteristic speeds.

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
    NonFiniteError,
)
from .numerics import (
    Grid1D,
    _check_stage_finite,
    double_range,
    log_log_fit,
    trapezoid_terms,
)
# rk4_step stays bound here for bench/selftest.py's binding test
from .numerics import rk4_step  # noqa: F401
from .residuals import EquationId

# smallest window the edge ghosts can still close over
MIN_ACTIVE_NODES = 3
# the method: dt = CFL * h / fastest speed, the floors on the discriminant
# 1 - p^2 + q^2 and on dt, and the largest initial slope |p| or |q|: the
# right-hand side's 2pq p_x is then below 2 MAX_SLOPE^3 / h = 1e162; the
# time step carries almost none of the error, but CFL = 2 resonates with
# the grid's odd-even mode (a 1e-8 checkerboard in p grows 900-fold by
# t = 0.5 at n = 400, against 3.2-fold at CFL = 1)
CFL = 1.0
MIN_DISC_FLOOR = 1e-6
DT_FLOOR = 1e-12
MAX_SLOPE = 1e50
_MEMBRANE = EquationId.RADIAL_MEMBRANE  # read per call: an Enum lookup is 0.1 us on 3.11
# the equations that are flows, the ones a run can evolve
FLOWS = (EquationId.BORN_INFELD, EquationId.RADIAL_MEMBRANE)


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    DOMAIN_EXHAUSTED = "domain-exhausted"
    DEGENERACY_FLOOR = "degeneracy-floor"


@dataclass(frozen=True)
class EvolutionConfig:
    blowup_time: float
    t_end: float
    equation: EquationId = EquationId.BORN_INFELD

    def __post_init__(self):
        if self.equation not in FLOWS:
            raise DomainError(f"cannot evolve {self.equation.value}: not a flow")
        if not 0.0 < self.t_end < self.blowup_time:
            raise DomainError(
                f"need 0 < t_end < blowup_time, got t_end={self.t_end}, "
                f"blowup_time={self.blowup_time}"
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
    with double_range(f"initial data at k={sol.k}, T={sol.T} (slopes <= {MAX_SLOPE:g})"):
        jet = evaluate_jet(sol, (t0, xs))
    return EvolutionState(
        t=t0, xs=xs, u=jet.value, p=jet.d1[0], q=jet.d1[1], spacing=grid.spacing
    )


def check_state(state: EvolutionState):
    """Refuse initial data that is not finite, too steep or internally
    inconsistent, or a spacing whose steps would fall below DT_FLOOR (the
    speeds are at most 1, so each dt >= CFL * h); run_evolution leaves the
    discriminant floor to characteristic_speeds.

    The stored q array must agree with differences of u to the accuracy a
    second-order stencil can deliver, bounded through the third differences
    of the data itself.
    """
    h = state.spacing
    if CFL * h < DT_FLOOR:
        raise DomainError(f"need spacing >= DT_FLOOR / CFL = {DT_FLOOR / CFL:g}, got {h:.3e}")
    for name in ("u", "p", "q"):
        f = getattr(state, name)
        finite = np.isfinite(f)
        if not finite.all():
            i = int(finite.argmin())
            raise NonFiniteError(f"initial data not finite: {name}[{i}] = {f[i]}")
    steepest = max(float(np.max(np.abs(state.p))), float(np.max(np.abs(state.q))))
    if steepest > MAX_SLOPE:
        raise DomainError(f"need slopes max(|p|, |q|) <= {MAX_SLOPE:g}, got {steepest:.3e}")
    du = np.gradient(state.u, h, edge_order=2)
    third = np.abs(np.diff(state.u, n=3))
    m3 = float(np.max(third)) / h ** 3 if third.size else 0.0
    tol = 10.0 * h * h * max(m3, 1.0)
    worst = float(np.max(np.abs(state.q - du)))
    if worst > tol:
        raise ConsistencyError(
            f"q disagrees with differences of u: max gap {worst:.3e} > {tol:.3e}"
        )


def characteristic_speeds(p, q):
    """Both characteristic speeds as the rows (lambda-, lambda+) of one
    (2, n) array, the discriminant 1 - p^2 + q^2 and its root
    W = sqrt(1 - p^2 + q^2).

    The evolution forms the discriminant, its floor and W here only, the
    initial data's included: the momentum density and flux divide by the
    root returned with the speeds.  At or below MIN_DISC_FLOOR the
    discriminant raises DegeneracyError; a non-finite one raises
    NonFiniteError, as a NaN fails every comparison with the floor and a
    +inf (from an infinite q) shows only in the maximum.
    """
    qq = q * q
    disc = 1.0 - p * p
    disc += qq
    worst, top = float(np.minimum.reduce(disc)), float(np.maximum.reduce(disc))
    if not (math.isfinite(worst) and math.isfinite(top)):
        raise NonFiniteError(
            f"non-finite discriminant: min(1 - p^2 + q^2) = {worst}, max = {top}"
        )
    if worst <= MIN_DISC_FLOOR:
        raise DegeneracyError(
            f"not hyperbolic: min(1 - p^2 + q^2) = {worst:.3e} "
            f"<= floor {MIN_DISC_FLOOR:.1e}"
        )
    root = np.sqrt(disc)
    qq += 1.0  # the denominator 1 + q^2
    speeds = np.empty((2, p.size))
    slow, fast = speeds[0], speeds[1]
    np.multiply(p, q, out=fast)
    np.negative(fast, out=fast)  # -(pq): the bits and zero signs of (-p)*q
    np.subtract(fast, root, out=slow)  # -(pq + W) would flip a zero speed's sign
    fast += root
    slow /= qq
    fast /= qq
    return speeds, disc, root


def _ghosts(rows, axis):
    """The ghost one node past the first value of each row of rows = (p head,
    q head, p end, q end): a window's first and last min(n, 4) values of p
    and q as lists of floats, an end read from the last node inward.

    Each ghost continues the polynomial through its row's 3 or 4 values.
    The cubic is summed in difference form, v0 + 3 (v0 - v1) - 3 (v1 - v2)
    + (v2 - v3), so a constant row extrapolates exactly; its weights
    4, -6, 4, -1 summed in order leave ulps on a constant that is not
    representable.  The quadratic's weights are summed in order from 0.0:
    builtin sum() compensates Python floats from 3.12 on, which would move
    the last bit.  The weights are floats, as exact as ints but without
    the interpreter's slower mixed-type multiply.  On the axis the left
    ghosts mirror the first node off it instead, p even and q odd.

    A free excision edge has no boundary data by design, so the ghost can
    only extrapolate.  The nodes within reach of the edge stencils carry an
    irreducible error layer for it (their exact values depend on exterior
    data the window never held); the layer rides the shrinking edge and
    decays into the interior.  A higher degree does not shrink it further:
    on the log family's |x| <= 0.5 data the cubic's and the quartic's runs
    stop at the same time to 6 digits at n = 200 to 1600, and the cubic's
    sup errors at t = 0.8 are slightly smaller.  The quartic amplifies the
    grid scale more as n grows, which the cubic does not: a 1e-8
    checkerboard added to p changes the fields at t = 0.5 by 18, 27 and 45
    times its size at n = 400, 800 and 1600 under the quartic, and by 3.2,
    4.0 and 5.5 times under the cubic.
    """
    if len(rows[0]) == 4:
        ghosts = [v0 + 3.0 * (v0 - v1) - 3.0 * (v1 - v2) + (v2 - v3)
                  for v0, v1, v2, v3 in rows]
    else:
        ghosts = [0.0 + 3.0 * v0 - 3.0 * v1 + v2 for v0, v1, v2 in rows]
    if axis:
        ghosts[0], ghosts[1] = rows[0][1], -rows[1][1]
    return ghosts


class _Workspace:
    """The buffers of one RK4 step on a window of n nodes, and every view of
    them that the step's stages read, built once per step.

    y is the (3, n) stage state (u, p, q), and f its p and q rows as one
    flat run. slopes holds the two (4, n) slope buffers, each as the views
    (k, c, d, udot, pdot, inner): k is the first three rows, the stage's
    (udot, pdot, qdot); c is rows 0 and 1 as one flat run, the factors of
    p_t; d is rows 2 and 3 as one flat run, the centred differences
    [p_x | q_x], and inner is d without its two end entries. A membrane
    window adds disc and ratio, and quotient = (q, r, ratio) at the nodes
    off the axis, the arguments of ratio's division.
    """

    def __init__(self, equation, xs, h):
        n = xs.size
        self.membrane = equation is _MEMBRANE
        self.axis = self.membrane and xs[0] == 0.0
        self.n, self.scale = n, 2.0 * h
        self.y = y = np.empty((3, n))
        f, p, q = y[1:].ravel(), y[1], y[2]
        self.f, self.p, self.q = f, p, q
        self.upper, self.lower = f[2:], f[:-2]
        m = n if n < 4 else 4
        self.ends = y[1:, :m], y[1:, :-m - 1:-1]
        self.sq = sq = np.empty(2 * n)
        self.psq, self.qq = sq[:n], sq[n:]
        self.slopes = []
        for _ in range(2):
            k = np.empty((4, n))
            d = k[2:].ravel()
            self.slopes.append((k[:3], k[:2].ravel(), d, k[0], k[1], d[1:-1]))
        if self.membrane:
            self.disc, self.ratio = np.empty(n), np.empty(n)
            nz = slice(1, None) if self.axis else slice(None)
            self.quotient = q[nz], xs[nz], self.ratio[nz]

    def rates(self, slope):
        """d/dt of the stage state y into the slope buffer slope (one of
        slopes), as its first three rows k; returns k.

        A numpy call costs about a microsecond here, and a strided 2-D one
        twice that, so each pass runs once over p and q as one flat run of
        2n values (entries straddling the two rows are overwritten before
        they are read): the centred differences d = [p_x | q_x], the
        squares [p^2 | q^2], and the product [2pq | 1 - p^2] * d of both
        terms of p_t, which then takes one sum and one division. The ghosts
        of the edge differences, the values that reach past the window, are
        _ghosts' sums of Python floats. Every node gets
        tests/rhs_reference.py's operations in the same order.
        """
        k, c, d, udot, pdot, inner = slope
        n, f, p, q, sq, qq = self.n, self.f, self.p, self.q, self.sq, self.qq
        np.subtract(self.upper, self.lower, out=inner)
        head, tail = self.ends
        rows = head.tolist() + tail.tolist()
        (hp, hq, ep, eq), (lp, lq, rp, rq) = rows, _ghosts(rows, self.axis)
        d[0], d[n - 1], d[n], d[-1] = hp[1] - lp, rp - ep[1], hq[1] - lq, rq - eq[1]
        d /= self.scale
        np.multiply(f, f, out=sq)
        np.add(p, p, out=udot)  # 2p, as 2.0 * p to the bit
        udot *= q
        np.subtract(1.0, self.psq, out=pdot)
        if self.membrane:
            # 1 - p^2 + q^2, before the product overwrites 1 - p^2
            disc, ratio = self.disc, self.ratio
            np.add(pdot, qq, out=disc)
        qq += 1.0  # from here on the denominator 1 + q^2
        c *= d
        np.add(udot, pdot, out=pdot)
        pdot /= qq
        if self.membrane:
            np.divide(*self.quotient)
            if self.axis:
                ratio[0] = d[n]  # q/r -> q_r at the axis
            ratio *= disc
            ratio /= qq
            pdot += ratio
        udot[:] = p
        return k


def _rk4_step(equation, xs, state, h, t, dt, center):
    """One classical RK4 step of the (3, n) state, which may be a strided
    window of the previous step's; returns the new state, as a (3, n) view
    of a new buffer, and the four stage values of q_t at node center.

    The stages share one _Workspace. Each stage state is c * k formed in
    the stage buffer, then += state (both products and sums commute
    exactly); the first stage slope buffer takes k1 and keeps the sum
    ((2 k2 + k1) + 2 k3) + k4, and the second takes k2, k3 and k4 in turn,
    k2 and k3 doubled in place once the next stage state is formed.
    A stage is checked finite by one np.vdot (a sum of squares is finite
    only if every entry is, and np.vdot raises no overflow warning); only a
    sum that is not finite checks entry by entry, which names the stage,
    its t and the (row, node) in NonFiniteError, and passes a finite stage
    whose squares overflow.
    """
    # a run passes a strided window, which each of the step's four adds
    # would read at about twice the cost of one contiguous copy
    state = np.ascontiguousarray(state)
    work = _Workspace(equation, xs, h)
    y, (first, later) = work.y, work.slopes
    half = 0.5 * dt

    def stage(slope, name, tau):
        k = work.rates(slope)
        if not math.isfinite(np.vdot(k, k)):
            _check_stage_finite(k, name, tau)
        return k, float(k[2, center])

    y[...] = state
    total, s1 = stage(first, "stage 1", t)
    np.multiply(total, half, out=y)
    y += state
    k, s2 = stage(later, "stage 2", t + half)
    np.multiply(k, half, out=y)
    y += state
    k *= 2.0
    total += k
    k, s3 = stage(later, "stage 3", t + half)
    np.multiply(k, dt, out=y)
    y += state
    k *= 2.0
    total += k
    k, s4 = stage(later, "stage 4", t + dt)
    total += k
    total *= dt / 6.0
    total += state
    return total, (s1, s2, s3, s4)


def _quadratic_tail(row, d):
    """Value d spacings outside the end node of an evenly spaced triple."""
    f0, f1, f2 = row
    return f0 + d * (1.5 * f0 - 2.0 * f1 + 0.5 * f2) + 0.5 * d * d * (f0 - 2.0 * f1 + f2)


def _edge_offset(n_nodes):
    """How far inside the window to sample speeds for the edge update.

    The outermost nodes sit in the edge error layer, so speeds read there
    are biased; the edge trajectory amplifies any bias, and a biased edge
    loses the window well before the true domain of dependence closes.
    Sample past the layer when the window affords it.
    """
    return max(0, min(3, (n_nodes - 6) // 2))


def _advance_edge(edge, nodes, xs, speeds, speeds_new, h, dt):
    """Heun step of a float edge at the incoming characteristic speed.

    speeds and speeds_new are characteristic_speeds' (2, n) blocks at the
    start and the end of the step; nodes slices the three nodes from the
    edge inward (step 1 from the start on the left, -1 from the end on the
    right), just inside the edge error layer; the edge sits up to one
    spacing outside the outermost retained node.  Both speeds are
    extrapolated to the edge quadratically (the tail must carry the
    curvature of the speed profile, a linear one biases the edge
    measurably).  Exterior information comes in at the fastest rightward
    speed at the left edge and the fastest leftward one at the right; the
    right edge's rule is the left's on the mirrored window, and negation
    is exact, so a mirrored run moves its edges to the mirrored bits.
    """
    side = nodes.step
    incoming = max if side > 0 else min
    x_node = float(xs[nodes.start])
    slow, fast = speeds[:, nodes].tolist()
    d = side * (x_node - edge) / h
    v0 = incoming(0.0, _quadratic_tail(slow, d), _quadratic_tail(fast, d))
    slow, fast = speeds_new[:, nodes].tolist()
    d = side * (x_node - (edge + dt * v0)) / h
    v1 = incoming(0.0, _quadratic_tail(slow, d), _quadratic_tail(fast, d))
    return edge + 0.5 * dt * (v0 + v1)


@dataclass
class EvolutionRun:
    """Diagnostics and final state of one excised run.

    The diagnostics hold one entry per step end and one for the initial
    data; mid_times and mid_center hold the centre series at each step's
    midpoint, by RK4's continuous extension.
    """

    status: RunStatus
    times: np.ndarray
    sup_slope: np.ndarray
    center_series: np.ndarray
    momentum: np.ndarray
    invariant: np.ndarray
    min_disc: np.ndarray
    active_nodes: np.ndarray
    mid_times: np.ndarray
    mid_center: np.ndarray
    mass_scale: float
    final: EvolutionState
    n_steps: int

    @property
    def relative_momentum_drift(self) -> float:
        scale = self.mass_scale if self.mass_scale > 0.0 else 1.0
        return float(np.max(np.abs(self.invariant - self.invariant[0]))) / scale

    @property
    def center_samples(self):
        """(times, values) of the centre series at the initial time, each
        step's midpoint and each step end, in time order."""
        times = np.empty(self.times.size + self.mid_times.size)
        values = np.empty_like(times)
        times[::2], times[1::2] = self.times, self.mid_times
        values[::2], values[1::2] = self.center_series, self.mid_center
        return times, values


def run_evolution(state: EvolutionState, config: EvolutionConfig) -> EvolutionRun:
    if not state.t < config.t_end:
        raise DomainError(f"need t0 < t_end, got t0 = {state.t}, t_end = {config.t_end}")
    radial = config.equation is EquationId.RADIAL_MEMBRANE
    if radial and state.xs[0] < 0.0:
        raise DomainError(f"a radial window needs lo >= 0, got lo = {state.xs[0]}")
    check_state(state)
    # the initial floor; per-node quantities are computed once, on the full
    # post-step arrays, and their kept slices serve as the next step's old values
    speeds, disc, root = characteristic_speeds(state.p, state.q)
    track_momentum = config.equation is EquationId.BORN_INFELD
    axis_pinned = radial and state.xs[0] == 0.0

    t = state.t
    xs, y, h = state.xs, np.stack([state.u, state.p, state.q]), state.spacing
    # the window's node gaps for the trapezoid rule: slices of the grid's
    gaps = xs[1:] - xs[:-1]
    # the centre column: the first node nearest x = 0 (the window only
    # shrinks, so while it holds that node no earlier node is as near), and
    # on the axis the first node off it, where u_rr = (q1 - (-q1)) / 2h by
    # the odd extension (an axis window keeps lo = 0)
    center = 1 if axis_pinned else int(np.abs(xs).argmin())
    left_edge = float(xs[0])
    right_edge = float(xs[-1])
    if track_momentum:
        flux = momentum_flux(state.q, root)
        m = momentum_density(state.p, root)
        mass_scale = float(np.add.reduce(trapezoid_terms(np.abs(m), gaps)))
        momentum = float(np.add.reduce(trapezoid_terms(m, gaps)))
    else:
        mass_scale = momentum = 0.0
    flux_acc = 0.0
    strip_acc = 0.0
    n_steps = 0
    status = RunStatus.COMPLETED
    rows = []
    mid_times, mid_center = [], []

    def record(t, q, momentum, invariant, disc):
        # one value per diagnostics field of EvolutionRun, in field order;
        # the centre series is q at the origin for the string and the axis
        # curvature u_rr for the membrane
        rows.append((
            t,
            float(np.maximum.reduce(np.abs(q))),
            float(q[center]) / h if axis_pinned else float(q[center]),
            momentum,
            invariant,
            float(np.minimum.reduce(disc)),
            q.size,
        ))

    record(t, state.q, momentum, momentum, disc)
    while t < config.t_end - 1e-13:
        # lambda- <= lambda+ at every node: this is max(lambda+, -lambda-)
        fastest = float(np.maximum.reduce(np.abs(speeds), axis=None))
        dt = min(CFL * h / max(fastest, 1e-30), config.t_end - t)

        y_new, (k1, k2, k3, k4) = _rk4_step(config.equation, xs, y, h, t, dt, center)
        p_new, q_new = y_new[1], y_new[2]
        try:
            speeds_new, disc, root = characteristic_speeds(p_new, q_new)
        except DegeneracyError:
            status = RunStatus.DEGENERACY_FLOOR
            break

        if track_momentum:
            flux_new = momentum_flux(q_new, root)
            flux_acc += 0.5 * dt * (
                float(flux[-1] - flux[0]) + float(flux_new[-1] - flux_new[0])
            )
            m = momentum_density(p_new, root)

        # advance the excision edges at the local incoming characteristic
        # speed (Heun in time): exterior data can never reach a kept node
        k = _edge_offset(xs.size)
        step = (xs, speeds, speeds_new, h, dt)
        if not axis_pinned:
            left_edge = _advance_edge(left_edge, slice(k, k + 3, 1), *step)
        right_edge = _advance_edge(right_edge, slice(-1 - k, -4 - k, -1), *step)

        # xs increases, so the kept nodes are one run [lo, hi)
        lo = int(xs.searchsorted(left_edge - 1e-12))
        hi = int(xs.searchsorted(right_edge + 1e-12, side="right"))
        if hi - lo < MIN_ACTIVE_NODES:
            status = RunStatus.DOMAIN_EXHAUSTED
            break
        if track_momentum:
            # the dropped strips and the kept window integrate runs of one
            # pass of trapezoid terms
            terms = trapezoid_terms(m, gaps)
            if lo > 0:
                strip_acc += float(np.add.reduce(terms[:lo]))
            if hi < xs.size:
                strip_acc += float(np.add.reduce(terms[hi - 1:]))
            flux = flux_new[lo:hi]
            momentum = float(np.add.reduce(terms[lo:hi - 1]))

        # the centre at t + dt/2 by RK4's continuous extension (Hairer,
        # Norsett and Wanner, Solving ODEs I, II.6): b(1/2) = (5/24, 1/6,
        # 1/6, -1/24) on the stage slopes of the centre column
        mid = float(y[2, center]) + dt * (5.0 / 24.0 * k1 + (k2 + k3) / 6.0 - k4 / 24.0)
        mid_times.append(t + 0.5 * dt)
        mid_center.append(mid / h if axis_pinned else mid)

        t += dt
        xs, gaps = xs[lo:hi], gaps[lo:hi - 1]
        y = y_new[:, lo:hi]
        speeds = speeds_new[:, lo:hi]
        center -= lo
        if not 0 <= center < xs.size:
            center = int(np.abs(xs).argmin())
        n_steps += 1
        record(t, y[2], momentum, momentum + strip_acc - flux_acc, disc[lo:hi])

    u, p, q = y
    final = EvolutionState(t=t, xs=xs, u=u, p=p, q=q, spacing=h)
    series = map(np.array, zip(*rows))
    mids = np.array(mid_times), np.array(mid_center)
    return EvolutionRun(status, *series, *mids, mass_scale, final, n_steps)


@dataclass(frozen=True)
class BlowupFit:
    exponent: float
    amplitude: float
    r_squared: float
    n_points: int
    window: tuple


def fit_blowup_series(times, values, blowup_time, window) -> BlowupFit:
    """Fit values ~ amplitude * (blowup_time - t)^(-exponent) over the
    samples whose times lie in window (an exhausted run's, however few)."""
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
        r_squared=fit.r_squared,
        n_points=fit.n_points,
        window=(lo, hi),
    )
