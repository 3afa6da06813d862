"""PDE residual operators on 2-jets and residual sweeps.

Each equation tag selects one residual formula, evaluated term-by-term in the
expanded form, which stays regular on lightlike backgrounds (the sphere caps
are exactly lightlike, so only the expanded form can certify them).

Residual formulas are plain arithmetic on jet entries, so they work unchanged
on double-precision and double-double jets, at one point or at each point of
an array. A sweep evaluates one double-double jet over all of its sample
points and the residual formula once over that jet: a true solution's
residual then sits near 1e-32 times its largest term (1e-23 for the steepest
log family) instead of the double rounding floor, which for steep parameter
choices is all that separates "solution" from "not obviously a solution".

The certification policy lives here too: certify sweeps a family over its
sample set and judges it by its (equation, family) pairing, for `zmclab
verify`, the audit and the acceptance gate alike, each at its own grid size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closedform import ClosedFormSolution, Family, evaluate_jet_extended
from .errors import DomainError, RegularityError, SingularPointError
from .numerics import Jet2

EPS_DEGENERATE = 1e-10
RHO_MIN = 0.01  # innermost similarity radius of the backward-cone sampler
# the cone samplers' margin and outermost similarity radius in the audit and
# at verify's defaults
MARGIN = 0.02
RHO_MAX = 0.95


class EquationId(Enum):
    """Which PDE a residual is measured against."""

    BORN_INFELD = "born-infeld"
    RADIAL_MEMBRANE = "radial-membrane"
    SPACELIKE_GRAPH = "spacelike-graph"
    EIKONAL = "eikonal"


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    n_points: int
    max_abs: float
    rms: float
    worst_point: tuple[float, float]

    def __post_init__(self) -> None:
        if self.rms > self.max_abs * (1 + 1e-12) + 1e-300:
            raise DomainError(f"rms {self.rms} exceeds max_abs {self.max_abs}")

    def to_json_dict(self) -> dict:
        return {
            "equation": self.equation,
            "n_points": self.n_points,
            "max_abs": self.max_abs,
            "rms": self.rms,
            "worst_point": [self.worst_point[0], self.worst_point[1]],
        }


def residual_at(eq: EquationId, jet: Jet2, point) -> float:
    """LHS minus RHS of the selected equation, evaluated from the jet.

    Coordinate order inside the jet follows the producing family:
    (t, x) / (t, r) for the hyperbolic equations, (x, y) for the spacelike
    one. The radial membrane formula carries 1/r terms, so r = 0 is a
    singular-point error there (use residual_at_axis). point = (a, b) may
    hold arrays matching the jet's entries.
    """
    da, db = jet.d1
    daa, dab, dbb = jet.d2

    if eq is EquationId.BORN_INFELD:
        ut, ux, utt, utx, uxx = da, db, daa, dab, dbb
        return utt * (1 + ux * ux) - uxx * (1 - ut * ut) - 2 * ut * ux * utx

    if eq is EquationId.RADIAL_MEMBRANE:
        r = point[1]
        if np.any(r == 0):
            raise SingularPointError(
                "the radial membrane residual has 1/r terms; use residual_at_axis at r=0"
            )
        ut, ur, utt, utr, urr = da, db, daa, dab, dbb
        return (
            utt
            - urr
            - ur / r
            + utt * ur * ur
            + urr * ut * ut
            - 2 * ut * ur * utr
            + (ur * ut * ut) / r
            - (ur * ur * ur) / r
        )

    if eq is EquationId.SPACELIKE_GRAPH:
        ux, uy, uxx, uxy, uyy = da, db, daa, dab, dbb
        return uxx * (1 - uy * uy) + uyy * (1 - ux * ux) + 2 * ux * uy * uxy

    if eq is EquationId.EIKONAL:
        # first coordinate treated as time: 1 - u_t^2 + u_spatial^2
        return 1 - da * da + db * db

    raise DomainError(f"unknown equation id {eq!r}")


def residual_at_axis(jet: Jet2) -> float:
    """Radial membrane residual in the r -> 0 limit for even regular fields.

    With u_r(t,0) = 0 the singular terms have finite limits
    (u_r/r -> u_rr, u_r u_t^2 / r -> u_rr u_t^2, u_r^3 / r -> 0) and the
    residual collapses to u_tt - 2 u_rr (1 - u_t^2).
    """
    ut, ur = jet.d1
    utt, _, urr = jet.d2
    if ur != 0:
        raise RegularityError(
            f"axis regularity violated: u_r(t,0) = {ur}, expected 0 for an even field"
        )
    return utt - 2 * urr * (1 - ut * ut)


# ---------------------------------------------------------------------------
# domain samplers


def lightcone_interior_points(
    T: float, n_time: int, n_space: int, margin: float
) -> np.ndarray:
    """Tensor-style sampling of the interior lightcone: n_time time slices,
    each carrying n_space points spanning |x| <= T - t - margin."""
    if not (margin > 0 and T - 2 * margin > 0):
        raise DomainError(f"margin {margin} leaves no room inside T={T}")
    tg = np.linspace(0.0, T - 2 * margin, n_time)
    half = T - tg - margin
    xs = np.linspace(-half, half, n_space, axis=1)
    return np.column_stack([np.repeat(tg, n_space), xs.ravel()])


def backward_cone_points(
    T: float, n_time: int, n_space: int, margin: float, rho_max: float
) -> np.ndarray:
    """Sampling of the backward lightcone at similarity radii
    rho = r/(T-t) in [RHO_MIN, rho_max]; RHO_MIN stays off the axis because
    the expanded membrane residual has 1/r terms."""
    if not (margin > 0 and T - 2 * margin > margin):
        raise DomainError(f"margin {margin} leaves no room inside T={T}")
    tg = np.linspace(margin, T - 2 * margin, n_time)
    rhog = np.linspace(RHO_MIN, rho_max, n_space)
    return np.column_stack([np.repeat(tg, n_space), np.outer(T - tg, rhog).ravel()])


def rectangle_points(a_range, b_range, n_a: int, n_b: int) -> np.ndarray:
    """Plain tensor grid on a rectangle."""
    a = np.linspace(a_range[0], a_range[1], n_a)
    b = np.linspace(b_range[0], b_range[1], n_b)
    A, B = np.meshgrid(a, b, indexing="ij")
    return np.column_stack([A.ravel(), B.ravel()])


def sweep_residual(eq: EquationId, sol: ClosedFormSolution, points: np.ndarray) -> ResidualReport:
    """Evaluate residual_at over every sample point and aggregate.

    Jets and residual arithmetic run in double-double; the aggregate
    magnitudes are returned as doubles, and worst_point is the
    first point attaining max_abs. Domain errors from evaluation propagate to
    the caller: the sampler is responsible for staying inside the validity
    region.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
        raise DomainError("points must be a non-empty (N, 2) array")
    a, b = points[:, 0], points[:, 1]
    jet = evaluate_jet_extended(sol, (a, b))
    mag = np.abs(np.asarray(residual_at(eq, jet, (a, b)), dtype=float))
    worst = int(np.argmax(mag))
    n = points.shape[0]
    return ResidualReport(
        equation=eq.value,
        n_points=int(n),
        max_abs=float(mag[worst]),
        # summed in point order: a pairwise sum would move the last digit
        rms=math.sqrt(np.cumsum(mag * mag)[-1] / n),
        worst_point=(float(a[worst]), float(b[worst])),
    )


# ---------------------------------------------------------------------------
# certification policy: which sample set certifies a family, and what each
# (equation, family) pairing must meet

SOLUTION = "solution"
NON_SOLUTION = "non-solution"

# a solution must sweep below the tolerance, a flagged non-solution must stay
# above the floor (that it fails loudly is itself the finding)
VERIFY_PAIRINGS = {
    (EquationId.BORN_INFELD, Family.BORN_INFELD_LOG): (SOLUTION, 1e-9),
    (EquationId.RADIAL_MEMBRANE, Family.MEMBRANE_SPHERE_PLUS): (SOLUTION, 1e-9),
    (EquationId.RADIAL_MEMBRANE, Family.MEMBRANE_SPHERE_MINUS): (SOLUTION, 1e-9),
    (EquationId.RADIAL_MEMBRANE, Family.CONSTANT_PROFILE): (SOLUTION, 1e-9),
    (EquationId.EIKONAL, Family.MEMBRANE_SPHERE_PLUS): (SOLUTION, 1e-12),
    (EquationId.EIKONAL, Family.MEMBRANE_SPHERE_MINUS): (SOLUTION, 1e-12),
    (EquationId.SPACELIKE_GRAPH, Family.SPACELIKE_LOG_CLAIMED): (NON_SOLUTION, 0.1),
    (EquationId.SPACELIKE_GRAPH, Family.SPACELIKE_ARCTAN_CORRECTED): (SOLUTION, 1e-9),
}


def sample_points(family: Family, T, n_time, n_space, margin, rho_max) -> np.ndarray:
    """The n_time x n_space sample set that certifies family: the lightcone
    interior for the log family, the backward cone for the radial families,
    and the square [0, T/2]^2 of the spacelike half plane. margin and
    rho_max are checked for every family."""
    if not (margin > 0):
        raise DomainError(f"need margin > 0, got {margin}")
    if not (RHO_MIN < rho_max < 1):
        raise DomainError(f"need {RHO_MIN} < rho_max < 1, got {rho_max}")
    if family is Family.BORN_INFELD_LOG:
        return lightcone_interior_points(T, n_time, n_space, margin)
    if family in (Family.SPACELIKE_LOG_CLAIMED, Family.SPACELIKE_ARCTAN_CORRECTED):
        return rectangle_points((0.0, T / 2), (0.0, T / 2), n_time, n_space)
    return backward_cone_points(T, n_time, n_space, margin, rho_max)


def certify(
    equation: EquationId, sol: ClosedFormSolution, n_time, n_space, margin, rho_max
) -> tuple[ResidualReport, bool]:
    """Sweep sol's residual over its sample set and judge the sweep by the
    pairing's entry in VERIFY_PAIRINGS: returns (report, within)."""
    expectation, threshold = VERIFY_PAIRINGS[(equation, sol.family)]
    points = sample_points(sol.family, sol.T, n_time, n_space, margin, rho_max)
    report = sweep_residual(equation, sol, points)
    if expectation is SOLUTION:
        return report, report.max_abs <= threshold
    return report, report.max_abs >= threshold
