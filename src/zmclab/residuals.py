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

The certification policy lives here too: certify sweeps a batch of members
sharing T and one jet formula over their sample set, from one jet, and
judges each sweep by its (equation, family) pairing, for `zmclab verify` (a
batch of one), the audit and the acceptance gate alike, each at its own
grid size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closedform import DoubleDouble, Family, evaluate_jet_extended
from .errors import DomainError
from .numerics import Jet2, double_range

RHO_MIN = 0.01  # innermost similarity radius of the backward-cone sampler
# the cone samplers' margin and outermost similarity radius in every
# certification sweep
MARGIN = 0.02
RHO_MAX = 0.95


class EquationId(Enum):
    """Which PDE a residual is measured against."""

    BORN_INFELD = "born-infeld"
    RADIAL_MEMBRANE = "membrane"
    SPACELIKE_GRAPH = "spacelike"
    EIKONAL = "eikonal"


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    n_points: int
    max_abs: float
    rms: float
    worst_point: tuple[float, float]


def residual_at(eq: EquationId, jet: Jet2, point) -> float:
    """LHS minus RHS of the selected equation, evaluated from the jet.

    Coordinate order inside the jet follows the producing family:
    (t, x) / (t, r) for the hyperbolic equations, (x, y) for the spacelike
    one. The radial membrane formula carries 1/r terms, so r = 0 is a
    domain error there. point = (a, b) may hold arrays matching the jet's
    entries.
    """
    da, db = jet.d1
    daa, dab, dbb = jet.d2

    if eq is EquationId.BORN_INFELD:
        ut, ux, utt, utx, uxx = da, db, daa, dab, dbb
        return utt * (1 + ux * ux) - uxx * (1 - ut * ut) - 2 * ut * ux * utx

    if eq is EquationId.RADIAL_MEMBRANE:
        r = point[1]
        if np.any(r == 0):
            raise DomainError(
                "the radial membrane residual has 1/r terms; residual_at needs r != 0"
            )
        ut, ur, utt, utr, urr = da, db, daa, dab, dbb
        if isinstance(ur, DoubleDouble):
            r = DoubleDouble(r)  # one exact operand, split once for the three divisions
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


# ---------------------------------------------------------------------------
# domain samplers


def _refuse_unresolved_margin(T, region):
    """Refuse a T whose resolution is coarser than MARGIN: above T = 2^48,
    T - MARGIN rounds onto T and the samples would reach the blow-up."""
    if not T - MARGIN < T:
        raise DomainError(
            f"T={T:g} leaves no room inside the {region}: "
            f"MARGIN={MARGIN:g} is below the resolution of T"
        )


def lightcone_interior_points(T: float, n_time: int, n_space: int) -> np.ndarray:
    """Tensor-style sampling of the interior lightcone: n_time time slices,
    each carrying n_space points spanning |x| <= T - t - MARGIN."""
    if not T - 2 * MARGIN > 0:
        raise DomainError(f"T={T} leaves no room inside the lightcone: needs T > {2 * MARGIN:g}")
    _refuse_unresolved_margin(T, "lightcone")
    tg = np.linspace(0.0, T - 2 * MARGIN, n_time)
    half = T - tg - MARGIN
    xs = np.linspace(-half, half, n_space, axis=1)
    return np.column_stack([np.repeat(tg, n_space), xs.ravel()])


def backward_cone_points(T: float, n_time: int, n_space: int) -> np.ndarray:
    """Sampling of the backward lightcone at similarity radii
    rho = r/(T-t) in [RHO_MIN, RHO_MAX]; RHO_MIN stays off the axis because
    the expanded membrane residual has 1/r terms."""
    if not T - 2 * MARGIN > MARGIN:
        raise DomainError(f"T={T} leaves no room inside the cone: needs T > {3 * MARGIN:g}")
    _refuse_unresolved_margin(T, "cone")
    tg = np.linspace(MARGIN, T - 2 * MARGIN, n_time)
    rhog = np.linspace(RHO_MIN, RHO_MAX, n_space)
    return np.column_stack([np.repeat(tg, n_space), np.outer(T - tg, rhog).ravel()])


def rectangle_points(a_range, b_range, n_a: int, n_b: int) -> np.ndarray:
    """Plain tensor grid on a rectangle, a the slow coordinate."""
    a = np.linspace(a_range[0], a_range[1], n_a)
    b = np.linspace(b_range[0], b_range[1], n_b)
    return np.column_stack([np.repeat(a, n_b), np.tile(b, n_a)])


def sweep_residual(eq: EquationId, jet: Jet2, points: np.ndarray) -> ResidualReport:
    """Evaluate residual_at over every sample point of jet and aggregate.

    jet holds one entry per row of points, as evaluate_jet_extended returns
    it for (points[:, 0], points[:, 1]), so one jet serves every equation
    swept over the same points; a batch's jet holds one such row of entries
    per member, and the sweep covers each member at every point, member
    after member. The residual arithmetic runs in the jet's precision; the
    aggregate magnitudes are returned as doubles, n_points counts the
    residuals swept, and worst_point is the point of the first residual
    attaining max_abs.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
        raise DomainError("points must be a non-empty (N, 2) array")
    a, b = points[:, 0], points[:, 1]
    mag = np.abs(np.asarray(residual_at(eq, jet, (a, b)), dtype=float)).ravel()
    worst = int(np.argmax(mag))
    n = mag.size
    row = worst % points.shape[0]
    return ResidualReport(
        equation=eq.value,
        n_points=int(n),
        max_abs=float(mag[worst]),
        # summed in point order: a pairwise sum would move the last digit
        rms=math.sqrt(np.cumsum(mag * mag)[-1] / n),
        worst_point=(float(a[row]), float(b[row])),
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


def sample_points(family: Family, T, n_time, n_space) -> np.ndarray:
    """The n_time x n_space sample set that certifies family: the lightcone
    interior for the log family, the backward cone for the radial families
    (both at MARGIN, the cone out to RHO_MAX), and the square [0, T/2]^2 of
    the spacelike half plane."""
    if family is Family.BORN_INFELD_LOG:
        return lightcone_interior_points(T, n_time, n_space)
    if family in (Family.SPACELIKE_LOG_CLAIMED, Family.SPACELIKE_ARCTAN_CORRECTED):
        return rectangle_points((0.0, T / 2), (0.0, T / 2), n_time, n_space)
    return backward_cone_points(T, n_time, n_space)


def certify(equations, members, n_time, n_space) -> list[tuple[ResidualReport, bool]]:
    """Sweep the residual of members against each of equations over their
    sample set, from one double-double jet, and judge each sweep by its
    pairing's entry in VERIFY_PAIRINGS: returns one (report, within) per
    equation. members share T and one jet formula (the two sphere caps are
    one, with the same pairings), as evaluate_jet_extended batches them, so
    each report covers every member's sweep: its max_abs is the worst
    member's, and a batch is within a solution's bound when each member is.
    A non-solution is certified one member at a time, since each must fail.
    Domain errors from the jet propagate: the sampler stays inside the
    validity region; a sweep whose jet, residual or rms overflows is refused
    naming k and T."""
    members = tuple(members)
    first = members[0]
    pairings = [VERIFY_PAIRINGS[(equation, first.family)] for equation in equations]
    if len(members) > 1 and any(expectation is NON_SOLUTION for expectation, _ in pairings):
        raise DomainError("a non-solution is certified one member at a time")
    points = sample_points(first.family, first.T, n_time, n_space)
    families = "/".join(dict.fromkeys(m.family.value for m in members))
    ks = "/".join(dict.fromkeys(str(m.k) for m in members))
    with double_range(f"the {families} sweep at k={ks}, T={first.T}"):
        jet = evaluate_jet_extended(members, (points[:, 0], points[:, 1]))
        reports = [sweep_residual(equation, jet, points) for equation in equations]
    judged = []
    for report, (expectation, threshold) in zip(reports, pairings):
        if expectation is SOLUTION:
            judged.append((report, report.max_abs <= threshold))
        else:
            judged.append((report, report.max_abs >= threshold))
    return judged
