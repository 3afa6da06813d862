import functools
import json
import math

import mpmath
import numpy as np
import pytest
import sympy

from divergence_form import divergence_form_residual
from fd_oracles import central_diff_jet2, observed_orders
from zmclab.audit import SWEEP_GRID
from zmclab.cli import build_parser
from zmclab.closedform import (
    ClosedFormSolution,
    Family,
    evaluate_jet,
    evaluate_jet_extended,
)
from zmclab.errors import DegeneracyError, DomainError
from zmclab.numerics import Jet2
from zmclab.reporting import dumps_json
from zmclab.residuals import (
    MARGIN,
    RHO_MAX,
    RHO_MIN,
    VERIFY_PAIRINGS,
    EquationId,
    certify,
    residual_at,
    sample_points,
    sweep_residual,
)

# k*y/((T-x)^2 sqrt((T-x)^2+y^2)) at k=1, T=1, x=0, y=0.5 (frozen)
CLAIMED_RESIDUAL_AT_HALF = 0.4472135954999579

ZERO_JET = Jet2(0.0, (0.0, 0.0), (0.0, 0.0, 0.0))


def manufactured_jet(t, x):
    """2-jet of u = 0.3 sin(2x + 0.5) cos(t), a smooth non-solution."""
    s, c = math.sin(2 * x + 0.5), math.cos(2 * x + 0.5)
    ct, st = math.cos(t), math.sin(t)
    return Jet2(
        value=0.3 * s * ct,
        d1=(-0.3 * s * st, 0.6 * c * ct),
        d2=(-0.3 * s * ct, -0.6 * c * st, -1.2 * s * ct),
    )


def test_born_infeld_solution_pointwise():
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=1.0)
    jet = evaluate_jet(sol, (0.3, 0.2))
    assert abs(residual_at(EquationId.BORN_INFELD, jet, (0.3, 0.2))) < 1e-10


def test_membrane_solution_pointwise():
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    jet = evaluate_jet(sol, (0.2, 0.3))
    assert abs(residual_at(EquationId.RADIAL_MEMBRANE, jet, (0.2, 0.3))) < 1e-10


def test_claimed_spacelike_family_is_not_a_solution():
    sol = ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0)
    jet = evaluate_jet(sol, (0.0, 0.5))
    r = residual_at(EquationId.SPACELIKE_GRAPH, jet, (0.0, 0.5))
    assert abs(r - CLAIMED_RESIDUAL_AT_HALF) <= 1e-6


def test_corrected_spacelike_family_is_a_solution():
    sol = ClosedFormSolution(Family.SPACELIKE_ARCTAN_CORRECTED, T=1.0, k=1.0)
    jet = evaluate_jet(sol, (0.0, 0.5))
    assert abs(residual_at(EquationId.SPACELIKE_GRAPH, jet, (0.0, 0.5))) < 1e-10


def test_eikonal_on_sphere():
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    for (t, r) in [(0.1, 0.2), (0.5, 0.4), (0.8, 0.05)]:
        jet = evaluate_jet(sol, (t, r))
        assert abs(residual_at(EquationId.EIKONAL, jet, (t, r))) <= 1e-12


def test_zero_field_annihilates_hyperbolic_and_elliptic_forms():
    for eq in (EquationId.BORN_INFELD, EquationId.SPACELIKE_GRAPH):
        assert residual_at(eq, ZERO_JET, (0.1, 0.1)) == 0.0
    assert residual_at(EquationId.RADIAL_MEMBRANE, ZERO_JET, (0.1, 0.2)) == 0.0
    # the eikonal expression is 1 on the zero field, not 0
    assert residual_at(EquationId.EIKONAL, ZERO_JET, (0.1, 0.1)) == 1.0


def test_membrane_r_zero_is_singular():
    with pytest.raises(DomainError, match="1/r terms; residual_at needs r != 0"):
        residual_at(EquationId.RADIAL_MEMBRANE, ZERO_JET, (0.1, 0.0))


def residual_at_axis(jet: Jet2) -> float:
    """Radial membrane residual in the r -> 0 limit for even regular fields.

    With u_r(t,0) = 0 the singular terms have finite limits
    (u_r/r -> u_rr, u_r u_t^2 / r -> u_rr u_t^2, u_r^3 / r -> 0) and the
    residual collapses to u_tt - 2 u_rr (1 - u_t^2).
    """
    ut, ur = jet.d1
    utt, _, urr = jet.d2
    if ur != 0:
        raise DomainError(
            f"axis regularity violated: u_r(t,0) = {ur}, expected 0 for an even field"
        )
    return utt - 2 * urr * (1 - ut * ut)


def test_axis_limit_residual():
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    jet = evaluate_jet(sol, (0.5, 0.0))
    assert abs(residual_at_axis(jet)) < 1e-10
    assert residual_at_axis(ZERO_JET) == 0.0
    const = ClosedFormSolution(Family.CONSTANT_PROFILE, T=1.0, k=0.4)
    assert residual_at_axis(evaluate_jet(const, (0.3, 0.0))) == 0.0


def test_axis_regularity_guard():
    bad = Jet2(1.0, (0.0, 0.1), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match=r"axis regularity violated: u_r\(t,0\) = 0\.1"):
        residual_at_axis(bad)


# --- sweeps -------------------------------------------------------------------


def test_sweep_born_infeld_certifies():
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=1.0)
    [(rep, within)] = certify((EquationId.BORN_INFELD,), [sol], 20, 20)
    assert rep.n_points == 400
    assert within and rep.max_abs <= 1e-9
    assert rep.rms <= rep.max_abs


def test_sweep_membrane_certifies():
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_MINUS, T=1.0)
    [(rep, within)] = certify((EquationId.RADIAL_MEMBRANE,), [sol], 20, 20)
    assert within and rep.max_abs <= 1e-9


def test_sweep_flags_non_solution():
    sol = ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0)
    pts = sample_points(sol.family, 1.0, 15, 15)  # [0, 0.5]^2
    [(rep, within)] = certify((EquationId.SPACELIKE_GRAPH,), [sol], 15, 15)
    assert within and rep.max_abs >= 0.1
    # worst point is attained where the report says it is
    worst = rep.worst_point
    jet = evaluate_jet(sol, worst)
    assert abs(abs(residual_at(EquationId.SPACELIKE_GRAPH, jet, worst)) - rep.max_abs) < 1e-9
    # the array sweep reproduces a point-by-point loop bit for bit
    mags = []
    for a, b in pts:
        jet = evaluate_jet_extended(sol, (a, b))
        mags.append(abs(float(residual_at(EquationId.SPACELIKE_GRAPH, jet, (a, b)))))
    assert rep.max_abs == max(mags)
    assert rep.worst_point == tuple(pts[mags.index(max(mags))])
    assert rep.rms == math.sqrt(sum(m * m for m in mags) / len(mags))


def test_sweep_report_serializes():
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.2)
    [(rep, _)] = certify((EquationId.BORN_INFELD,), [sol], 5, 5)
    d = json.loads(dumps_json(rep))
    assert set(d) == {"equation", "n_points", "max_abs", "rms", "worst_point"}


def swept(eq, sol, points):
    """sweep_residual over points of sol's double-double jet there."""
    return sweep_residual(eq, evaluate_jet_extended(sol, (points[:, 0], points[:, 1])), points)


def test_sweep_reports_first_of_tied_worst_points():
    sol = ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0)
    eq = EquationId.SPACELIKE_GRAPH
    pts = np.array([[0.0, 0.1], [0.0, -0.5], [0.0, 0.2], [0.0, 0.5]])
    # the residual is odd in y, so the mirrored points tie exactly
    tie = swept(eq, sol, pts[1:2]).max_abs
    assert swept(eq, sol, pts[3:]).max_abs == tie
    rep = swept(eq, sol, pts)
    assert rep.max_abs == tie
    assert rep.worst_point == (0.0, -0.5)
    assert swept(eq, sol, pts[::-1]).worst_point == (0.0, 0.5)


@pytest.mark.parametrize("family", [Family.MEMBRANE_SPHERE_PLUS, Family.MEMBRANE_SPHERE_MINUS])
def test_certify_sweeps_one_jet_against_each_equation(family):
    """A cap certified against the membrane equation and the eikonal
    identity from one jet reports what two one-equation calls report."""
    sol = ClosedFormSolution(family, T=1.0)
    equations = (EquationId.RADIAL_MEMBRANE, EquationId.EIKONAL)
    both = certify(equations, [sol], *SWEEP_GRID)
    alone = [certify((eq,), [sol], *SWEEP_GRID)[0] for eq in equations]
    assert both == alone
    assert [rep.equation for rep, _ in both] == ["membrane", "eikonal"]


AUDIT_BATCHES = (
    ((EquationId.BORN_INFELD,),
     [ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=k) for k in (0.2, 1.0, -3.0)]),
    ((EquationId.RADIAL_MEMBRANE, EquationId.EIKONAL),
     [ClosedFormSolution(f, T=1.0) for f in (Family.MEMBRANE_SPHERE_PLUS,
                                             Family.MEMBRANE_SPHERE_MINUS)]),
)


@pytest.mark.parametrize("equations, members", AUDIT_BATCHES, ids=["log", "caps"])
def test_batched_certify_reproduces_the_worst_single_member_sweep(equations, members):
    """The audit's batched sweeps report, per equation, the worst of the
    members' own max |residual| bit for bit, at the first member's worst
    point attaining it, over all their points, with the same verdict."""
    batch = certify(equations, members, *SWEEP_GRID)
    alone = [certify(equations, [sol], *SWEEP_GRID) for sol in members]
    for (report, within), singles in zip(batch, zip(*alone)):
        worst = max(singles, key=lambda judged: judged[0].max_abs)[0]
        assert report.max_abs == worst.max_abs
        assert report.worst_point == worst.worst_point
        assert report.n_points == sum(single.n_points for single, _ in singles)
        assert within == all(ok for _, ok in singles)
        assert within


def test_certify_judges_a_batch_as_a_solution_only():
    """A non-solution must fail member by member, which one worst residual
    cannot show: a batch of them is refused."""
    claimed = [ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=k) for k in (1.0, 2.0)]
    with pytest.raises(DomainError, match="^a non-solution is certified one member at a time$"):
        certify((EquationId.SPACELIKE_GRAPH,), claimed, 5, 5)
    assert certify((EquationId.SPACELIKE_GRAPH,), claimed[:1], 5, 5)[0][1]


def test_a_batch_of_one_keeps_verifys_refusal_text():
    """verify certifies a batch of one, so its refusal reads as
    tests/test_cli.py pins it; a batch names each family and k once."""
    args = build_parser().parse_args(["verify", "--equation", "born-infeld", "--family", "log"])
    side = max(2, int(args.samples**0.5))
    overflow = " leaves double range (overflow encountered in multiply)"
    steep = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=1e100)
    with pytest.raises(DomainError) as exc:
        certify((EquationId.BORN_INFELD,), [steep], side, side)
    assert str(exc.value) == "the log sweep at k=1e+100, T=1.0" + overflow
    mild = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.2)
    with pytest.raises(DomainError) as exc:
        certify((EquationId.BORN_INFELD,), [mild, steep, mild], side, side)
    assert str(exc.value) == "the log sweep at k=0.2/1e+100, T=1.0" + overflow


# --- double-double against a 40-digit oracle ----------------------------------

ORACLE_DPS = 40
_a, _b, _T, _k = sympy.symbols("a b T k", real=True)
# the closed forms, differentiated by sympy and evaluated in mpmath: independent
# of both the hand-derived jets and the double-double arithmetic
ORACLE_FIELDS = {
    Family.BORN_INFELD_LOG: _k * sympy.log((_T - _a + _b) / (_T - _a - _b)),
    Family.MEMBRANE_SPHERE_PLUS: sympy.sqrt((_T - _a) ** 2 - _b**2),
    Family.MEMBRANE_SPHERE_MINUS: -sympy.sqrt((_T - _a) ** 2 - _b**2),
    Family.SPACELIKE_LOG_CLAIMED: _k * sympy.asinh(_b / (_T - _a)),
    Family.SPACELIKE_ARCTAN_CORRECTED: _k * sympy.atan(_b / (_T - _a)),
    Family.CONSTANT_PROFILE: _k * (_T - _a),
}


@functools.cache
def _oracle_jet(family):
    """The six jet entries of family as mpmath functions of (a, b, T, k)."""
    u = ORACLE_FIELDS[family]
    entries = (u, u.diff(_a), u.diff(_b), u.diff(_a, 2), u.diff(_a, _b), u.diff(_b, 2))
    return [sympy.lambdify((_a, _b, _T, _k), e, "mpmath") for e in entries]


def _certification_sweeps():
    """(label, equation, solution, certify's sample grid) of every
    certification sweep: each verify pairing at the verify defaults, and the
    audit's log family."""
    parser = build_parser()
    for eq, fam in VERIFY_PAIRINGS:
        argv = ["verify", "--equation", eq.value, "--family", fam.value]
        args = parser.parse_args(argv)
        side = max(2, int(args.samples**0.5))
        sol = ClosedFormSolution(fam, T=args.T, k=args.k)
        yield " ".join(argv), eq, sol, (side, side)
    for k in (0.2, 1.0, -3.0):
        sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=k)
        yield f"audit log k={k}", EquationId.BORN_INFELD, sol, SWEEP_GRID


def test_double_double_sweeps_match_mpmath_oracle():
    """Per point, the double-double residual of every certification sweep
    agrees with a 40-digit evaluation far below the 1e-9 and 1e-12 bounds;
    the points are the ones certify sweeps."""
    rng = np.random.default_rng(20261018)
    for label, eq, sol, grid in _certification_sweeps():
        points = sample_points(sol.family, sol.T, *grid)
        assert certify((eq,), [sol], *grid)[0][0] == swept(eq, sol, points), label
        pick = points[np.sort(rng.choice(len(points), size=200, replace=False))]
        a, b = pick[:, 0], pick[:, 1]
        dd = residual_at(eq, evaluate_jet_extended(sol, (a, b)), (a, b))
        jet = _oracle_jet(sol.family)
        with mpmath.workdps(ORACLE_DPS):
            for i in range(len(pick)):
                point = (mpmath.mpf(a[i]), mpmath.mpf(b[i]))
                value, da, db, daa, dab, dbb = (f(*point, sol.T, sol.k) for f in jet)
                exact = residual_at(eq, Jet2(value, (da, db), (daa, dab, dbb)), point)
                error = abs(mpmath.mpf(dd.hi[i]) + mpmath.mpf(dd.lo[i]) - exact)
                if sol.family is Family.SPACELIKE_LOG_CLAIMED:
                    assert error <= 1e-25 * abs(exact), (label, pick[i], error, exact)
                else:
                    assert error <= 1e-20, (label, pick[i], error)


@pytest.mark.parametrize("T, n_time, n_space", [(0.7, 3, 7), (1.0, 20, 20), (2.5, 17, 5)])
def test_cone_samplers_match_per_slice_loop(T, n_time, n_space):
    """The whole-array sample sets give the points of one linspace per
    slice: the lightcone, the backward cone and the spacelike square."""
    rhog = np.linspace(RHO_MIN, RHO_MAX, n_space)
    light = [(t, x) for t in np.linspace(0.0, T - 2 * MARGIN, n_time)
             for x in np.linspace(-(T - t - MARGIN), T - t - MARGIN, n_space)]
    cone = [(t, x) for t in np.linspace(MARGIN, T - 2 * MARGIN, n_time)
            for x in rhog * (T - t)]
    square = [(x, y) for x in np.linspace(0.0, T / 2, n_time)
              for y in np.linspace(0.0, T / 2, n_space)]
    for family, want in ((Family.BORN_INFELD_LOG, light),
                         (Family.MEMBRANE_SPHERE_PLUS, cone),
                         (Family.CONSTANT_PROFILE, cone),
                         (Family.SPACELIKE_ARCTAN_CORRECTED, square),
                         (Family.SPACELIKE_LOG_CLAIMED, square)):
        assert np.array_equal(sample_points(family, T, n_time, n_space), want), family


# --- divergence form ----------------------------------------------------------


def test_divergence_form_zero_field():
    assert divergence_form_residual(ZERO_JET) == 0.0


def test_divergence_form_on_log_solution():
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=0.2)
    jet = evaluate_jet(sol, (0.2, 0.1))
    assert abs(divergence_form_residual(jet)) < 1e-8


def test_divergence_form_degenerates_on_sphere():
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    jet = evaluate_jet(sol, (0.3, 0.2))
    with pytest.raises(DegeneracyError):
        divergence_form_residual(jet)


def test_divergence_equals_expanded_over_w_cubed():
    """The conformal-factor identity between the two forms of the equation,
    checked along genuinely different arithmetic paths."""
    for (t, x) in [(0.0, 0.0), (0.3, 0.7), (1.1, -0.4), (2.0, 1.5)]:
        jet = manufactured_jet(t, x)
        ut, ux = jet.d1
        disc = 1 - ut * ut + ux * ux
        assert disc >= 0.1
        div = divergence_form_residual(jet)
        expanded = residual_at(EquationId.BORN_INFELD, jet, (t, x))
        ref = expanded / disc**1.5
        assert abs(div - ref) <= 1e-6 * max(1.0, abs(ref))


def test_scaling_covariance_of_born_infeld_residual():
    """R[u_lam](t,x) = lam * R[u](lam t, lam x) for u_lam = u(lam t, lam x)/lam."""
    for lam in (0.5, 2.0, 4.0):
        for (t, x) in [(0.2, 0.1), (0.05, -0.15)]:
            base = manufactured_jet(lam * t, lam * x)
            scaled = Jet2(
                value=base.value / lam,
                d1=base.d1,
                d2=(lam * base.d2[0], lam * base.d2[1], lam * base.d2[2]),
            )
            lhs = residual_at(EquationId.BORN_INFELD, scaled, (t, x))
            rhs = lam * residual_at(EquationId.BORN_INFELD, base, (lam * t, lam * x))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_residuals_odd_under_sign_flip():
    rng = np.random.default_rng(20260817)
    for _ in range(100):
        vals = rng.uniform(-1.0, 1.0, size=6)
        jet = Jet2(vals[0], (vals[1], vals[2]), (vals[3], vals[4], vals[5]))
        neg = Jet2(-vals[0], (-vals[1], -vals[2]), (-vals[3], -vals[4], -vals[5]))
        pt = (0.3, 0.45)
        for eq in (EquationId.BORN_INFELD, EquationId.RADIAL_MEMBRANE):
            assert residual_at(eq, neg, pt) == pytest.approx(
                -residual_at(eq, jet, pt), abs=1e-13
            )


def test_discrete_residual_converges_to_analytic():
    """Residual evaluated on finite-difference jets of a sampled solution
    falls to the analytic residual (zero) at second order."""
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=1.0)
    t0, x0 = 0.3, 0.1
    errs = []
    for h in (0.02, 0.01, 0.005):
        tg = t0 + h * np.arange(-2, 3)
        xg = x0 + h * np.arange(-2, 3)
        F = np.array([[evaluate_jet(sol, (t, x)).value for x in xg] for t in tg])
        fd_jet = central_diff_jet2(F, 2, h, time_index=2, time_spacing=h)
        errs.append(abs(residual_at(EquationId.BORN_INFELD, fd_jet, (t0, x0))))
    assert np.all(observed_orders(errs) >= 1.9)
