import functools
import math

import mpmath
import numpy as np
import pytest
import sympy

from divergence_form import divergence_form_residual
from fd_oracles import central_diff_jet2, observed_orders
from zmclab.audit import SWEEP_GRID
from zmclab.cli import EQUATION_BY_NAME, FAMILY_BY_NAME, build_parser
from zmclab.closedform import (
    ClosedFormSolution,
    Family,
    evaluate_jet,
    evaluate_jet_extended,
)
from zmclab.errors import DegeneracyError, DomainError, RegularityError, SingularPointError
from zmclab.numerics import Jet2
from zmclab.residuals import (
    MARGIN,
    RHO_MAX,
    VERIFY_PAIRINGS,
    EquationId,
    ResidualReport,
    backward_cone_points,
    certify,
    lightcone_interior_points,
    residual_at,
    residual_at_axis,
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
    with pytest.raises(SingularPointError):
        residual_at(EquationId.RADIAL_MEMBRANE, ZERO_JET, (0.1, 0.0))


def test_axis_limit_residual():
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_PLUS, T=1.0)
    jet = evaluate_jet(sol, (0.5, 0.0))
    assert abs(residual_at_axis(jet)) < 1e-10
    assert residual_at_axis(ZERO_JET) == 0.0
    const = ClosedFormSolution(Family.CONSTANT_PROFILE, T=1.0, k=0.4)
    assert residual_at_axis(evaluate_jet(const, (0.3, 0.0))) == 0.0


def test_axis_regularity_guard():
    bad = Jet2(1.0, (0.0, 0.1), (0.0, 0.0, 0.0))
    with pytest.raises(RegularityError):
        residual_at_axis(bad)


# --- sweeps -------------------------------------------------------------------


def test_sweep_born_infeld_certifies():
    sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=1.0)
    rep, within = certify(EquationId.BORN_INFELD, sol, 20, 20, 0.02, 0.95)
    assert rep.n_points == 400
    assert within and rep.max_abs <= 1e-9
    assert rep.rms <= rep.max_abs


def test_sweep_membrane_certifies():
    sol = ClosedFormSolution(Family.MEMBRANE_SPHERE_MINUS, T=1.0)
    rep, within = certify(EquationId.RADIAL_MEMBRANE, sol, 20, 20, 0.02, 0.95)
    assert within and rep.max_abs <= 1e-9


def test_sweep_flags_non_solution():
    sol = ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0)
    pts = sample_points(sol.family, 1.0, 15, 15, 0.02, 0.95)  # [0, 0.5]^2
    rep, within = certify(EquationId.SPACELIKE_GRAPH, sol, 15, 15, 0.02, 0.95)
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
    rep, _ = certify(EquationId.BORN_INFELD, sol, 5, 5, 0.05, 0.95)
    d = rep.to_json_dict()
    assert set(d) == {"equation", "n_points", "max_abs", "rms", "worst_point"}


def test_sweep_reports_first_of_tied_worst_points():
    sol = ClosedFormSolution(Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0)
    eq = EquationId.SPACELIKE_GRAPH
    pts = np.array([[0.0, 0.1], [0.0, -0.5], [0.0, 0.2], [0.0, 0.5]])
    # the residual is odd in y, so the mirrored points tie exactly
    tie = sweep_residual(eq, sol, pts[1:2]).max_abs
    assert sweep_residual(eq, sol, pts[3:]).max_abs == tie
    rep = sweep_residual(eq, sol, pts)
    assert rep.max_abs == tie
    assert rep.worst_point == (0.0, -0.5)
    assert sweep_residual(eq, sol, pts[::-1]).worst_point == (0.0, 0.5)


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
    eq_names = {eq: name for name, eq in EQUATION_BY_NAME.items()}
    fam_names = {fam: name for name, fam in FAMILY_BY_NAME.items()}
    for eq, fam in VERIFY_PAIRINGS:
        argv = ["verify", "--equation", eq_names[eq], "--family", fam_names[fam]]
        args = parser.parse_args(argv)
        side = max(2, int(args.samples**0.5))
        grid = (side, side, args.margin, args.rho_max)
        yield " ".join(argv), eq, ClosedFormSolution(fam, T=args.T, k=args.k), grid
    for k in (0.2, 1.0, -3.0):
        sol = ClosedFormSolution(Family.BORN_INFELD_LOG, T=1.0, k=k)
        yield f"audit log k={k}", EquationId.BORN_INFELD, sol, (*SWEEP_GRID, MARGIN, RHO_MAX)


def test_double_double_sweeps_match_mpmath_oracle():
    """Per point, the double-double residual of every certification sweep
    agrees with a 40-digit evaluation far below the 1e-9 and 1e-12 bounds;
    the points are the ones certify sweeps."""
    rng = np.random.default_rng(20261018)
    for label, eq, sol, grid in _certification_sweeps():
        points = sample_points(sol.family, sol.T, *grid)
        assert certify(eq, sol, *grid)[0] == sweep_residual(eq, sol, points), label
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


@pytest.mark.parametrize("T, n_time, n_space, margin", [
    (0.7, 3, 7, 0.01), (1.0, 20, 20, 0.02), (2.5, 17, 5, 0.1),
])
def test_cone_samplers_match_per_slice_loop(T, n_time, n_space, margin):
    """The whole-array samplers give the points of one linspace per slice."""
    rhog = np.linspace(0.01, 0.95, n_space)
    light = [(t, x) for t in np.linspace(0.0, T - 2 * margin, n_time)
             for x in np.linspace(-(T - t - margin), T - t - margin, n_space)]
    cone = [(t, x) for t in np.linspace(margin, T - 2 * margin, n_time)
            for x in rhog * (T - t)]
    assert np.array_equal(lightcone_interior_points(T, n_time, n_space, margin), light)
    assert np.array_equal(backward_cone_points(T, n_time, n_space, margin, 0.95), cone)


def test_report_rejects_rms_above_max():
    with pytest.raises(DomainError):
        ResidualReport("born-infeld", 4, max_abs=1.0, rms=2.0, worst_point=(0.0, 0.0))


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
