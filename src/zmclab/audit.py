"""Consolidated audit: every quantitative claim in the source material,
checked against an independently computed value.

Each claim carries the stated value, the value this package computes, and a
verdict. The expected verdicts are frozen from the pre-build derivations, so
the audit doubles as a regression tripwire: if the numerics drift, a claim
flips away from its expected verdict and the report stops being clean.

Sampling is seeded and every computation is deterministic, so two runs
produce byte-identical JSON.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .closedform import (
    ClosedFormSolution,
    Family,
    derivative_blowup_amplitude,
    evaluate_jet,
)
from .conserved import measure_scaling_exponent
from .numerics import Jet2, libm_pow
from .residuals import RHO_MAX, EquationId, certify, residual_at
from .profiles import degenerate_branch
from .similarity import steady_family_errors
from .stability import directional_linearization_check, mode_growth_probe, solve_mode_quadratic

MATCH = "match"
MISMATCH = "mismatch"
QUALITATIVE = "qualitative-match"
STATED = "stated-no-claim"

# (n_time, n_space) of every residual sweep in the audit. The acceptance gate
# runs the same residuals.certify at 100 x 100; at that size the audit would
# sweep about 76,000 more points, at 3.6 us or more each
SWEEP_GRID = (20, 25)
SWEEP_N = SWEEP_GRID[0] * SWEEP_GRID[1]
SPHERE_CAPS = (
    ClosedFormSolution(family=Family.MEMBRANE_SPHERE_PLUS, T=1.0),
    ClosedFormSolution(family=Family.MEMBRANE_SPHERE_MINUS, T=1.0),
)


@dataclass(frozen=True)
class AuditClaim:
    id: str
    description: str
    source_location: str
    claimed: str
    computed: str
    verdict: str
    expected_verdict: str
    note: str = ""

    @property
    def as_expected(self) -> bool:
        return self.verdict == self.expected_verdict

    def to_json_dict(self) -> dict:
        return {**vars(self), "as_expected": self.as_expected}


@dataclass(frozen=True)
class AuditReport:
    claims: tuple
    measurements: dict

    @property
    def all_as_expected(self) -> bool:
        return all(c.as_expected for c in self.claims)

    def to_json_dict(self) -> dict:
        return {
            "n_claims": len(self.claims),
            "verdict_counts": dict(Counter(c.verdict for c in self.claims)),
            "all_as_expected": self.all_as_expected,
            "claims": [c.to_json_dict() for c in self.claims],
            "measurements": self.measurements,
        }


def _fmt(x: float) -> str:
    return f"{float(x):.6e}"


def _certified(equations, members) -> list[tuple[float, bool]]:
    """Per equation, the worst max |residual| of the audit's sweep of
    members against it, and whether it meets its pairing: one certify call,
    whose one jet serves every member and all of equations."""
    return [(report.max_abs, within) for report, within in certify(equations, members, *SWEEP_GRID)]


def _claim_string_solution() -> AuditClaim:
    [(worst, within)] = _certified((EquationId.BORN_INFELD,), [
        ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=k)
        for k in (0.2, 1.0, -3.0)
    ])
    return AuditClaim(
        id="string-log-solution",
        description="the logarithmic family solves the timelike string "
        "equation on the interior of its lightcone",
        source_location="closedform catalog, log slice family",
        claimed="residual identically zero",
        computed=f"max |residual| = {_fmt(worst)} over 3x{SWEEP_N} interior "
        "samples, k in {0.2, 1, -3}",
        verdict=MATCH if within else MISMATCH,
        expected_verdict=MATCH,
    )


def _claim_membrane_solution(worst, within) -> AuditClaim:
    return AuditClaim(
        id="membrane-sphere-solution",
        description="both sphere caps solve the radial membrane equation on "
        "the backward cone",
        source_location="closedform catalog, sphere cap family",
        claimed="residual identically zero",
        computed=f"max |residual| = {_fmt(worst)} over 2x{SWEEP_N} cone "
        f"samples with rho <= {RHO_MAX}",
        verdict=MATCH if within else MISMATCH,
        expected_verdict=MATCH,
    )


def _claim_spacelike_solution() -> AuditClaim:
    claimed_sol = ClosedFormSolution(
        family=Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0
    )
    jet = evaluate_jet(claimed_sol, (0.0, 0.5))
    r_claimed = residual_at(EquationId.SPACELIKE_GRAPH, jet, (0.0, 0.5))
    # the hand-derived residual of k*asinh(y/(T-x)): k*y/((T-x)^2*sqrt((T-x)^2+y^2))
    predicted = 1.0 * 0.5 / (1.0**2 * math.sqrt(1.0**2 + 0.5**2))

    corrected = ClosedFormSolution(
        family=Family.SPACELIKE_ARCTAN_CORRECTED, T=1.0, k=1.0
    )
    [(corr_max, corrected_ok)] = _certified((EquationId.SPACELIKE_GRAPH,), [corrected])

    formula_ok = abs(r_claimed - predicted) <= 1e-6
    verdict = MISMATCH if (formula_ok and corrected_ok and abs(r_claimed) > 1e-3) else QUALITATIVE
    return AuditClaim(
        id="spacelike-log-solution",
        description="the printed spacelike family is stated to solve the "
        "spacelike graph equation; its residual is nonzero, while the "
        "arctan family solving the same steady reduction has residual zero",
        source_location="closedform catalog, spacelike log entry",
        claimed="residual identically zero",
        computed=f"residual at (x,y)=(0,0.5), k=1, T=1: {_fmt(r_claimed)} "
        f"(derived formula predicts {_fmt(predicted)}); corrected arctan "
        f"family max |residual| = {_fmt(corr_max)} over {SWEEP_N} samples",
        verdict=verdict,
        expected_verdict=MISMATCH,
        note="the printed function solves the elliptic reduction's "
        "linearization ansatz, not the stated equation",
    )


def _claim_blowup_rate(sol, entry, exact_rate, **text) -> AuditClaim:
    """A stated on-axis blow-up rate, 1/(T-t) = 2 at T = 1, t = 0.5, against
    the exact amplitude there and the jet entry entry(jet) that carries it."""
    analytic = derivative_blowup_amplitude(sol, 0.5)
    sampled = entry(evaluate_jet(sol, (0.5, 0.0)))
    stated = 1.0 / (1.0 - 0.5)
    agree = abs(analytic - sampled) <= 1e-12
    verdict = MISMATCH if agree and abs(analytic - stated) > 1e-6 else (
        MATCH if agree else QUALITATIVE
    )
    return AuditClaim(
        computed=f"{_fmt(analytic)} analytically = {exact_rate}; jet evaluation "
        f"gives {_fmt(sampled)}",
        verdict=verdict,
        expected_verdict=MISMATCH,
        **text,
    )


def _claim_gradient_amplitude() -> AuditClaim:
    return _claim_blowup_rate(
        ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=1.0),
        lambda jet: jet.d1[1],
        "2k/(T-t)",
        id="gradient-blowup-amplitude",
        description="on-axis spatial gradient of the logarithmic family as "
        "t approaches the blow-up time",
        source_location="closedform catalog, stated gradient blow-up rate",
        claimed="k/(T-t), i.e. 2.0 at k=1, T=1, t=0.5",
        note="the (T-t)^-1 rate agrees; the amplitude is off by a factor 2",
    )


def _claim_axis_curvature_sign() -> AuditClaim:
    return _claim_blowup_rate(
        ClosedFormSolution(family=Family.MEMBRANE_SPHERE_PLUS, T=1.0),
        lambda jet: jet.d2[2],
        "-1/(T-t) for the upper cap",
        id="axis-curvature-sign",
        description="second radial derivative of the sphere caps on the "
        "axis as t approaches the blow-up time",
        source_location="closedform catalog, stated axis curvature",
        claimed="+1/(T-t) for the upper cap (sign tracks the cap)",
        note="the |T-t|^-1 magnitude agrees; the sign is opposite "
        "(an upward cap curves downward)",
    )


def _claim_mode_roots() -> AuditClaim:
    report = solve_mode_quadratic()
    symmetry = mode_growth_probe()
    verdict = MATCH if report.matches_claim else MISMATCH
    return AuditClaim(
        id="separable-mode-roots",
        description="roots of the quadratic governing separable modes of "
        "the linearized profile equation at the axis",
        source_location="stability module, separable mode quadratic",
        claimed="roots {4, -1}",
        computed=f"roots {{{report.roots[0]:g}, {report.roots[1]:g}}} "
        f"({report.classification})",
        verdict=verdict,
        expected_verdict=MISMATCH,
        note=f"the one growing root, nu = {symmetry.exponent:g}, has the blow-up-time "
        f"translation e^tau/phi (residual {symmetry.max_residual:.1e}) and, the caps "
        "being lightlike, every e^tau f(rho) in its eigenspace; the claimed pair "
        "{4, -1} has no root at 1",
    )


def _claim_sphere_lightlike(worst, within) -> AuditClaim:
    return AuditClaim(
        id="sphere-caps-lightlike",
        description="the sphere caps satisfy the eikonal identity, so the "
        "graphs are lightlike everywhere",
        source_location="closedform catalog, sphere cap degeneracy note",
        claimed="1 - u_t^2 + u_r^2 = 0 on the whole backward cone",
        computed=f"max |eikonal residual| = {_fmt(worst)} over 2x{SWEEP_N} "
        "cone samples",
        verdict=MATCH if within else MISMATCH,
        expected_verdict=MATCH,
    )


def _claim_steady_families() -> AuditClaim:
    k = 0.7
    err_t, err_claimed, err_corrected = steady_family_errors(k, 1e-3)
    timelike_ok = err_t <= 1e-8
    spacelike_printed_fails = err_claimed >= 0.09 * k
    spacelike_arctan_ok = err_corrected <= 1e-8
    verdict = (
        MISMATCH
        if timelike_ok and spacelike_printed_fails and spacelike_arctan_ok
        else QUALITATIVE
    )
    return AuditClaim(
        id="steady-reduction-families",
        description="closed-form families printed for the two linear steady "
        "reductions, checked against each reduction's first integral, "
        "(1 -+ rho^2) v' constant, from matching initial slopes",
        source_location="similarity module, steady reductions",
        claimed="timelike: k*ln((1+rho)/(1-rho)); spacelike: "
        "k*ln(rho+sqrt(1+rho^2))",
        computed=f"timelike family matches the integral to {_fmt(err_t)} on "
        f"[0, 0.9]; printed spacelike family deviates by {_fmt(err_claimed)} "
        f"(>= 0.09k = {_fmt(0.09 * k)}) on [0, 2] while k*arctan(rho) "
        f"matches to {_fmt(err_corrected)}",
        verdict=verdict,
        expected_verdict=MISMATCH,
        note="the printed spacelike function solves the timelike-signature "
        "version of the steady equation, not the one displayed next to it",
    )


def _claim_energy_scaling() -> AuditClaim:
    scaling = measure_scaling_exponent()
    return AuditClaim(
        id="energy-scaling-exponent",
        description="scaling exponent of the quadratic energy under the "
        "rescaling family u -> u(lambda t, lambda x)/lambda",
        source_location="conserved module, stated energy scaling",
        claimed="energy scales like lambda^1",
        computed=f"exponent {scaling.exponent!r} unweighted and "
        f"{scaling.coordinate_weighted_exponent!r} with coordinate weight, exactly: "
        "the substitution x -> x/lambda fixes them for any field on covariant windows",
        verdict=STATED,
        expected_verdict=STATED,
        note="the quantity the stated exponent refers to is defined only "
        "through underdetermined antiderivatives, so the audit states the "
        "exponents without adjudicating",
    )


def _measure_branch_linearization() -> dict:
    """Consistency of the linearized operator with the scaled reduction,
    measured along the degenerate circle profile.

    No stated value exists for this number; it is reported so the two
    displayed forms of the linearization can be compared. A mismatch above
    1e-3 would flag them as inconsistent.
    """

    # e^(tau/2) times the quartic bump w = s^2 supported on [0.1, 0.9], with
    # s = (rho-0.1)(0.9-rho), so the tau entries of the operator are probed;
    # the square is the C library's pow, as a float computes it
    def bump(rho):
        s = (rho - 0.1) * (0.9 - rho)
        w, dw = s * s, 2.0 * s * (1.0 - 2.0 * rho)
        d2w = 2.0 * libm_pow(1.0 - 2.0 * rho, 2) - 4.0 * s
        return Jet2(w, (w / 2, dw), (w / 4, dw / 2, d2w))

    rhos = [0.15 + 0.7 * i / 49 for i in range(50)]
    check = directional_linearization_check(
        lambda rho: degenerate_branch(1, rho), bump, 1e-6, rhos
    )
    return {
        "base": "degenerate circle profile, upper sign",
        "direction": "e^(tau/2) times the quartic bump supported on [0.1, 0.9]",
        **vars(check),
        "flagged_inconsistent": bool(check.max_abs_difference > 1e-3),
    }


def run_audit() -> AuditReport:
    """Execute the fixed claim list in its fixed order. The sphere caps are
    lightlike, so one jet of both caps certifies the membrane equation and
    the eikonal identity."""
    membrane, lightlike = _certified((EquationId.RADIAL_MEMBRANE, EquationId.EIKONAL), SPHERE_CAPS)
    claims = (
        _claim_string_solution(),
        _claim_membrane_solution(*membrane),
        _claim_spacelike_solution(),
        _claim_gradient_amplitude(),
        _claim_axis_curvature_sign(),
        _claim_mode_roots(),
        _claim_sphere_lightlike(*lightlike),
        _claim_steady_families(),
        _claim_energy_scaling(),
    )
    measurements = {"branch_linearization": _measure_branch_linearization()}
    return AuditReport(claims=claims, measurements=measurements)
