"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line for its criterion before asserting,
so a verbose run reads as a checklist. Shared evolution runs live in a
session fixture, and criteria 5 and 10 read the shared audit report from
conftest.py. Criteria 1-4 compute through the functions the audit calls
(residuals.certify at 100 x 100 instead of the audit's 20 x 25, and
similarity.steady_family_errors on a finer sample grid), while stating
their own bounds; everything else is computed inline.

Criterion 7 starts its runs from the window |x| <= 0.8, whose exact domain
of dependence still holds the t = 0.8 slice; its docstring gives the
closure times behind that choice.
"""

import math
import time

import numpy as np
import pytest

from exact_error import sup_error_against
from profile_forms import (
    first_order_branch_residual,
    profile_residual,
    profile_residual_regrouped,
)
from zmclab.cli import main
from zmclab.closedform import ClosedFormSolution, Family, evaluate_jet
from zmclab.evolution import (
    EvolutionConfig,
    RunStatus,
    fit_blowup_series,
    initial_state_from_solution,
    run_evolution,
)
from zmclab.numerics import Grid1D, Jet2
from zmclab.profiles import degenerate_branch
from zmclab.residuals import EquationId, certify, residual_at
from zmclab.similarity import steady_family_errors
from zmclab.stability import (
    directional_linearization_check,
    linearized_coefficients,
    solve_mode_quadratic,
)

STRING_LOG_02 = ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=0.2)


def verdict(num, slug, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} [{slug}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num:02d} [{slug}] failed{tail}"


def evolve_string_window(half_width):
    """Excised runs of STRING_LOG_02 from |x| <= half_width, n in {200, 400, 800}."""
    runs = {}
    for n in (200, 400, 800):
        grid = Grid1D(lo=-half_width, hi=half_width, n=n)
        state = initial_state_from_solution(STRING_LOG_02, grid)
        runs[n] = run_evolution(state, EvolutionConfig(blowup_time=1.0, t_end=0.8))
    return runs


@pytest.fixture(scope="session")
def excised_runs():
    """Runs from |x| <= 0.5 to t_end = 0.8, shared by criteria 8 and 9."""
    return evolve_string_window(0.5)


def certify_worst(equations, members):
    """Per equation, the worst max |residual| of the 100 x 100 certification
    sweep of members against it, and whether it meets its pairing: one
    batched certify call, as the audit makes at 20 x 25."""
    return [(report.max_abs, within) for report, within in certify(equations, members, 100, 100)]


def test_criterion_01_string_solution_sweep():
    [(worst, within)] = certify_worst((EquationId.BORN_INFELD,), [
        ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=k)
        for k in (0.2, 1.0, -3.0)
    ])
    verdict(1, "string-solution-sweep", within and worst <= 1e-9,
            f"max |residual| = {worst:.3e} over 3x10^4 points")


def test_criterion_02_membrane_sweep_and_lightlike():
    caps = [ClosedFormSolution(family=family, T=1.0)
            for family in (Family.MEMBRANE_SPHERE_PLUS, Family.MEMBRANE_SPHERE_MINUS)]
    (worst_pde, pde_within), (worst_eik, eik_within) = certify_worst(
        (EquationId.RADIAL_MEMBRANE, EquationId.EIKONAL), caps
    )
    ok = pde_within and eik_within and worst_pde <= 1e-9 and worst_eik <= 1e-12
    verdict(2, "membrane-sweep-lightlike", ok,
            f"pde {worst_pde:.3e}, eikonal {worst_eik:.3e}")


def test_criterion_03_spacelike_audit_values():
    claimed = ClosedFormSolution(family=Family.SPACELIKE_LOG_CLAIMED, T=1.0, k=1.0)
    jet = evaluate_jet(claimed, (0.0, 0.5))
    r = residual_at(EquationId.SPACELIKE_GRAPH, jet, (0.0, 0.5))
    predicted = 0.5 / math.sqrt(1.25)  # k*y/((T-x)^2 sqrt((T-x)^2+y^2))

    corrected = ClosedFormSolution(
        family=Family.SPACELIKE_ARCTAN_CORRECTED, T=1.0, k=1.0
    )
    [(corr, within)] = certify_worst((EquationId.SPACELIKE_GRAPH,), [corrected])

    ok = (abs(r - predicted) <= 1e-6 and abs(r - 0.4472136) <= 1e-6
          and within and corr <= 1e-9)
    verdict(3, "spacelike-audit", ok,
            f"claimed-family residual {r:.7f}, corrected max {corr:.3e}")


def test_criterion_04_steady_ode_reproduction():
    """The asinh gap is the printed spacelike family's largest deviation,
    which k(asinh rho - arctan rho), increasing on [0, 2], takes at rho = 2."""
    k = 0.7
    err_t, gap_asinh, err_arctan = steady_family_errors(k, 1e-4)
    ok = err_t <= 1e-8 and err_arctan <= 1e-8 and gap_asinh >= 0.09 * k
    verdict(4, "steady-ode-reproduction", ok,
            f"log family {err_t:.2e}, arctan {err_arctan:.2e}, "
            f"asinh gap {gap_asinh:.3f} >= {0.09 * k:.3f}")


def test_criterion_05_mode_roots_and_classification(audit_report):
    report = solve_mode_quadratic()
    audit_claim = next(
        c for c in audit_report.claims if c.id == "separable-mode-roots"
    )
    ok = (
        set(report.roots) == {1.0, -4.0}
        and report.n_growing == 1
        and report.classification.startswith("unstable")
        and report.matches_claim is False
        and audit_claim.verdict == "mismatch"
        and ("one growing" in audit_claim.note or "unstable" in audit_claim.note)
    )
    verdict(5, "mode-analysis", ok,
            f"roots {report.roots}, {report.classification}")


def test_criterion_06_degeneracy_identities():
    worst_coeff = -1.0
    for sign in (1, -1):
        for rho in np.linspace(0.001, 0.999, 1000):
            phi, dphi, d2phi = degenerate_branch(sign, float(rho))
            c = linearized_coefficients(phi, dphi, d2phi, float(rho))
            worst_coeff = max(worst_coeff, abs(c.c_rho_rho), abs(c.c_tau_rho))

    rng = np.random.default_rng(6)
    worst_group = -1.0
    for _ in range(10_000):
        phi, dphi, d2phi = rng.uniform(-2.0, 2.0, size=3)
        rho = rng.uniform(0.01, 2.0)
        a = profile_residual(phi, dphi, d2phi, rho)
        b = profile_residual_regrouped(phi, dphi, d2phi, rho)
        worst_group = max(worst_group, abs(a - b))

    worst_branch = max(
        abs(first_order_branch_residual(*degenerate_branch(1, float(r))[:2], float(r)))
        for r in np.linspace(0.001, 0.999, 1000)
    )

    ok = worst_coeff <= 1e-12 and worst_group <= 1e-12 and worst_branch <= 1e-12
    verdict(6, "degeneracy-identities", ok,
            f"coeffs {worst_coeff:.2e}, grouping {worst_group:.2e}, "
            f"branch {worst_branch:.2e}")


def test_criterion_07_evolution_self_consistency():
    """The runs start from |x| <= 0.8, a window whose exact domain of
    dependence still holds the t = 0.8 slice.  The graph's characteristic
    speeds satisfy |lambda_pm| <= 1, and integrating the inward edge speed on
    the exact jet closes |x| <= 0.5 at t* = 0.55076, so runs from there end
    domain-exhausted near t = 0.55
    (test_evolution.py::test_window_exhausts_at_dependence_collapse), while
    |x| <= 0.8 closes only at t* ~= 0.9615.  The error is measured against the
    closed form on the nodes that survive at t = 0.8."""
    start = time.perf_counter()
    runs = evolve_string_window(0.8)
    elapsed = time.perf_counter() - start
    reached = all(r.status is RunStatus.COMPLETED and r.final.t >= 0.8
                  for r in runs.values())
    errs = [sup_error_against(runs[n], STRING_LOG_02) for n in (200, 400, 800)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]

    ok = (
        reached
        and errs[1] <= 5e-4
        and all(abs(o - 2.0) <= 0.3 for o in orders)
        and elapsed <= 60.0
    )
    stop = ", ".join(
        f"n={n}: {runs[n].status.value} at t={runs[n].final.t:.4f}" for n in runs
    )
    note = "" if reached else f"not every run completes ({stop}); "
    verdict(7, "evolution-self-consistency", ok,
            f"{note}at t=0.8 sup errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e} "
            f"with orders {orders[0]:.2f}/{orders[1]:.2f}; runtime {elapsed:.1f}s")


def test_criterion_08_blowup_rate_fit(excised_runs):
    run = excised_runs[800]
    fit = fit_blowup_series(*run.center_samples, 1.0, (0.5, 0.95))
    ok = abs(fit.exponent - 1.0) <= 0.05 and abs(fit.amplitude - 0.4) <= 0.02
    verdict(8, "blowup-rate-fit", ok,
            f"exponent {fit.exponent:.6f}, amplitude {fit.amplitude:.6f} "
            f"(2k = 0.4), n = {fit.n_points}")


def test_criterion_09_momentum_conservation(excised_runs):
    runs = excised_runs
    drift = runs[400].relative_momentum_drift
    verdict(9, "momentum-conservation", drift <= 1e-4,
            f"flux-corrected relative drift {drift:.2e}")


def test_criterion_10_linearization_consistency(audit_report):
    def bump(rho):
        s = (rho - 0.1) * (0.9 - rho)
        d2w = 2.0 * (1.0 - 2.0 * rho) ** 2 - 4.0 * s
        return Jet2(s * s, (0.0, 2.0 * s * (1.0 - 2.0 * rho)), (0.0, 0.0, d2w))

    check = directional_linearization_check(
        lambda rho: (0.0, 0.0, 0.0), bump, 1e-6, np.linspace(0.15, 0.85, 50)
    )
    branch = audit_report.measurements["branch_linearization"]
    ok = check.max_abs_difference <= 1e-5 and "max_abs_difference" in branch
    verdict(10, "linearization-consistency", ok,
            f"zero-base mismatch {check.max_abs_difference:.2e}; branch "
            f"mismatch {branch['max_abs_difference']:.2e} reported in audit")


def test_criterion_11_determinism_and_interfaces(tmp_path, capsys):
    code1 = main(["audit"])
    out1 = capsys.readouterr().out
    code2 = main(["audit"])
    out2 = capsys.readouterr().out
    deterministic = code1 == 0 and code2 == 0 and out1 == out2

    cfg = tmp_path / "ref.cfg"
    cfg.write_text(
        "equation = born-infeld\nfamily = log\nk = 0.2\nT = 1.0\n"
        f"n = 100\nt_end = 0.3\ndiagnostics_csv = {tmp_path / 'd.csv'}\n"
        f"snapshots_csv = {tmp_path / 's.csv'}\n"
    )
    code3 = main(["evolve", str(cfg)])
    capsys.readouterr()
    import csv as csvmod

    shapes = []
    for name in ("d.csv", "s.csv"):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csvmod.reader(fh))
        shapes.append(len({len(r) for r in rows}) == 1 and len(rows) > 1)
    csv_ok = code3 == 0 and all(shapes)

    # the three canned misuse cases
    bad = tmp_path / "bad.cfg"
    bad.write_text("equation = born-infeld\nbroken line\n")
    missing = tmp_path / "missing.cfg"
    missing.write_text("family = log\n")
    codes = (
        main(["verify", "--equation", "born-infeld", "--family", "sphere-plus"]),
        main(["evolve", str(missing)]),
        main(["evolve", str(bad)]),
    )
    capsys.readouterr()
    misuse_ok = codes == (2, 2, 2)

    ok = deterministic and csv_ok and misuse_ok
    verdict(11, "determinism-interfaces", ok,
            f"audit byte-identical: {deterministic}; CSV shapes constant: "
            f"{all(shapes)}; misuse exit codes: {codes}")
