"""The benchmark's three workloads: seeded inputs, exact references, output gates.

Each workload is a fixed list of operations. An operation is one call of
``zmclab.cli.main(argv)`` in this process, or one call of a public function;
a pass runs every operation once. Seed 0 reproduces the documented inputs
exactly (the README evolve config, ``verify`` at its defaults); other seeds
draw the free parameters from ranges on which every gate holds.

Why these three:
* certify: extended-precision jets and residual sweeps carry nearly all of
  the time, and no evolution runs.
* evolve: the excised evolution's RK4 hot loop on arrays, string and
  membrane paths, with certification idle.
* ode: the same RK4 stepper on 2-vectors, where call overhead is the cost.

Reference values (closure times, exact jets, closed forms) are computed by
``prepare`` and ``check``, both outside the timed part of a pass.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import zmclab.cli
from zmclab import similarity
from zmclab.closedform import ClosedFormSolution, Family, evaluate_jet
from zmclab.similarity import SteadyOdeId

DEFAULT_SEED = 0


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOutcome:
    """``zmclab.cli.main(argv)`` with stdout and stderr captured.

    ``main`` is looked up on the module at call time, so a traced run sees
    the wrapped entry point.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zmclab.cli.main(argv)
    return CliOutcome(code, out.getvalue(), err.getvalue())


def cli_payload(outcome: CliOutcome, errors: list[str]):
    """The JSON a subcommand printed, or None with the reason in errors."""
    if outcome.code != 0:
        errors.append(f"exit code {outcome.code}: {outcome.stderr.strip()[:300]}")
        return None
    try:
        return json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return None


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]


def _csv_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def closure_time(sol: ClosedFormSolution, lo: float, hi: float,
                 pinned_left: bool, dt: float = 1e-3) -> float:
    """Time at which the exact domain of dependence of [lo, hi] at t = 0 closes.

    Each free edge moves at the incoming characteristic speed of the exact
    jet: the left edge at max(lambda-, lambda+, 0), the right edge at
    min(lambda-, lambda+, 0). A pinned left edge (the radial axis) stays
    put. Classical RK4 steps of dt carry the edges until they cross; the
    crossing is then bisected inside the last step.
    """

    def incoming(t, x, left):
        p, q = evaluate_jet(sol, (t, x)).d1
        root = math.sqrt(1.0 - p * p + q * q)
        denom = 1.0 + q * q
        speeds = ((-p * q - root) / denom, (-p * q + root) / denom)
        return max(0.0, *speeds) if left else min(0.0, *speeds)

    def velocity(t, y):
        left = 0.0 if pinned_left else incoming(t, y[0], True)
        return np.array([left, incoming(t, y[1], False)])

    def step(t, y, h):
        k1 = velocity(t, y)
        k2 = velocity(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = velocity(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = velocity(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    t, y = 0.0, np.array([lo, hi], dtype=float)
    while True:
        if t + dt >= sol.T:
            raise ArithmeticError("edges did not meet before the blow-up time")
        y_next = step(t, y, dt)
        if y_next[1] - y_next[0] <= 0.0:
            break
        t, y = t + dt, y_next
    a, b = 0.0, dt
    for _ in range(60):
        mid = 0.5 * (a + b)
        y_mid = step(t, y, mid)
        if y_mid[1] - y_mid[0] > 0.0:
            a = mid
        else:
            b = mid
    return t + 0.5 * (a + b)


def snapshot_sup_error(path, sol: ClosedFormSolution, t: float) -> float:
    """sup |u - exact| over a snapshot CSV; cells round-trip exactly via repr."""
    rows = _csv_rows(path)
    if rows[0] != ["x", "u", "p", "q"]:
        raise ValueError(f"unexpected snapshot header {rows[0]}")
    return max(
        abs(float(u) - evaluate_jet(sol, (t, float(x))).value) for x, u, _, _ in rows[1:]
    )


class Certify:
    """`zmclab audit`, then `zmclab verify` for every pairing at its defaults."""

    name = "certify"
    work_source = {"residuals.sweep_residual": "points"}

    def __init__(self, seed: int, out_dir: Path, quick: bool = False):
        rng = random.Random(seed)
        # mpmath cost does not depend on k, so the drawn k moves only values
        self.log_k = None if seed == DEFAULT_SEED else (
            rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 3.0)
        )
        equation_name = {v: k for k, v in zmclab.cli.EQUATION_BY_NAME.items()}
        family_name = {v: k for k, v in zmclab.cli.FAMILY_BY_NAME.items()}
        self.ops = [Op("audit", functools.partial(run_cli, ["audit"]))]
        for equation, family in zmclab.cli.VERIFY_PAIRINGS:
            eq, fam = equation_name[equation], family_name[family]
            argv = ["verify", "--equation", eq, "--family", fam]
            if family is Family.BORN_INFELD_LOG and self.log_k is not None:
                argv += ["--k", repr(self.log_k)]
            if quick:
                argv += ["--samples", "16"]
            self.ops.append(Op(f"verify-{eq}-{fam}", functools.partial(run_cli, argv)))
        self.audit_text = None
        self.findings: dict = {}

    def prepare(self) -> None:
        """Nothing to compute: the warm-up pass's audit output becomes the
        byte-identity reference for every later pass."""

    def check(self, results: dict) -> dict:
        errors: dict = {}
        for label, outcome in results.items():
            errs = errors.setdefault(label, [])
            payload = cli_payload(outcome, errs)
            if payload is None:
                continue
            if label == "audit":
                if payload.get("all_as_expected") is not True:
                    errs.append("audit verdicts differ from their expected values")
                if self.audit_text is None:
                    self.audit_text = outcome.stdout
                elif outcome.stdout != self.audit_text:
                    errs.append("audit JSON differs from the first pass")
            elif payload.get("within_expectation") is not True:
                errs.append(f"verify outside expectation: {payload.get('report')}")
        return errors


STRING_CONFIG = """\
equation = born-infeld
family = log
k = {k!r}
T = 1.0
n = 400
t_end = 0.8
fit = true
"""

MEMBRANE_CONFIG = """\
equation = membrane
family = constant
k = {c!r}
T = 1.0
lo = 0.0
hi = 0.5
n = 800
t_end = 0.8
"""

STRING_SUP_ERROR_MAX = 4e-7  # the README's bound at the exhaustion time
MEMBRANE_SUP_ERROR_MAX = 1e-12  # u = c (T - t) is linear in t: RK4 is exact
MIN_OBSERVED_ORDER = 2.0


class Evolve:
    """`zmclab evolve` on the README config over an n ladder, then one
    radial-membrane run from the constant profile."""

    name = "evolve"
    work_source = {"evolution.run_evolution": "node_steps"}

    def __init__(self, seed: int, out_dir: Path, quick: bool = False):
        rng = random.Random(seed)
        self.k = 0.2 if seed == DEFAULT_SEED else rng.uniform(0.18, 0.22)
        self.c = 0.3 if seed == DEFAULT_SEED else rng.uniform(0.2, 0.4)
        self.ladder = (400, 800) if quick else (400, 800, 1600)
        membrane_n = 200 if quick else 800
        out_dir.mkdir(parents=True, exist_ok=True)
        string_cfg = out_dir / "evolve-string.cfg"
        string_cfg.write_text(STRING_CONFIG.format(k=self.k), encoding="utf-8")
        membrane_cfg = out_dir / "evolve-membrane.cfg"
        membrane_cfg.write_text(MEMBRANE_CONFIG.format(c=self.c), encoding="utf-8")

        self.runs = {}  # label -> (solution, diagnostics path, snapshot path)
        self.ops = []
        string_sol = ClosedFormSolution(Family.BORN_INFELD_LOG, 1.0, self.k)
        membrane_sol = ClosedFormSolution(Family.CONSTANT_PROFILE, 1.0, self.c)
        plan = [(f"string-n{n}", string_cfg, n, string_sol) for n in self.ladder]
        plan.append((f"membrane-n{membrane_n}", membrane_cfg, membrane_n, membrane_sol))
        for label, cfg, n, sol in plan:
            diag = out_dir / f"{label}-diagnostics.csv"
            snap = out_dir / f"{label}-snapshot.csv"
            argv = ["evolve", str(cfg), "--set", f"n={n}",
                    "--set", f"diagnostics_csv={diag}", "--set", f"snapshots_csv={snap}"]
            self.runs[label] = (sol, diag, snap)
            self.ops.append(Op(label, functools.partial(run_cli, argv)))
        self.t_star: dict = {}
        self.findings: dict = {}

    def prepare(self) -> None:
        string_sol = ClosedFormSolution(Family.BORN_INFELD_LOG, 1.0, self.k)
        membrane_sol = ClosedFormSolution(Family.CONSTANT_PROFILE, 1.0, self.c)
        self.t_star = {
            "string": closure_time(string_sol, -0.5, 0.5, pinned_left=False),
            "membrane": closure_time(membrane_sol, 0.0, 0.5, pinned_left=True),
        }

    def check(self, results: dict) -> dict:
        errors: dict = {}
        sup_errors = {}
        for label, outcome in results.items():
            errs = errors.setdefault(label, [])
            payload = cli_payload(outcome, errs)
            if payload is None:
                continue
            sol, diag, snap = self.runs[label]
            string = label.startswith("string")
            t_star = self.t_star["string" if string else "membrane"]
            t_final = payload["t_final"]
            if payload["status"] != "domain-exhausted":
                errs.append(f"status {payload['status']}, expected domain-exhausted")
            if not t_final <= t_star:
                errs.append(f"t_final {t_final!r} passes the closure time {t_star!r}")
            rows = len(_csv_rows(diag)) - 1
            if rows != payload["n_steps"] + 1:
                errs.append(f"diagnostics has {rows} rows for {payload['n_steps']} steps")
            err = snapshot_sup_error(snap, sol, t_final)
            bound = STRING_SUP_ERROR_MAX if string else MEMBRANE_SUP_ERROR_MAX
            if not err <= bound:
                errs.append(f"sup error {err:.3e} above {bound:.0e}")
            if string:
                sup_errors[label] = err
                fit = payload["fit"]
                if fit is None:
                    errs.append("blow-up fit missing")
                elif (abs(fit["exponent"] - 1.0) > 0.05
                      or abs(fit["amplitude"] - 2 * self.k) > 0.1 * self.k):
                    errs.append(f"blow-up fit off the exact 2k/(T-t): {fit}")
            if label == f"string-n{self.ladder[-1]}":
                self.findings = {"sup_error": err, "closure_gap": t_star - t_final}

        labels = [f"string-n{n}" for n in self.ladder]
        for coarse, fine in zip(labels, labels[1:]):
            if coarse in sup_errors and fine in sup_errors:
                order = math.log2(sup_errors[coarse] / sup_errors[fine])
                if not order >= MIN_OBSERVED_ORDER:
                    errors[fine].append(f"observed order {order:.3f} from {coarse}")
        return errors


DRHO = 1e-3
RHO_MAX = 0.9
ADAPTIVE_TOLERANCE = 1e-10
# adaptive shoots halve toward the circle until the gap 1 - rho^2 - phi^2
# reaches 1e-8, which is within ~1e-8 of the circle in rho
ADAPTIVE_STOP_MAX = 1e-6
HEIGHT_RANGE = (0.45, 0.95)  # every circle sqrt(1 - a^2) lies inside RHO_MAX
STEADY_MAX_ERROR = 1e-8
SCALING_EXPONENT = -1.0  # E scales like 1/lambda exactly on covariant windows


class Ode:
    """`zmclab profile` over seeded axis heights (fixed and adaptive steps),
    `zmclab stability`, `zmclab scaling`, and both steady ODE integrations."""

    name = "ode"
    work_source = {"profiles.shoot_profile": "steps", "similarity.steady_ode_integrate": "steps"}

    def __init__(self, seed: int, out_dir: Path, quick: bool = False):
        rng = random.Random(seed)
        count = 2 if quick else 8
        lo, hi = HEIGHT_RANGE
        width = (hi - lo) / count
        # one height per stratum keeps the total step count nearly seed-free
        self.heights = [
            lo + width * (i + (0.5 if seed == DEFAULT_SEED else rng.random()))
            for i in range(count)
        ]
        self.steady_k = 0.7 if seed == DEFAULT_SEED else rng.uniform(0.3, 1.0)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.profiles = {}
        self.ops = []
        modes = (("fixed", []), ("adaptive", ["--tolerance", repr(ADAPTIVE_TOLERANCE)]))
        for i, a in enumerate(self.heights):
            for mode, extra in modes:
                label = f"profile-{i}-{mode}"
                path = out_dir / f"{label}.csv"
                argv = ["profile", "--a", repr(a), "--rho-max", repr(RHO_MAX),
                        "--drho", repr(DRHO), "--csv", str(path), *extra]
                self.profiles[label] = (a, mode, path)
                self.ops.append(Op(label, functools.partial(run_cli, argv)))
        k = self.steady_k
        self.ops += [
            Op("stability", functools.partial(run_cli, ["stability"])),
            Op("scaling", functools.partial(run_cli, ["scaling"])),
            Op("steady-born-infeld", lambda: similarity.steady_ode_integrate(
                SteadyOdeId.BORN_INFELD_STEADY, (0.0, 2.0 * k), (0.0, 0.9), DRHO)),
            Op("steady-spacelike", lambda: similarity.steady_ode_integrate(
                SteadyOdeId.SPACELIKE_STEADY, (0.0, k), (0.0, 2.0), DRHO)),
        ]
        self.findings: dict = {}

    def prepare(self) -> None:
        """References here are closed forms, evaluated inside check."""

    def _check_profile(self, label, payload, errs) -> None:
        a, mode, path = self.profiles[label]
        circle = math.sqrt(1.0 - a * a)
        if payload["termination"] != "degeneracy-hit":
            errs.append(f"termination {payload['termination']}, expected degeneracy-hit")
            return
        phi = [float(row[1]) for row in _csv_rows(path)[1:]]
        drift = max(abs(v - a) for v in phi)
        if drift > 1e-12 or payload["max_drift_from_height"] > 1e-12:
            errs.append(f"profile leaves its height {a!r} by {drift:.3e}")
        if len(phi) != payload["n_points"]:
            errs.append(f"CSV has {len(phi)} rows, JSON says {payload['n_points']}")
        short = circle - payload["degeneracy_location"]
        limit = DRHO * (1 + 1e-9) if mode == "fixed" else ADAPTIVE_STOP_MAX
        if not 0.0 <= short <= limit:
            errs.append(f"stopped {short:.3e} before the circle rho = {circle!r}")

    def check(self, results: dict) -> dict:
        errors: dict = {}
        k = self.steady_k
        for label, outcome in results.items():
            errs = errors.setdefault(label, [])
            if label == "steady-born-infeld":
                worst = max(abs(v - k * math.log((1.0 + r) / (1.0 - r)))
                            for r, v in zip(outcome.rhos, outcome.v))
            elif label == "steady-spacelike":
                worst = max(abs(v - k * math.atan(r)) for r, v in zip(outcome.rhos, outcome.v))
            else:
                payload = cli_payload(outcome, errs)
                if payload is None:
                    continue
                if label.startswith("profile"):
                    self._check_profile(label, payload, errs)
                elif label == "stability":
                    top = max(np.roots(payload["mode_report"]["quadratic"]).real)
                    growth = payload["growth_probe_exponent"]
                    if abs(growth - top) > 1e-6:
                        errs.append(f"growth exponent {growth!r} misses the root {top!r}")
                elif abs(payload["exponent"] - SCALING_EXPONENT) > 1e-9:
                    errs.append(f"scaling exponent {payload['exponent']!r}, exact -1")
                continue
            if not worst <= STEADY_MAX_ERROR:
                errs.append(f"{label} misses its closed form by {worst:.3e}")
        return errors


WORKLOADS = {w.name: w for w in (Certify, Evolve, Ode)}
