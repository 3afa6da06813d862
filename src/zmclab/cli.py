"""Command-line front end.

Subcommands: verify (residual sweeps), profile (profile ODE runs),
evolve (excised evolution from a key=value config file), stability
(mode report), scaling (energy scaling measurement), audit (the
consolidated claims audit).

Exit codes are a three-way contract: 0 for success or an expected finding,
1 for a tolerance or expectation failure, 2 for usage and config errors.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .audit import run_audit
from .closedform import ClosedFormSolution, Family
from .errors import (
    ArityError,
    ConfigError,
    DegenerateStartError,
    DegeneracyError,
    DomainError,
    LabError,
)
from .evolution import (
    EvolutionConfig,
    EvolutionState,
    fit_blowup_rate,
    initial_state_from_solution,
    run_evolution,
)
from .conserved import QuadratureWeight, measure_scaling_exponent
from .numerics import Grid1D
from .profiles import shoot_profile
from .reporting import (
    dumps_json,
    write_diagnostics_csv,
    write_json,
    write_profile_csv,
    write_snapshot_csv,
)
from .residuals import MARGIN, RHO_MAX, VERIFY_PAIRINGS, EquationId, certify
from .stability import mode_growth_probe, solve_mode_quadratic

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2

OUTPUT_DIR_ENV = "ZMCLAB_OUTPUT_DIR"
# verify's sample cap: a sample point costs about 270 B of peak memory, so
# 10**6 points stay near 0.3 GB
MAX_SAMPLES = 10**6

FAMILY_BY_NAME = {
    "log": Family.BORN_INFELD_LOG,
    "sphere-plus": Family.MEMBRANE_SPHERE_PLUS,
    "sphere-minus": Family.MEMBRANE_SPHERE_MINUS,
    "log-claimed": Family.SPACELIKE_LOG_CLAIMED,
    "arctan-corrected": Family.SPACELIKE_ARCTAN_CORRECTED,
    "constant": Family.CONSTANT_PROFILE,
}

EQUATION_BY_NAME = {
    "born-infeld": EquationId.BORN_INFELD,
    "membrane": EquationId.RADIAL_MEMBRANE,
    "spacelike": EquationId.SPACELIKE_GRAPH,
    "eikonal": EquationId.EIKONAL,
}


def resolve_output(path: str) -> str:
    """Relative output paths land in $ZMCLAB_OUTPUT_DIR when it is set."""
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTPUT_DIR_ENV)
    if not base:
        return path
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, path)


def _emit(args, payload: dict) -> None:
    text = dumps_json(payload)
    sys.stdout.write(text)
    json_path = getattr(args, "json", None)
    if json_path:
        write_json(resolve_output(json_path), payload)


def cmd_verify(args) -> int:
    equation = EQUATION_BY_NAME[args.equation]
    family = FAMILY_BY_NAME[args.family]
    pairing = VERIFY_PAIRINGS.get((equation, family))
    if pairing is None:
        sys.stderr.write(
            f"error: family {args.family!r} cannot be verified against "
            f"equation {args.equation!r}\n"
        )
        return EXIT_USAGE
    expectation, threshold = pairing

    sol = ClosedFormSolution(family=family, T=args.T, k=args.k)
    side = max(2, int(args.samples**0.5))
    report, within = certify(equation, sol, side, side, args.margin, args.rho_max)
    payload = {
        "equation": args.equation,
        "family": args.family,
        "k": args.k,
        "T": args.T,
        "expectation": expectation,
        "threshold": threshold,
        "within_expectation": within,
        "report": report.to_json_dict(),
    }
    _emit(args, payload)
    return EXIT_OK if within else EXIT_TOLERANCE


def cmd_profile(args) -> int:
    run = shoot_profile(args.a, args.rho_max, args.drho, tolerance=args.tolerance)
    csv_path = resolve_output(args.csv)
    write_profile_csv(csv_path, run)
    final = run.final_state()
    payload = {
        "height": args.a,
        "termination": run.termination.value,
        "degeneracy_location": run.degeneracy_location,
        "n_points": int(run.rhos.size),
        "final": {"rho": final.rho, "phi": final.phi, "dphi": final.dphi},
        "max_drift_from_height": float(np.max(np.abs(run.phi - args.a))),
        "csv": csv_path,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_stability(args) -> int:
    report = solve_mode_quadratic()
    symmetry = mode_growth_probe()
    payload = {
        "mode_report": report.to_json_dict(),
        "growth_probe_exponent": symmetry.exponent,
        "time_translation_residual": symmetry.max_residual,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_scaling(args) -> int:
    weight = (
        QuadratureWeight.COORDINATE
        if args.weight == "coordinate"
        else QuadratureWeight.UNWEIGHTED
    )
    sol = ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=args.T, k=args.k)
    m = measure_scaling_exponent(
        sol, t0=args.t0, window=args.window, lambdas=args.lambdas, weight=weight
    )
    _emit(args, m.to_json_dict())
    return EXIT_OK


def cmd_audit(args) -> int:
    report = run_audit()
    _emit(args, report.to_json_dict())
    return EXIT_OK if report.all_as_expected else EXIT_TOLERANCE


def _parse_bool(text: str) -> bool:
    if text in ("true", "yes", "1"):
        return True
    if text in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# evolve config schema: key -> (parser, default); equation is required.
CONFIG_SCHEMA = {
    "equation": (str, None),
    "family": (str, "zero"),
    "k": (float, 0.2),
    "T": (float, 1.0),
    "t0": (float, 0.0),
    "t_end": (float, 0.5),
    "lo": (float, -0.5),
    "hi": (float, 0.5),
    "n": (int, 400),
    "diagnostics_csv": (str, "diagnostics.csv"),
    "snapshots_csv": (str, ""),
    "fit": (_parse_bool, False),
    "fit_lo": (float, 0.4),
    "fit_hi": (float, 0.95),
}


def _config_entry(raw: str, where: str):
    """(key, value) of one config line or override, or None if it is blank.

    A ConfigError message starts with where.
    """
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise ConfigError(f"{where}: expected key=value, got {raw!r}")
    key, _, value = line.partition("=")
    key = key.strip()
    if key not in CONFIG_SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    parser, _ = CONFIG_SCHEMA[key]
    try:
        return key, parser(value.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines skipped.

    Raises ConfigError naming the offending line number.
    """
    entries = (
        _config_entry(raw, f"line {lineno}")
        for lineno, raw in enumerate(text.splitlines(), start=1)
    )
    return dict(entry for entry in entries if entry is not None)


def _apply_overrides(values: dict, overrides) -> None:
    """--set KEY=VALUE flags, read like config lines; blank ones are refused."""
    for item in overrides or ():
        entry = _config_entry(item, f"override {item!r}")
        if entry is None:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, value = entry
        values[key] = value


def _build_initial_state(cfgv) -> EvolutionState:
    grid = Grid1D(lo=cfgv["lo"], hi=cfgv["hi"], n=cfgv["n"])
    if cfgv["family"] == "zero":
        xs = grid.nodes()
        z = np.zeros_like(xs)
        return EvolutionState(
            t=cfgv["t0"], xs=xs, u=z.copy(), p=z.copy(), q=z.copy(),
            spacing=grid.spacing,
        )
    family = FAMILY_BY_NAME.get(cfgv["family"])
    if family is None:
        raise ConfigError(f"unknown family {cfgv['family']!r}")
    sol = ClosedFormSolution(family=family, T=cfgv["T"], k=cfgv["k"])
    return initial_state_from_solution(sol, grid, t0=cfgv["t0"])


def cmd_evolve(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    values = parse_config_text(text)
    _apply_overrides(values, args.set)
    if "equation" not in values:
        raise ConfigError("config is missing the required key 'equation'")
    for key, (_, default) in CONFIG_SCHEMA.items():
        if default is not None:
            values.setdefault(key, default)
    equation = EQUATION_BY_NAME.get(values["equation"])
    if equation is None:
        raise ConfigError(f"unknown equation {values['equation']!r}")
    if not (-np.inf < values["fit_lo"] < values["fit_hi"] < np.inf):
        raise ConfigError(
            f"fit window needs finite fit_lo < fit_hi, got fit_lo={values['fit_lo']}, "
            f"fit_hi={values['fit_hi']}"
        )

    try:
        state = _build_initial_state(values)
    except (DomainError, ConfigError):
        raise
    except LabError as exc:
        raise ConfigError(f"initial data construction failed: {exc}") from exc

    config = EvolutionConfig(
        blowup_time=values["T"],
        t_end=values["t_end"],
        equation=equation,
    )

    try:
        run = run_evolution(state, config)
    except DegeneracyError as exc:
        # expected for the exactly lightlike sphere caps: refusing to step
        # degenerate data is a finding, not a failure
        _emit(args, {
            "status": "refused-degenerate-initial-data",
            "detail": str(exc),
            "min_discriminant": state.min_discriminant(),
        })
        return EXIT_OK

    diagnostics_path = resolve_output(values["diagnostics_csv"])
    write_diagnostics_csv(diagnostics_path, run)
    snapshot_path = None
    if values["snapshots_csv"]:
        snapshot_path = resolve_output(values["snapshots_csv"])
        write_snapshot_csv(snapshot_path, run.final)

    payload = {
        "status": run.status.value,
        "t_final": run.final.t,
        "n_steps": run.n_steps,
        "active_nodes_final": int(run.active_nodes[-1]),
        "min_discriminant_final": float(run.min_disc[-1]),
        "relative_momentum_drift": run.relative_momentum_drift,
        "diagnostics_csv": diagnostics_path,
        "snapshots_csv": snapshot_path,
        "fit": None,
    }
    if values["fit"]:
        try:
            fit = fit_blowup_rate(run, (values["fit_lo"], values["fit_hi"]))
            payload["fit"] = fit.to_json_dict()
        except ArityError as exc:
            payload["fit_skipped_reason"] = str(exc)
    _emit(args, payload)
    return EXIT_OK


def _positive(kind, most=None):
    """argparse type: a finite value of kind (int or float) greater than zero
    and, when most is given, no larger than most."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not (value > 0 and np.isfinite(value)):
            what = "integer" if kind is int else "finite number"
            raise argparse.ArgumentTypeError(f"must be a positive {what}, got {text!r}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text!r}")
        return value

    return parse


def _comma_floats(count: int, exact: bool = False):
    """argparse type: comma-separated floats, at least (or exactly) count."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(float(s) for s in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if len(values) < count or (exact and len(values) != count):
            need = f"{count}" if exact else f"at least {count}"
            raise argparse.ArgumentTypeError(
                f"need {need} comma-separated numbers, got {len(values)}"
            )
        return values

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmclab",
        description="Numerical laboratory for self-similar blow-up in "
        "zero-mean-curvature wave equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="sweep a closed-form family's residual")
    p.add_argument("--equation", required=True, choices=sorted(EQUATION_BY_NAME))
    p.add_argument("--family", required=True, choices=sorted(FAMILY_BY_NAME))
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--samples", type=_positive(int, MAX_SAMPLES), default=400,
                   help=f"approximate total sample count, at most {MAX_SAMPLES}")
    p.add_argument("--margin", type=float, default=MARGIN)
    p.add_argument("--rho-max", type=float, default=RHO_MAX, dest="rho_max")
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("profile", help="shoot the profile equation from the axis")
    p.add_argument("--a", type=float, required=True, help="axis height phi(0)")
    p.add_argument("--rho-max", type=float, default=0.9, dest="rho_max")
    p.add_argument("--drho", type=_positive(float), default=1e-3)
    p.add_argument("--tolerance", type=_positive(float), default=None,
                   help="enable adaptive stepping at this local tolerance")
    p.add_argument("--csv", default="profile.csv")
    p.add_argument("--json")
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("evolve", help="run the excised evolution from a config file")
    p.add_argument("config", help="path to a key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--json")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("stability", help="separable mode report")
    p.add_argument("--json")
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser("scaling", help="measure the energy scaling exponent")
    p.add_argument("--lambdas", type=_comma_floats(3), default="0.5,1,2,4")
    p.add_argument("--k", type=float, default=0.3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=0.5)
    p.add_argument("--window", type=_comma_floats(2, exact=True), default="-0.2,0.3")
    p.add_argument("--weight", choices=("unweighted", "coordinate"),
                   default="unweighted")
    p.add_argument("--json")
    p.set_defaults(handler=cmd_scaling)

    p = sub.add_parser("audit", help="audit every quantitative claim")
    p.add_argument("--json")
    p.set_defaults(handler=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (ConfigError, DegenerateStartError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except LabError as exc:
        sys.stderr.write(f"failure: {exc}\n")
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
