"""Command-line front end.

Subcommands: verify (residual sweeps), profile (profile ODE runs),
evolve (excised evolution from a key=value config file), stability
(mode report), scaling (the exact energy scaling exponents), audit (the
consolidated claims audit).

Each subcommand prints its report as JSON on stdout, the only JSON it
writes; CSV paths (profile --csv, evolve's diagnostics_csv and
snapshots_csv) are opened exactly as given.

Exit codes are a three-way contract: 0 for success or an expected finding,
1 for a tolerance or expectation failure, 2 for usage and config errors,
including an output path that cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .audit import run_audit
from .closedform import ClosedFormSolution, Family
from .errors import (
    ArityError,
    DegeneracyError,
    DomainError,
    LabError,
)
from .evolution import (
    FLOWS,
    EvolutionConfig,
    fit_blowup_series,
    initial_state_from_solution,
    run_evolution,
)
from .conserved import measure_scaling_exponent
from .numerics import MIN_CELLS, Grid1D
from .profiles import shoot_profile
from .reporting import (
    dumps_json,
    write_diagnostics_csv,
    write_profile_csv,
    write_snapshot_csv,
)
from .residuals import VERIFY_PAIRINGS, EquationId, certify
from .stability import mode_growth_probe, solve_mode_quadratic

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2

# verify's sample cap: a sample point costs about 270 B of peak memory, so
# 10**6 points stay near 0.3 GB
MAX_SAMPLES = 10**6
# evolve's cell cap: a run's peak memory is about 0.8 kB per node (tracemalloc:
# 1.25 MB for the membrane at n = 1600, 0.71 MB for the string), so 4 * 10**5
# cells stay near 0.3 GB
MAX_CELLS = 4 * 10**5
# evolve's blow-up fit reads the center gradient over this time window
FIT_WINDOW = (0.4, 0.95)

# the names users type are the enum values; bench/workloads.py reads these
FAMILY_BY_NAME = {m.value: m for m in Family}
EQUATION_BY_NAME = {m.value: m for m in EquationId}


def _emit(payload) -> None:
    sys.stdout.write(dumps_json(payload))


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
    [(report, within)] = certify((equation,), sol, side, side)
    _emit({
        "equation": args.equation,
        "family": args.family,
        "k": args.k,
        "T": args.T,
        "expectation": expectation,
        "threshold": threshold,
        "within_expectation": within,
        "report": report,
    })
    return EXIT_OK if within else EXIT_TOLERANCE


def cmd_profile(args) -> int:
    run = shoot_profile(args.a, args.rho_max, args.drho, tolerance=args.tolerance)
    write_profile_csv(args.csv, run)
    _emit({
        "height": args.a,
        "termination": run.termination.value,
        "degeneracy_location": run.degeneracy_location,
        "n_points": int(run.rhos.size),
        "final": {
            "rho": float(run.rhos[-1]),
            "phi": float(run.phi[-1]),
            "dphi": float(run.dphi[-1]),
        },
        "max_drift_from_height": float(np.max(np.abs(run.phi - args.a))),
        "csv": args.csv,
    })
    return EXIT_OK


def cmd_stability(args) -> int:
    report = solve_mode_quadratic()
    symmetry = mode_growth_probe()
    _emit({
        "mode_report": report,
        "growth_probe_exponent": symmetry.exponent,
        "time_translation_residual": symmetry.max_residual,
    })
    return EXIT_OK


def cmd_scaling(args) -> int:
    _emit(measure_scaling_exponent())
    return EXIT_OK


def cmd_audit(args) -> int:
    report = run_audit()
    _emit(report.to_json_dict())
    return EXIT_OK if report.all_as_expected else EXIT_TOLERANCE


def _int_from_to(least, most):
    """Config value parser: an integer from least to most."""

    def parse(text: str):
        value = int(text)
        if value < least:
            raise ValueError(f"must be at least {least}, got {text!r}")
        if value > most:
            raise ValueError(f"must be at most {most}, got {text!r}")
        return value

    return parse


def _finite(text: str) -> float:
    """Config value parser: a finite float."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _one_of(table):
    """Config value parser: the entry of table named by the text."""

    def parse(text: str):
        if text not in table:
            raise ValueError(f"{text!r} is not one of {', '.join(table)}")
        return table[text]

    return parse


# evolve config schema: key -> (parser, default); a default of None marks a
# required key. The run starts at t = 0.
CONFIG_SCHEMA = {
    "equation": (_one_of({equation.value: equation for equation in FLOWS}), None),
    "family": (_one_of(FAMILY_BY_NAME), None),
    "k": (_finite, 0.2),
    "T": (_finite, 1.0),
    "t_end": (_finite, 0.5),
    "lo": (_finite, -0.5),
    "hi": (_finite, 0.5),
    "n": (_int_from_to(MIN_CELLS, MAX_CELLS), 400),
    "diagnostics_csv": (str, "diagnostics.csv"),
    "snapshots_csv": (str, ""),
    "fit": (_one_of({"true": True, "yes": True, "1": True,
                     "false": False, "no": False, "0": False}), False),
}


def _config_entry(raw: str, where: str):
    """(key, value) of one config line or override, or None if it is blank.

    A DomainError message starts with where.
    """
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise DomainError(f"{where}: expected key=value, got {raw!r}")
    key, _, value = line.partition("=")
    key = key.strip()
    if key not in CONFIG_SCHEMA:
        raise DomainError(f"{where}: unknown key {key!r}")
    parser, _ = CONFIG_SCHEMA[key]
    try:
        return key, parser(value.strip())
    except ValueError as exc:
        raise DomainError(f"{where}: bad value for {key}: {exc}") from exc


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines skipped.

    Raises DomainError naming the offending line number.
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
            raise DomainError(f"override {item!r}: expected key=value")
        key, value = entry
        values[key] = value


def cmd_evolve(args) -> int:
    with open(args.config, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(
            f"{args.config}: not UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from exc
    values = parse_config_text(text)
    _apply_overrides(values, args.set)
    for key, (_, default) in CONFIG_SCHEMA.items():
        if key not in values:
            if default is None:
                raise DomainError(f"config is missing the required key {key!r}")
            values[key] = default

    grid = Grid1D(lo=values["lo"], hi=values["hi"], n=values["n"])
    sol = ClosedFormSolution(family=values["family"], T=values["T"], k=values["k"])
    state = initial_state_from_solution(sol, grid)
    config = EvolutionConfig(
        blowup_time=values["T"],
        t_end=values["t_end"],
        equation=values["equation"],
    )

    try:
        run = run_evolution(state, config)
    except DegeneracyError as exc:
        # expected for the exactly lightlike sphere caps: refusing to step
        # degenerate data is a finding, not a failure
        _emit({
            "status": "refused-degenerate-initial-data",
            "detail": str(exc),
            "min_discriminant": state.min_discriminant(),
        })
        return EXIT_OK

    write_diagnostics_csv(values["diagnostics_csv"], run)
    if values["snapshots_csv"]:
        write_snapshot_csv(values["snapshots_csv"], run.final)

    payload = {
        "status": run.status.value,
        "t_final": run.final.t,
        "n_steps": run.n_steps,
        "active_nodes_final": int(run.active_nodes[-1]),
        "min_discriminant_final": float(run.min_disc[-1]),
        "relative_momentum_drift": run.relative_momentum_drift,
        "diagnostics_csv": values["diagnostics_csv"],
        "snapshots_csv": values["snapshots_csv"] or None,
        "fit": None,
    }
    if values["fit"]:
        try:
            payload["fit"] = fit_blowup_series(*run.center_samples, values["T"], FIT_WINDOW)
        except (ArityError, DomainError) as exc:
            # a window with fewer than 2 samples, or a centre series with a
            # zero in it (the constant family's is zero throughout)
            payload["fit_skipped_reason"] = str(exc)
    _emit(payload)
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


@functools.cache
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
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("profile", help="shoot the profile equation from the axis")
    p.add_argument("--a", type=float, required=True, help="axis height phi(0)")
    p.add_argument("--rho-max", type=float, default=0.9, dest="rho_max")
    p.add_argument("--drho", type=_positive(float), default=1e-3)
    p.add_argument("--tolerance", type=_positive(float), default=None,
                   help="take adaptive steps at this local tolerance: doubling "
                        "from --drho, halving toward the circle; the flat shoot's "
                        "step-doubling error is exactly 0, so any positive "
                        "tolerance takes the same steps")
    p.add_argument("--csv", default="profile.csv")
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("evolve", help="run the excised evolution from a config file")
    p.add_argument("config", help="path to a key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("stability", help="separable mode report")
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser("scaling", help="state the energy scaling exponents, "
                                       "unweighted and with the |x| weight")
    p.set_defaults(handler=cmd_scaling)

    p = sub.add_parser("audit", help="audit every quantitative claim")
    p.set_defaults(handler=cmd_audit)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The parser is built at the first call and shared by every later call in
    the process, so each subcommand's handler is bound at that first build.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except LabError as exc:
        sys.stderr.write(f"failure: {exc}\n")
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
