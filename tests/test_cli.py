"""Exit-code contract and output formats of the command-line front end."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zmclab
import zmclab.cli
import zmclab.stability
from zmclab.cli import build_parser, main
from zmclab.errors import NonFiniteError
from zmclab.evolution import CFL, DT_FLOOR

REFERENCE_CONFIG = """\
# logarithmic string data, excised run
equation = born-infeld
family = log
k = 0.2
T = 1.0
n = 200
t_end = 0.8
fit = true
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_solution_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--equation", "born-infeld", "--family", "log",
        "--k", "1", "--T", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["within_expectation"] is True
    assert doc["report"]["max_abs"] <= 1e-9
    assert doc["report"]["n_points"] == 400


def test_verify_expected_non_solution_exits_zero(capsys):
    """A loud residual on the flagged family is the expected finding."""
    code, out, _ = run_cli(
        capsys, "verify", "--equation", "spacelike", "--family", "log-claimed",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["expectation"] == "non-solution"
    assert doc["report"]["max_abs"] >= 0.1
    assert doc["within_expectation"] is True


def test_verify_corrected_family_is_a_solution(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--equation", "spacelike",
        "--family", "arctan-corrected",
    )
    assert code == 0
    assert json.loads(out)["report"]["max_abs"] <= 1e-9


@pytest.mark.parametrize("family", ["sphere-plus", "sphere-minus"])
def test_verify_eikonal_sphere(capsys, family):
    code, out, _ = run_cli(
        capsys, "verify", "--equation", "eikonal", "--family", family,
    )
    assert code == 0
    assert json.loads(out)["report"]["max_abs"] <= 1e-12


# verify's stdout at the defaults of every pairing, in VERIFY_PAIRINGS order
VERIFY_DEFAULTS = Path(__file__).with_name("verify_defaults.txt")


def test_verify_defaults_print_the_pinned_bytes(capsys):
    """Every digit of the certification is pinned: the sweeps take only
    IEEE +, -, x, / and sqrt on np.linspace points, so any reordering of
    the double-double arithmetic moves some residual's last bits."""
    outputs = []
    for equation, family in zmclab.cli.VERIFY_PAIRINGS:
        code, out, err = run_cli(capsys, "verify", "--equation", equation.value,
                                 "--family", family.value)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert "".join(outputs) == VERIFY_DEFAULTS.read_text()


# audit's stdout, every claim and the measurement
AUDIT_STDOUT = Path(__file__).with_name("audit_stdout.json")


def test_audit_prints_the_pinned_bytes(capsys):
    """Every digit of the audit is pinned: its claims and its measurement
    pass only through IEEE +, -, x, / and sqrt and the C library's pow
    (numerics.libm_pow), and never read a value of numpy's log, atan or
    asinh, whose last bits can differ between numpy builds and CPUs."""
    code, out, err = run_cli(capsys, "audit")
    assert (code, err) == (0, "")
    assert out == AUDIT_STDOUT.read_text()


def test_output_set_names_every_subcommand_and_pairing():
    """tests/output_set.py's command list keeps up with the command line:
    it runs every subcommand and every verify pairing at its defaults,
    under names that are unique, since they name its files. The commands
    themselves run only when the script does."""
    from output_set import COMMANDS

    [subcommands] = [action.choices for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    names = [name for name, _ in COMMANDS]
    assert len(set(names)) == len(names)
    assert {args[0] for _, args in COMMANDS} == set(subcommands)
    plain_verifies = {args for _, args in COMMANDS if args[0] == "verify" and len(args) == 5}
    for equation, family in zmclab.cli.VERIFY_PAIRINGS:
        assert ("verify", "--equation", equation.value, "--family", family.value) in plain_verifies


@pytest.mark.parametrize("stderr, kinds", (
    (b"", []),
    (b"error: need 0 < t_end < blowup_time, got t_end=1.5, blowup_time=1.0\n", []),
    (b"config line 3: unknown key 'warning'\n", []),
    (b"Traceback (most recent call last):\n  File \"<x>\", line 1, in <module>\n"
     b"ZeroDivisionError: division by zero\n", ["traceback"]),
    (b"/src/zmclab/evolution.py:176: RuntimeWarning: overflow encountered in multiply\n"
     b"  np.multiply(p, q, out=fast)\n", ["warning"]),
    (b"note\n<string>:1: DeprecationWarning: old\n", ["warning"]),
    (b"C:\\zmclab\\cli.py:9: UserWarning: shown\n  warn()\nTraceback (most recent call last):\n",
     ["traceback", "warning"]),
))
def test_output_set_fails_on_tracebacks_and_warnings(stderr, kinds):
    """tests/output_set.py fails a command whose stderr holds a Python
    traceback or a warnings-module line, and passes a refusal message."""
    from output_set import faults

    assert faults(stderr) == kinds


@pytest.mark.xfail(strict=True, reason=(
    "verify judges a solution by the absolute bound 1e-9, while the sweep's "
    "rounding floor grows about as k^3 for the log family: a bound relative "
    "to the residual's largest term waits for ROADMAP item D's residual scale"))
def test_verify_log_family_is_a_solution_at_large_k(capsys):
    """The log family solves the string equation at every k != 0; at
    k = 1e5 the sweep reads 4.7e-10, at k = 1e6 4.8e-7."""
    code, out, _ = run_cli(
        capsys, "verify", "--equation", "born-infeld", "--family", "log", "--k", "1e6",
    )
    assert code == 0


# the spacelike pairings' wrong exits, which the same item mends: the
# corrected family is a solution at every k, and the claimed one misses it
# by rho (1 + rho^2)^(-1/2) k / T, which the absolute bound 0.1 cannot see
# at small k or large T
@pytest.mark.xfail(strict=True, reason=(
    "verify's absolute bounds ignore the residual's scale (ROADMAP item R): "
    "each of these exits 1 where its expectation holds"))
@pytest.mark.parametrize("family, flags, expectation", [
    ("arctan-corrected", ("--k", "1e6", "--T", "0.1"), "solution"),
    ("log-claimed", ("--k", "0.001"), "non-solution"),
    ("log-claimed", ("--T", "1e6"), "non-solution"),
], ids=["arctan-large-k", "claimed-small-k", "claimed-large-T"])
def test_verify_spacelike_verdicts_at_extreme_scales(capsys, family, flags, expectation):
    """The sweeps read max_abs 1.86e-9, 2.83e-3 and 2.83e-12: the first
    above the solution bound 1e-9, the other two below the non-solution
    bound 0.1."""
    code, out, _ = run_cli(capsys, "verify", "--equation", "spacelike",
                           "--family", family, *flags)
    doc = json.loads(out)
    assert doc["expectation"] == expectation
    assert (code, doc["within_expectation"]) == (0, True)


# the three canned misuse cases: invalid pairing, missing equation key,
# unparseable config line


def test_misuse_invalid_pairing_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--equation", "born-infeld", "--family", "sphere-plus",
    )
    assert code == 2
    assert "cannot be verified" in err


@pytest.mark.parametrize("equation, family, T, least", [
    ("born-infeld", "log", "0.03", "0.04"),
    ("membrane", "sphere-plus", "0.05", "0.06"),
])
def test_verify_small_T_refusal_names_the_least_valid_T(capsys, equation, family, T, least):
    """A T too small for the sample set exits 2 naming T and the bound on it,
    not the sampler's margin, which no flag sets."""
    code, out, err = run_cli(
        capsys, "verify", "--equation", equation, "--family", family, "--T", T,
    )
    assert code == 2
    assert out == ""
    assert f"T={T}" in err and f"needs T > {least}" in err
    assert "margin" not in err


@pytest.mark.parametrize("equation, family, region", [
    ("born-infeld", "log", "lightcone"),
    ("membrane", "sphere-plus", "cone"),
    ("eikonal", "sphere-minus", "cone"),
    ("membrane", "constant", "cone"),
])
def test_verify_huge_T_refusal_names_T_and_the_margin(capsys, equation, family, region):
    """Above T = 2^48 the sampler's MARGIN = 0.02 is below the resolution
    of T, so T - MARGIN rounds onto T: such a T exits 2 naming T and
    MARGIN, before any sample point is evaluated. T = 2^48 still verifies."""
    verify = ("verify", "--equation", equation, "--family", family, "--T")
    code, out, err = run_cli(capsys, *verify, str(2.0 ** 48))
    assert (code, err) == (0, "")
    for T, shown in (("1e15", "1e+15"), (repr(math.nextafter(2.0 ** 48, math.inf)),
                                         "2.81475e+14")):
        code, out, err = run_cli(capsys, *verify, T)
        assert (code, out) == (2, "")
        assert err == (f"error: T={shown} leaves no room inside the {region}: "
                       "MARGIN=0.02 is below the resolution of T\n")


def test_misuse_config_missing_equation_exits_two(tmp_path, capsys):
    cfg = tmp_path / "no_eq.cfg"
    cfg.write_text("family = log\nk = 0.2\n")
    code, _, err = run_cli(capsys, "evolve", str(cfg))
    assert code == 2
    assert "equation" in err


def test_misuse_config_missing_family_exits_two(tmp_path, capsys):
    """No family means no initial data: family is required like equation."""
    cfg = tmp_path / "no_family.cfg"
    cfg.write_text("equation = born-infeld\nT = 10.0\nt_end = 0.2\n")
    code, out, err = run_cli(capsys, "evolve", str(cfg))
    assert (code, out) == (2, "")
    assert "config is missing the required key 'family'" in err


def test_misuse_config_parse_failure_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("equation = born-infeld\nnot a key value pair\n")
    code, _, err = run_cli(capsys, "evolve", str(cfg))
    assert code == 2
    assert "line 2" in err


def test_misuse_config_not_utf8_names_the_byte(tmp_path, capsys):
    """A config that is not UTF-8 text is a config error, exit 2, naming the
    file and the offset of the first byte that does not decode."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"equation = born-infeld\nfamily = log\n# \xff\xfe\n")
    code, out, err = run_cli(capsys, "evolve", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}: not UTF-8 at byte offset 38: invalid start byte\n"


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "unk.cfg"
    cfg.write_text("equation = born-infeld\nwavelength = 3\n")
    code, _, err = run_cli(capsys, "evolve", str(cfg))
    assert code == 2
    assert "wavelength" in err


# an entry each config key's parser refuses, and the reason it gives; a
# blank entry sets nothing, which is refused in an override only (a blank
# config line is skipped)
CONFIG_REFUSALS = {
    "fit": ("fit=maybe",
            "bad value for fit: 'maybe' is not one of true, yes, 1, false, no, 0"),
    "k": ("k=abc", "bad value for k: could not convert string to float: 'abc'"),
    "equation": ("equation=string", "bad value for equation: 'string' is not one "
                 "of born-infeld, membrane"),
    # equations that are not flows: verify takes them, evolve does not
    "spacelike": ("equation=spacelike", "bad value for equation: 'spacelike' is "
                  "not one of born-infeld, membrane"),
    "eikonal": ("equation=eikonal", "bad value for equation: 'eikonal' is not "
                "one of born-infeld, membrane"),
    "n": ("n=1000000000000000000", "bad value for n: must be at most 400000, "
          "got '1000000000000000000'"),
    # the fewest cells a grid takes, and settings that must be finite
    "n-small": ("n=4", "bad value for n: must be at least 8, got '4'"),
    "lo": ("lo=nan", "bad value for lo: must be finite, got 'nan'"),
    "hi": ("hi=-inf", "bad value for hi: must be finite, got '-inf'"),
    "k-inf": ("k=inf", "bad value for k: must be finite, got 'inf'"),
    "T": ("T=nan", "bad value for T: must be finite, got 'nan'"),
    "t_end": ("t_end=1e999", "bad value for t_end: must be finite, got '1e999'"),
    "family": ("family=logg", "bad value for family: 'logg' is not one of log, "
               "sphere-plus, sphere-minus, log-claimed, arctan-corrected, constant"),
    "blank": ("  # nothing", "expected key=value"),
}


@pytest.mark.parametrize("case, where", [
    *((case, where) for case in ("equation", "family", "fit", "k", "n")
      for where in ("file", "override")),
    ("spacelike", "file"),
    ("spacelike", "override"),
    ("eikonal", "override"),
    *((case, where) for case in ("n-small", "lo") for where in ("file", "override")),
    ("hi", "file"),
    ("k-inf", "override"),
    ("T", "file"),
    ("t_end", "override"),
    ("blank", "override"),
])
def test_evolve_refuses_a_bad_entry_naming_its_line_or_override(
        tmp_path, capsys, case, where):
    """An entry its key's parser refuses, a name outside its table included,
    exits 2 before anything runs, naming the config line or the --set
    override that holds it."""
    entry, reason = CONFIG_REFUSALS[case]
    cfg = tmp_path / "r.cfg"
    diag = tmp_path / "d.csv"
    if where == "file":
        cfg.write_text(REFERENCE_CONFIG + entry + "\n")
        place, sets = "line 9", ()
    else:
        cfg.write_text(REFERENCE_CONFIG)
        place, sets = f"override {entry!r}", ("--set", entry)
    code, out, err = run_cli(capsys, "evolve", str(cfg), *sets,
                             "--set", f"diagnostics_csv={diag}")
    assert (code, out) == (2, "")
    assert err == f"error: {place}: {reason}\n"
    assert not diag.exists()


def test_evolve_reference_run(tmp_path, capsys):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(REFERENCE_CONFIG)
    diag = tmp_path / "diagnostics.csv"
    code, out, _ = run_cli(capsys, "evolve", str(cfg), "--set", f"diagnostics_csv={diag}")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "domain-exhausted"
    assert abs(doc["fit"]["exponent"] - 1.0) <= 0.05
    assert abs(doc["fit"]["amplitude"] - 0.4) <= 0.02
    assert doc["fit"]["window"] == [0.4, 0.95]
    assert doc["fit"]["r_squared"] >= 0.9999
    with open(diag, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 100
    assert {len(r) for r in rows} == {6}


def test_evolve_readme_run_writes_its_snapshots_and_fits_98_samples(tmp_path, capsys):
    """The README config writes a non-empty snapshot CSV, and its blow-up
    fit reads step ends and midpoints: at least the 98 samples the window
    held when it read step ends at half the step."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(REFERENCE_CONFIG.replace("n = 200", "n = 400"))
    snap = tmp_path / "snap.csv"
    code, out, err = run_cli(capsys, "evolve", str(cfg),
                             "--set", f"diagnostics_csv={tmp_path / 'diag.csv'}",
                             "--set", f"snapshots_csv={snap}")
    assert (code, err) == (0, "")
    assert snap.stat().st_size > 0
    assert json.loads(out)["fit"]["n_points"] >= 98


def test_evolve_flag_overrides_win(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(REFERENCE_CONFIG)
    diag = tmp_path / "short.csv"
    code, out, _ = run_cli(
        capsys, "evolve", str(cfg),
        "--set", "t_end = 0.1", "--set", "fit=false",
        "--set", f"diagnostics_csv={diag}",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "completed"
    assert doc["t_final"] == 0.1
    assert doc["fit"] is None
    assert diag.exists()


README_CONFIG = REFERENCE_CONFIG.replace("n = 200", "n = 400")
CONSTANT_CONFIG = "family = constant\nk = 0.3\nn = 200\nt_end = 0.8\nfit = true\n"
MEMBRANE_CONFIG = "equation = membrane\nlo = 0\nhi = 0.5\n" + CONSTANT_CONFIG


@pytest.mark.parametrize("config, sets, reason", [
    (README_CONFIG, ("--set", "t_end=0.3"), "fit window contains fewer than 2 samples"),
    ("equation = born-infeld\n" + CONSTANT_CONFIG, (),
     "the blow-up fit needs a centre series with no zero in its window (log scale)"),
    (MEMBRANE_CONFIG, (),
     "the blow-up fit needs a centre series with no zero in its window (log scale)"),
], ids=["short-window", "string-constant", "membrane-constant"])
def test_evolve_reports_a_skipped_fit(tmp_path, capsys, config, sets, reason):
    """A blow-up fit that cannot be taken is reported, not refused: a run
    that stops before the fit window holds 2 samples, and the constant
    family, whose centre series is zero throughout and so has no log-log
    fit, write their diagnostics and exit 0 with "fit": null and the
    reason."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    diag = tmp_path / "diagnostics.csv"
    code, out, err = run_cli(capsys, "evolve", str(cfg), *sets,
                             "--set", f"diagnostics_csv={diag}")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["fit"] is None
    assert doc["fit_skipped_reason"] == reason
    assert diag.exists()


def test_evolve_diagnostics_csv_to_dev_null(tmp_path, capsys):
    """A diagnostics path that is not a regular file is written too."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MEMBRANE_CONFIG)
    code, out, err = run_cli(capsys, "evolve", str(cfg), "--set", f"diagnostics_csv={os.devnull}")
    assert (code, err) == (0, "")
    assert json.loads(out)["diagnostics_csv"] == os.devnull


def test_evolve_refuses_lightlike_sphere_data_gracefully(tmp_path, capsys):
    cfg = tmp_path / "sph.cfg"
    cfg.write_text(
        "equation = membrane\nfamily = sphere-plus\nT = 1.0\n"
        "lo = 0.0\nhi = 0.5\nt_end = 0.5\n"
    )
    code, out, _ = run_cli(capsys, "evolve", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "refused-degenerate-initial-data"
    assert doc["min_discriminant"] <= 1e-10
    assert doc["detail"] == (f"not hyperbolic: min(1 - p^2 + q^2) = "
                             f"{doc['min_discriminant']:.3e} <= floor 1.0e-06")


def test_audit_is_byte_identical_across_runs(capsys):
    code1, out1, _ = run_cli(capsys, "audit")
    code2, out2, _ = run_cli(capsys, "audit")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["n_claims"] == 9
    assert doc["all_as_expected"] is True


def test_stability_is_byte_identical_and_grows_at_the_top_root(capsys):
    """The growth exponent sits on the larger root of the reported pencil,
    the rule the benchmark's ode gate applies to this command."""
    code1, out1, _ = run_cli(capsys, "stability")
    code2, out2, _ = run_cli(capsys, "stability")
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    doc = json.loads(out1)
    a, b, c = doc["mode_report"]["quadratic"]
    top = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    assert abs(doc["growth_probe_exponent"] - top) <= 1e-6
    assert doc["time_translation_residual"] <= 1e-12


def test_profile_writes_flat_phi_column(tmp_path, capsys, monkeypatch):
    """A relative --csv path is read against the working directory and
    echoed as given."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "profile", "--a", "0.5", "--rho-max", "0.9",
                           "--csv", "profile.csv")
    assert code == 0
    doc = json.loads(out)
    assert doc["csv"] == "profile.csv"
    assert doc["max_drift_from_height"] <= 1e-8
    with open(tmp_path / "profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    phis = [float(r[1]) for r in rows[1:]]
    assert max(abs(v - 0.5) for v in phis) <= 1e-8


def test_profile_csv_to_dev_null(capsys):
    code, out, err = run_cli(capsys, "profile", "--a", "0.6", "--csv", os.devnull)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["csv"] == os.devnull and doc["n_points"] > 1


def test_profile_csv_over_a_longer_one(tmp_path, capsys):
    """A shorter profile written over a longer one leaves the bytes of a
    fresh write: the shoot at 0.9 stops at its circle after fewer rows."""
    path, fresh = tmp_path / "p.csv", tmp_path / "q.csv"
    for a, csv_path in (("0.3", path), ("0.9", path), ("0.9", fresh)):
        code, _, _ = run_cli(capsys, "profile", "--a", a, "--csv", str(csv_path))
        assert code == 0
    assert path.read_bytes() == fresh.read_bytes()


def test_adaptive_profile_stops_at_the_degeneracy(tmp_path, capsys):
    """Valid --drho and --tolerance: the adaptive shoot of the flat profile
    phi = 0.6 stops within 1e-6 short of its degenerate circle rho = 0.8
    (phi^2 + rho^2 = 1), with one CSV row per point."""
    path = tmp_path / "p.csv"
    code, out, err = run_cli(capsys, "profile", "--a", "0.6", "--drho", "1e-3",
                             "--tolerance", "1e-10", "--csv", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["termination"] == "degeneracy-hit"
    assert 0.0 <= 0.8 - doc["degeneracy_location"] <= 1e-6
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == doc["n_points"]


def test_long_fixed_profile_writes_a_row_per_point(tmp_path, capsys):
    """A fixed march of three CSV chunks that ends on a clipped step at
    --rho-max writes a header and one row per point."""
    path = tmp_path / "long.csv"
    code, out, err = run_cli(capsys, "profile", "--a", "0.3", "--drho", "1e-4",
                             "--rho-max", "0.85123", "--csv", str(path))
    assert (code, err) == (0, "")
    with open(path, newline="") as fh:
        assert sum(1 for _ in fh) == json.loads(out)["n_points"] + 1


@pytest.mark.parametrize("equation, family", [
    ("membrane", "sphere-plus"), ("membrane", "sphere-minus"), ("membrane", "constant"),
    ("spacelike", "log-claimed"), ("spacelike", "arctan-corrected"),
])
def test_verify_reports_the_equation_by_its_typed_name(capsys, equation, family):
    code, out, _ = run_cli(capsys, "verify", "--equation", equation, "--family", family,
                           "--samples", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["equation"] == doc["report"]["equation"] == equation
    assert doc["family"] == family


@pytest.mark.parametrize("argv, message", [
    (("verify", "--equation", "born-infeld", "--family", "log", "--k", "0"),
     "family log needs k != 0"),
    # about 8.7e8 fixed steps to the circle rho = sqrt(0.75), where the
    # shoot would stop: refused before the march starts
    (("profile", "--a", "0.5", "--drho", "1e-9"),
     "drho=1e-09 takes 866025394 fixed steps to the circle rho=0.8660254037844386, "
     "more than 1000000"),
    (("profile", "--a", "0.5", "--drho", "0.5"),
     "rho_max=0.9 must be finite and exceed the starting rho 10*drho = 5.0"),
    (("profile", "--a", "nan"), "height nan must be finite"),
], ids=["verify-log-k-zero", "profile-fixed-step-cap", "profile-start-past-rho-max",
        "profile-height-nan"])
def test_refusal_names_the_setting_as_typed(tmp_path, capsys, argv, message):
    path = tmp_path / "p.csv"
    if argv[0] == "profile":
        argv += ("--csv", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


def test_stability_self_check_failure_exits_one(capsys, monkeypatch):
    """A stability self-check that misses its tolerance is a failure, exit 1
    with the message on stderr, not a traceback."""
    monkeypatch.setattr(zmclab.stability, "BRANCH_TOLERANCE", 1e-20)
    code, out, err = run_cli(capsys, "stability")
    assert (code, out) == (1, "")
    assert err.startswith("failure: ")


def test_verify_takes_a_valid_sample_count(capsys):
    code, out, _ = run_cli(capsys, "verify", "--equation", "born-infeld",
                           "--family", "log", "--samples", "16")
    assert code == 0
    assert json.loads(out)["report"]["n_points"] == 16


def test_lab_failure_exits_one(capsys, monkeypatch):
    """A LabError that is not a usage error is a failure: exit 1 with the
    message on stderr and nothing on stdout."""

    def fail():
        raise NonFiniteError("injected")

    monkeypatch.setattr(zmclab.cli, "run_audit", fail)
    assert run_cli(capsys, "audit") == (1, "", "failure: injected\n")


def test_profile_degenerate_start_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "profile", "--a", "1.0")
    assert code == 2
    assert "degenerate" in err
    # the height lies inside the circle, rho = 0.0141, but the start
    # rho = 10*drho = 0.1 lies past it
    code, out, err = run_cli(capsys, "profile", "--a", "0.9999", "--drho", "0.01",
                             "--rho-max", "2")
    assert code == 2 and out == ""
    assert "drho=0.01" in err and "rho 10*drho = 0.1" in err
    assert "degenerate circle rho=0.0141" in err


def test_scaling_measurement(capsys):
    """The exponents are exact, and the unweighted one refutes the claim."""
    code, out, err = run_cli(capsys, "scaling")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert sorted(doc) == ["claimed_exponent", "coordinate_weighted_exponent",
                           "exponent", "matches_claim"]
    assert (doc["exponent"], doc["claimed_exponent"]) == (-1.0, 1.0)
    assert doc["matches_claim"] is False


def test_scaling_measurement_under_the_coordinate_weight(capsys):
    """Weighting the energy density by |x| adds one power of lambda."""
    code, out, err = run_cli(capsys, "scaling")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["coordinate_weighted_exponent"] == -2.0
    assert doc["coordinate_weighted_exponent"] == doc["exponent"] - 1.0


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--equation", "born-infeld", "--family", "logg"), "--family"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--k", "abc"), "--k"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--T", "1,2"), "--T"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--samples", "-5"),
     "--samples"),
    (("profile", "--a", "0.5", "--drho", "0"), "--drho"),
    (("profile", "--a", "0.5", "--drho", "-1"), "--drho"),
    (("profile", "--a", "0.5", "--drho", "inf"), "--drho"),
    (("profile", "--a", "0.5", "--tolerance", "0"), "--tolerance"),
    (("profile", "--a", "0.5", "--tolerance", "-1"), "--tolerance"),
    (("profile", "--a", "0.5", "--tolerance", "nan"), "--tolerance"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--samples", "1000001"),
     "--samples"),
    (("verify", "--equation", "born-infeld", "--family", "log",
      "--samples", "1000000000000000000"), "--samples"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--samples", "abc"),
     "--samples"),
    (("profile", "--a", "0.5", "--drho", "abc"), "--drho"),
])
def test_malformed_flag_exits_two_naming_the_flag(capsys, argv, flag):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"argument {flag}:" in err


def refused_override_error(tmp_path, capsys, *overrides):
    """stderr of evolve on the reference config with a --set per override,
    which must exit 2 before printing or writing anything."""
    cfg = tmp_path / "r.cfg"
    cfg.write_text(REFERENCE_CONFIG)
    sets = [arg for override in overrides for arg in ("--set", override)]
    code, out, err = run_cli(capsys, "evolve", str(cfg), *sets,
                             "--set", f"diagnostics_csv={tmp_path / 'd.csv'}")
    assert (code, out) == (2, "")
    assert not (tmp_path / "d.csv").exists()
    return err


@pytest.mark.parametrize("override", [
    "cfl=0.4", "dissipation=nan", "dissipation=inf", "max_gradient=nan",
    "min_disc_floor=nan", "dt_floor=nan", "t0=0.0", "fit_lo=0.4", "fit_hi=0.95",
])
def test_evolve_refuses_method_keys_as_unknown(tmp_path, capsys, override):
    """The evolution's method, its start time t = 0 and the blow-up fit
    window are fixed in code: a config cannot set them, even to their value."""
    err = refused_override_error(tmp_path, capsys, override)
    assert f"unknown key {override.partition('=')[0]!r}" in err


@pytest.mark.parametrize("overrides, message", [
    (("t_end=-0.1",), "need 0 < t_end < blowup_time, got t_end=-0.1, blowup_time=1.0"),
    (("equation=membrane", "family=constant"), "a radial window needs lo >= 0, got lo = -0.5"),
    # the axis's parity ghosts take q odd: data with q(0) != 0 would evolve a cone
    (("equation=membrane", "lo=0", "hi=0.5"),
     "an axis window needs q = 0 at r = 0, got q[0] = 0.4"),
    (("equation=membrane", "family=arctan-corrected", "lo=0", "hi=0.5"),
     "an axis window needs q = 0 at r = 0, got q[0] = 0.2"),
    (("k=1e155",), "need slopes max(|p|, |q|) <= 1e+50, got 2.667e+155"),
    (("k=1e200",), "need slopes max(|p|, |q|) <= 1e+50, got 2.667e+200"),
    (("k=1e300",), "need slopes max(|p|, |q|) <= 1e+50, got 2.667e+300"),
    (("k=1e308",), "initial data at k=1e+308, T=1.0 (slopes <= 1e+50) leaves double "
                   "range (invalid value encountered in multiply)"),
    (("k=1e308", "lo=0.1"), "initial data at k=1e+308, T=1.0 (slopes <= 1e+50) leaves "
                            "double range (non-finite jet entry inf)"),
    (("lo=-1e-9", "hi=1e-9", "n=100000"),
     f"need spacing >= DT_FLOOR / CFL = {DT_FLOOR / CFL:g}, got 2.000e-14"),
    (("T=1e-300", "lo=-1e-301", "hi=1e-301", "t_end=1e-301"),
     "initial data at k=0.2, T=1e-300 (slopes <= 1e+50) leaves double range "
     "(divide by zero encountered in divide)"),
    # hi - lo overflows, so the spacing is inf and the nodes NaN
    (("lo=-1e308", "hi=1e308"),
     "grid needs a finite spacing, got lo=-1e+308, hi=1e+308"),
], ids=["t_end-below-start", "membrane-negative-lo", "membrane-axis-log",
        "membrane-axis-arctan", "slope-1e155", "slope-1e200",
        "slope-1e300", "data-overflow", "data-infinite", "spacing-below-floor",
        "data-divide-by-zero", "spacing-not-finite"])
def test_evolve_refuses_a_run_it_cannot_start(tmp_path, capsys, overrides, message):
    """Refused before the first step, exit 2 naming the violated bound and
    with no RuntimeWarning (pytest turns one into an error): slopes the
    right-hand side would square and multiply past double range, data
    whose evaluation overflows or divides by zero, axis data that is not
    odd in r, a spacing whose CFL step is below the floor (the speeds are
    at most 1, so no later step can be) and one that is not finite."""
    assert message in refused_override_error(tmp_path, capsys, *overrides)


@pytest.mark.parametrize("width", ["1e100", "1e150", "1e200", "1e300"])
def test_evolve_runs_a_wide_constant_window(tmp_path, capsys, width):
    """The data check's bound 10 h^2 max(m3, 1) is formed without h^3, so
    a window of spacing far above 5.6e102 runs as a narrow one does."""
    cfg = tmp_path / "r.cfg"
    cfg.write_text(REFERENCE_CONFIG)
    code, out, err = run_cli(capsys, "evolve", str(cfg), "--set", "family=constant",
                             "--set", f"lo=-{width}", "--set", f"hi={width}",
                             "--set", f"diagnostics_csv={tmp_path / 'd.csv'}")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["status"], doc["t_final"], doc["active_nodes_final"]) == ("completed", 0.8, 201)


@pytest.mark.parametrize("argv, setting", [
    (("profile", "--a", "0.5", "--rho-max", "nan"), "rho_max"),
    (("profile", "--a", "0.5", "--rho-max", "inf"), "rho_max"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--k", "nan"),
     "error: k must be finite, got nan\n"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--T", "inf"),
     "error: T must be finite, got inf\n"),
    # finiteness is checked before the sign, so a NaN or -inf T is named
    # as not finite
    (("verify", "--equation", "born-infeld", "--family", "log", "--T", "nan"),
     "error: T must be finite, got nan\n"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--T", "-inf"),
     "error: T must be finite, got -inf\n"),
    # a member whose sweep overflows (its jet, its residual's products or
    # the squares of its rms) is refused the same way, naming k and T
    *[(("verify", "--equation", "born-infeld", "--family", "log", "--k", k),
       f"error: the log sweep at k={k}, T=1.0 leaves double range "
       "(overflow encountered in multiply)\n") for k in ("1e+100", "1e+150", "1e+200")],
    # and so is one whose sweep divides by zero
    (("verify", "--equation", "spacelike", "--family", "arctan-corrected", "--T", "1e-300"),
     "error: the arctan-corrected sweep at k=1.0, T=1e-300 leaves double range "
     "(divide by zero encountered in divide)\n"),
], ids=["profile-rho-max-nan", "profile-rho-max-inf", "verify-k-nan", "verify-T-inf",
        "verify-T-nan", "verify-T-minus-inf",
        "verify-k-1e100", "verify-k-1e150", "verify-k-1e200", "verify-T-1e-300"])
def test_non_finite_flags_exit_two_naming_the_setting(tmp_path, capsys, argv, setting):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert setting in err


@pytest.mark.parametrize("argv", [
    ("profile", "--a", "0.5", "--csv", "{missing}/p.csv"),
    ("evolve", "{cfg}", "--set", "diagnostics_csv={missing}/d.csv"),
    ("evolve", "{cfg}", "--set", "diagnostics_csv={tmp}/d.csv",
     "--set", "snapshots_csv={missing}/s.csv"),
], ids=["profile-csv", "diagnostics_csv", "snapshots_csv"])
def test_unwritable_output_path_exits_two(tmp_path, capsys, argv):
    """An output path that cannot be opened is a usage error: exit 2 with
    the path named on stderr and nothing on stdout."""
    cfg = tmp_path / "r.cfg"
    cfg.write_text(REFERENCE_CONFIG + "t_end = 0.1\n")
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing, cfg=cfg, tmp=tmp_path) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("command, flag, value", [
    *((command, "--json", "out.json") for command in
      ("verify", "profile", "evolve", "stability", "scaling", "audit")),
    ("verify", "--margin", "0.02"),
    ("verify", "--rho-max", "0.95"),
    ("scaling", "--weight", "coordinate"),
    ("scaling", "--lambdas", "0.5,1,2,4"),
    ("scaling", "--k", "0.3"),
    ("scaling", "--T", "1"),
    ("scaling", "--t0", "0.5"),
    ("scaling", "--window", "-0.2,0.3"),
])
def test_sampling_flags_are_unrecognized(capsys, command, flag, value):
    """verify's sample geometry is fixed in code, and scaling, whose
    exponents are exact, takes no flag: setting one, even to its old value,
    exits 2. So does --json on any subcommand: stdout is the one JSON
    channel."""
    required = {
        "verify": ("--equation", "born-infeld", "--family", "log"),
        "profile": ("--a", "0.5"),
        "evolve": ("run.cfg",),
    }
    code, out, err = run_cli(capsys, command, *required.get(command, ()), f"{flag}={value}")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}={value}\n" in err


def test_negative_numbers_in_any_notation_are_flag_values(tmp_path, capsys):
    """A negative number after a flag is the flag's value, in scientific
    notation too, as it is after '=': argparse on Python 3.10 and 3.11 reads
    only -3 and -0.5 so, and took -2.5e-1 for a flag of its own."""
    verify = ("verify", "--equation", "born-infeld", "--family", "log")
    spaced = run_cli(capsys, *verify, "--k", "-2.5e-1")
    assert spaced[0] == 0 and spaced == run_cli(capsys, *verify, "--k=-2.5e-1")
    assert json.loads(spaced[1])["k"] == -0.25
    csv_path = tmp_path / "p.csv"
    profiles = []
    for a in ("-5e-1", "-0.5"):
        profiles.append((run_cli(capsys, "profile", "--a", a, "--csv", str(csv_path)),
                         csv_path.read_bytes()))
    assert profiles[0][0][0] == 0 and profiles[0] == profiles[1]
    # a negative value refused on its merits names its own rule
    code, _, err = run_cli(capsys, "profile", "--a", "0.5", "--drho", "-1e-3")
    assert code == 2
    assert "argument --drho: must be a positive finite number, got '-1e-3'" in err
    assert run_cli(capsys, *verify, "--k", "-inf") == (2, "", "error: k must be finite, got -inf\n")


def test_calls_sharing_the_parser_stay_independent(tmp_path, capsys):
    """main builds its parser once per process: a flag given to one call
    leaves no trace in the next, and a refused flag leaves none either."""
    assert build_parser() is build_parser()

    cfg = tmp_path / "r.cfg"
    cfg.write_text(REFERENCE_CONFIG + f"t_end = 0.1\ndiagnostics_csv = {tmp_path / 'd.csv'}\n")
    plain = run_cli(capsys, "evolve", str(cfg))
    finer = run_cli(capsys, "evolve", str(cfg), "--set", "n=400")
    assert plain[0] == finer[0] == 0 and plain[1] != finer[1]
    assert run_cli(capsys, "evolve", str(cfg)) == plain

    verify = ("verify", "--equation", "born-infeld", "--family", "log")
    plain = run_cli(capsys, *verify)
    assert run_cli(capsys, *verify, "--k", "-3")[0] == 0
    assert run_cli(capsys, *verify) == plain
    assert json.loads(plain[1])["k"] == 1.0

    plain = run_cli(capsys, "audit")
    assert run_cli(capsys, "audit", "--bogus")[0] == 2
    assert run_cli(capsys, "audit") == plain


def test_audit_and_verify_run_without_mpmath(tmp_path):
    """numpy is the only runtime dependency: with mpmath and sympy
    unimportable, each of the six subcommands still exits 0."""
    (tmp_path / "run.cfg").write_text(REFERENCE_CONFIG)
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = sys.modules['sympy'] = None\n"
        "from zmclab.cli import main\n"
        "codes = [main(argv) for argv in (\n"
        "    ['audit'], ['verify', '--equation', 'born-infeld', '--family', 'log'],\n"
        "    ['profile', '--a', '0.6'], ['evolve', 'run.cfg'], ['stability'], ['scaling'])]\n"
        "sys.exit(max(codes))\n"
    )
    src = str(Path(zmclab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_usage_error_from_argparse_maps_to_two(capsys):
    code = main(["verify", "--equation", "born-infeld", "--family", "nonsense"])
    capsys.readouterr()
    assert code == 2


def test_no_command_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2
