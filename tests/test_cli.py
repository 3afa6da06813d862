"""Exit-code contract and output formats of the command-line front end."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zmclab
from zmclab.cli import main

REFERENCE_CONFIG = """\
# logarithmic string data, excised run
equation = born-infeld
family = log
k = 0.2
T = 1.0
n = 200
t_end = 0.8
fit = true
fit_lo = 0.4
fit_hi = 0.95
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


def test_verify_eikonal_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--equation", "eikonal", "--family", "sphere-plus",
    )
    assert code == 0
    assert json.loads(out)["report"]["max_abs"] <= 1e-12


# the three canned misuse cases: invalid pairing, missing equation key,
# unparseable config line


def test_misuse_invalid_pairing_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--equation", "born-infeld", "--family", "sphere-plus",
    )
    assert code == 2
    assert "cannot be verified" in err


def test_misuse_config_missing_equation_exits_two(tmp_path, capsys):
    cfg = tmp_path / "no_eq.cfg"
    cfg.write_text("family = log\nk = 0.2\n")
    code, _, err = run_cli(capsys, "evolve", str(cfg))
    assert code == 2
    assert "equation" in err


def test_misuse_config_parse_failure_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("equation = born-infeld\nnot a key value pair\n")
    code, _, err = run_cli(capsys, "evolve", str(cfg))
    assert code == 2
    assert "line 2" in err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "unk.cfg"
    cfg.write_text("equation = born-infeld\nwavelength = 3\n")
    code, _, err = run_cli(capsys, "evolve", str(cfg))
    assert code == 2
    assert "wavelength" in err


def test_evolve_reference_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZMCLAB_OUTPUT_DIR", str(tmp_path))
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(REFERENCE_CONFIG)
    code, out, _ = run_cli(capsys, "evolve", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "domain-exhausted"
    assert abs(doc["fit"]["exponent"] - 1.0) <= 0.05
    assert abs(doc["fit"]["amplitude"] - 0.4) <= 0.02
    rows = list(csv.reader(open(tmp_path / "diagnostics.csv", newline="")))
    assert len(rows) >= 100
    assert {len(r) for r in rows} == {6}


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


def test_evolve_zero_data_gives_zero_diagnostics(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    diag = tmp_path / "zd.csv"
    cfg.write_text(
        f"equation = born-infeld\nT = 10.0\nt_end = 0.2\n"
        f"diagnostics_csv = {diag}\n"
    )
    code, out, _ = run_cli(capsys, "evolve", str(cfg))
    assert code == 0
    rows = list(csv.reader(open(diag, newline="")))[1:]
    assert rows
    for row in rows:
        assert float(row[1]) == 0.0  # sup_q
        assert float(row[2]) == 0.0  # q_at_origin
        assert float(row[4]) == 0.0  # momentum


def test_evolve_refuses_lightlike_sphere_data_gracefully(tmp_path, capsys):
    cfg = tmp_path / "sph.cfg"
    cfg.write_text(
        "equation = membrane\nfamily = sphere-plus\nT = 1.0\n"
        "t0 = 0.2\nlo = 0.0\nhi = 0.5\nt_end = 0.5\n"
    )
    code, out, _ = run_cli(capsys, "evolve", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "refused-degenerate-initial-data"
    assert doc["min_discriminant"] <= 1e-10


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


def test_audit_json_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "audit.json"
    code, out, _ = run_cli(capsys, "audit", "--json", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_profile_writes_flat_phi_column(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZMCLAB_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "profile", "--a", "0.5", "--rho-max", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_drift_from_height"] <= 1e-8
    rows = list(csv.reader(open(tmp_path / "profile.csv", newline="")))
    phis = [float(r[1]) for r in rows[1:]]
    assert max(abs(v - 0.5) for v in phis) <= 1e-8


def test_profile_degenerate_start_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "profile", "--a", "1.0")
    assert code == 2
    assert "degenerate" in err


def test_scaling_measurement(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--lambdas", "0.5,1,2,4")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["exponent"] + 1.0) <= 1e-8
    assert doc["matches_claim"] is False
    assert len(doc["energies"]) == 4


@pytest.mark.parametrize("argv, flag", [
    (("scaling", "--lambdas", "0.5,abc"), "--lambdas"),
    (("scaling", "--window", "0.3"), "--window"),
    (("scaling", "--lambdas", "1,2"), "--lambdas"),
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
])
def test_malformed_flag_exits_two_naming_the_flag(capsys, argv, flag):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"argument {flag}:" in err


def refused_override_error(tmp_path, capsys, override):
    """stderr of evolve on the reference config with --set override, which
    must exit 2 before printing or writing anything."""
    cfg = tmp_path / "r.cfg"
    cfg.write_text(REFERENCE_CONFIG)
    code, out, err = run_cli(capsys, "evolve", str(cfg), "--set", override,
                             "--set", f"diagnostics_csv={tmp_path / 'd.csv'}")
    assert (code, out) == (2, "")
    assert not (tmp_path / "d.csv").exists()
    return err


@pytest.mark.parametrize("override", [
    "hi=inf", "fit_lo=nan", "fit_hi=inf", "fit_lo=0.99",
])
def test_evolve_refuses_non_finite_settings(tmp_path, capsys, override):
    err = refused_override_error(tmp_path, capsys, override)
    assert override.partition("=")[0] in err


@pytest.mark.parametrize("override", [
    "cfl=0.4", "dissipation=nan", "dissipation=inf", "max_gradient=nan",
    "min_disc_floor=nan", "dt_floor=nan",
])
def test_evolve_refuses_method_keys_as_unknown(tmp_path, capsys, override):
    """The evolution's method is fixed in code: a config cannot set it."""
    err = refused_override_error(tmp_path, capsys, override)
    assert f"unknown key {override.partition('=')[0]!r}" in err


@pytest.mark.parametrize("argv, setting", [
    (("profile", "--a", "0.5", "--rho-max", "nan"), "rho_max"),
    (("profile", "--a", "0.5", "--rho-max", "inf"), "rho_max"),
    (("verify", "--equation", "born-infeld", "--family", "log", "--margin", "nan"),
     "margin"),
    (("verify", "--equation", "membrane", "--family", "sphere-plus", "--margin", "nan"),
     "margin"),
    (("verify", "--equation", "membrane", "--family", "sphere-plus",
      "--rho-max", "nan"), "rho_max"),
    (("verify", "--equation", "spacelike", "--family", "arctan-corrected",
      "--margin", "nan"), "margin"),
    (("verify", "--equation", "spacelike", "--family", "log-claimed",
      "--rho-max", "nan"), "rho_max"),
    (("scaling", "--lambdas", "nan,1,2"), "lambdas"),
    (("scaling", "--lambdas", "inf,1,2"), "lambdas"),
    (("scaling", "--window=-inf,0.3"), "window"),
], ids=["profile-rho-max-nan", "profile-rho-max-inf", "verify-log-margin-nan",
        "verify-cap-margin-nan", "verify-cap-rho-max-nan",
        "verify-spacelike-margin-nan", "verify-spacelike-rho-max-nan",
        "scaling-lambdas-nan", "scaling-lambdas-inf", "scaling-window-inf"])
def test_non_finite_flags_exit_two_naming_the_setting(tmp_path, capsys, argv, setting):
    code, out, err = run_cli(capsys, *argv, "--json", str(tmp_path / "out.json"))
    assert (code, out) == (2, "")
    assert setting in err


def test_audit_and_verify_run_without_mpmath(tmp_path):
    """numpy is the only runtime dependency: with mpmath unimportable, the
    audit and a certification sweep still exit 0."""
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from zmclab.cli import main\n"
        "codes = (main(['audit']),\n"
        "         main(['verify', '--equation', 'born-infeld', '--family', 'log']))\n"
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
