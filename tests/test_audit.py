"""The consolidated claims audit: fixed order, frozen verdicts, determinism."""

import json

from zmclab import residuals
from zmclab.audit import run_audit
from zmclab.reporting import dumps_json

EXPECTED_IDS = (
    "string-log-solution",
    "membrane-sphere-solution",
    "spacelike-log-solution",
    "gradient-blowup-amplitude",
    "axis-curvature-sign",
    "separable-mode-roots",
    "sphere-caps-lightlike",
    "steady-reduction-families",
    "energy-scaling-exponent",
)

EXPECTED_VERDICTS = (
    "match",
    "match",
    "mismatch",
    "mismatch",
    "mismatch",
    "mismatch",
    "match",
    "mismatch",
    "stated-no-claim",
)


def test_audit_runs_the_fixed_claim_list_in_order(audit_report):
    assert tuple(c.id for c in audit_report.claims) == EXPECTED_IDS
    assert tuple(c.verdict for c in audit_report.claims) == EXPECTED_VERDICTS
    assert audit_report.all_as_expected


def test_audit_claims_carry_both_sides_of_each_comparison(audit_report):
    for claim in audit_report.claims:
        assert claim.claimed
        assert claim.computed
        assert claim.source_location
        assert claim.verdict in ("match", "mismatch", "qualitative-match",
                                 "stated-no-claim")


def test_gradient_amplitude_claim_shows_the_factor_two(audit_report):
    claim = next(c for c in audit_report.claims
                 if c.id == "gradient-blowup-amplitude")
    assert "4.000000e+00" in claim.computed
    assert "2.0" in claim.claimed
    assert "factor 2" in claim.note


def test_mode_roots_claim_reports_swapped_pair(audit_report):
    claim = next(c for c in audit_report.claims if c.id == "separable-mode-roots")
    assert "{1, -4}" in claim.computed
    assert "{4, -1}" in claim.claimed
    assert "one growing" in claim.computed or "unstable" in claim.computed


def test_audit_is_byte_deterministic():
    a = dumps_json(run_audit().to_json_dict())
    b = dumps_json(run_audit().to_json_dict())
    assert a == b
    assert "NaN" not in a


def test_audit_evaluates_each_sweep_jet_once(monkeypatch):
    """Four sweeps from three jets: the log members share one jet, and the
    two sphere caps share one that serves both the membrane equation and the
    eikonal identity."""
    calls = {"evaluate_jet_extended": 0, "sweep_residual": 0}

    def counted(name):
        original = getattr(residuals, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(residuals, name, counted(name))
    run_audit()
    assert calls == {"evaluate_jet_extended": 3, "sweep_residual": 4}


def test_audit_json_shape(audit_report):
    doc = json.loads(dumps_json(audit_report.to_json_dict()))
    assert doc["n_claims"] == 9
    assert doc["all_as_expected"] is True
    assert doc["verdict_counts"]["match"] == 3
    assert doc["verdict_counts"]["mismatch"] == 5
    assert doc["verdict_counts"]["stated-no-claim"] == 1
    assert len(doc["claims"]) == 9
    for claim in doc["claims"]:
        assert claim["as_expected"] is True


def test_branch_linearization_measurement_is_reported(audit_report):
    """The branch-profile linearization has no stated value to audit against,
    so the report carries the raw measurement and an inconsistency flag."""
    m = audit_report.measurements["branch_linearization"]
    assert m["n_samples"] == 50
    assert m["max_abs_difference"] <= 1e-8
    assert m["flagged_inconsistent"] is False
    assert m["max_operator_value"] > 0.0
