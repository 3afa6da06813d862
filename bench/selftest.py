"""Self-test of the benchmark harness at reduced workload sizes.

    python3 bench/selftest.py          # or: python3 -m pytest -q bench/selftest.py

Checks span bookkeeping, that wrappers reach every binding and come off
again, the closure-time reference, that the output gates reject wrong
outputs, that each workload passes its gates and reports exactly the
metrics BENCHMARK.json names, and that the benchmark refuses to run
without the package. Takes about half a minute.
"""
from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys

import run

run.prepare_import()

import zmclab.evolution  # noqa: E402
import zmclab.numerics  # noqa: E402
import zmclab.profiles  # noqa: E402
from tracing import Tracer, patched, totals_by_pass  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CliOutcome,
    Evolve,
    Ode,
    closure_time,
)
from zmclab.closedform import ClosedFormSolution, Family  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = run.OUT_DIR / "selftest"


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_self_time_subtracts_direct_children():
    tracer = Tracer()

    def inner():
        return sum(range(2000))

    wrapped_inner = tracer.wrapper()("inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    tracer.pass_id = 0
    tracer.wrapper()("outer", outer)()
    spans = {s.name: s for s in tracer.spans}
    inner_spans = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner_spans) == 2
    assert all(s.parent == spans["outer"].id for s in inner_spans)
    totals = totals_by_pass(tracer.spans)[0]
    children = sum(s.duration_ns for s in inner_spans)
    assert totals["outer"].self_ns == spans["outer"].duration_ns - children
    assert totals["inner"].calls == 2


def test_patched_reaches_every_binding_and_restores():
    original = zmclab.numerics.rk4_step
    modules = (zmclab.numerics, zmclab.evolution, zmclab.profiles)
    with patched({"numerics.rk4_step": Tracer().wrapper()}):
        assert all(m.rk4_step is not original for m in modules)
        assert len({id(m.rk4_step) for m in modules}) == 1
    assert all(m.rk4_step is original for m in modules)
    try:
        with patched({"numerics.no_such_layer": Tracer().wrapper()}):
            pass
    except AttributeError:
        pass
    else:
        raise AssertionError("a missing layer must fail loudly")


def test_closure_time_references():
    string = ClosedFormSolution(Family.BORN_INFELD_LOG, 1.0, 0.2)
    assert abs(closure_time(string, -0.5, 0.5, pinned_left=False) - 0.55076) < 5e-6
    c = 0.3
    membrane = ClosedFormSolution(Family.CONSTANT_PROFILE, 1.0, c)
    exact = 0.5 / math.sqrt(1.0 - c * c)
    assert abs(closure_time(membrane, 0.0, 0.5, pinned_left=True) - exact) < 1e-12


def test_gates_reject_wrong_outputs():
    ode = Ode(1, SCRATCH / "ode", quick=True)
    results = {op.label: op.run() for op in ode.ops}
    assert not any(ode.check(results).values())
    scaling = json.loads(results["scaling"].stdout)
    scaling["exponent"] = 1.0
    results["scaling"] = CliOutcome(0, json.dumps(scaling), "")
    results["stability"] = CliOutcome(1, "", "failure: injected")
    errors = ode.check(results)
    assert errors["scaling"] and errors["stability"]

    evolve = Evolve(1, SCRATCH / "evolve", quick=True)
    evolve.prepare()
    evolve.t_star["string"] = 0.5  # an exhaustion time past it must fail
    results = {op.label: op.run() for op in evolve.ops}
    errors = evolve.check(results)
    assert all(any("closure time" in e for e in errors[f"string-n{n}"]) for n in evolve.ladder)


def _spans(name: str) -> list[dict]:
    with open(run.OUT_DIR / f"spans-{name}.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_quick_traced_runs_pass_and_report_every_layer():
    per_layer = declared("per_layer")
    for name, cls in WORKLOADS.items():
        workload = cls(3, SCRATCH / name, quick=True)
        metrics, passes = run.measure(workload, 0.0, True, [])
        assert not run.failures(passes), run.failures(passes)
        assert {k: unit for k, (_, unit) in metrics.items()} == per_layer
        spans = _spans(name)
        assert spans
        if name != "certify":
            assert metrics["closedform.evaluate_jet_extended.calls"][0] == 0
        if name != "evolve":
            assert metrics["evolution.run_evolution.calls"][0] == 0
        if name == "evolve":
            membrane_momentum = [
                s for s in spans
                if s["label"].startswith("membrane") and s["name"].startswith("conserved.momentum_")
            ]
            assert not membrane_momentum
            assert metrics["conserved.momentum_flux.calls"][0] > 0
            assert metrics["sup_error"][0] > 0 and metrics["closure_gap"][0] > 0


def test_result_line_contract():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ode", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_the_package():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ode", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_") and callable(test):
            test()
            print(f"ok {test_name}")
