"""JSON sanitization and CSV shape contracts."""

import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from csv_reference import reference_write_csv

from zmclab.closedform import ClosedFormSolution, Family
from zmclab.errors import ArityError, DomainError
from zmclab.evolution import EvolutionConfig, initial_state_from_solution, run_evolution
from zmclab.numerics import Grid1D
from zmclab.reporting import (
    CSV_CHUNK_ROWS,
    DIAGNOSTICS_HEADER,
    dumps_json,
    sanitize_for_json,
    write_csv,
    write_diagnostics_csv,
    write_profile_csv,
    write_snapshot_csv,
)
from zmclab.profiles import shoot_profile


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sanitize_nulls_nonfinite_dict_values_with_reason():
    out = sanitize_for_json({"good": 1.5, "bad": float("nan"), "worse": math.inf})
    assert out["good"] == 1.5
    assert out["bad"] is None
    assert out["bad_reason"] == "non-finite value replaced"
    assert out["worse"] is None
    assert out["worse_reason"] == "non-finite value replaced"


def test_sanitize_nulls_nonfinite_list_entries():
    out = sanitize_for_json([1.0, float("-inf"), "text", float("nan")])
    assert out == [1.0, None, "text", None]


def test_sanitize_unwraps_numpy_types():
    out = sanitize_for_json(
        {"arr": np.array([1.0, 2.0]), "i": np.int64(3), "f": np.float64(0.5),
         "flag": np.bool_(True)}
    )
    assert out == {"arr": [1.0, 2.0], "i": 3, "f": 0.5, "flag": True}
    assert isinstance(out["i"], int) and isinstance(out["flag"], bool)


def test_sanitize_recurses_nested_structures():
    out = sanitize_for_json({"outer": [{"x": float("nan")}]})
    assert out["outer"][0]["x"] is None
    assert out["outer"][0]["x_reason"]


@dataclasses.dataclass(frozen=True)
class _Record:
    value: float
    window: tuple
    n_points: int


def test_dumps_json_writes_a_dataclass_as_its_fields():
    """A record's JSON is its asdict: a NaN field becomes null with a
    '_reason' sibling and a tuple field a list, at the top level or nested;
    a dataclass type is not an instance and passes through."""
    record = _Record(value=math.nan, window=(0.4, 0.95), n_points=3)
    text = dumps_json(record)
    assert text == dumps_json(dataclasses.asdict(record))
    assert json.loads(text) == {"value": None, "value_reason": "non-finite value replaced",
                                "window": [0.4, 0.95], "n_points": 3}
    assert json.loads(dumps_json({"fit": record}))["fit"] == json.loads(text)
    assert sanitize_for_json(_Record) is _Record


def test_dumps_json_is_sorted_and_newline_terminated():
    text = dumps_json({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}
    # NaN never reaches the wire
    assert "NaN" not in dumps_json({"x": float("nan")})


def test_write_csv_round_trips_and_refuses_nonfinite(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), ([0.1], np.array([np.float64(3.0)])))
    rows = read_rows(path)
    assert float(rows[1][0]) == 0.1
    assert float(rows[1][1]) == 3.0
    with pytest.raises(DomainError):
        write_csv(tmp_path / "inf.csv", ("a",), ([float("inf")],))


ADVERSARIAL_COLUMNS = {
    "negative-zero": [-0.0, 0.0, -0.0],
    "subnormal": [5e-324, -5e-324, 2.2250738585072014e-308],
    "decimal-switch": [1e15, 1e16, 1e22, 1e-4, 1e-5, 1.5e300],
    "tenth": [0.1, 0.2, 0.1 + 0.2],
    "integer-valued": [3.0, -7.0, 2.0**53, 2.0**53 + 2.0],
    "float64-scalars": [np.float64(0.1), np.float64(-2.5), np.float64(1e22)],
    "float64-array": np.array([1.0 / 3.0, -1e-300, 123456789.0]),
    "no-rows": np.array([]),
    # one value throughout is formatted once; only the same bits count as one
    "constant": [0.6] * 4,
    "constant-zero": [0.0] * 3,
    "zero-then-negative-zero": [0.0, -0.0, -0.0],
    "one-row": [0.1],
    "strided-constant": np.full(8, 1.5)[::2],
    # the rows go to the file in chunks: one whole chunk, and one row past
    # one and two chunks
    "one-chunk": np.arange(CSV_CHUNK_ROWS) / 7.0,
    "chunk-plus-one": np.arange(CSV_CHUNK_ROWS + 1) / 7.0,
    "two-chunks-plus-one": np.arange(2 * CSV_CHUNK_ROWS + 1) / 7.0,
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_COLUMNS))
def test_write_csv_matches_the_per_cell_reference(tmp_path, name):
    column = ADVERSARIAL_COLUMNS[name]
    columns = (column, column[::-1], [-c for c in column])
    write_csv(tmp_path / "fast.csv", ("a", "b c", 'quote"d'), columns)
    reference_write_csv(tmp_path / "slow.csv", ("a", "b c", 'quote"d'), columns)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "slow.csv").read_bytes()
    assert fast.count(b"\r\n") == 1 + len(column)


def test_write_csv_constant_column_count(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), ([1.0, 3.0], [2.0, 4.0]))
    rows = read_rows(path)
    assert rows[0] == ["a", "b"]
    assert len(rows) == 3
    assert {len(r) for r in rows} == {2}
    raw = path.read_bytes()
    assert b"\r\n" in raw


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ArityError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), ([1.0],))
    with pytest.raises(ArityError):
        write_csv(tmp_path / "empty.csv", (), ())
    with pytest.raises(ArityError, match=r"column shapes \[\(2,\), \(1,\)\]$"):
        write_csv(tmp_path / "unequal.csv", ("a", "b"), ([1.0, 2.0], [3.0]))
    with pytest.raises(ArityError):
        write_csv(tmp_path / "table.csv", ("a",), (np.ones((2, 2)),))
    assert list(tmp_path.iterdir()) == []


def test_write_csv_refuses_before_opening(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), ([1.0, 3.0], [2.0, 4.0]))
    good = path.read_bytes()
    with pytest.raises(DomainError) as exc:
        write_csv(path, ("a", "b"), ([1.0, 3.0], [2.0, float("nan")]))
    assert str(exc.value) == "cannot format non-finite value nan into CSV"
    assert path.read_bytes() == good
    with pytest.raises(ArityError):
        write_csv(path, ("a", "b"), ([1.0, 3.0, 5.0], [2.0, 4.0]))
    assert path.read_bytes() == good


REWRITE_COLUMNS = (np.linspace(0.0, 1.0, 400), np.linspace(-3.0, 5.0, 400))


@pytest.mark.parametrize("old_rows, new_rows", [(400, 40), (40, 400), (400, 400)],
                         ids=["shorter", "longer", "equal-length"])
def test_write_csv_over_an_old_file_writes_the_bytes_of_a_fresh_one(tmp_path, old_rows,
                                                                    new_rows):
    """A rewrite leaves no byte of the old table, whatever its length."""
    path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
    write_csv(path, ("a", "b"), [c[:old_rows][::-1] for c in REWRITE_COLUMNS])
    new = [c[:new_rows] for c in REWRITE_COLUMNS]
    write_csv(path, ("a", "b"), new)
    write_csv(fresh, ("a", "b"), new)
    assert path.read_bytes() == fresh.read_bytes()


def test_write_csv_to_dev_null():
    write_csv(os.devnull, ("a", "b"), REWRITE_COLUMNS)


def test_write_csv_names_the_first_non_finite_value_in_row_order(tmp_path):
    columns = ([1.0, -math.inf], [math.nan, 2.0], [math.inf, 3.0])
    with pytest.raises(DomainError, match="^cannot format non-finite value nan into CSV$"):
        write_csv(tmp_path / "t.csv", ("a", "b", "c"), columns)


def test_diagnostics_csv_shape(tmp_path):
    sol = ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=0.2)
    state = initial_state_from_solution(sol, Grid1D(lo=-0.5, hi=0.5, n=50))
    run = run_evolution(state, EvolutionConfig(blowup_time=1.0, t_end=0.2))
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, run)
    rows = read_rows(path)
    assert rows[0] == list(DIAGNOSTICS_HEADER)
    assert len(rows) == 1 + run.times.size
    assert {len(r) for r in rows} == {6}
    # the columns parse back to the recorded series
    assert float(rows[1][0]) == run.times[0]
    assert float(rows[-1][4]) == run.momentum[-1]


def test_snapshot_csv_round_trip(tmp_path):
    sol = ClosedFormSolution(family=Family.BORN_INFELD_LOG, T=1.0, k=0.2)
    state = initial_state_from_solution(sol, Grid1D(lo=-0.5, hi=0.5, n=20))
    path = tmp_path / "snap.csv"
    write_snapshot_csv(path, state)
    rows = read_rows(path)
    assert rows[0] == ["x", "u", "p", "q"]
    assert len(rows) == 22
    xs = np.array([float(r[0]) for r in rows[1:]])
    assert np.array_equal(xs, state.xs)


def test_profile_csv_gap_column(tmp_path):
    run = shoot_profile(0.3, 0.5, 1e-3)
    path = tmp_path / "p.csv"
    write_profile_csv(path, run)
    rows = read_rows(path)
    assert rows[0] == ["rho", "phi", "dphi", "degeneracy_gap"]
    rho, phi, _, gap = (float(v) for v in rows[-1])
    assert abs(gap - (1.0 - rho * rho - phi * phi)) <= 1e-15
