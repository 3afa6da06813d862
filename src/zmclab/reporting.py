"""Serialization helpers: deterministic JSON and RFC-4180-style CSV.

Two rules govern everything here.  JSON output never contains NaN or
infinity: a non-finite number is written as null and a sibling reason field
says why the value is missing.  CSV output always has a header row and a
constant column count, with '.' as the decimal separator and scientific
notation permitted.
"""
from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math

import numpy as np

from .errors import ArityError, DomainError

NONFINITE_REASON = "non-finite value replaced"

# rows formatted and joined into one string per file write: few writes per
# table, and bounded memory for a long one
CSV_CHUNK_ROWS = 4096


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.floating, np.integer)) and not isinstance(
        x, bool
    )


# values copied as they are (their container nulls a non-finite float)
_AS_IS = frozenset({str, int, float, bool, type(None)})


def sanitize_for_json(obj):
    """Deep copy with numpy scalars unwrapped, dataclass instances written
    as dicts of their fields, and non-finite numbers nulled.

    Dict entries that lose a value grow a '<key>_reason' sibling; bare list
    elements just become null (their position is the identification).
    """
    if type(obj) in _AS_IS:
        return obj
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if _is_number(value) and not math.isfinite(float(value)):
                out[str(key)] = None
                out[f"{key}_reason"] = NONFINITE_REASON
            else:
                out[str(key)] = sanitize_for_json(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [
            None if _is_number(v) and not math.isfinite(float(v)) else sanitize_for_json(v)
            for v in obj
        ]
    if isinstance(obj, np.ndarray):
        return sanitize_for_json(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # the fields as they are: this copy makes the nested ones JSON values
        return sanitize_for_json({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    return obj


def dumps_json(obj) -> str:
    """Deterministic UTF-8 JSON text: sorted keys, two-space indent,
    no NaN/Inf, trailing newline."""
    payload = sanitize_for_json(obj)
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_csv(path, header, columns) -> None:
    """CSV with CRLF line endings, one 1-D numeric column per header name,
    cells in shortest round-trip form. The table is checked whole before the
    path is opened, so a refused table leaves the path untouched: a ragged
    table is a bug in the caller, and a non-finite value a measurement that
    should have stopped the run before reaching the writer. The rows are
    formatted and written CSV_CHUNK_ROWS at a time, each chunk one string of
    CRLF-terminated rows in one write, so a table with no rows writes the
    header alone."""
    header = [str(h) for h in header]
    columns = [np.asarray(c, dtype=float) for c in columns]
    shapes = [c.shape for c in columns]
    if len(shapes) != len(header) or len(set(shapes)) != 1 or len(shapes[0]) != 1:
        raise ArityError(
            "CSV needs one 1-D column per header name, all of one length: "
            f"header {header}, column shapes {shapes}"
        )
    # each column's first non-finite row; the first of those in row order
    # (then column order), as the rows are written, is the one named
    bad = [
        (int(np.argmin(finite)), j)
        for j, finite in enumerate(np.isfinite(c) for c in columns)
        if not finite.all()
    ]
    if bad:
        row, j = min(bad)
        raise DomainError(f"cannot format non-finite value {float(columns[j][row])!r} into CSV")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = [_column_cells(c[start:start + CSV_CHUNK_ROWS]) for c in columns]
            rows = list(map(",".join, zip(*chunk)))
            rows.append("")  # a CRLF after the chunk's last row too
            fh.write("\r\n".join(rows))


def _column_cells(column):
    """The cells of a column, or of a chunk of one, in shortest round-trip
    form. A column holding one value throughout (bit for bit, so 0.0 and
    -0.0 differ), such as a profile's phi and phi', is formatted once."""
    bits = column.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return itertools.repeat(repr(float(column[0])), bits.size)
    return map(repr, column.tolist())


DIAGNOSTICS_HEADER = (
    "t", "sup_q", "q_at_origin", "min_discriminant",
    "momentum_integral", "momentum_corrected",
)


def write_diagnostics_csv(path, run) -> None:
    """Per-step time series of an evolution run.

    Columns: t, sup_q, q_at_origin, min_discriminant, momentum_integral,
    momentum_corrected.  The last column adds back the boundary flux and the
    strips dropped by the moving edges, so it is the quantity whose drift the
    conservation check bounds; the raw integral is kept beside it because the
    difference between the two is the whole story of the excision.
    """
    write_csv(path, DIAGNOSTICS_HEADER, (
        run.times, run.sup_slope, run.center_series,
        run.min_disc, run.momentum, run.invariant,
    ))


SNAPSHOT_HEADER = ("x", "u", "p", "q")


def write_snapshot_csv(path, state) -> None:
    """One field snapshot: x, u, p, q at the state's time."""
    write_csv(path, SNAPSHOT_HEADER, (state.xs, state.u, state.p, state.q))


PROFILE_HEADER = ("rho", "phi", "dphi", "degeneracy_gap")


def write_profile_csv(path, run) -> None:
    """Profile trace with the gap 1 - rho^2 - phi^2 spelled out per row."""
    gap = 1.0 - run.rhos**2 - run.phi**2
    write_csv(path, PROFILE_HEADER, (run.rhos, run.phi, run.dphi, gap))
