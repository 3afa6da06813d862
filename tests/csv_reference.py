"""The CSV writer as a plain per-cell loop.

This is the straightforward form of `reporting.write_csv`: the columns are
zipped into rows, every cell is formatted as repr(float(cell)) and each row
goes through csv.writer. The package's form checks the table whole, converts
each column once, formats a column of one repeated value once per chunk of
rows and writes each chunk of rows as one joined string; tests require the
two to write the same bytes.
"""
from __future__ import annotations

import csv


def reference_write_csv(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([str(h) for h in header])
        for row in zip(*columns):
            writer.writerow([repr(float(cell)) for cell in row])
