"""Correctness gate: CSV outputs as typed column tables, compared with a tolerance.

A table is a dict with the keys "#schema" (the text after "# schema: "),
"#columns" (the header, in order) and one numpy array per column.  Columns
whose every cell is an integer are compared exactly, as are text columns
(scheme labels, True/False flags); every other column is float64 with empty
cells as NaN and is compared within TOL relative to max(1, |reference|).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

TOL = 1e-12


def _typed(cells: list[str]) -> np.ndarray:
    try:
        return np.array([int(c) for c in cells], dtype=np.int64)
    except ValueError:
        pass
    try:
        return np.array([float(c) if c else np.nan for c in cells], dtype=np.float64)
    except ValueError:
        return np.array(cells, dtype=str)


def table_from_lines(lines: list[str]) -> dict:
    if not lines or not lines[0].startswith("# schema: "):
        raise ValueError("CSV does not start with a '# schema: ' line")
    rows = list(csv.reader(lines[1:]))
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError("CSV row length differs from its header")
    table = {"#schema": lines[0][len("# schema: "):], "#columns": header}
    for j, name in enumerate(header):
        table[name] = _typed([r[j] for r in body])
    return table


def read_table(path: Path) -> dict:
    return table_from_lines(path.read_text().splitlines())


def _cell(v) -> str:
    """The CLI's cell format: .17g floats, empty for None and NaN."""
    if v is None or (isinstance(v, float) and v != v):
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def table_from_rows(schema: str, header: list[str], rows) -> dict:
    lines = [f"# schema: {schema}", ",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return table_from_lines(lines)


def compare(expected: dict, actual: dict, where: str) -> list[str]:
    """Every difference between two tables, as readable messages."""
    if expected["#schema"] != actual["#schema"]:
        return [f"{where}: schema {actual['#schema']!r} != {expected['#schema']!r}"]
    if list(expected["#columns"]) != list(actual["#columns"]):
        return [f"{where}: columns {actual['#columns']} != {expected['#columns']}"]
    problems = []
    for name in expected["#columns"]:
        e, a = expected[name], actual[name]
        if e.shape != a.shape:
            problems.append(f"{where}.{name}: {a.shape[0]} rows, expected {e.shape[0]}")
        elif e.dtype.kind == "f" or a.dtype.kind == "f":
            e, a = e.astype(float), a.astype(float)
            nan_e, nan_a = np.isnan(e), np.isnan(a)
            bad = (nan_e != nan_a) | (~nan_e & ~nan_a & ~(
                np.abs(a - e) <= TOL * np.maximum(1.0, np.abs(e))))
            if bad.any():
                i = int(np.argmax(bad))
                problems.append(f"{where}.{name}: {int(bad.sum())} cells differ, "
                                f"first at row {i}: {a[i]!r} != {e[i]!r}")
        elif e.dtype.kind != a.dtype.kind or not np.array_equal(e, a):
            problems.append(f"{where}.{name}: values differ from the reference")
    return problems


def save_tables(path: Path, tables: dict[str, dict]) -> None:
    """Store {file name: table} compactly in one .npz archive."""
    arrays = {}
    for fname, table in tables.items():
        arrays[f"{fname}|#schema"] = np.array([table["#schema"]])
        arrays[f"{fname}|#columns"] = np.array(table["#columns"])
        for name in table["#columns"]:
            arrays[f"{fname}|{name}"] = table[name]
    np.savez_compressed(path, **arrays)


def load_tables(path: Path) -> dict[str, dict]:
    tables: dict[str, dict] = {}
    with np.load(path) as data:
        for key in data.files:
            fname, name = key.split("|", 1)
            value = data[key]
            if name == "#schema":
                value = str(value[0])
            elif name == "#columns":
                value = [str(c) for c in value]
            tables.setdefault(fname, {})[name] = value
    return tables
