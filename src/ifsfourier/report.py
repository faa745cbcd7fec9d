"""Deterministic JSON reports and CSV files for the CLI.

Floats are printed at 17 significant digits, exact rationals as fraction
strings, dict keys in sorted order, so identical inputs produce
byte-identical reports and files.
"""

from __future__ import annotations

import csv
from fractions import Fraction

import numpy as np

__all__ = ["dumps", "write_csv"]


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            "%s%s: %s" % (inner, _render(str(k), 0), _render(v, indent + 1))
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = ["%s%s" % (inner, _render(v, indent + 1)) for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, bool) or obj is None:
        return "true" if obj is True else ("false" if obj is False else "null")
    if isinstance(obj, Fraction):
        return _render(str(obj) if obj.denominator > 1 else str(obj.numerator), 0)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _render({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent)
    raise TypeError("cannot render %r" % type(obj))


def dumps(obj) -> str:
    return _render(obj, 0) + "\n"


def write_csv(path, header, rows) -> None:
    """Write a header row and `rows` as CSV (\\r\\n line ends), floats at
    17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["%.17g" % v if isinstance(v, float) else v for v in row] for row in rows)
