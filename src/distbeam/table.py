"""The one CSV number format: every table distbeam writes, held as
columns, becomes text through :func:`csv_text`."""

from __future__ import annotations

import numpy as np


def csv_text(header: str, *columns) -> str:
    """The header line, then one line per row of the equal-length columns."""
    rows = zip(*[_fmt_column(column) for column in columns])
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def _fmt(x) -> str:
    if type(x) is int:
        return str(x)
    if float(x).is_integer():
        return str(int(x))
    return format(float(x), ".15g")


def _fmt_column(values) -> list[str]:
    """A float64 array as ``.15g``, formatted once per distinct bit pattern
    (so -0.0 keeps its own text), any other column value by value through
    :func:`_fmt`: ints exactly, bools as 0/1, integral floats as ints. A
    dict, not ``np.unique``: a process's first int64 sort adds ~0.5 MB RSS."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
        return [_fmt(x) for x in values]
    text = {}
    return [text[b] if b in text else text.setdefault(b, format(v, ".15g"))
            for b, v in zip(values.view(np.int64).tolist(), values.tolist())]
