"""The one CSV number format: every table distbeam writes, held as
columns, becomes text through :func:`csv_text`."""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=1)
def _range_text(values: range) -> tuple[str, ...]:
    return tuple(map(str, values))


def _fmt_column(values) -> list[str] | tuple[str, ...]:
    """A float64 array as ``.15g``, formatted once per run of equal bit
    patterns (so -0.0 keeps its own text), a ``range`` by ``str`` once per
    distinct value in a row (the process keeps the last range's text as a
    tuple, so every CSV of a sweep shares one interval column), any
    other column value by value through :func:`_fmt`: ints exactly, bools
    as 0/1, integral floats as ints. Runs of neighbours, not a sort such as
    ``np.unique``: a process's first int64 sort adds ~0.5 MB RSS."""
    if isinstance(values, range):
        return _range_text(values)
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
        return [_fmt(x) for x in values]
    bits = values.view(np.int64)
    new = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    text = np.array([format(v, ".15g") for v in values[new].tolist()], dtype=object)
    return text[np.cumsum(new) - 1].tolist()
