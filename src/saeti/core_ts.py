"""Multivariate time-series container, masking, normalization and windowing.

A series is an ``(n, d)`` float matrix: row ``i`` is the vector of all
coordinates at time step ``i``, column ``j`` is one coordinate. A missing
point is a NaN cell and nothing else: the observed mask (``True`` =
observed) is derived from the values, so the two cannot disagree, and an
accidental read of a missing cell surfaces as NaN. Windows keep their NaN
until ``models.model_inputs`` prepares them for a model.

Positions in user-facing structures (subsequence starts, reports, mask
CSVs) are 1-based; internal array indexing is 0-based.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "NormParams",
    "minmax_normalize",
    "apply_normalization",
    "denormalize",
    "window_starts",
    "split_nonoverlapping",
    "read_csv",
    "write_csv",
]

MIN_SEGMENT_LEN = 4  # shortest segment whose inner similarity window is >= 2


def _check_distinct(names: tuple[str, ...], where: str = "") -> None:
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"{where}coordinate names must be distinct, repeated: {repeated}")


@dataclass(frozen=True)
class TimeSeries:
    """An ``(n, d)`` real matrix whose NaN cells are its gaps.

    Parameters
    ----------
    values : array_like, shape (n, d) or (n,)
        Data matrix, copied; NaN marks a missing point, every other cell
        must be finite.
    names : tuple of str
        One distinct name per coordinate (CSV header).

    ``mask`` (True where observed) is derived from ``values`` once.
    """

    values: np.ndarray
    names: tuple[str, ...] = ()
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        names = tuple(self.names) if self.names else tuple(
            f"c{j + 1}" for j in range(values.shape[1])
        )
        if len(names) != values.shape[1]:
            raise ValueError("one name per coordinate required")
        _check_distinct(names)
        infinite = np.isinf(values)
        if infinite.any():
            i, j = np.argwhere(infinite)[0]
            raise ValueError(
                f"non-finite observed value {float(values[i, j])!r} at row {i + 1}, "
                f"column {j + 1} ({names[j]})"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", ~np.isnan(values))
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def n_missing(self) -> int:
        return int((~self.mask).sum())

    @classmethod
    def from_values(cls, values, names: Sequence[str] = ()) -> "TimeSeries":
        """The same as ``TimeSeries(values, names)``."""
        return cls(values, names)


@dataclass(frozen=True)
class NormParams:
    """Per-coordinate observed min/max used by the [0, 1] rescaling."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=float)
        maxs = np.asarray(self.maxs, dtype=float)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("mins/maxs must be 1-D and equally shaped")
        with np.errstate(over="ignore"):
            bad = np.flatnonzero((mins > maxs) | ~(maxs - mins < np.inf))
        if bad.size:
            j = bad[0]
            raise ValueError(f"coordinate {j + 1}: range {float(mins[j])!r} to {float(maxs[j])!r} "
                             + ("runs backwards" if mins[j] > maxs[j] else "overflows float64"))
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def d(self) -> int:
        return self.mins.shape[0]


def minmax_normalize(ts: TimeSeries) -> tuple[TimeSeries, NormParams]:
    """Rescale every coordinate to [0, 1] over its observed points.

    A constant coordinate (max == min) maps every observed value to 0.5,
    keeping it centered in the model input range. Missing points stay NaN.

    Raises
    ------
    ValueError
        If some coordinate has zero observed points ("empty coordinate").
    """
    counts = ts.mask.sum(axis=0)
    if np.any(counts == 0):
        j = int(np.argmin(counts))
        raise ValueError(f"empty coordinate: {ts.names[j]} has no observed points")
    mins = np.empty(ts.d)
    maxs = np.empty(ts.d)
    for j in range(ts.d):
        observed = ts.values[ts.mask[:, j], j]
        mins[j] = observed.min()
        maxs[j] = observed.max()
    params = NormParams(mins=mins, maxs=maxs)
    return apply_normalization(ts, params), params


def apply_normalization(ts: TimeSeries, params: NormParams) -> TimeSeries:
    """Rescale ``ts`` with previously computed parameters.

    Used when a new series must live in the frame of the training series.
    Values outside the training range land outside [0, 1], where callers
    that feed models clamp them; one too far out for float64 raises.
    """
    if params.d != ts.d:
        raise ValueError(f"params have d={params.d}, series has d={ts.d}")
    span = params.maxs - params.mins
    out = np.where(ts.mask, 0.5, np.nan)
    with np.errstate(over="ignore"):
        np.divide(ts.values - params.mins, span, out=out, where=span > 0)
    if np.isinf(out).any():
        i, j = np.argwhere(np.isinf(out))[0]
        raise ValueError(f"row {i + 1}, column {j + 1} ({ts.names[j]}): value "
                         f"{float(ts.values[i, j])!r} lies too far outside the bundle's "
                         f"range {float(params.mins[j])!r} to {float(params.maxs[j])!r}")
    return TimeSeries(out, ts.names)


def denormalize(ts_norm: TimeSeries, params: NormParams) -> TimeSeries:
    """Invert :func:`minmax_normalize`; degenerate coordinates map to min."""
    if params.d != ts_norm.d:
        raise ValueError(f"params have d={params.d}, series has d={ts_norm.d}")
    span = params.maxs - params.mins
    # Not branch-free: v * 0 + min turns a constant -0.0 coordinate into +0.0.
    out = np.where(span > 0, ts_norm.values * span + params.mins, params.mins)
    return TimeSeries(np.where(ts_norm.mask, out, np.nan), ts_norm.names)


def window_starts(n: int, m: int) -> np.ndarray:
    """0-based starts of the length-m windows that cover ``n`` steps.

    Windows start at 0, m, 2m, ...; when n is not a multiple of m the
    final window is anchored at ``n - m`` and overlaps its predecessor
    so every point is covered. On the overlap, earlier windows take
    precedence downstream (first writer wins).
    """
    if m > n:
        raise ValueError(f"m={m} exceeds series length n={n}")
    starts = np.arange(0, n - m + 1, m)
    if n % m != 0:
        starts = np.append(starts, n - m)
    return starts


def split_nonoverlapping(ts: TimeSeries, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cover the whole series with consecutive d-by-m windows.

    Returns ``(starts, windows)``: the 0-based window starts from
    :func:`window_starts`, and the windows (NaN at gaps) shaped
    ``(N, d, m)`` by one fancy index, so every ``windows[i, j]`` row is
    contiguous.
    """
    starts = window_starts(ts.n, m)
    return starts, ts.values[starts[:, None, None] + np.arange(m), np.arange(ts.d)[:, None]]


# CSV interchange: a header row of coordinate names, then one row per time
# step; blank lines are skipped. A cell is stripped of surrounding whitespace;
# then an empty cell, or one that float() reads as NaN, is missing, and
# float() parses every other cell. Two routes read a file. Plain numeric text
# goes to numpy's C reader: each empty cell becomes "nan", and np.loadtxt
# strips and converts every cell with the PyOS_string_to_double that float()
# calls, so the values are float()'s to the bit. Once a fifth of the data lines
# repeat an earlier one, that route parses each distinct line once and copies
# its row to every line that repeats it: the benchmark's 10 000-row blackout
# request holds 25 distinct lines and its planted history 24 of 3 840. What
# that route does not take (text that is not ASCII, holds a quote or a NUL,
# which Python 3.10's csv refuses, has no data row, a line longer than csv's
# field limit or a line ended by a bare \r) or refuses (a ragged row, a cell of
# only spaces and tabs, "1_0" or "\x0b", an infinite cell) takes the csv route:
# one csv.reader pass up to the first ragged row or csv fault, one float() map
# over the cells before it, and a cell loop only if that map fails, so that the
# first fault in file order is named.
# Observed values are written with repr, run once per distinct bit pattern (so
# -0.0 and 0.0 stay apart), and read back bit-exact. Missing cells are written
# empty; csv quotes a row's only cell as '""' so that a one-column gap is not a
# blank line (a file with such a gap takes the csv route). The body is one
# join over all cells and separators: a list per row would set off a young
# garbage collection every 700 rows. Once at most a tenth of the rows are
# distinct, each distinct row is joined once and the body is one join over a
# text per row: a blackout request's output holds 34 distinct rows of 10 000.
# Numbering the rows costs a sort, so with many distinct rows the single join
# wins: on 10 000 x 4 random cells the row way took 0.88 of its time at a
# tenth distinct, 0.94 at a fifth and 1.00 at 35 %; on 2 000 rows 0.95, 0.99
# and 1.05. A file with more distinct cells than d times a tenth of its rows
# has too many distinct rows, so all-distinct outputs never number their rows.

def read_csv(path) -> TimeSeries:
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {err}") from None
    names, values = _read_plain(text) or _read_rows(path, text)
    return TimeSeries(values, names)


def _read_plain(text: str) -> tuple[tuple[str, ...], np.ndarray] | None:
    """Names and values of plain numeric text by numpy's C reader, or None."""
    if not text.endswith("\n"):
        text += "\n"
    header, *lines, _ = text.split("\n")  # a line ended by \r\n keeps its \r
    parsed, kept = lines, text  # the lines to parse, and a text of them
    distinct = dict.fromkeys(lines)  # in order of first occurrence
    # Copying a row to a line costs about a fifth of parsing the line. The
    # distinct route also drops blank lines, which np.loadtxt does not take.
    if "" in distinct or "\r" in distinct or 5 * len(distinct) < 4 * len(lines):
        distinct.pop("", None)
        distinct.pop("\r", None)
        parsed = list(distinct)
        kept = "\n".join([header, *parsed, ""])
    names = tuple(name.strip() for name in header.split(","))
    # Not taken: a blank header, repeated names, no data row, text that is not
    # ASCII or holds a quote or a NUL, a bare \r, an over-long line.
    if (header in ("", "\r") or len(set(names)) < len(names) or not parsed
            or not kept.isascii() or '"' in kept or "\0" in kept
            or "\r" in kept and kept.count("\r") > kept.count("\r\n")
            or max(len(header), max(map(len, parsed))) > csv.field_size_limit()):
        return None
    top = len(header)
    raw = np.frombuffer(kept.encode("ascii"), np.uint8)[top:]  # from the header's \n on
    after = (raw == ord(",")) | (raw == ord("\n"))  # a cell starts after these
    before = after | (raw == ord("\r"))  # and ends before these
    blank = after[:-1] & before[1:]  # blank[i]: an empty cell starts at raw[i + 1]
    empty = top + 1 + np.flatnonzero(blank)  # where kept has a blank cell
    cuts = [top + 1, *empty.tolist(), len(kept) - 1]
    cells = ("nan".join([kept[a:b] for a, b in zip(cuts, cuts[1:])]).split("\n")
             if empty.size else parsed)
    try:
        values = np.loadtxt(cells, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if values.shape != (len(parsed), len(names)) or np.isinf(values).any():
        return None
    if parsed is not lines:
        row = dict(zip(parsed, range(len(parsed))))
        at = np.fromiter(map(row.get, lines, repeat(-1)), np.intp, len(lines))
        values = values[at[at >= 0]]  # a blank line has no row
    return names, values


def _read_rows(path, text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Names and values by csv.reader, strip and float(); raises at the first fault."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, fault = [], None  # the records up to the first csv fault
    try:
        rows.extend(reader)
    except csv.Error as err:
        fault = f"{path}:{reader.line_num}: {err}"
    if not rows:
        raise ValueError(fault or f"{path}: empty CSV")
    header, *rows = rows  # rows[i] is line i + 2; a blank line is []
    names = tuple(name.strip() for name in header)
    _check_distinct(names, f"{path}:1: ")
    size = np.fromiter(map(len, rows), np.intp, len(rows))
    ragged = np.flatnonzero((size != 0) & (size != len(names)))
    if ragged.size:  # it comes before a csv fault, which ends the rows
        stop = ragged[0]
        fault = f"{path}:{stop + 2}: expected {len(names)} cells, got {size[stop]}"
        size = size[:stop]
    lineno = np.flatnonzero(size) + 2  # of each data row before the fault
    cells = [cell.strip() or "nan" for row in rows[:size.size] for cell in row]
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        for k, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                i, j = divmod(k, len(names))
                raise ValueError(f"{path}:{lineno[i]}: column {j + 1} ({names[j]}): "
                                 f"not a number: {cell!r}") from None
    if fault:
        raise ValueError(fault)
    if not lineno.size:
        raise ValueError(f"{path}: no data rows")
    values = values.reshape(lineno.size, len(names))
    infinite = np.isinf(values)
    if infinite.any():
        i, j = np.argwhere(infinite)[0]
        raise ValueError(f"{path}:{lineno[i]}: column {j + 1} ({names[j]}): "
                         f"non-finite value {float(values[i, j])!r}")
    return names, values


def _lines(cells: np.ndarray) -> str:
    """The text of an ``(r, d)`` grid of cell texts: "," between cells, "\\n" after each row."""
    grid = np.full((cells.shape[0], 2 * cells.shape[1]), ",", dtype=object)
    grid[:, 0::2] = cells
    grid[:, -1:] = "\n"
    return "".join(grid.ravel().tolist())


def _repeated_rows(cell_of: np.ndarray,
                   distinct_cells: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(first, row_of)`` of the distinct rows of ``cell_of``, or None unless
    at most a tenth of its rows are distinct.

    ``cell_of`` holds each cell's index among ``distinct_cells`` texts. A row
    holds at most d of them, so a file has at least ``distinct_cells / d``
    distinct rows: most files are turned away before any row is compared.
    """
    n, d = cell_of.shape
    if not cell_of.size or 10 * distinct_cells > d * n:
        return None
    code, span = np.zeros(n, np.int64), 1  # a row's cell indices as one integer
    for column in cell_of.T:
        if span * distinct_cells >= 2 ** 63:  # renumber before the code overflows
            code, span = np.unique(code, return_inverse=True)[1], n
        code, span = code * distinct_cells + column, span * distinct_cells
    _, first, row_of = np.unique(code, return_index=True, return_inverse=True)
    return (first, row_of) if 10 * first.size <= n else None


def write_csv(ts: TimeSeries, path) -> None:
    bits, cell_of = np.unique(ts.values.ravel().view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    text[np.isnan(bits.view(float))] = '""' if ts.d == 1 else ""
    cell_of = cell_of.reshape(ts.values.shape)
    rows = _repeated_rows(cell_of, bits.size)
    if rows is None:
        body = _lines(text[cell_of])
    else:
        first, row_of = rows
        lines = np.array(_lines(text[cell_of[first]]).split("\n"), dtype=object)
        body = "\n".join(lines[row_of].tolist()) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(ts.names)
        fh.write(body)
