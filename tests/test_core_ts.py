import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saeti import core_ts
from saeti.core_ts import (
    NormParams,
    TimeSeries,
    apply_normalization,
    denormalize,
    minmax_normalize,
    read_csv,
    split_nonoverlapping,
    write_csv,
)


def test_series_poisons_missing_cells():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[True, False], [True, True]])
    ts = TimeSeries(np.where(mask, values, np.nan))
    values[0, 0] = 9.0  # the series holds a copy
    assert ts.values[0, 0] == 1.0
    assert np.isnan(ts.values[0, 1])
    assert ts.mask.tolist() == mask.tolist()
    assert ts.n_missing == 1
    assert ts.names == ("c1", "c2")


def test_from_values_derives_mask_from_nan():
    ts = TimeSeries.from_values([[1.0, np.nan], [2.0, 5.0]])
    assert ts.mask.tolist() == [[True, False], [True, True]]


def test_normalize_hand_case():
    ts = TimeSeries.from_values(np.array([[0.0], [5.0], [10.0]]))
    out, params = minmax_normalize(ts)
    assert out.values[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert params.mins[0] == 0.0 and params.maxs[0] == 10.0


def test_normalize_constant_coordinate_centers():
    ts = TimeSeries.from_values(np.array([[3.0], [3.0], [3.0]]))
    out, params = minmax_normalize(ts)
    assert np.all(out.values == 0.5)
    # and denormalize maps it back to the constant
    back = denormalize(out, params)
    assert np.all(back.values == 3.0)


def test_normalize_skips_missing_and_keeps_mask():
    ts = TimeSeries.from_values(np.array([[0.0], [np.nan], [4.0]]))
    out, _ = minmax_normalize(ts)
    assert np.isnan(out.values[1, 0])
    assert out.mask.tolist() == [[True], [False], [True]]


def test_normalize_empty_coordinate_error():
    ts = TimeSeries.from_values(np.array([[np.nan, 1.0], [np.nan, 2.0]]),
                                names=("a", "b"))
    with pytest.raises(ValueError, match="empty coordinate: a"):
        minmax_normalize(ts)


def test_roundtrip_normalize_denormalize():
    rng = np.random.default_rng(11)
    for _ in range(20):
        vals = rng.normal(scale=rng.uniform(0.1, 50), size=(40, 3))
        vals[rng.random((40, 3)) < 0.2] = np.nan
        if np.isnan(vals).all(axis=0).any():
            continue
        ts = TimeSeries.from_values(vals)
        out, params = minmax_normalize(ts)
        back = denormalize(out, params)
        obs = ts.mask
        assert np.allclose(back.values[obs], ts.values[obs], atol=1e-12)


def reference_minmax(values):
    """Min-max scaling and its inverse, written out one coordinate at a time."""
    observed = ~np.isnan(values)
    mins, maxs = np.empty(values.shape[1]), np.empty(values.shape[1])
    norm, back = values.copy(), values.copy()
    for j in range(values.shape[1]):
        col = observed[:, j]
        mins[j], maxs[j] = values[col, j].min(), values[col, j].max()
        span = maxs[j] - mins[j]
        if span == 0.0:
            norm[col, j], back[col, j] = 0.5, mins[j]
        else:
            norm[col, j] = (values[col, j] - mins[j]) / span
            back[col, j] = norm[col, j] * span + mins[j]
    return mins, maxs, norm, back


def signed_zero_series():
    """Columns whose minimum is 0.0 and -0.0 at once, constant -0.0 ones, gaps."""
    rng = np.random.default_rng(20)
    for _ in range(400):
        n, d = int(rng.integers(1, 24)), int(rng.integers(1, 4))
        values = rng.choice([0.0, -0.0, 2.5, np.nan], p=[0.35, 0.35, 0.15, 0.15], size=(n, d))
        values[rng.integers(n)] = rng.choice([0.0, -0.0], size=d)  # each column observed
        yield values
    yield np.array([[-0.0, 1.0], [-0.0, np.nan], [np.nan, 3.0], [-0.0, 2.0]])
    yield np.array([[-0.0, 7.0], [np.nan, 7.0], [-0.0, np.nan], [-0.0, 7.0]])


def test_normalization_keeps_signed_zeros_bit_for_bit():
    def same_bits(got, want):
        mask = ~np.isnan(want)
        return (np.array_equal(got.mask, mask)
                and np.where(mask, got.values, 0.0).tobytes() == np.where(mask, want, 0.0).tobytes())

    for values in signed_zero_series():
        mins, maxs, norm, back = reference_minmax(values)
        out, params = minmax_normalize(TimeSeries(values))
        assert params.mins.tobytes() == mins.tobytes(), values
        assert params.maxs.tobytes() == maxs.tobytes(), values
        assert same_bits(out, norm), values
        assert same_bits(apply_normalization(TimeSeries(values), params), norm), values
        assert same_bits(denormalize(out, params), back), values


def test_apply_normalization_foreign_series_goes_out_of_range():
    train = TimeSeries.from_values(np.array([[0.0], [10.0]]))
    _, params = minmax_normalize(train)
    other = TimeSeries.from_values(np.array([[-5.0], [20.0]]))
    out = apply_normalization(other, params)
    assert out.values[0, 0] == -0.5
    assert out.values[1, 0] == 2.0


def test_norm_params_validation():
    with pytest.raises(ValueError):
        NormParams(mins=np.array([1.0]), maxs=np.array([0.0]))


def test_split_nonoverlapping_tail_window():
    ts = TimeSeries.from_values(np.arange(20.0).reshape(10, 2))
    starts, windows = split_nonoverlapping(ts, 4)
    assert starts.tolist() == [0, 4, 6]
    assert windows.shape == (3, 2, 4)
    assert windows[2].tolist() == ts.values[6:10].T.tolist()
    assert not np.isnan(windows).any()
    covered = set()
    for s in starts:
        covered.update(range(s, s + 4))
    assert covered == set(range(10))


def test_split_exact_multiple_has_no_overlap():
    ts = TimeSeries.from_values(np.arange(8.0).reshape(8, 1))
    starts, _ = split_nonoverlapping(ts, 4)
    assert starts.tolist() == [0, 4]


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    vals = rng.normal(scale=123.4, size=(30, 3))
    vals[rng.random((30, 3)) < 0.25] = np.nan
    ts = TimeSeries.from_values(vals, names=("temp", "rh", "wind"))
    path = tmp_path / "x.csv"
    write_csv(ts, path)
    back = read_csv(path)
    assert back.names == ts.names
    assert np.array_equal(back.mask, ts.mask)
    obs = ts.mask
    # repr-based writing keeps every float bit-exact
    assert np.array_equal(back.values[obs], ts.values[obs])


EDGE_FLOATS = [5e-324, 2.2250738585072014e-308 / 7, -0.0, 0.0, 1e16, 1e-5,
               1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def csv_series(draw):
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n * d, max_size=n * d))
    values = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, d)
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1),
                                           st.sampled_from(EDGE_FLOATS)), max_size=6)):
        values[i, j] = v
    observed = draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))
    mask = np.array(observed).reshape(n, d) & np.isfinite(values)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        mask[i] = False
    first = draw(st.sampled_from(["a,b", 'say "x"', "plain"]))
    return TimeSeries(np.where(mask, values, np.nan),
                      names=(first,) + tuple(f"c{j}" for j in range(1, d)))


# Bit patterns of a small cell pool: 0.0 and -0.0 (equal as floats, printed
# apart), a few ordinary values, and NaNs with different payloads (all gaps).
POOL_BITS = np.array([0.0, -0.0, 0.25, -1.5, 1e16, 5e-324], dtype=float).view(np.uint64).tolist()
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8DEADBEEF0001, 0x7FF0000000000001]


@st.composite
def pooled_csv_series(draw):
    """Cells drawn from POOL_BITS + NAN_BITS, so values repeat; -0.0 sits
    beside 0.0 in the first column; d = 1 is one case in three. Half the
    series take up to 60 rows from a pool of 1-4 such rows, so that whole
    rows repeat and the writer's distinct-row path runs."""
    d = draw(st.sampled_from([1, 2, 4]))
    pooled = draw(st.booleans())
    n = draw(st.integers(2, 60 if pooled else 12))
    rows = draw(st.integers(1, 4)) if pooled else n
    bits = draw(st.lists(st.sampled_from(POOL_BITS + NAN_BITS), min_size=rows * d,
                         max_size=rows * d))
    values = np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, d)
    values = values[draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n))]
    values[:2, 0] = 0.0, -0.0
    return TimeSeries(values, names=tuple(f"c{j}" for j in range(d)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(csv_series(), pooled_csv_series()))
@example(TimeSeries([[1.5, -2.0, 3.25]], names=("a", "b", "c")))          # one row
@example(TimeSeries([np.nan, 0.5, 0.25, np.nan], names=("a",)))           # gaps first and last
@example(TimeSeries([[1.0, 2.0], [np.nan, np.nan]], names=("a", "b")))    # the last row all gaps
@example(TimeSeries([[-0.0, 0.0], [0.0, -0.0]], names=("a", "b")))        # -0.0 beside 0.0
@example(TimeSeries(np.empty((0, 3)), names=("a", "b", "c")))             # no rows
@example(TimeSeries(np.tile([[0.25, np.nan], [-0.0, 1e16]], (10, 1)), names=("a", "b")))
@example(TimeSeries(np.tile([np.nan, 0.5], 10), names=("a",)))  # distinct rows, gaps as ""
def test_write_csv_bytes_match_a_per_cell_csv_writer_and_read_back_bit_exact(ts):
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(ts.names)
    for i in range(ts.n):
        writer.writerow([repr(float(ts.values[i, j])) if ts.mask[i, j] else ""
                         for j in range(ts.d)])
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "x.csv"
        write_csv(ts, path)
        assert path.read_bytes() == want.getvalue().encode()
        if ts.n == 0:
            with pytest.raises(ValueError, match="no data rows"):
                read_csv(path)
            return
        back = read_csv(path)
    assert back.names == ts.names
    assert np.array_equal(back.mask, ts.mask)
    assert np.array_equal(back.values[ts.mask].view(np.uint64),
                          ts.values[ts.mask].view(np.uint64))


def test_write_csv_formats_each_distinct_value_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    ts = TimeSeries(rng.normal(size=50)[rng.integers(0, 50, size=(10_000, 3))])
    formatted = []
    monkeypatch.setattr(core_ts, "repr", lambda x: formatted.append(x) or repr(x), raising=False)
    write_csv(ts, tmp_path / "x.csv")
    assert len(formatted) == len(np.unique(ts.values.view(np.uint64))) == 50
    assert np.array_equal(read_csv(tmp_path / "x.csv").values, ts.values)


def test_write_csv_formats_each_distinct_row_once_when_most_rows_repeat(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    blackout = np.tile(rng.normal(size=(25, 4)), (400, 1))
    blackout[5_000:5_010] = np.nan
    distinct = rng.normal(size=(10_000, 4))
    lines, formatted = core_ts._lines, []

    def counted(cells):
        formatted.append(len(cells))
        return lines(cells)

    monkeypatch.setattr(core_ts, "_lines", counted)
    # 26 distinct rows of 10 000; ten values in all, but about 6 300 distinct
    # rows, over the tenth that takes the row path; and all distinct, turned
    # away by the count of distinct cells.
    for values, want in ((blackout, 26), (rng.integers(0, 10, size=(10_000, 4)) / 8, 10_000),
                         (distinct, 10_000)):
        ts = TimeSeries(values)
        formatted.clear()
        write_csv(ts, tmp_path / "x.csv")
        assert formatted == [want]
        assert np.array_equal(read_csv(tmp_path / "x.csv").values, ts.values, equal_nan=True)


def test_write_csv_of_no_rows_is_the_header_alone(tmp_path):
    write_csv(TimeSeries(np.empty((0, 2)), names=("a", "b")), tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_bytes() == b"a,b\n"


def test_csv_cells_follow_the_float_grammar_after_stripping(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("a,b,c\n  ,NaN,-nan\n\n 1.5 ,1_0,\t-2e-3 \n")
    ts = read_csv(path)
    assert ts.mask.tolist() == [[False, False, False], [True, True, True]]
    assert ts.values[1].tolist() == [1.5, 10.0, -0.002]


def read_error(tmp_path, text) -> str:
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_csv(path)
    return str(info.value).replace(str(path), "bad.csv")


def test_csv_names_the_first_fault_in_file_order(tmp_path):
    # Blank lines are skipped but still count toward line numbers.
    assert read_error(tmp_path, "a,b\n1,2\n\n\n3, x1 \n") == \
        "bad.csv:5: column 2 (b): not a number: 'x1'"
    assert read_error(tmp_path, "a,b\n1,2\nz,2\n1,2\n3\n") == \
        "bad.csv:3: column 1 (a): not a number: 'z'"
    assert read_error(tmp_path, "a,b\n1,2\n3\n1,2\nz,2\n") == \
        "bad.csv:3: expected 2 cells, got 1"
    assert read_error(tmp_path, "a,b\n1,2\n4,5,6\n") == \
        "bad.csv:3: expected 2 cells, got 3"
    # An infinite cell is reported only when no row has a parse fault.
    assert read_error(tmp_path, "a,b\nx,1\n2,inf\n") == \
        "bad.csv:2: column 1 (a): not a number: 'x'"
    assert read_error(tmp_path, "a,b\ninf,1\n2,x\n") == \
        "bad.csv:3: column 2 (b): not a number: 'x'"
    assert read_error(tmp_path, "a,b\ninf,1\n2\n") == \
        "bad.csv:3: expected 2 cells, got 1"
    assert read_error(tmp_path, "a,b\n1,2\n\n3,-inf\n+inf,4\n") == \
        "bad.csv:4: column 2 (b): non-finite value -inf"
    # A cell fault comes before a csv error (an over-long field) on a later line.
    huge = "x" * (csv.field_size_limit() + 1)
    assert read_error(tmp_path, f"a\n1\nz\n{huge}\n") == \
        "bad.csv:3: column 1 (a): not a number: 'z'"
    (tmp_path / "huge.csv").write_text(f"a\n1\n{huge}\nz\n")
    with pytest.raises(ValueError) as info:
        read_csv(tmp_path / "huge.csv")
    assert str(info.value) == (f"{tmp_path / 'huge.csv'}:3: "
                               f"field larger than field limit ({csv.field_size_limit()})")
    # A long cell fails as one even where float() could read it.
    assert read_error(tmp_path, f"a\n1\n0.{'0' * csv.field_size_limit()}1\n") == \
        f"bad.csv:3: field larger than field limit ({csv.field_size_limit()})"
    assert read_error(tmp_path, "a,b\n\n\n") == "bad.csv: no data rows"
    assert read_error(tmp_path, "") == "bad.csv: empty CSV"


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="3"):
        read_csv(path)


def test_csv_reads_empty_and_nan_cells(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1.0,\nNaN,2.0\n")
    ts = read_csv(path)
    assert ts.mask.tolist() == [[True, False], [False, True]]


def test_series_rejects_non_finite_observed_cells():
    with pytest.raises(ValueError, match=r"non-finite observed value inf at row 2, column 1 \(a\)"):
        TimeSeries.from_values([[1.0, 2.0], [np.inf, 3.0]], names=("a", "b"))
    with pytest.raises(ValueError, match=r"non-finite observed value -inf at row 1, column 2 \(c2\)"):
        TimeSeries([[np.nan, -np.inf]])


def test_series_rejects_repeated_coordinate_names(tmp_path):
    with pytest.raises(ValueError, match=r"names must be distinct, repeated: \['a'\]"):
        TimeSeries.from_values([[1.0, 2.0, 3.0]], names=("a", "b", "a"))
    path = tmp_path / "twice.csv"
    path.write_text("a, a\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}:1: coordinate names must be distinct, repeated: ['a']"


def test_csv_rejects_non_numeric_cells(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("a,b\n1.0,2.0\nabc,4.0\n")
    with pytest.raises(ValueError, match=r"text.csv:3: column 1 \(a\): not a number: 'abc'"):
        read_csv(path)


def test_csv_rejects_infinite_cells(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,-inf\n")
    with pytest.raises(ValueError, match=r"inf.csv:3: column 2 \(b\): non-finite value -inf"):
        read_csv(path)


def reference_read_csv(path):
    """read_csv's grammar and messages, one row and one float() at a time."""
    rows, infinite = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty CSV")
            names = tuple(name.strip() for name in header)
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ValueError(f"{path}:1: coordinate names must be distinct, "
                                 f"repeated: {repeated}")
            for lineno, row in enumerate(reader, start=2):
                if row and len(row) != len(names):
                    raise ValueError(f"{path}:{lineno}: expected {len(names)} cells, "
                                     f"got {len(row)}")
                for j, cell in enumerate(row):
                    try:
                        value = float(cell.strip() or "nan")
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: column {j + 1} ({names[j]}): "
                                         f"not a number: {cell.strip()!r}") from None
                    if math.isinf(value):
                        infinite.append(f"{path}:{lineno}: column {j + 1} ({names[j]}): "
                                        f"non-finite value {value!r}")
                if row:
                    rows.append([float(cell.strip() or "nan") for cell in row])
        except csv.Error as err:  # Python 3.10's csv refuses NUL
            raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if infinite:
        raise ValueError(infinite[0])
    return names, np.array(rows)


FINITE = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: repr(float(np.uint64(bits).view(np.float64)))),
    st.sampled_from(EDGE_FLOATS).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", "nan", "-nan", "NaN", "1e-400", " 1.5 ", "\t-2e-3\x1c", "+.5", "5."]),
)
ODD = st.one_of(
    st.text(st.sampled_from(list("0123456789.eE+-_,\"\n\r\t \x0b\x1c\x85\xa0\0١")), max_size=5),
    st.sampled_from(["nan", "inf", "-Infinity", "1e400", "-1e400", "1_0", "0x10", "١", " ",
                     "\x0b", '"1.5"', "nan\0"]),
)


@st.composite
def csv_texts(draw):
    """A header, odd in one text in four, and rows of numbers and gaps, with
    blank lines and \\n or \\r\\n line ends, its rows one cell too short or
    too long in one text in six; every other text adds junk cells,
    whitespace-only lines, ragged rows and bare \\r line ends. In half the
    texts every non-blank line is drawn from a pool of 1-3 lines, so lines
    repeat, each time with its own line end. The last line may lack its end."""
    d, plain = draw(st.integers(1, 4)), draw(st.booleans())
    names = ",".join(f"c{j}" for j in range(d))
    header = names if draw(st.integers(0, 3)) else draw(st.sampled_from(
        ["", " c0 , c0 ", '"c,0"' + names[2:]]))
    cell = FINITE if plain else st.one_of(FINITE, ODD)
    kinds = ["row"] * 6 + ["blank"] + (["ragged", "space"] if not plain else [])
    width = draw(st.sampled_from([d] * 4 + [d - 1, d + 1]))  # every row's, in plain text

    def new_line(kind):
        if kind == "space":
            return draw(st.sampled_from([" ", "\t", " \x0b ", "\x1c"]))
        size = width if plain else d if kind == "row" else draw(st.sampled_from([d - 1, d + 1]))
        return ",".join(draw(st.lists(cell, min_size=size, max_size=size)))

    pool = None
    if draw(st.booleans()):
        filled = st.sampled_from([kind for kind in kinds if kind != "blank"])
        pool = [new_line(draw(filled)) for _ in range(draw(st.integers(1, 3)))]
    lines = [header]
    for _ in range(draw(st.integers(int(plain), 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        else:
            lines.append(draw(st.sampled_from(pool)) if pool else new_line(kind))
    ends = st.sampled_from(["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"])
    if not plain and draw(st.booleans()):
        ends = st.just(draw(ends))  # one line end for the whole text, or a mix
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=600, deadline=None)
@given(st.one_of(csv_texts(), csv_series()))
@example("\r\n1.0\r\n")                   # a blank header ended by \r\n
@example("a,b\n1,\n\n,2\r\n1,\r\n1,\r,2\n")  # repeats, a blank line, a bare \r
def test_read_csv_matches_a_cell_by_cell_reference(case):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "x.csv"
        if isinstance(case, TimeSeries):
            write_csv(case, path)
        else:
            path.write_bytes(case.encode("utf-8"))
        try:
            names, values = reference_read_csv(path)
        except ValueError as err:
            with pytest.raises(ValueError) as info:
                read_csv(path)
            assert str(info.value) == str(err)
            return
        ts = read_csv(path)
    assert ts.names == names
    assert ts.values.shape == values.shape
    assert ts.values.view(np.uint64).tobytes() == values.view(np.uint64).tobytes()


def write_plain_files(folder) -> dict[str, np.ndarray]:
    """Three 10 000 x 4 files of plain numeric text, by name: "mcar" with a
    quarter of its cells missing, "blackout" of 32 distinct rows tiled with
    one 10-row gap, and "crlf", that file with \\r\\n line ends."""
    rng = np.random.default_rng(25)
    mcar = rng.normal(size=(10_000, 4))
    mcar[rng.random(mcar.shape) < 0.25] = np.nan
    mcar[0, 0] = np.nan  # a gap at the body's first byte
    blackout = np.tile(np.round(rng.uniform(size=(32, 4)), 2), (313, 1))[:10_000]
    blackout[5_000:5_010] = np.nan
    for name, values in (("mcar", mcar), ("blackout", blackout)):
        write_csv(TimeSeries(values, names=("a", "b", "c", "d")), folder / f"{name}.csv")
    crlf = (folder / "blackout.csv").read_bytes().replace(b"\n", b"\r\n")
    (folder / "crlf.csv").write_bytes(crlf)
    return {"mcar": mcar, "blackout": blackout, "crlf": blackout}


def test_plain_numeric_text_skips_the_csv_module(tmp_path, monkeypatch):
    files = write_plain_files(tmp_path)
    csv_reader = csv.reader

    def refuse(*args, **kwargs):
        raise AssertionError("the csv route was taken")

    monkeypatch.setattr(core_ts.csv, "reader", refuse)
    for name, values in files.items():
        ts = read_csv(tmp_path / f"{name}.csv")
        assert ts.names == ("a", "b", "c", "d")
        assert np.array_equal(ts.values, values, equal_nan=True)
    # What numpy's reader refuses still reads, through the csv route: a cell
    # of spaces and tabs, before \n or \r\n, is a gap there.
    routed = []
    monkeypatch.setattr(core_ts.csv, "reader",
                        lambda *args, **kwargs: routed.append(1) or csv_reader(*args, **kwargs))
    blanks = [(end.join(["a,b", "1, ", "\t \t,2", " ,", ""]),
               [[1.0, np.nan], [np.nan, 2.0], [np.nan, np.nan]]) for end in ("\n", "\r\n")]
    for text, want in [('a,b\n"1.5",2\n', [[1.5, 2.0]]), ("a,b\n1,\x0b\n", [[1.0, np.nan]]),
                       ("a,b\n1_0,2\n", [[10.0, 2.0]]), *blanks]:
        (tmp_path / "x.csv").write_text(text, newline="")
        assert np.array_equal(read_csv(tmp_path / "x.csv").values, want, equal_nan=True)
    assert len(routed) == 5



def test_each_distinct_line_is_parsed_once(tmp_path, monkeypatch):
    files = write_plain_files(tmp_path)
    text = (tmp_path / "blackout.csv").read_text()
    end = text.rindex("\n", 0, -1)  # the end of row 9 999 becomes a bare \r
    (tmp_path / "bare.csv").write_text(text[:end] + "\r" + text[end + 1:])
    loadtxt, parsed = np.loadtxt, []

    def counted(lines, *args, **kwargs):
        parsed.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(core_ts.np, "loadtxt", counted)
    # The MCAR file's rows, each once; none for a bare \r, which only the csv
    # route reads; else 32 distinct rows and the gap rows.
    want = {"mcar": [10_000], "bare": []}
    for name, values in {**files, "bare": files["blackout"]}.items():
        parsed.clear()
        ts = read_csv(tmp_path / f"{name}.csv")
        assert ts.values.view(np.uint64).tobytes() == values.view(np.uint64).tobytes()
        assert parsed == want[name] if name in want else sum(parsed) <= 42
