"""``schedules.from_csv`` against a reader that takes one row at a time.

The oracle, ``oracles.row_csv_schedule``, reads each row with ``csv``,
``int()`` and ``float()``.  Every table it accepts must give the same
``rates`` bits; every malformed table must be refused by both, by
``from_csv`` with a one-line ``InvalidParameterError`` naming the file.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import row_csv_schedule

from stepaudit import schedules as sched
from stepaudit.errors import InvalidParameterError

_SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

_VALUES = st.one_of(
    st.floats(0.0, 2.0**440, allow_subnormal=True),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0**440]),
)
_FORMATS = st.sampled_from([repr, lambda v: "%.17g" % v, lambda v: "%.3e" % v])
_PADS = st.sampled_from(["", " ", "  ", "\t"])
_COMMENTS = st.sampled_from(["#", "# note", "#t,eta", "# 3,0.5", '#"quoted, cell"', "##,,,"])
_EXTRA = st.sampled_from(["", "x", "1e999", "note with spaces", '"quoted, cell"', "#"])


def _cell(draw, text: str) -> str:
    """``text`` padded with spaces, or quoted (spaces inside the quotes)."""
    pad = draw(_PADS)
    if draw(st.booleans()):
        return f'"{pad}{text}{draw(_PADS)}"{draw(st.sampled_from(["", " "]))}'
    return f"{pad}{text}{draw(_PADS)}"


@st.composite
def _good_tables(draw):
    """CSV text the row reader accepts: shuffled rows, with ``#`` lines
    anywhere, blank lines after the header, extra columns, and padded or
    quoted cells."""
    values = draw(st.lists(_VALUES, min_size=1, max_size=40))
    fmt = draw(_FORMATS)
    index_forms = st.sampled_from(["{}", "+{}", "0{}"])
    rows = []
    for t, v in enumerate(values):
        cells = [_cell(draw, draw(index_forms).format(t)), _cell(draw, fmt(v))]
        cells += [draw(_EXTRA) for _ in range(draw(st.integers(0, 2)))]
        rows.append(",".join(cells))
    random.Random(draw(st.integers(0, 2**32))).shuffle(rows)
    header = draw(st.sampled_from(["t,eta", " t , eta ", "t,eta,extra", '"t","eta"', "t,\teta\t,"]))
    lines = [header] + rows
    for _ in range(draw(st.integers(0, 5))):  # blank lines after the header
        lines.insert(draw(st.integers(1, len(lines))), "")
    for _ in range(draw(st.integers(0, 5))):  # comment lines anywhere, even first
        lines.insert(draw(st.integers(0, len(lines))), draw(_COMMENTS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def _bad_tables(draw):
    """CSV text with one defect that both readers must refuse."""
    n = draw(st.integers(1, 12))
    rows = [f"{t},{0.5 / (t + 1)!r}" for t in range(n)]
    defect = draw(st.sampled_from(["missing-eta", "empty-eta", "bad-eta", "bad-t", "duplicate", "gap", "header", "empty"]))
    k = draw(st.integers(0, n - 1))
    if defect == "missing-eta":
        rows[k] = draw(st.sampled_from([f"{k}", f'"{k},0.5"', "   "]))
    elif defect == "empty-eta":
        rows[k] = f"{k},"
    elif defect == "bad-eta":
        rows[k] = f"{k},{draw(st.sampled_from(['abc', '0.5x', '0. 5', '--1', '0x1p-3', '0.5 # note']))}"
    elif defect == "bad-t":
        rows[k] = f"{draw(st.sampled_from([f'{k}.0', 'x', f'{k}e0', '']))},0.5"
    elif defect == "duplicate":
        rows.append(f"{k},0.25")
    elif defect == "gap":
        rows[k] = f"{n},0.5"
    elif defect == "header":
        header = draw(st.sampled_from(["step,eta", "eta,t", "t", "T,eta", "", "t;eta", ' "t",eta']))
        return "\n".join([header] + rows) + "\n"
    else:
        return draw(st.sampled_from(["", "\n", "# only a comment\n", "t,eta\n", "t,eta\n\n# c\n"]))
    return "t,eta\n" + "\n".join(rows) + "\n"


def _write(tmp_path, text: str, name: str = "steps.csv") -> str:
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


@_SETTINGS
@given(_good_tables())
def test_accepted_tables_give_the_oracles_bits(tmp_path, text):
    path = _write(tmp_path, text)
    want = row_csv_schedule(path)
    got = sched.from_csv(path)
    assert got.length == want.length
    assert got.rates(got.length).tobytes() == want.rates(want.length).tobytes()
    assert got.prefix_sum(got.length) == want.prefix_sum(want.length)
    assert got.label == want.label


@_SETTINGS
@given(_bad_tables())
def test_malformed_tables_are_refused_in_one_line(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises((InvalidParameterError, ValueError)):
        row_csv_schedule(path)
    with pytest.raises(InvalidParameterError) as err:
        sched.from_csv(path)
    message = str(err.value)
    assert "\n" not in message and f"schedule file {path!r}" in message


@pytest.mark.parametrize(
    "raw, line, reason",
    [
        (b"t,eta\n0,0.5\n1,abc", 3, "'1,abc': could not convert string 'abc' to float64"),
        (b"t,eta\n0,0.5\n1.0,0.25\n", 3, "'1.0,0.25': could not convert string '1.0' to int64"),
        (b"# c\nt,eta\n\n0\n", 4, "'0': row without an eta value"),
        (b"t,eta\n0,0.5\n# c\n\n   \n", 5, "'   ': row without an eta value"),
        (b"t,eta\n0,0.5\n1,0.\xff5\n", 3, "'1,0.\\udcff5': could not convert string"),
    ],
    ids=["bad-eta", "float-index", "one-column", "blank-cell", "undecodable-byte"],
)
def test_parse_failures_name_the_file_and_line(tmp_path, raw, line, reason):
    path = tmp_path / "steps.csv"
    path.write_bytes(raw)
    with pytest.raises(InvalidParameterError) as err:
        sched.from_csv(str(path))
    assert str(err.value).startswith(f"schedule file {str(path)!r} line {line} {reason}")


@pytest.mark.parametrize("cell", ["1_000", "٠.٥", "０.５"], ids=["underscore", "arabic-indic", "fullwidth"])
def test_forms_only_python_float_reads_are_refused(tmp_path, cell):
    # float() reads digit separators and non-ASCII digits; numpy's text
    # reader does not, so these tables are refused now
    path = _write(tmp_path, f"t,eta\n0,{cell}\n")
    assert row_csv_schedule(path).rate(0) in (1000.0, 0.5)
    with pytest.raises(InvalidParameterError, match="line 2 .*could not convert string"):
        sched.from_csv(path)


def test_rows_in_any_order(tmp_path):
    path = _write(tmp_path, "t,eta\n2,0.125\n0,0.5\n1,0.25\n")
    assert sched.from_csv(path).rates(3).tolist() == [0.5, 0.25, 0.125]


def test_parse_memory_stays_under_64_bytes_per_row(tmp_path):
    # a reader that makes a Python object per row peaks near 180 B/row
    rows = 1 << 16
    eta = 2.0 / np.sqrt(np.arange(rows) + 1.0) * np.random.default_rng(0).uniform(0.5, 1.0, rows)
    path = _write(tmp_path, "t,eta\n" + "".join(f"{t},{float(v)!r}\n" for t, v in enumerate(eta)))
    tracemalloc.start()
    try:
        schedule = sched.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert schedule.rates(rows).tobytes() == eta.tobytes()
    assert peak < 64 * rows, peak / rows
