"""Array-native ingestion: error parity with the row-by-row reader, bit-exact
values, the column read against the package's own row reader, and the
array-backed ReferenceSet.

The row-by-row reader is the frozen copy of the package under
``perfbench/refprog/transduct`` (``seed_copy.rowwise``).
"""

import csv
import json
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transduct import FeatureVector, IngestionSchema, ReferenceSet, core, derive_error_detection_set
from transduct.core import load_dataset, load_split_files
from transduct.errors import ContractError, DatasetParseError, SchemaError, TransductError

from seed_copy import rowwise

HEADER = "f0,f1,label,split\n"

# (file name, content, schema options, error type, row number in the message).
# Each expectation is what the row-by-row reader raises for the same file.
MALFORMED = [
    ("bad-float.csv", HEADER + "0.9,0.1,0,val\n0.9,oops,1,val\n", {}, "DatasetParseError", 3),
    ("nan.csv", HEADER + "0.9,0.1,0,val\n0.5,nan,0,val\n", {}, "DatasetParseError", 3),
    ("inf.csv", HEADER + "-inf,0.5,0,val\n", {}, "DatasetParseError", 2),
    ("arity.csv", HEADER + "0.9,0.1,0,val\n0.9,0.1,0\n", {}, "DatasetParseError", 3),
    ("negative-label.csv", HEADER + "0.9,0.1,-1,val\n", {}, "SchemaError", 2),
    ("label-range.csv", HEADER + "0.9,0.1,1,val\n0.9,0.1,2,test\n", {"class_count": 2}, "SchemaError", 3),
    ("bad-split.csv", HEADER + "0.9,0.1,0,train\n", {}, "SchemaError", 2),
    ("sum-off.csv", HEADER + "0.9,0.1,0,val\n0.5,0.6,0,val\n", {"is_probability": True}, "ValidationError", 3),
    ("above-one.csv", HEADER + "1.5,-0.5,0,val\n", {"is_probability": True}, "ValidationError", 2),
    # two bad rows: the earlier one wins, whichever check finds it
    ("nan-then-split.csv", HEADER + "0.5,nan,0,test\n0.9,0.1,0,train\n", {}, "DatasetParseError", 2),
    ("split-then-nan.csv", HEADER + "0.9,0.1,0,train\n0.5,nan,0,val\n", {}, "SchemaError", 2),
    ("sum-then-label.csv", HEADER + "0.5,0.6,0,val\n0.9,0.1,x,val\n", {"is_probability": True}, "ValidationError", 2),
    ("label-then-sum.csv", HEADER + "0.9,0.1,x,val\n0.5,0.6,0,val\n", {"is_probability": True}, "DatasetParseError", 2),
    # one bad row: its features are checked before its label and split
    ("nan-and-label.csv", HEADER + "0.9,0.1,0,val\ninf,0.1,-3,val\n", {}, "DatasetParseError", 3),
    ("sum-and-split.csv", HEADER + "0.2,0.2,0,nope\n", {"is_probability": True}, "ValidationError", 2),
    # blank lines count as rows
    ("blank-line.csv", HEADER + "0.9,0.1,0,val\n\n,,,\n0.5,0.6,0,val\n", {"is_probability": True}, "ValidationError", 5),
    ("json-sum-off.json", {"reference": [{"features": [0.5, 0.6], "label": 0}]}, {"is_probability": True}, "ValidationError", 0),
    ("json-label-range.json", {"class_count": 2, "reference": [{"features": [0.9, 0.1], "label": 0}, {"features": [0.9, 0.1], "label": 2}]}, {}, "SchemaError", 1),
    ("json-test-nan.json", {"reference": [{"features": [0.9, 0.1], "label": 0}], "test": [{"features": [0.5, 0.5]}, {"features": [float("nan"), 0.5]}]}, {}, "DatasetParseError", 1),
    ("json-ref-before-test.json", {"reference": [{"features": [0.9, 0.1], "label": 0}, {"features": [0.5, float("inf")], "label": 0}], "test": [{"features": [float("nan"), 0.5]}]}, {}, "DatasetParseError", 1),
    ("json-ragged.json", {"reference": [{"features": [0.9, 0.1], "label": 0}, {"features": [0.9], "label": 1}]}, {}, "ContractError", 1),
    ("json-label-then-nan.json", {"reference": [{"features": [0.9, 0.1], "label": -1}, {"features": [float("nan"), 0.1], "label": 0}]}, {}, "SchemaError", 0),
    # an item of another dimension: its label and features are still checked first
    ("json-ragged-bad-label.json", {"reference": [{"features": [0.9, 0.1], "label": 0}, {"features": [0.9], "label": -1}]}, {}, "SchemaError", 1),
    ("json-ragged-nan.json", {"reference": [{"features": [0.9, 0.1], "label": 0}, {"features": [float("nan")], "label": -1}]}, {}, "DatasetParseError", 1),
    # a label too large for int64 comes after the rows and features before it
    ("nan-then-huge-label.csv", HEADER + "0.5,nan,0,val\n0.9,0.1,100000000000000000000,val\n", {}, "DatasetParseError", 2),
    ("nan-and-huge-label.csv", HEADER + "0.9,0.1,0,val\ninf,0.1,100000000000000000000,val\n", {}, "DatasetParseError", 3),
    ("json-nan-then-huge-label.json", {"reference": [{"features": [0.9, 0.1], "label": 0}, {"features": [float("nan"), 0.1], "label": 0}], "test": [{"features": [0.5, 0.5], "label": 10**20}]}, {}, "DatasetParseError", 1),
]


def _write(tmp_path, name, content) -> Path:
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return path


def _error(load, path, schema):
    with pytest.raises(Exception) as info:
        load(path, schema)
    return info.value


def _row_number(exc) -> int:
    return int(re.search(r"(?:row|item|feature) (\d+)", str(exc)).group(1))


@pytest.mark.parametrize("name, content, options, kind, row", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_input_raises_like_the_row_by_row_reader(tmp_path, name, content, options, kind, row):
    path = _write(tmp_path, name, content)
    got = _error(load_dataset, path, IngestionSchema(**options))
    expected = _error(rowwise.load_dataset, path, rowwise.IngestionSchema(**options))
    assert (type(got).__name__, _row_number(got)) == (kind, row)
    assert (type(expected).__name__, _row_number(expected)) == (kind, row)
    assert str(got) == str(expected)
    assert getattr(got, "row", None) == getattr(expected, "row", None)


def test_malformed_file_is_opened_once(tmp_path, monkeypatch):
    # a NaN in row 3 and a bad label in the last row: the first bad row is
    # reported without reading the file a second time
    lines = [f"0.{i % 9 + 1},0.5,{i % 2},val" for i in range(40)]
    lines[1] = "0.5,nan,0,val"
    lines[-1] = "0.5,0.5,x,val"
    path = _write(tmp_path, "d.csv", HEADER + "\n".join(lines) + "\n")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(core, "open", counting_open, raising=False)
    with pytest.raises(DatasetParseError) as info:
        load_dataset(path)
    assert info.value.row == 3 and "non-finite" in str(info.value)
    assert opened == [path]


def test_blank_question_mark_and_padded_labels_keep_their_meaning(tmp_path):
    path = _write(tmp_path, "d.csv", HEADER + "0.9,0.1, 1 ,val\n0.1,0.9,\t0,val\n0.5,0.5,?,test\n0.4,0.6,,test\n")
    ds = load_dataset(path)
    assert ds.reference.labels == (1, 0) and ds.test_labels is None
    v = _write(tmp_path, "v.csv", "f0,f1,label\n0.9,0.1,007\n0.1,0.9, 1\n")
    t = _write(tmp_path, "t.csv", "f0,f1,label\n0.9,0.1,\u0661\n")
    assert load_split_files(v).reference.labels == (7, 1)
    with pytest.raises(DatasetParseError, match="row 2: non-integer label"):
        load_split_files(v, t)


def test_row_errors_come_before_a_partly_labelled_test_split(tmp_path):
    path = _write(tmp_path, "d.csv", HEADER + "0.9,0.1,0,val\n0.5,0.5,1,test\n0.2,0.8,,test\n0.1,nan,0,val\n")
    with pytest.raises(DatasetParseError) as info:
        load_dataset(path)
    assert info.value.row == 5
    path = _write(tmp_path, "d.csv", HEADER + "0.9,0.1,0,val\n0.5,0.5,,test\n0.2,0.8,,test\n")
    assert load_dataset(path).test_labels is None


def test_inferred_class_count_is_at_least_two(tmp_path):
    path = _write(tmp_path, "d.csv", HEADER + "0.9,0.1,0,val\n0.5,0.5,,test\n")
    assert load_dataset(path).reference.class_count == 2
    assert load_dataset(path, IngestionSchema(class_count=3)).reference.class_count == 3


# --- bit-exact values --------------------------------------------------------

_CELL_FORMATS = [repr, "{:.3g}".format, "{:.17e}".format, lambda v: f" {v!r} "]


def _values(vectors) -> list:
    return [f.values for f in vectors]


@st.composite
def csv_files(draw):
    d = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 30))
    values = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-50, 50).map(float)
    lines = [",".join([f"f{j}" for j in range(d)] + ["label", "split"])]
    has_val = False
    for _ in range(rows):
        cells = [draw(st.sampled_from(_CELL_FORMATS))(draw(values)) for _ in range(d)]
        split = draw(st.sampled_from(["val", "test", " val"]))
        label = draw(st.integers(0, 3))
        has_val |= split.strip() == "val"
        lines.append(",".join(cells + [str(label), split]))
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
    if not has_val:
        lines.append(",".join(["1"] * d + ["0", "val"]))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=csv_files())
def test_feature_matrix_is_float_of_the_cells(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text)
    ds = load_dataset(path)
    old = rowwise.load_dataset(path)
    rows = [line.split(",") for line in text.splitlines()[1:] if line]
    val = [r for r in rows if r[-1].strip() == "val"]
    expected = np.array([[float(c) for c in r[:-2]] for r in val])
    assert ds.reference.feature_matrix().tobytes() == expected.tobytes()
    assert _values(ds.reference.features) == _values(old.reference.features)
    assert ds.reference.labels == old.reference.labels
    assert ds.reference.class_count == old.reference.class_count
    assert _values(ds.test_features) == _values(old.test_features)
    assert ds.test_labels == old.test_labels


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="from 3.12 on sum() is compensated, so the row-by-row reader rounds otherwise",
)
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 12),
    nudge=st.sampled_from([0.0, 1e-7, -1e-7, 9.9e-7, -9.9e-7, 1e-6, -1e-6, 1.01e-6, -1.01e-6]),
)
def test_probability_check_agrees_with_the_row_by_row_reader(tmp_path_factory, seed, d, nudge):
    # sums within about 1e-6 of 1: the vectorised check must round as Python's sum
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(d), size=40)
    P[:, 0] += nudge
    lines = [",".join(repr(float(v)) for v in row) + ",0,val" for row in P]
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    path.write_text(",".join(f"f{j}" for j in range(d)) + ",label,split\n" + "\n".join(lines) + "\n")
    try:
        expected = rowwise.load_dataset(path, rowwise.IngestionSchema(is_probability=True))
    except rowwise.errors.TransductError as exc:
        with pytest.raises(TransductError) as info:
            load_dataset(path, IngestionSchema(is_probability=True))
        assert (type(info.value).__name__, str(info.value)) == (type(exc).__name__, str(exc))
    else:
        got = load_dataset(path, IngestionSchema(is_probability=True))
        assert _values(got.reference.features) == _values(expected.reference.features)


# --- the column read against the row reader ----------------------------------

# Cells the two readers must agree on: quoted and doubled quotes, padding, a
# quoted line break, float() spellings numpy's C reader rejects, labels that
# fill or overflow the label field, NULs, and cells past the csv module's
# field limit, on one line and across lines.
_LONG_CELLS = [" " * csv.field_size_limit() + "0.5", '"0.5' + "\n" * csv.field_size_limit() + '"']
_GOOD_FEATURES = ["0.25", "0.5", "3", "-0.0", "1e-3", " 0.75 ", '"0.125"', "\t1.5", "\xa00.5"]
_ODD_FEATURES = ['"1"2', '"1""2"', '"0.5\n"', "1_0", "\u0661", "nan", "inf", "", "x", "0x1p3", "1\x00", *_LONG_CELLS]
_GOOD_LABELS = ["0", "1", "2", " 1 ", '"2"', "007"]
_NO_LABELS = ["", "?", " ? "]
_ODD_LABELS = ["1_0", "+0", "-1", "-0", "\u0661", "\xe9", "0" * 19 + "1", "1" * 20, "9" * 19, "x", '"1\n"', "1\x00"]
_GOOD_SPLITS = ["val", "test", " val", "test ", '"test"']
_ODD_SPLITS = ["  val  ", "train", "Val", "", "val\x00", "val\x1c"]


@st.composite
def csv_texts(draw):
    """A CSV text with a header and up to 8 lines: a well-formed file (val
    rows labelled, test rows all or none, blank lines) with up to two edits,
    each an odd cell or line in place of a good one."""
    d = draw(st.integers(1, 3))
    test_labels = _GOOD_LABELS if draw(st.booleans()) else _NO_LABELS
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 6)) == 0:
            rows.append([])
            continue
        split = draw(st.sampled_from(_GOOD_SPLITS))
        label = draw(st.sampled_from(test_labels if "test" in split else _GOOD_LABELS))
        rows.append([draw(st.sampled_from(_GOOD_FEATURES)) for _ in range(d)] + [label, split])
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        edit = draw(st.sampled_from(["feature", "label", "label", "split", "line"]))
        if edit == "line" or len(row) != d + 2:
            row[:] = draw(st.sampled_from([[], ["  "], [""] * (d + 2), [*row, "0"], row[:-1]]))
        elif edit == "feature":
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from(_ODD_FEATURES))
        else:
            odd = _NO_LABELS + _ODD_LABELS if edit == "label" else _ODD_SPLITS
            row[d if edit == "label" else d + 1] = draw(st.sampled_from(odd))
    lines = [",".join([f"f{j}" for j in range(d)] + ["label", "split"])] + [",".join(r) for r in rows]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ends = [draw(st.sampled_from([end, end, "\n", "\r"])) for _ in lines]
    text = "".join(line + e for line, e in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def _outcome(load):
    """What a load returns, or the type, message and row of what it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ds = load()
        except Exception as exc:
            return type(exc).__name__, str(exc), getattr(exc, "row", None)
    ref = ds.reference
    tests = np.array([f.values for f in ds.test_features])
    return ref.feature_matrix().tobytes(), ref.X.shape, ref.labels, ref.class_count, tests.tobytes(), ds.test_X.shape, ds.test_labels


# Files longer than one block of the C reader's line feed at a block of 302
# bytes (a body line "0.25,0.5,1,val" and its end take 15 or 16):
_ROW = "0.25,0.5,1,val"
_CHUNKED = [
    # blank lines on both sides of the first boundary, then a bad label, then one more blank line
    HEADER + f"{_ROW}\n" * 20 + "\n\n" + "\n\r\n" + f"{_ROW}\n" * 3 + "0.5,0.5,x,val\n" + f"{_ROW}\n" * 4 + "\n" + f"{_ROW}\n" * 5,
    # a NUL, and a line past the field limit, in the third chunk
    HEADER + f"{_ROW}\n" * 45 + "0.5,0.5,1\x00,val\n" + f"{_ROW}\n" * 5,
    HEADER + f"{_ROW}\n" * 45 + " " * csv.field_size_limit() + f"{_ROW}\n" * 6,
    # lone-CR then CRLF line ends on both sides of the first boundary
    HEADER + f"{_ROW}\r\n" * 10 + f"{_ROW}\r" * 10 + "\r\n\r" + f"{_ROW}\r\n" * 10 + "0.5,0.5,-1,val\r",
]
# and a CRLF split by the end of an 8192-byte block, then a blank line and a bad label
_CRLF_AT_8192 = HEADER + " " * 15 + f"{_ROW}\r\n" * 520 + "\r\n0.5,0.5,x,val\r\n"
assert _CRLF_AT_8192.encode()[8190:8193] == b"l\r\n"


@settings(max_examples=300, deadline=None)
@given(
    text=csv_texts(),
    options=st.sampled_from([{}, {"class_count": 2}, {"class_count": 3}, {"is_probability": True}]),
    files=st.sampled_from(["data", "val", "val and test"]),
    chunk=st.sampled_from([1, 40, core._BLOCK_BYTES]),
)
@example(text=_CRLF_AT_8192, options={}, files="data", chunk=8192)
# a quoted header cell that holds a line end, after a quote inside a plain cell: only the row reader reads it
@example(text='"f\n0",f1,label,split\n0.5,0.25,1,val\n', options={}, files="data", chunk=core._BLOCK_BYTES)
@example(text='a"b,"c\nd",label,split\n0.5,0.25,1,val\n', options={}, files="data", chunk=core._BLOCK_BYTES)
# quoted header cells on one line: the C path reads the file
@example(text='"f0", "f1" ,label,"split"\n0.5,0.25,1,val\n', options={}, files="data", chunk=core._BLOCK_BYTES)
@example(text=_CHUNKED[3], options={"class_count": 2}, files="val and test", chunk=302)
@example(text=_CHUNKED[2], options={}, files="data", chunk=302)
@example(text=_CHUNKED[1], options={}, files="val", chunk=302)
@example(text=_CHUNKED[0], options={}, files="data", chunk=302)
def test_column_read_agrees_with_the_row_reader(tmp_path_factory, text, options, files, chunk):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    schema = IngestionSchema(**options)
    load = {
        "data": lambda: load_dataset(path, schema),
        "val": lambda: load_split_files(path, schema=schema),
        "val and test": lambda: load_split_files(path, path, schema),
    }[files]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", chunk)
        got = _outcome(load)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_columns", lambda *args: None)
        assert got == _outcome(load)


def _no_row_reader(*args):
    raise AssertionError("the row reader read a file the C path should have read")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 18), st.integers(0, 10**18 - 1), st.sampled_from(["", " ", "\t ", "  "]), st.sampled_from(["", " ", " \t"])),
        min_size=1,
        max_size=12,
    )
)
@example(labels=[(18, 10**18 - 1, "  ", " \t"), (1, 0, "", "")])  # the widest cell beside the narrowest
def test_labels_read_as_digits_equal_python_int(tmp_path_factory, labels):
    # 1 to 18 digits with leading zeros and padding, cells of mixed widths in one column, on the C path
    cells = [pad + str(v % 10**n).zfill(n) + end for n, v, pad, end in labels]
    path = _write(tmp_path_factory.mktemp("csv"), "d.csv", HEADER + "".join(f"0.5,0.25,{c},val\n" for c in cells))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_csv_rows", _no_row_reader)
        assert load_dataset(path).reference.labels == tuple(int(c) for c in cells)


def test_well_formed_csv_is_read_as_columns_and_a_rejected_one_by_rows(tmp_path, monkeypatch):
    read = []
    row_reader = core._csv_rows
    monkeypatch.setattr(core, "_csv_rows", lambda *args: read.append(1) or row_reader(*args))
    for header in (HEADER.replace("\n", "\r\n"), '"f0","f1","label","split"\r\n'):  # quoted header cells too
        quoted = header + '0.9,"0.1",0,val\r\n0.1,0.9,1,"test"\r\n'
        assert load_dataset(_write(tmp_path, "q.csv", quoted)).test_labels == (1,)
    # a test row's label cell of one space is blank: it is stripped, not handed to the row reader
    spaced = HEADER + "0.9,0.1,0,val\n0.1,0.9, ,test\n0.2,0.8,,test\n"
    assert load_dataset(_write(tmp_path, "s.csv", spaced)).test_labels is None
    assert read == []
    blank_cells = HEADER + "0.9,0.1,0,val\n,,,\n0.1,0.9,1,test\n"
    assert load_dataset(_write(tmp_path, "b.csv", blank_cells)).test_labels == (1,)
    assert read == [1]


@pytest.mark.parametrize("cell", _LONG_CELLS, ids=["one line", "across lines"])
def test_a_cell_past_the_csv_field_limit_is_a_parse_error_on_both_paths(tmp_path, monkeypatch, cell):
    # the row reader let the csv module's own error out, and the column read took the file
    path = _write(tmp_path, "d.csv", HEADER + f"0.9,0.1,0,val\n{cell},0.5,1,val\n0.2,0.8,1,test\n")
    message = r"^row 3: field larger than field limit"
    with pytest.raises(DatasetParseError, match=message):
        load_dataset(path)
    monkeypatch.setattr(core, "_columns", lambda *args: None)
    with pytest.raises(DatasetParseError, match=message):
        load_dataset(path)


_NOT_UTF8 = [
    (HEADER.encode() + b"0.9,0.1,0,val\n0.1,0.9,\xff,val\n", r"^row 3: not UTF-8: byte 0xff at offset 40$"),
    (b"f0,f1,lab\xe9l,split\n0.9,0.1,0,val\n", r"^row 1: not UTF-8: byte 0xe9 at offset 9$"),
    # the rows before the bad byte's come first
    (HEADER.encode() + b"0.9,nan,0,val\n0.1,0.9,\xff,val\n", r"^row 2: feature vector contains non-finite values"),
    (HEADER.encode() + b"0.9,0.1,0\n0.1,0.9,\xff,val\n", r"^row 2: expected 4 cells, got 3$"),
    (HEADER.encode() + b"0.9,0.1,x,val\n0.1,0.9,\xff,val\n", r"^row 2: non-integer label 'x'$"),
    # past the text layer's first 8192-byte read, after a blank line
    (HEADER.encode() + b"0.25,0.5,1,val\r\n" * 600 + b"\r\n0.5,0.5,\xfe,val\r\n", r"^row 603: not UTF-8: byte 0xfe at offset 9628$"),
    # in the second line of a quoted cell, and on the line after a record of two lines
    (HEADER.encode() + b'0.9,0.1,0,val\n0.1,0.9,"1\n\xff",val\n', r"^row 3: not UTF-8: byte 0xff at offset 43$"),
    (HEADER.encode() + b'0.9,0.1,"0\n",val\n0.1,0.9,1,v\xffl\n', r"^row 3: not UTF-8: byte 0xff at offset 46$"),
]


@pytest.mark.parametrize("on_columns", [True, False], ids=["columns", "rows"])
@pytest.mark.parametrize("content, message", _NOT_UTF8)
def test_bytes_that_are_not_utf8_are_a_parse_error_naming_their_row(tmp_path, monkeypatch, content, message, on_columns):
    # the row-by-row reader let out a UnicodeDecodeError, from the row after
    # the one it was reading or from a later one
    path = _write(tmp_path, "d.csv", content)
    if not on_columns:
        monkeypatch.setattr(core, "_columns", lambda *args: None)
    with pytest.raises(DatasetParseError, match=message):
        load_dataset(path)
    with pytest.raises(DatasetParseError, match=message):
        load_split_files(_write(tmp_path, "v.csv", HEADER + "0.9,0.1,0,val\n"), path)


def test_a_long_label_cell_is_read_without_copies_as_wide(tmp_path):
    # a cell too wide for the column read sends the file to the row reader
    long = " " * 100_000 + "1"
    path = _write(tmp_path, "d.csv", HEADER + "0.9,0.1,0,val\n" * 199 + f"0.1,0.9,{long},val\n")
    assert load_dataset(path).reference.labels == (0,) * 199 + (1,)


def test_a_label_cell_one_byte_past_its_field_goes_to_the_row_reader(tmp_path):
    # the column read keeps 27 bytes of a label cell: this one's first 27 are
    # blanks, so only the row reader sees its label, and the run is not refused
    # for a test row with no label among labelled ones
    path = _write(tmp_path, "d.csv", HEADER + "0.9,0.1,0,val\n0.2,0.8,1,val\n0.3,0.7," + " " * 27 + "1,test\n0.6,0.4,0,test\n")
    assert load_dataset(path).test_y.tolist() == [1, 0]


@pytest.mark.parametrize("role", ["val", "test"])
@pytest.mark.parametrize("split", ["train", "tst"])
def test_split_column_of_a_val_or_test_file_is_still_checked(tmp_path, role, split):
    # "train" fills its byte field and the label rule refuses "tst" on the C path: the row reader words both
    good = _write(tmp_path, "v.csv", HEADER + "0.9,0.1,0,val\n")
    bad = _write(tmp_path, "b.csv", HEADER + f"0.9,0.1,0,{split}\n0.1,0.9,1,val\n")
    with pytest.raises(SchemaError, match=rf"^row 2: split must be 'val' or 'test', got '{split}'$"):
        load_split_files(*((bad,) if role == "val" else (good, bad)))


def _tokenised(path, role, on_columns: bool):
    """The label and test flag of the one row of ``path`` as :func:`core._read_csv`
    reads it, on the C path or by the row reader, or its error."""
    with pytest.MonkeyPatch.context() as mp:
        if not on_columns:
            mp.setattr(core, "_columns", lambda *args: None)
        for class_count in (None, 2):
            try:
                table = core._read_csv(path, IngestionSchema(class_count=class_count), role)
            except TransductError as exc:
                yield type(exc).__name__, str(exc)
            else:
                yield int(table.labels[0]), bool(table.tests[0])


_EDGE_LABELS = ["9223372036854775807", "9223372036854775808", "\xa01"]


@pytest.mark.parametrize("split", _GOOD_SPLITS + _ODD_SPLITS)
@pytest.mark.parametrize("label", _GOOD_LABELS + _NO_LABELS + _ODD_LABELS + _EDGE_LABELS)
def test_both_paths_check_a_row_as_the_scalar_rule_does(tmp_path, label, split):
    # the whole-column filter may pass only what the per-row rule passes
    body = f"0.5,0.25,{label},{split}\n"
    path = tmp_path / "d.csv"
    path.write_bytes((HEADER + body).encode())
    *_, label_cell, split_cell = next(csv.reader(body.splitlines(keepends=True)))
    for role in (None, "val", "test"):
        expected = []
        for class_count in (None, 2):
            try:
                expected.append(core._row_label(label_cell, split_cell, 2, class_count, role))
            except TransductError as exc:
                expected.append((type(exc).__name__, str(exc)))
        for on_columns in (True, False):
            assert list(_tokenised(path, role, on_columns)) == expected, (role, on_columns)


@pytest.mark.parametrize("bad", [False, True], ids=["clean", "bad last label"])
def test_only_a_file_the_column_read_does_not_pass_goes_to_the_row_reader(tmp_path, monkeypatch, bad):
    # a benchmark-shaped file: the C reader takes it clean; the row reader words its bad label
    P = np.random.default_rng(1).dirichlet(np.ones(10), size=4030)
    labels = [str(i % 10) for i in range(4000)] + [""] * 30
    labels[3999] = "x" if bad else labels[3999]
    splits = ["val"] * 4000 + ["test"] * 30
    lines = [",".join(map(repr, row)) + f",{y},{s}" for row, y, s in zip(P.tolist(), labels, splits)]
    path = _write(tmp_path, "p.csv", ",".join(f"f{j}" for j in range(10)) + ",label,split\n" + "\n".join(lines) + "\n")
    read = []
    row_reader = core._csv_rows
    monkeypatch.setattr(core, "_csv_rows", lambda *args: read.append(1) or row_reader(*args))
    if not bad:
        assert load_dataset(path, IngestionSchema(is_probability=True)).reference.size == 4000
        assert read == []
        return
    with pytest.raises(DatasetParseError, match=r"^row 4001: non-integer label 'x'$"):
        load_dataset(path, IngestionSchema(is_probability=True))
    assert read == [1]


def test_a_val_file_with_no_split_column_and_a_test_file_read_as_the_one_data_file(tmp_path, monkeypatch):
    # the bytes the C reader leaves unset where a file has no split column are not read as a split cell
    P = np.random.default_rng(2).dirichlet(np.ones(3), size=60)
    rows = [",".join(map(repr, row)) + f",{i % 3}" for i, row in enumerate(P.tolist())]
    head = "f0,f1,f2,label"
    data = _write(tmp_path, "d.csv", head + ",split\n" + "".join(f"{r},{'val' if i < 50 else 'test'}\n" for i, r in enumerate(rows)))
    val = _write(tmp_path, "v.csv", head + "\n" + "".join(f"{r}\n" for r in rows[:50]))
    test = _write(tmp_path, "t.csv", head + ",split\n" + "".join(f"{r},test\n" for r in rows[50:]))
    monkeypatch.setattr(core, "_csv_rows", _no_row_reader)
    one, two = load_dataset(data), load_split_files(val, test)
    assert one.reference.class_count == two.reference.class_count == 3
    for a, b in ((one.reference.X, two.reference.X), (one.reference.y, two.reference.y), (one.test_X, two.test_X), (one.test_y, two.test_y)):
        assert np.array_equal(a, b)


def test_a_file_of_many_distinct_labels_is_read_on_the_c_path(tmp_path, monkeypatch):
    # 1,000 distinct labels, each on four rows spread through the file
    labels = [(7 * i) % 1000 for i in range(4000)]
    path = _write(tmp_path, "d.csv", HEADER + "".join(f"0.5,0.25,{y},val\n" for y in labels))
    monkeypatch.setattr(core, "_csv_rows", _no_row_reader)
    assert load_dataset(path).reference.labels == tuple(labels)


def test_ingest_streams_rows_into_one_matrix(tmp_path):
    # keeping every row's cells as Python objects costs several times the
    # matrix (the row-by-row reader peaked at about 7x on this file)
    P = np.random.default_rng(0).dirichlet(np.ones(10), size=4000)
    lines = [",".join(map(repr, row.tolist())) + f",{i % 10},val" for i, row in enumerate(P)]
    path = _write(tmp_path, "p.csv", ",".join(f"f{j}" for j in range(10)) + ",label,split\n" + "\n".join(lines))
    tracemalloc.start()
    try:
        ds = load_dataset(path, IngestionSchema(is_probability=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * ds.reference.feature_matrix().nbytes


# --- the array-backed ReferenceSet ------------------------------------------


class TestArrayBackedReferenceSet:
    def test_build_accepts_arrays_lists_and_vectors(self):
        rows = [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]
        sets = [
            ReferenceSet.build(np.array(rows), [0, 1, 0], 2),
            ReferenceSet.build(rows, (0, 1, 0), 2),
            ReferenceSet.build([FeatureVector.of(r) for r in rows], np.array([0, 1, 0]), 2),
        ]
        for ref in sets:
            assert ref.feature_matrix().tolist() == rows
            assert ref.feature_matrix().dtype == np.float64
            assert ref.label_array().dtype == np.int64
            assert ref.labels == (0, 1, 0)
            assert ref.features == tuple(FeatureVector.of(r) for r in rows)

    def test_arrays_are_read_only_and_copied_from_writable_input(self):
        X = np.array([[0.9, 0.1], [0.2, 0.8]])
        ref = ReferenceSet.build(X, [0, 1], 2)
        X[0, 0] = 5.0
        assert ref.feature_matrix()[0, 0] == 0.9
        for a in (ref.feature_matrix(), ref.label_array()):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_views_are_built_once(self, small_ref):
        assert small_ref.features is small_ref.features
        assert small_ref.labels is small_ref.labels

    def test_equality_is_identity(self, small_ref):
        same = ReferenceSet(small_ref.feature_matrix(), small_ref.label_array(), 2)
        assert same.feature_matrix() is small_ref.feature_matrix()
        assert same != small_ref and small_ref == small_ref

    def test_subset_slices_the_arrays(self, small_ref):
        sub = small_ref.subset([3, 1])
        assert sub.feature_matrix().tolist() == [[0.8, 0.2], [0.1, 0.9]]
        assert sub.labels == (0, 1)
        assert not sub.feature_matrix().flags.writeable

    @pytest.mark.parametrize(
        "features, labels, error",
        [
            ([[0.5, float("nan")]], [0], ContractError),
            ([[]], [0], ContractError),
            ([], [], ContractError),
            ([[1.0, 0.0], [1.0]], [0, 1], ContractError),
            ([[1.0, 0.0]], [-1], TransductError),
        ],
    )
    def test_rejects_what_feature_vectors_rejected(self, features, labels, error):
        with pytest.raises(error):
            ReferenceSet.build(features, labels, 2)

    @pytest.mark.parametrize("labels", [[0, 10**20], [0, -(10**20)], np.array([0, 10**20], dtype=object)])
    def test_label_too_large_for_int64_is_a_schema_error(self, labels):
        # it used to let a raw OverflowError out
        with pytest.raises(SchemaError, match="at index 1 outside"):
            ReferenceSet.build([[0.1, 0.9], [0.9, 0.1]], labels, 2)

    def test_error_detection_set_shares_the_matrix(self, tmp_path):
        path = _write(tmp_path, "d.csv", HEADER + "0.9,0.1,0,val\n0.3,0.7,0,val\n0.2,0.8,1,val\n")
        ref = load_dataset(path).reference
        derived = derive_error_detection_set(ref.feature_matrix(), ref.label_array())
        assert derived.feature_matrix() is ref.feature_matrix()
        assert derived.labels == (0, 1, 0)


# --- --val / --test files ----------------------------------------------------


class TestSplitFiles:
    def write(self, tmp_path, val, test):
        v = _write(tmp_path, "val.csv", "f0,f1,label\n" + val)
        t = _write(tmp_path, "test.csv", "f0,f1,label\n" + test)
        return v, t

    def test_rows_keep_their_file_roles(self, tmp_path):
        v = _write(tmp_path, "val.csv", HEADER + "0.9,0.1,0,test\n0.1,0.9,1,val\n")
        t = _write(tmp_path, "test.csv", HEADER + "0.8,0.2,0,val\n")
        ds = load_split_files(v, t)
        assert ds.reference.labels == (0, 1)
        assert ds.test_features == (FeatureVector.of([0.8, 0.2]),)
        assert ds.test_labels == (0,)

    def test_test_labels_are_optional(self, tmp_path):
        v, t = self.write(tmp_path, "0.9,0.1,0\n0.1,0.9,1\n", "0.8,0.2,\n0.3,0.7,?\n")
        assert load_split_files(v, t).test_labels is None
        assert load_split_files(v).test_features == ()

    def test_earlier_file_is_checked_first(self, tmp_path):
        v, t = self.write(tmp_path, "0.9,0.1,0\n0.1,nan,1\n", "0.8,oops,0\n")
        with pytest.raises(TransductError, match="row 3") as info:
            load_split_files(v, t)
        assert "non-finite" in str(info.value)
