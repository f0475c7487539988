"""Domain types and dataset ingestion.

A :class:`ReferenceSet` holds the known (labeled) samples used for
transduction; a :class:`LabeledDataset` pairs it with the test split.
Features are typically the output probabilities of an already-trained
classifier, but any finite real vectors are accepted unless the
probability flag is set on ingestion.

Canonical file formats:

* CSV with a header row: feature columns ``f0..f{d-1}``, integer column
  ``label``, column ``split`` with values ``val`` or ``test``.
* JSON mirror: ``{"class_count": C, "reference": [{"features": [...],
  "label": i}, ...], "test": [{"features": [...], "label": i?}, ...]}``.

Ingestion opens a file once. numpy's C reader reads a clean CSV body: one
line per row, every label and split cell plainly valid. The row reader (the
csv module) reads every other file and words every label, split and
tokenising error. The first bad row in file order wins, and within a row the
features are checked before the label and the split. A label is an optional
minus sign and ASCII digits, or blank or ``?`` for none. Files are read as
UTF-8; bytes that are not are a DatasetParseError.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from collections.abc import Iterable, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Integral, Real
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    ContractError,
    DatasetParseError,
    DegenerateInputError,
    SchemaError,
    TransductError,
    ValidationError,
)

PROBABILITY_SUM_TOL = 1e-6
_LABEL_MAX = 2**63 - 1  # labels are kept as int64


@dataclass(frozen=True)
class FeatureVector:
    """An ordered, finite, non-empty vector of real feature values."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ContractError("feature vector must be non-empty")
        if not all(isinstance(v, (Real, np.bool_)) and math.isfinite(v) for v in self.values):
            raise ContractError(f"feature vector contains non-finite or non-real values: {self.values}")

    @classmethod
    def of(cls, values: Iterable[float]) -> "FeatureVector":
        return cls(tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def _vectors(X: np.ndarray) -> tuple[FeatureVector, ...]:
    """The rows of an already validated matrix as FeatureVectors, unchecked."""
    vectors = []
    for row in zip(*X.T.tolist()):  # rows as tuples of floats, built in C
        f = object.__new__(FeatureVector)
        f.__dict__["values"] = row
        vectors.append(f)
    return tuple(vectors)


def _first_bad_row(X: np.ndarray, is_probability: bool, tol: float = PROBABILITY_SUM_TOL):
    """``(index, error type, message)`` of the first row of ``X`` that is not
    finite or, with ``is_probability``, not on the probability simplex; None
    if every row passes. Row sums run left to right, as Python's ``sum``."""
    finite = np.isfinite(X).all(axis=1)
    bad = ~finite
    if is_probability and X.size:
        with np.errstate(all="ignore"):
            outside = ((X < 0.0) | (X > 1.0)).any(axis=1)
            total = X[:, 0].copy()
            for j in range(1, X.shape[1]):
                total += X[:, j]
            bad |= outside | (np.abs(total - 1.0) > tol)
    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return None
    i = int(hits[0])
    values = tuple(X[i].tolist())
    if not finite[i]:
        return i, DatasetParseError, f"feature vector contains non-finite values: {values}"
    if outside[i]:
        return i, ValidationError, f"probability values outside [0, 1]: {values}"
    return i, ValidationError, f"probability vector sums to {float(total[i])!r}, expected 1 within {tol}"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _read_label(i: int, v, noun: str) -> int:
    """The ``i``-th ``noun`` ``v`` as an int; all but an integer, a bool or a whole float is a ContractError."""
    if isinstance(v, (Integral, np.bool_)) or isinstance(v, (float, np.floating)) and float(v).is_integer():
        return int(v)
    raise ContractError(f"{noun} {v!r} at index {i} is not a whole number")


def read_labels(labels, n: Optional[int] = None, class_count: Optional[int] = None, noun: str = "label") -> np.ndarray:
    """``labels`` (a 1-D array or a sequence) as a read-only 1-D int64 array, ``n`` long and each in
    [0, ``class_count``) (a :func:`checked_int` >= 2) where given: the one rule for every label the
    library takes. Another shape or length, or a value that is not a whole number, is a ContractError;
    a value outside the range or int64, a SchemaError. Messages name the ``noun``, its value and index.
    A read-only int64 array is shared; plain ints need no per-value reading (~10x quicker on 2,000)."""
    if isinstance(labels, np.ndarray) and labels.ndim != 1 or not isinstance(labels, Iterable):
        raise ContractError(f"{noun}s must form a 1-D array, got shape {np.shape(labels)}")
    outside = "does not fit in int64" if class_count is None else f"outside [0, {class_count})"
    if not (isinstance(labels, np.ndarray) and labels.dtype == np.int64 and not labels.flags.writeable):
        values = labels.tolist() if isinstance(labels, np.ndarray) else list(labels)
        values = values if set(map(type, values)) <= {int} else [_read_label(i, v, noun) for i, v in enumerate(values)]
        try:
            labels = _read_only(np.array(values, dtype=np.int64))
        except OverflowError:
            i, v = next((i, v) for i, v in enumerate(values) if not -_LABEL_MAX - 1 <= v <= _LABEL_MAX)
            raise SchemaError(f"{noun} {v} at index {i} {outside}") from None
    if n is not None and len(labels) != n:
        raise ContractError(f"expected {n} {noun}s, got {len(labels)}")
    hits = np.flatnonzero((labels < 0) | (labels >= class_count)) if class_count is not None else []
    if len(hits):
        raise SchemaError(f"{noun} {labels[hits[0]]} at index {hits[0]} {outside}")
    return labels


def _finite_rows(X: np.ndarray) -> np.ndarray:
    """``X`` if every row is finite, else a ContractError naming the first that is not: the reference-row rule."""
    bad = _first_bad_row(X, False)
    if bad is not None:
        raise ContractError(f"feature {bad[0]}: {bad[2]}")
    return X


def checked_int(value, low: int, name: str, error: type = ContractError) -> int:
    """``value`` as an int if it is an integer (not a bool) >= ``low``, else ``error`` naming the
    setting ``name``: the one check of an integer setting, a class count among them."""
    if type(value) is int and value >= low:  # a plain int skips the abstract-class checks (a request makes one)
        return value
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def checked_real(value, name: str, high: float = math.inf, closed: bool = True) -> float:
    """``value`` as a float if it is a real number (not a bool) in (0, ``high``], or (0, ``high``)
    unless ``closed``, else a ContractError naming the setting ``name``: the one check of a real
    setting. NaN is refused; with no ``high``, inf is taken."""
    if isinstance(value, bool) or not (isinstance(value, Real) and 0 < value and (value <= high if closed else value < high)):
        span = "positive" if high == math.inf else f"in (0, {high:g}{']' if closed else ')'}"
        raise ContractError(f"{name} must be {span}, got {value!r}")
    return float(value)


def inferred_class_count(*labels) -> int:
    """The class count of ``labels`` given without one: the largest label + 1, at least 2."""
    return max(int(np.max(y, initial=1)) for y in labels) + 1


def as_feature_matrix(features) -> np.ndarray:
    """``features`` (an ``(m, d)`` array, nested sequences or FeatureVectors,
    d >= 1) as a read-only float64 matrix. A read-only float64 matrix is
    returned as is; anything else is copied."""
    if isinstance(features, np.ndarray) and features.dtype == np.float64 and not features.flags.writeable:
        X = features
    else:
        if not isinstance(features, np.ndarray):
            features = [f.values if isinstance(f, FeatureVector) else f for f in features]
        try:
            X = np.array(features, dtype=np.float64)
        except (ValueError, TypeError, OverflowError) as exc:  # rows of unequal length, or not numbers
            raise ContractError(f"features do not form an (m, d) matrix: {exc}") from None
    if X.ndim != 2 or X.shape[1] == 0:
        raise ContractError(f"features must form an (m, d >= 1) matrix, got shape {X.shape}")
    return _read_only(X)


def _what(x) -> str:
    return f"shape {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__


def _width(row) -> Optional[int]:
    """The length of ``row``, or None if it has none (a number, a generator, a 0-d array)."""
    try:
        return len(row)
    except TypeError:
        return None


def _not_numbers(row, d: int) -> Optional[str]:
    """Why numpy does not read the test row ``row`` as ``d`` numbers, or None if it does."""
    try:
        x = np.array(row.values if isinstance(row, FeatureVector) else row, dtype=np.float64)
    except (ValueError, TypeError, OverflowError) as exc:
        return str(exc)
    return None if x.shape == (d,) else f"its items form shape {x.shape}"


def _nonzero(Q: np.ndarray) -> np.ndarray:
    """Which rows of ``Q`` have a non-zero norm: a norm, not ``Q.any()``, as 1e-200 squares to 0."""
    with np.errstate(over="ignore"):  # and 1e200 to inf
        return np.linalg.norm(Q, axis=1) > 0.0


def checked_rows(queries, d: int, cosine: bool) -> np.ndarray:
    """The test rows ``queries`` as a read-only ``(n, d)`` float64 matrix (a read-only float64 one is
    shared), or the error naming the first bad row, raised before any row is used: the one rule for
    every test row the library takes. ``queries`` must be an ``(n, d)`` matrix or a sequence of rows
    (FeatureVectors, 1-D arrays, sequences of numbers), else a ContractError names its shape or type.
    A row of another length than ``d`` (a matrix's width), an array row that is not 1-D, a row whose
    items are not numbers or a non-finite value is a ContractError naming its index; with ``cosine``,
    a zero row a DegenerateInputError. The first bad row in order wins. A good input costs one
    conversion and one finiteness test (with ``cosine``, one norm test too); the rows are walked one
    by one only to name a bad one."""
    if not (isinstance(queries, Sequence) or isinstance(queries, np.ndarray) and queries.ndim == 2):
        raise ContractError(f"test features must form an (n, d) matrix or a sequence of rows, got {_what(queries)}")
    if not len(queries):
        return _read_only(np.empty((0, d)))
    try:
        Q = as_feature_matrix(queries)
    except ContractError:
        Q = None
    if Q is not None and Q.shape[1] == d and np.isfinite(Q).all():
        if not cosine or _nonzero(Q).all():
            return Q
    return _walked_rows(queries, d, cosine)


def _walked_rows(queries, d: int, cosine: bool) -> np.ndarray:
    """:func:`checked_rows` of a non-empty ``queries`` that fails its whole-input test: the rows are
    walked in order to raise the first bad row's first fault, of shape, numbers, finite values, norm."""
    for i, row in enumerate(queries):
        w = _width(row)
        if w != d or getattr(row, "ndim", 1) != 1:
            problem = f"is not a row of numbers, got {_what(row)}" if w in (None, d) else f"has dimension {w}, expected {d}"
            raise ContractError(f"test feature {i} {problem}")
        why = _not_numbers(row, d)
        if why:
            raise ContractError(f"test feature {i} is not a row of numbers: {why}")
        x = as_feature_matrix([row])
        if not np.isfinite(x).all():
            raise ContractError(f"test feature {i} contains non-finite values")
        if cosine and not _nonzero(x)[0]:
            raise DegenerateInputError(f"test feature {i} has zero norm; cosine similarity undefined", index=i)
    return as_feature_matrix(queries)


def unit_rows(X: np.ndarray, used=slice(None)) -> np.ndarray:
    """The rows of ``X`` scaled to unit norm: the one place a cosine divides
    by a norm. A zero-norm row (all zeros, or values whose squares underflow,
    like 1e-200) among the ``used`` rows (an index array or a row mask;
    default all) raises DegenerateInputError with its index; any other comes
    back non-finite (NaN, or inf where a value is not zero). A finite row
    whose norm overflows (``[1e200, 1e200]``) is scaled by its largest value first."""
    if X.shape[0] == 0:
        raise ContractError("unit rows of an empty feature matrix")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # an overflowed norm; 0/0; x/0
        norms = np.linalg.norm(X, axis=1)
        zero = norms == 0.0
        if zero.any():  # cheaper than selecting the used rows on every call
            rows = np.arange(len(X))[used]
            hits = rows[zero[rows]]
            if hits.size:
                i = int(hits[0])
                raise DegenerateInputError(f"zero-norm feature vector at index {i}; cosine similarity undefined", index=i)
        U = X / norms[:, None]
        big = np.isinf(norms)
        if big.any():
            S = X[big] / np.abs(X[big]).max(axis=1, keepdims=True)
            U[big] = S / np.linalg.norm(S, axis=1, keepdims=True)
    return U


def unit_cosines(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The ``(n, m)`` cosines of the unit rows ``V`` to the unit rows ``U``.
    Each is computed row by row (``einsum``, not a BLAS product), so it does
    not depend on the rows around it in ``U`` or ``V``, and identical rows
    tie exactly."""
    return np.einsum("ij,nj->ni", U, V)


@dataclass(frozen=True, eq=False)
class ReferenceSet:
    """Known samples: an ``(m, d)`` float64 feature matrix ``X``, int64 class
    labels ``y`` and the class count.

    ``X`` and ``y`` are validated once, on construction, and kept read-only;
    a read-only float64 ``X`` (another set's, say) is shared, not copied.
    ``features`` and ``labels`` are tuple views built on first use. Two
    sets are equal only if they are the same object.
    """

    X: np.ndarray
    y: np.ndarray
    class_count: int

    def __post_init__(self):
        X = as_feature_matrix(self.X)
        class_count = checked_int(self.class_count, 2, "class_count")
        y = read_labels(self.y, len(X), class_count)
        if len(X) == 0:
            raise ContractError("reference set must contain at least one sample")
        object.__setattr__(self, "X", _finite_rows(X))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "class_count", class_count)

    @classmethod
    def build(cls, features, labels, class_count) -> "ReferenceSet":
        """From an ``(m, d)`` array, nested sequences or FeatureVectors."""
        return cls(features, labels, class_count)

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def feature_matrix(self) -> np.ndarray:
        """Features as one read-only ``(m, d)`` float array."""
        return self.X

    def label_array(self) -> np.ndarray:
        """Labels as one read-only ``(m,)`` int64 array."""
        return self.y

    @cached_property
    def features(self) -> tuple[FeatureVector, ...]:
        return _vectors(self.X)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        return tuple(self.y.tolist())

    @cached_property
    def _derived(self) -> dict:
        """Values computed from this set alone (unit rows, one-hot labels,
        UB-KNN bags, the last Part 1), cached on the instance
        so they live exactly as long as it does."""
        return {}

    def unit_rows(self, used=slice(None)) -> np.ndarray:
        """The rows of ``X`` scaled to unit norm (:func:`unit_rows`), computed once and kept read-only
        beside whether all are finite; a zero-norm row among ``used`` (default all) raises
        DegenerateInputError with its index, looked for only in a set that has a non-finite row."""
        if "unit_rows" not in self._derived:
            U = _read_only(unit_rows(self.X, used=[]))
            self._derived["unit_rows"] = U, bool(np.isfinite(U[:, 0]).all())
        U, whole = self._derived["unit_rows"]
        if not whole:  # rare (0/0 or, under an underflowed norm, x/0): find a used one
            unit_rows(self.X, used)
        return U

    def one_hot_labels(self) -> np.ndarray:
        """Labels as one read-only ``(m, class_count)`` one-hot float array."""
        V = self._derived.get("one_hot")
        if V is None:
            V = self._derived["one_hot"] = _read_only((self.y[:, None] == np.arange(self.class_count)).astype(float))
        return V

    def subset(self, indices: Sequence[int]) -> "ReferenceSet":
        rows = np.asarray(indices, dtype=np.intp)
        return ReferenceSet(_read_only(self.X[rows]), _read_only(self.y[rows]), self.class_count)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A reference (validation) split plus the test split to be labeled: a
    read-only ``(n, d)`` float64 matrix ``test_X``, built as a reference set's
    ``X`` is, and read-only int64 labels ``test_y`` or None, checked once by
    :func:`checked_rows`. ``test_features`` and ``test_labels`` are views."""

    reference: ReferenceSet
    test_X: np.ndarray
    test_y: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "test_X", checked_rows(self.test_X, self.reference.dimension, cosine=False))
        if self.test_y is not None:
            y = read_labels(self.test_y, len(self.test_X), self.reference.class_count, "test label")
            object.__setattr__(self, "test_y", y)

    @cached_property
    def test_features(self) -> tuple[FeatureVector, ...]:
        return _vectors(self.test_X)

    @cached_property
    def test_labels(self) -> Optional[tuple[int, ...]]:
        return None if self.test_y is None else tuple(self.test_y.tolist())


@dataclass(frozen=True)
class IngestionSchema:
    """Validation switches for dataset files."""

    class_count: Optional[int] = None  # default: max label + 1, at least 2
    is_probability: bool = False

    def __post_init__(self):
        if self.class_count is not None:
            checked_int(self.class_count, 2, "class_count", SchemaError)


@dataclass(frozen=True)
class _Table:
    """The rows of one file, in file order: features, test flags and labels."""

    X: np.ndarray  # (m, d) float64
    tests: np.ndarray  # (m,) bool
    labels: np.ndarray  # (m,) int64, -1 where a row has no label

    def split(self, test: bool) -> tuple[np.ndarray, np.ndarray]:
        """The read-only feature matrix and labels of the test (or val) rows."""
        chosen = self.tests == test
        if chosen.all():  # one split: no copy
            return _read_only(self.X), _read_only(self.labels)
        return _read_only(self.X[chosen]), _read_only(self.labels[chosen])


def _raise_bad_row(bad, numbers) -> None:
    """Raise ``bad``, a :func:`_first_bad_row` result, naming its row by ``numbers``."""
    if bad is not None:
        i, kind, message = bad
        if kind is DatasetParseError:
            raise DatasetParseError(message, row=int(numbers[i])) from None
        raise kind(f"row {numbers[i]}: {message}") from None


def _finish(table: _Table, numbers, bad, pending, noun: str) -> _Table:
    """``table`` (rows named by ``numbers``), or its first error in file order:
    the bad feature row ``bad`` (see :func:`_first_bad_row`), then ``pending``,
    the error that ended the read, then a test split only partly labelled."""
    _raise_bad_row(bad, numbers)
    if pending is not None:
        raise pending
    unlabelled = table.labels[table.tests] < 0
    if 0 < unlabelled.sum() < len(unlabelled):
        first = np.asarray(numbers)[table.tests][unlabelled][0]
        raise SchemaError(f"test {noun} {first} has no label but other test {noun}s have one")
    return table


def _records(fh, start: int):
    """``(number, cells)`` of each CSV record at ``fh``, numbered from
    ``start``; a record the csv module cannot read (a cell longer than its
    field limit, or a line that is not UTF-8: see :func:`_decoded_lines`) is
    a DatasetParseError naming it."""
    row_no = start - 1
    try:
        for row_no, row in enumerate(csv.reader(fh), start):
            yield row_no, row
    except csv.Error as exc:
        raise DatasetParseError(str(exc), row=row_no + 1) from None


def _csv_header(fh, role: Optional[str]) -> tuple[int, list[int], int, Optional[int]]:
    """The header record at ``fh`` as (cell count, feature columns, label
    column, split column or None). Without ``role`` a split column is needed."""
    try:
        header = [h.strip() for h in next(_records(fh, 1))[1]]
    except StopIteration:
        raise DatasetParseError("empty file") from None
    for name in ("label", "split"):
        if header.count(name) > 1:
            raise SchemaError(f"header has more than one {name!r} column: {header}")
    if "label" not in header:
        raise SchemaError(f"header must contain 'label': {header}")
    has_split = "split" in header
    if not has_split and role is None:
        raise SchemaError(f"header must contain 'split': {header}")
    feat_idx = [i for i, c in enumerate(header) if c not in ("label", "split")]
    if not feat_idx:
        raise SchemaError("no feature columns in header")
    return len(header), feat_idx, header.index("label"), header.index("split") if has_split else None


def _csv_rows(lines, schema: IngestionSchema, role: Optional[str]) -> _Table:
    """The row reader: the CSV ``lines`` (:func:`_decoded_lines`) read by the
    csv module up to the first record it cannot take (a cell count other than
    the header's, a feature Python ``float`` does not read, a cell past the
    field limit, a line not UTF-8, a label or split :func:`_row_label` refuses),
    through :func:`_finish`, with a refused row's features, checked first. A
    record of blank cells is passed over."""
    width, feat_idx, label_idx, split_idx = _csv_header(lines, role)
    values, numbers, tests, labels, pending = array("d"), array("q"), array("b"), array("q"), None
    try:
        for row_no, row in _records(lines, 2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise DatasetParseError(f"expected {width} cells, got {len(row)}", row=row_no)
            try:
                values.extend([float(row[i]) for i in feat_idx])
            except ValueError as exc:
                raise DatasetParseError(str(exc), row=row_no) from None
            numbers.append(row_no)
            split = None if split_idx is None else row[split_idx]
            label, test = _row_label(row[label_idx], split, row_no, schema.class_count, role)
            labels.append(label)
            tests.append(test)
    except TransductError as exc:
        pending = exc
    X = np.frombuffer(values).reshape(len(numbers), len(feat_idx))
    table = _Table(X, np.frombuffer(tests, dtype=bool), np.frombuffer(labels, dtype=np.int64))
    return _finish(table, numbers, _first_bad_row(X, schema.is_probability), pending, "row")


# bound with the package: numpy 2 loads np.char on first use, inside a CSV read
_strip, _str_len = np.char.strip, np.char.str_len
_CHUNK_CHARS = 1 << 14  # the line feed reads whole lines of about this many characters at a time


def _chunks(fh, counts: list):
    """The lines at ``fh`` for numpy's C reader, as lists of whole lines of
    about :data:`_CHUNK_CHARS` characters, each list's length added to
    ``counts``. A NUL (an S field drops it) or a line past the csv module's
    field limit (the row reader stops there) raises ValueError."""
    limit = csv.field_size_limit()
    while lines := fh.readlines(_CHUNK_CHARS):
        if max(map(len, lines)) > limit or "\x00" in "".join(lines):
            raise ValueError("a line the row reader must read")
        counts.append(len(lines))
        yield lines


def _columns(fh, schema: IngestionSchema, role: Optional[str]) -> Optional[_Table]:
    """The CSV body after the header at ``fh`` read by numpy's C reader, its
    rows numbered from 2, through :func:`_finish`; or None, for the row reader,
    where the C reader rejects the body or finds none, a line is blank or not a
    whole record, or a label or split cell fills its field or fails the column
    filter. The filter passes plain cases of :func:`_row_label`'s rule (1 to 18
    ASCII digits, below the class count; blank or ``?`` on a test row; ``val``
    or ``test``) and nothing it refuses: no byte past ASCII."""
    width, feat_idx, label_idx, split_idx = _csv_header(fh, role)
    kinds = {label_idx: "S20", split_idx: "S5"}  # bytes; a cell that fills its field may have been cut
    dtype = np.dtype([(f"c{i}", kinds.get(i, "f8")) for i in range(width)])
    counts = []
    lines = chain.from_iterable(_chunks(fh, counts))
    try:  # every column is named: loadtxt then rejects rows of another width
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            body = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    if body.size == 0 or len(body) != sum(counts):
        return None
    cells = []
    for i in [i for i in (label_idx, split_idx) if i is not None]:
        longest = int(_str_len(body[f"c{i}"]).max())
        if longest >= body.dtype[i].itemsize:
            return None
        cells.append(body[f"c{i}"].astype(f"S{max(longest, 1)}"))  # a copy as narrow as its longest cell
    X = np.stack([body[f"c{i}"] for i in feat_idx], axis=1)
    del body
    raw = _strip(cells[0])
    blank = (raw == b"") | (raw == b"?")
    digits, labels = _digit_labels(raw)
    tests = np.full(len(X), role == "test")
    plain = blank | digits
    if split_idx is not None:
        split = _strip(cells[1])
        plain &= (split == b"val") | (split == b"test")
        if role is None:
            tests = split == b"test"
    plain &= tests | ~blank  # a reference row needs a label
    if schema.class_count is not None:
        plain &= labels < schema.class_count
    if not plain.all():
        return None
    numbers = np.arange(2, len(X) + 2)
    return _finish(_Table(X, tests, labels), numbers, _first_bad_row(X, schema.is_probability), None, "row")


def _row_label(label: str, split: Optional[str], row_no: int, class_count, role) -> tuple[int, bool]:
    """One CSV row's label (-1 for none) and test flag, or its error: the one
    rule for a CSV label and split cell. With ``role`` the row goes to that
    split, but its split cell, if any, is still checked."""
    raw_label = label.strip()
    value = -1
    if raw_label not in ("", "?"):
        digits = raw_label[1:] if raw_label.startswith("-") else raw_label
        if not (digits.isascii() and digits.isdigit()):
            raise DatasetParseError(f"non-integer label {raw_label!r}", row=row_no)
        value = int(raw_label)
        if value < 0:
            raise SchemaError(f"row {row_no}: negative label {value}")
        if class_count is not None and value >= class_count:
            raise SchemaError(f"row {row_no}: label {value} >= class_count {class_count}")
        if value > _LABEL_MAX:
            raise SchemaError(f"row {row_no}: label {value} does not fit in int64")
    cell = split.strip() if split is not None else role
    if cell not in ("val", "test"):
        raise SchemaError(f"row {row_no}: split must be 'val' or 'test', got {cell!r}")
    if (role or cell) == "val" and value < 0:
        raise SchemaError(f"reference row {row_no} has no label")
    return value, (role or cell) == "test"


def _digit_labels(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which stripped label cells ``raw`` are 1 to 18 ASCII digits (so fit
    int64), and their values (-1 elsewhere), read from the first 18 bytes of
    each cell: a longer cell has more characters than digits there."""
    width = min(raw.dtype.itemsize, 18)
    codes = raw.view(np.uint8).reshape(len(raw), raw.dtype.itemsize)[:, :width] - np.uint8(ord("0"))
    is_digit = codes < 10  # a pad NUL wraps round to 208
    count = is_digit.sum(axis=1)
    digits = (count == _str_len(raw)) & (count > 0)
    labels = np.zeros(len(raw), np.int64)
    for i in range(width):  # a digit cell ends in pad NULs
        labels = np.where(is_digit[:, i], labels * 10 + codes[:, i], labels)
    return digits, np.where(digits, labels, -1)


def _not_utf8(data: bytes, start: int) -> str:
    return f"not UTF-8: byte 0x{data[start]:02x} at offset {start}"


def _decoded_lines(data: bytes):
    """The lines of ``data`` as ``open(path, newline="")`` splits them, each
    decoded from UTF-8 on its own (no multi-byte character holds a line end).
    A line that is not UTF-8 ends them with a csv.Error, which
    :func:`_records` names by the record it was reading."""
    offset = 0
    for line in data.splitlines(keepends=True):
        try:
            yield line.decode()
        except UnicodeDecodeError as exc:
            raise csv.Error(_not_utf8(data, offset + exc.start)) from None
        offset += len(line)


@contextmanager
def _opened(path):
    """The data file ``path`` opened as UTF-8 text, the one place a data file is opened; a path that
    does not exist or cannot be read (a directory, say) is a DatasetParseError naming it."""
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DatasetParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise DatasetParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        yield fh


def _read_csv(path, schema: IngestionSchema, role: Optional[str]) -> _Table:
    """A CSV file, opened once: read by :func:`_columns` or, where that
    returns None or meets a byte that is not UTF-8 (the text layer decodes
    ahead of the line it returns), by the row reader from the file's bytes."""
    with _opened(path) as fh:
        table = None
        with suppress(UnicodeDecodeError):
            table = _columns(fh, schema, role)
        if table is None:
            fh.seek(0)
            table = _csv_rows(_decoded_lines(fh.buffer.read()), schema, role)
    return table


def _json_table(payload: dict, class_count: Optional[int], is_probability: bool) -> _Table:
    """A JSON dataset's reference items, each numbered from 0 in messages,
    then its test items the same way, up to the first bad one, through
    :func:`_finish`. An item of another dimension is not kept; its features
    are checked here."""
    values, numbers, tests, labels = array("d"), array("q"), array("b"), array("q")
    d = pending = None
    try:
        for split, key in (("val", "reference"), ("test", "test")):
            items = payload.get(key, [])
            if not isinstance(items, list):
                raise SchemaError(f"JSON dataset: {key!r} must be a list")
            for i, item in enumerate(items):
                if not isinstance(item, dict) or not isinstance(item.get("features"), list):
                    raise DatasetParseError(f"{key} item {i}: expected an object with a 'features' list")
                try:
                    features = [float(str(v)) for v in item["features"]]
                except ValueError as exc:
                    raise DatasetParseError(str(exc), row=i) from None
                if not features:
                    raise DatasetParseError("feature vector must be non-empty", row=i)
                d = d or len(features)
                if len(features) == d:
                    values.extend(features)
                    numbers.append(i)
                else:
                    _raise_bad_row(_first_bad_row(np.array([features]), is_probability), [i])
                label = item.get("label")
                if label is not None or split == "val":  # test items may omit it
                    if isinstance(label, bool) or not isinstance(label, int):
                        raise DatasetParseError(f"{key} item {i}: label must be an integer, got {label!r}")
                    too_large = label > _LABEL_MAX or (class_count is not None and label >= class_count)
                    if too_large or (split == "val" and label < 0):
                        raise SchemaError(f"{key} item {i}: label {label} out of range")
                    if label < 0:
                        raise SchemaError(f"test item {i}: negative label {label}")
                if len(features) != d:
                    kind = "feature" if split == "val" else "test feature"
                    raise ContractError(f"{kind} {i} has dimension {len(features)}, expected {d}")
                tests.append(split == "test")
                labels.append(-1 if label is None else label)
    except TransductError as exc:
        pending = exc
    X = np.frombuffer(values).reshape(len(numbers), d or 1)
    table = _Table(X, np.frombuffer(tests, dtype=bool), np.frombuffer(labels, dtype=np.int64))
    return _finish(table, numbers, _first_bad_row(X, is_probability), pending, "item")


def _assemble(val: _Table, test: _Table, class_count: Optional[int]) -> LabeledDataset:
    """The dataset of ``val``'s reference rows and ``test``'s test rows."""
    (X, y), (T, t) = val.split(test=False), test.split(test=True)
    if len(y) == 0:
        raise SchemaError("no reference ('val') rows found")
    reference = ReferenceSet(X, y, inferred_class_count(y, t) if class_count is None else class_count)
    labelled = t.size and t[0] >= 0  # all or none: _finish checks
    return LabeledDataset(reference, T, t if labelled else None)


def load_dataset(path, schema: IngestionSchema = IngestionSchema()) -> LabeledDataset:
    """Load a validated dataset from a CSV or JSON file, preserving row order."""
    if Path(path).suffix.lower() != ".json":
        table = _read_csv(path, schema, None)
        return _assemble(table, table, schema.class_count)
    with _opened(path) as fh:
        try:
            payload = json.loads(fh.read())
        except json.JSONDecodeError as exc:
            raise DatasetParseError(f"invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DatasetParseError(_not_utf8(exc.object, exc.start)) from None
    if not isinstance(payload, dict) or "reference" not in payload:
        raise SchemaError("JSON dataset must be an object with a 'reference' list")
    class_count = payload.get("class_count", schema.class_count)
    if class_count is not None:
        checked_int(class_count, 2, "class_count", SchemaError)
    if schema.class_count not in (None, class_count):
        raise SchemaError(f"JSON dataset: class_count {class_count} disagrees with the given class_count {schema.class_count}")
    table = _json_table(payload, class_count, schema.is_probability)
    return _assemble(table, table, class_count)


def load_split_files(
    val_path, test_path=None, schema: IngestionSchema = IngestionSchema()
) -> LabeledDataset:
    """Load a dataset from two CSV files: every row of ``val_path`` is a
    reference row and every row of ``test_path`` (if given) a test row. A
    split column is optional and, if present, checked but not used."""
    val = test = _read_csv(val_path, schema, "val")
    if test_path is not None:
        test = _read_csv(test_path, schema, "test")
    return _assemble(val, test, schema.class_count)


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write a dataset with full float precision in the layout
    :func:`load_dataset` reads from ``path``: JSON, with the class count,
    for a ``.json`` suffix, else the canonical CSV layout. A CSV keeps no
    class count; it is read back as the largest label plus one (at least
    2) unless the load is given one, so a dataset whose top class has no
    row is a ContractError there."""
    path = Path(path)
    ref = ds.reference
    test_y = [None] * len(ds.test_X) if ds.test_y is None else ds.test_y.tolist()  # None: unlabelled
    splits = ((ref.X, ref.y.tolist(), "val"), (ds.test_X, test_y, "test"))
    if path.suffix.lower() == ".json":
        items = [[{"features": f, "label": y} for f, y in zip(X.tolist(), labels)] for X, labels, _ in splits]
        payload = {"class_count": ref.class_count, "reference": items[0], "test": items[1]}
        path.write_bytes(json.dumps(payload).encode())
        return
    top = max(1, int(ref.y.max()), 0 if ds.test_y is None else int(ds.test_y.max(initial=0)))
    if top + 1 != ref.class_count:
        raise ContractError(
            f"a CSV keeps no class count: class {ref.class_count - 1} has no row, so it would be read"
            f" back with {top + 1} classes, not {ref.class_count}, unless every load passes"
            f" IngestionSchema(class_count={ref.class_count}) (--class-count {ref.class_count}); save as .json"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # writes None as an empty cell
        writer.writerow([f"f{i}" for i in range(ref.dimension)] + ["label", "split"])
        for X, labels, split in splits:
            writer.writerows([*map(repr, row), label, split] for row, label in zip(X.tolist(), labels))


def derive_error_detection_set(reference_probs, reference_true) -> ReferenceSet:
    """Binary reference set for error detection.

    Label 1 marks samples where the base classifier's argmax prediction
    disagrees with the true class, one of the d columns ("prediction
    error"); label 0 marks correct predictions. Features are the probability
    vectors unchanged (an ``(m, d)`` array or FeatureVectors; a read-only
    array is shared).
    """
    X = as_feature_matrix(reference_probs)
    y = read_labels(reference_true, len(X), X.shape[1])
    wrong = np.argmax(X, axis=1) != y
    return ReferenceSet(X, _read_only(wrong.astype(np.int64)), 2)
