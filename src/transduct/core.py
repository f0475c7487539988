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

Ingestion opens a file once. numpy's C reader tokenises a clean CSV body,
one line per row; the row reader (the csv module) reads every other file
and words every tokenising error. Both read label and split cells by one
rule, :func:`_row_label`. The first bad row in file order wins, and within a
row the features are checked before the label and the split. A label is an
optional minus sign and ASCII digits, or blank or ``?`` for none; a JSON
feature is a JSON number. Files are read as UTF-8; bytes that are not are a
DatasetParseError.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
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

_PROBABILITY_SUM_TOL = 1e-6  # how far a probability row's sum may be from 1
_LABEL_MAX = 2**63 - 1  # labels are kept as int64


@dataclass(frozen=True)
class FeatureVector:
    """An ordered, finite, non-empty vector of real feature values. Slotted: an instance has no
    ``__dict__`` and takes no weak reference."""

    # slots declared here, not by slots=True, whose __setattr__ raises TypeError for a name that is not a field
    __slots__ = ("values",)
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

    def __getstate__(self):  # pickle and copy, with the state a __dict__ would hold
        return {"values": self.values}

    def __setstate__(self, state):
        object.__setattr__(self, "values", state["values"])  # the frozen slot is set past __setattr__


def _vectors(X: np.ndarray) -> tuple[FeatureVector, ...]:
    """The rows of an already validated matrix as FeatureVectors, unchecked: blank instances,
    then each ``values`` slot set through its descriptor, both by C-level maps."""
    vectors = tuple(map(object.__new__, repeat(FeatureVector, len(X))))
    any(map(FeatureVector.values.__set__, vectors, zip(*X.T.tolist())))  # rows as float tuples; any() drains it
    return vectors


def _first_bad_row(X: np.ndarray, is_probability: bool):
    """``(index, error type, message)`` of the first row of ``X`` that is not
    finite or, with ``is_probability``, not on the probability simplex; None
    if every row passes. Row sums run left to right, as Python's ``sum``. A
    whole-matrix test passes a good ``X`` before any per-row array is built."""
    with np.errstate(all="ignore"):
        if is_probability and X.size:
            total = X[:, 0].copy()
            for j in range(1, X.shape[1]):
                total += X[:, j]
            far = np.abs(total - 1.0) > _PROBABILITY_SUM_TOL
            if X.min() >= 0.0 and X.max() <= 1.0 and not far.any():  # NaN fails both bounds
                return None
        elif np.isfinite(X).all():
            return None
        finite = np.isfinite(X).all(axis=1)
        outside = ((X < 0.0) | (X > 1.0)).any(axis=1)
    bad = ~finite | outside | far if is_probability else ~finite
    i = int(np.flatnonzero(bad)[0])
    values = tuple(X[i].tolist())
    if not finite[i]:
        return i, DatasetParseError, f"feature vector contains non-finite values: {values}"
    if outside[i]:
        return i, ValidationError, f"probability values outside [0, 1]: {values}"
    return i, ValidationError, f"probability vector sums to {float(total[i])!r}, expected 1 within {_PROBABILITY_SUM_TOL}"


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


def checked_int(value, low: int, name: str, error: type = ContractError, high: float = math.inf) -> int:
    """``value`` as an int if it is an integer (not a bool) from ``low`` to ``high``, else ``error``
    naming the setting ``name``: the one check of an integer setting, a class count among them."""
    if type(value) is int and low <= value <= high:  # a plain int skips the abstract-class checks (a request makes one)
        return value
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    if value > high:
        raise error(f"{name} must be at most {high}, got {value!r}")
    return int(value)


def checked_switch(value, name: str) -> bool:
    """``value`` if it is a bool (Python's or numpy's), else a ContractError naming the switch ``name``."""
    if not isinstance(value, (bool, np.bool_)):
        raise ContractError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def checked_real(value, name: str, high: float = math.inf, closed: bool = True, zero: bool = False) -> float:
    """``value`` as a float if it is a real number (not a bool) in (0, ``high``], or (0, ``high``)
    unless ``closed``, 0 included with ``zero``, else a ContractError naming the setting ``name``:
    the one check of a real setting. NaN is refused; with no ``high``, inf is taken if ``closed``."""
    if isinstance(value, bool) or not (
        isinstance(value, Real) and (0 <= value if zero else 0 < value) and (value <= high if closed else value < high)
    ):
        low, top = "[" if zero else "(", "]" if closed else ")"
        span = "positive" if (high, closed, zero) == (math.inf, True, False) else f"in {low}0, {high:g}{top}"
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


def checked_rows(queries, d: int, cosine: bool) -> np.ndarray:
    """The test rows ``queries`` as a read-only ``(n, d)`` float64 matrix (a read-only float64 one is
    shared), or the error naming the first bad row, raised before any row is used: the one rule for
    every test row the library takes. ``queries`` must be an ``(n, d)`` matrix or a sequence of rows
    (FeatureVectors, 1-D arrays, sequences of numbers), else a ContractError names its shape or type.
    A row of another length than ``d`` (a matrix's width), an array row that is not 1-D, a row whose
    items are not numbers or a non-finite value is a ContractError naming its index; with ``cosine``,
    an all-zero row a DegenerateInputError. The first bad row in order wins. A good input costs
    one conversion and one finiteness test (with ``cosine``, one zero test too); the rows are walked
    one by one only to name a bad one."""
    if not (isinstance(queries, Sequence) or isinstance(queries, np.ndarray) and queries.ndim == 2):
        raise ContractError(f"test features must form an (n, d) matrix or a sequence of rows, got {_what(queries)}")
    if not len(queries):
        return _read_only(np.empty((0, d)))
    try:
        Q = as_feature_matrix(queries)
    except ContractError:
        Q = None
    if Q is not None and Q.shape[1] == d and np.isfinite(Q).all() and (not cosine or Q.any(axis=1).all()):
        return Q
    return _walked_rows(queries, d, cosine)


def _walked_rows(queries, d: int, cosine: bool) -> np.ndarray:
    """:func:`checked_rows` of a non-empty ``queries`` that fails its whole-input test: the rows are
    walked in order to raise the first bad row's first fault, of shape, numbers, finite values, zeros."""
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
        if cosine and not x.any():
            raise DegenerateInputError(f"test feature {i} has zero norm; cosine similarity undefined", index=i)
    return as_feature_matrix(queries)


def _scaled_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(S, s, n)`` of the rows of ``X`` (its last axis): ``S = X / s``, ``n = |S|``, the norm ``s * n``; the
    one rule that scales a norm. ``s`` is 1 where ``np.linalg.norm`` is in [2**-511, inf) (a normal sum of
    squares, so the row keeps its bits), else a nonzero row's largest magnitude."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf, and inf / inf for a non-finite row
        n = np.linalg.norm(X, axis=-1)
        normal = (n >= 2.0**-511) & (n < np.inf)
        s = normal.astype(n.dtype)  # 1 on a normal row; the others' scales are set below
        if np.count_nonzero(normal) == normal.size:  # quicker than .all() on a few rows
            return X, s, n
        odd = ~normal
        top = np.abs(X[odd]).max(axis=-1)
        s[odd] = np.where(top > 0.0, top, 1.0)
        if top.any():  # zero rows alone need no scale
            X = X / s[..., None]
            n[odd] = np.linalg.norm(X[odd], axis=-1)
    return X, s, n


def unit_rows(X: np.ndarray, used=slice(None)) -> np.ndarray:
    """The rows of ``X`` scaled to unit norm (:func:`_scaled_rows` first): the one place a cosine divides by
    a norm. A zero row among the ``used`` rows (an index array or a row mask; default all) raises
    DegenerateInputError with its index; any other comes back NaN, as a non-finite row does."""
    if X.shape[0] == 0:
        raise ContractError("unit rows of an empty feature matrix")
    S, _, norms = _scaled_rows(X)
    if np.count_nonzero(norms) == len(norms):  # no zero row (a NaN norm is not zero)
        return S / norms[:, None]
    if (zero := norms == 0.0)[used].any():
        i = int(np.arange(len(X))[used][zero[used]][0])
        raise DegenerateInputError(f"zero-norm feature vector at index {i}; cosine similarity undefined", index=i)
    with np.errstate(invalid="ignore"):  # 0/0
        return S / norms[:, None]


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
        beside whether no row is all zeros; a zero row among ``used`` (default all) raises
        DegenerateInputError with its index, looked for only in a set that has one."""
        if "unit_rows" not in self._derived:
            self._derived["unit_rows"] = _read_only(unit_rows(self.X, used=[])), self.X.any(axis=1).all()
        U, whole = self._derived["unit_rows"]
        if not whole:  # rare: find a used zero row
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
        checked_switch(self.is_probability, "is_probability")
        if self.class_count is not None:
            checked_int(self.class_count, 2, "class_count", SchemaError)


@dataclass(frozen=True)
class _Table:
    """The rows of one file, in file order: features, test flags and labels."""

    X: np.ndarray  # (m, d) float64
    tests: np.ndarray  # (m,) bool
    labels: np.ndarray  # (m,) int64, -1 where a row has no label

    def split(self, test: bool) -> tuple[np.ndarray, np.ndarray]:
        """The read-only feature matrix and labels of the test (or val) rows:
        views where they are one run of rows, else copies."""
        rows = np.flatnonzero(self.tests == test)
        if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(rows[0], rows[-1] + 1)
        return _read_only(self.X[rows]), _read_only(self.labels[rows])


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
    """The row reader: the CSV ``lines`` (:func:`_decoded_lines`) read by the csv module up to the first
    record it cannot take (a cell count other than the header's, a feature that is not ASCII once stripped, holds ``_``
    or Python ``float`` does not read, a cell past the field limit, a line not UTF-8, a label or split
    :func:`_row_label` refuses), through :func:`_finish`, with a refused row's features, checked first.
    A record of blank cells is passed over."""
    width, feat_idx, label_idx, split_idx = _csv_header(lines, role)
    values, numbers, tests, labels, pending = array("d"), array("q"), array("b"), array("q"), None
    try:
        for row_no, row in _records(lines, 2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise DatasetParseError(f"expected {width} cells, got {len(row)}", row=row_no)
            cells = [row[i] for i in feat_idx]
            try:
                if bad := [cell for cell in cells if not cell.strip().isascii() or "_" in cell]:  # float reads "1_0" as 10
                    raise ValueError(f"could not convert string to float: {bad[0]!r}")
                values.extend([float(cell) for cell in cells])  # a whole row or none of it
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


_BLOCK_BYTES = 1 << 16  # the line feed reads the file in blocks of about this many bytes


def _chunks(raw, counts: list):
    """The lines at the binary file ``raw`` for numpy's C reader, without their ends: a block of about
    :data:`_BLOCK_BYTES` at a time, cut after its last line end, decoded from UTF-8 at once and split
    where ``open(path, newline="")`` splits lines (CRLF, LF, lone CR); each block's line count is added
    to ``counts``. Bytes that are not UTF-8, a NUL (an S field drops it) or a line of more characters
    than the csv module's field limit (the row reader stops there) raise ValueError; so does an
    unfinished line of more than 4 bytes per character of that limit (a character takes at most 4)."""
    limit, tail, more = csv.field_size_limit(), b"", True
    while more:
        block = raw.read(_BLOCK_BYTES)
        more, block = bool(block), tail + block
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1 if more else len(block)  # a CR may start a CRLF
        text, tail = block[:cut].decode(), block[cut:]
        lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
        if "\x00" in text or len(tail) > 4 * limit or len(text) > limit and max(map(len, lines)) > limit:
            raise ValueError("a line the row reader must read")
        del block, text  # only the lines are kept while the C reader reads them
        if not lines[-1]:  # the end of the last line
            lines.pop()
        if lines:
            counts.append(len(lines))
            yield lines


def _columns(fh, schema: IngestionSchema, role: Optional[str]) -> Optional[_Table]:
    """The CSV at the binary file ``fh`` tokenised by numpy's C reader, its
    body rows numbered from 2, through :func:`_finish`; or None, for the row
    reader, where the C reader rejects the body or finds none, the header line
    is not one whole record, a line is blank or not a whole record, a line
    fails :func:`_chunks`, a label or split cell fills its byte field (it may
    have been cut), or :func:`_row_label` refuses a label and split cell pair
    (bytes past ASCII included). That rule runs once per distinct pair."""
    counts = []
    lines = chain.from_iterable(_chunks(fh, counts))
    try:  # the header must be one whole record on its line: strict csv refuses a quoted cell left open
        header = next(lines, "")
        next(csv.reader([header], strict=True))
    except (ValueError, csv.Error):
        return None
    if not header:
        return None
    width, feat_idx, label_idx, split_idx = _csv_header(iter([header]), role)
    d = len(feat_idx)
    # each row's d floats side by side, then its label and split cells as 27 and 5 bytes (four uint64
    # words): an int64 label with blanks round it, and "test", are read short of filling their fields
    offsets = {i: 8 * j for j, i in enumerate(feat_idx)} | {label_idx: 8 * d, split_idx: 8 * d + 27}
    kinds = {label_idx: "S27", split_idx: "S5"}
    dtype = np.dtype({"names": [f"c{i}" for i in range(width)], "formats": [kinds.get(i, "f8") for i in range(width)],
                      "offsets": [offsets[i] for i in range(width)], "itemsize": 8 * d + 32})
    try:  # every column is named: loadtxt then rejects rows of another width
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            body = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    n = len(body)
    if n == 0 or n != sum(counts) - 1:
        return None
    X = np.ndarray((n, d), np.float64, body, 0, (dtype.itemsize, 8)).copy()
    cells = np.zeros((n, 32), np.uint8)  # without a split column its 5 bytes are unset in the body
    kept = 32 if split_idx is not None else 27
    cells[:, :kept] = np.ndarray((n, kept), np.uint8, body, 8 * d, (dtype.itemsize, 1))
    del body
    words = cells.view(np.uint64)  # (n, 4)
    # equal pairs have equal sums, so sort together; pairs of one sum may interleave, which only cuts more runs
    order = np.argsort(words[:, 0] + words[:, 1] + words[:, 2] + words[:, 3])
    ordered = np.take(words, order, axis=0)  # words[order] and .any(axis=1) below each took 3 to 8x as long
    first = np.ones(n, bool)  # where a run of equal pairs starts
    first[1:] = np.logical_or.reduce([ordered[1:, j] != ordered[:-1, j] for j in range(4)])
    found = []
    for row in order[first].tolist():
        pair = cells[row].tobytes()
        if pair[26] or pair[31]:  # a cell that fills its field may have been cut
            return None
        try:
            label, split = pair[:27].rstrip(b"\0").decode("ascii"), pair[27:].rstrip(b"\0").decode("ascii")
            found.append(_row_label(label, split if split_idx is not None else None, 0, schema.class_count, role))
        except (UnicodeDecodeError, TransductError):
            return None
    values, flags = zip(*found)
    run = np.empty(n, np.intp)  # each row's run
    run[order] = np.cumsum(first) - 1
    labels, tests = np.array(values, np.int64)[run], np.array(flags)[run]
    numbers = np.arange(2, n + 2)
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
    """The data file ``path`` opened for binary reads, the one place a data file is opened; a path that
    does not exist or cannot be read (a directory, say) is a DatasetParseError naming it."""
    path = Path(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise DatasetParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise DatasetParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        yield fh


def _read_csv(path, schema: IngestionSchema, role: Optional[str]) -> _Table:
    """A CSV file, opened once: read by :func:`_columns` or, where that
    returns None, by the row reader from the file's bytes."""
    with _opened(path) as fh:
        table = _columns(fh, schema, role)
        if table is None:
            fh.seek(0)
            table = _csv_rows(_decoded_lines(fh.read()), schema, role)
    return table


def _json_features(cells: list, item: str) -> list[float]:
    """The feature values ``cells`` of the JSON ``item`` as floats. Each must be a JSON number, an int
    (not a bool) or a float, else a DatasetParseError names the item and the value's position; an int
    past the float range reads as an infinity, as its digits would."""
    for j, v in enumerate(cells):
        if type(v) not in (int, float):  # json gives these two types to numbers and bool to true and false
            raise DatasetParseError(f"{item}: feature {j} must be a number, got {v!r}")
    return [float(str(v)) for v in cells]


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
                features = _json_features(item["features"], f"{key} item {i}")
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
            payload = json.loads(fh.read().decode())
        except UnicodeDecodeError as exc:
            raise DatasetParseError(_not_utf8(exc.object, exc.start)) from None
        except ValueError as exc:  # a decode error, or an int of more digits than int() reads
            raise DatasetParseError(f"invalid JSON: {exc}") from None
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
