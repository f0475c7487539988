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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, DatasetParseError, SchemaError, ValidationError

PROBABILITY_SUM_TOL = 1e-6


@dataclass(frozen=True)
class FeatureVector:
    """An ordered, finite, non-empty vector of real feature values."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ContractError("feature vector must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ContractError(f"feature vector contains non-finite values: {self.values}")

    @classmethod
    def of(cls, values: Iterable[float]) -> "FeatureVector":
        return cls(tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def check_probability_simplex(f: FeatureVector, tol: float = PROBABILITY_SUM_TOL) -> None:
    """Raise ValidationError unless ``f`` lies on the probability simplex."""
    if any(v < 0.0 or v > 1.0 for v in f.values):
        raise ValidationError(f"probability values outside [0, 1]: {f.values}")
    total = sum(f.values)
    if abs(total - 1.0) > tol:
        raise ValidationError(f"probability vector sums to {total!r}, expected 1 within {tol}")


def argmax_index(values: Sequence[float]) -> int:
    """Index of the largest value; ties go to the lowest index."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


@dataclass(frozen=True)
class ReferenceSet:
    """Known samples: features, integer class labels, and the class count."""

    features: tuple[FeatureVector, ...]
    labels: tuple[int, ...]
    class_count: int

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise ContractError(
                f"{len(self.features)} features vs {len(self.labels)} labels"
            )
        if len(self.features) == 0:
            raise ContractError("reference set must contain at least one sample")
        if self.class_count < 2:
            raise ContractError(f"class_count must be >= 2, got {self.class_count}")
        d = len(self.features[0])
        for i, f in enumerate(self.features):
            if len(f) != d:
                raise ContractError(f"feature {i} has dimension {len(f)}, expected {d}")
        for i, y in enumerate(self.labels):
            if not 0 <= y < self.class_count:
                raise SchemaError(f"label {y} at index {i} outside [0, {self.class_count})")

    @classmethod
    def build(cls, features, labels, class_count) -> "ReferenceSet":
        feats = tuple(
            f if isinstance(f, FeatureVector) else FeatureVector.of(f) for f in features
        )
        return cls(feats, tuple(int(y) for y in labels), int(class_count))

    @property
    def size(self) -> int:
        return len(self.features)

    @property
    def dimension(self) -> int:
        return len(self.features[0])

    def feature_matrix(self) -> np.ndarray:
        """Features as one read-only ``(m, d)`` float array, built on the first
        call and kept on this instance (so it is freed with the instance)."""
        return self._feature_matrix

    def label_array(self) -> np.ndarray:
        """Labels as one read-only ``(m,)`` int64 array, kept like
        :meth:`feature_matrix`."""
        return self._label_array

    @cached_property
    def _feature_matrix(self) -> np.ndarray:
        m, d = self.size, self.dimension
        values = chain.from_iterable(f.values for f in self.features)
        return _read_only(np.fromiter(values, dtype=float, count=m * d).reshape(m, d))

    @cached_property
    def _label_array(self) -> np.ndarray:
        return _read_only(np.array(self.labels, dtype=np.int64))

    @cached_property
    def _derived(self) -> dict:
        """Values other modules compute from this set alone (the UB-KNN bags),
        cached on the instance so they live exactly as long as it does."""
        return {}

    def one_hot_labels(self) -> np.ndarray:
        out = np.zeros((self.size, self.class_count))
        out[np.arange(self.size), self.label_array()] = 1.0
        return out

    def class_members(self, c: int) -> list[int]:
        return np.flatnonzero(self.label_array() == c).tolist()

    def subset(self, indices: Sequence[int]) -> "ReferenceSet":
        return ReferenceSet(
            tuple(self.features[i] for i in indices),
            tuple(self.labels[i] for i in indices),
            self.class_count,
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LabeledDataset:
    """A reference (validation) split plus the test split to be labeled."""

    reference: ReferenceSet
    test_features: tuple[FeatureVector, ...]
    test_labels: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        d = self.reference.dimension
        for i, f in enumerate(self.test_features):
            if len(f) != d:
                raise ContractError(f"test feature {i} has dimension {len(f)}, expected {d}")
        if self.test_labels is not None:
            if len(self.test_labels) != len(self.test_features):
                raise ContractError("test_labels length does not match test_features")
            for y in self.test_labels:
                if not 0 <= y < self.reference.class_count:
                    raise SchemaError(f"test label {y} outside class range")


@dataclass(frozen=True)
class IngestionSchema:
    """Column layout and validation switches for dataset files."""

    label_column: str = "label"
    split_column: str = "split"
    feature_columns: Optional[tuple[str, ...]] = None  # default: f0..f{d-1} in header order
    class_count: Optional[int] = None  # default: max label + 1
    is_probability: bool = False
    default_split: Optional[str] = None  # role for files without a split column


def _finish_dataset(
    ref_rows, test_rows, test_labels, schema: IngestionSchema
) -> LabeledDataset:
    if not ref_rows:
        raise SchemaError("no reference ('val') rows found")
    labels = [y for _, y in ref_rows]
    observed = labels + [y for y in test_labels if y is not None]
    class_count = schema.class_count if schema.class_count is not None else max(observed) + 1
    if class_count < 2:
        class_count = 2
    reference = ReferenceSet.build([f for f, _ in ref_rows], labels, class_count)
    have_labels = test_labels and all(y is not None for y in test_labels)
    return LabeledDataset(
        reference,
        tuple(test_rows),
        tuple(int(y) for y in test_labels) if have_labels else None,
    )


def _parse_feature_row(raw: Sequence[str], row_no: int, schema: IngestionSchema) -> FeatureVector:
    try:
        f = FeatureVector.of(float(v) for v in raw)
    except (ValueError, ContractError) as exc:
        raise DatasetParseError(str(exc), row=row_no) from None
    if schema.is_probability:
        try:
            check_probability_simplex(f)
        except ValidationError as exc:
            raise ValidationError(f"row {row_no}: {exc}") from None
    return f


def _read_csv_rows(path: Path, schema: IngestionSchema):
    """Yield (feature, label-or-None, split) triples in file order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetParseError("empty file") from None
        header = [h.strip() for h in header]
        if schema.label_column not in header:
            raise SchemaError(f"header must contain {schema.label_column!r}: {header}")
        has_split = schema.split_column in header
        if not has_split and schema.default_split is None:
            raise SchemaError(f"header must contain {schema.split_column!r}: {header}")
        if schema.feature_columns is not None:
            feat_cols = list(schema.feature_columns)
            missing = [c for c in feat_cols if c not in header]
            if missing:
                raise SchemaError(f"feature columns missing from header: {missing}")
        else:
            feat_cols = [
                c for c in header if c not in (schema.label_column, schema.split_column)
            ]
        if not feat_cols:
            raise SchemaError("no feature columns in header")
        feat_idx = [header.index(c) for c in feat_cols]
        label_idx = header.index(schema.label_column)
        split_idx = header.index(schema.split_column) if has_split else None

        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DatasetParseError(
                    f"expected {len(header)} cells, got {len(row)}", row=row_no
                )
            f = _parse_feature_row([row[i] for i in feat_idx], row_no, schema)
            raw_label = row[label_idx].strip()
            label = None
            if raw_label not in ("", "?"):
                try:
                    label = int(raw_label)
                except ValueError:
                    raise DatasetParseError(f"non-integer label {raw_label!r}", row=row_no)
                if label < 0:
                    raise SchemaError(f"row {row_no}: negative label {label}")
                if schema.class_count is not None and label >= schema.class_count:
                    raise SchemaError(
                        f"row {row_no}: label {label} >= class_count {schema.class_count}"
                    )
            split = row[split_idx].strip() if split_idx is not None else schema.default_split
            if split not in ("val", "test"):
                raise SchemaError(f"row {row_no}: split must be 'val' or 'test', got {split!r}")
            yield f, label, split


def _load_csv(path: Path, schema: IngestionSchema) -> LabeledDataset:
    ref_rows, test_rows, test_labels = [], [], []
    for row_no_offset, (f, label, split) in enumerate(_read_csv_rows(path, schema)):
        if split == "val":
            if label is None:
                raise SchemaError(f"reference row {row_no_offset + 2} has no label")
            ref_rows.append((f, label))
        else:
            test_rows.append(f)
            test_labels.append(label)
    return _finish_dataset(ref_rows, test_rows, test_labels, schema)


def load_feature_rows(path, schema: IngestionSchema = IngestionSchema(default_split="val")):
    """Low-level loader: (features, labels) in file order, labels may be None."""
    path = Path(path)
    if not path.exists():
        raise DatasetParseError(f"no such file: {path}")
    rows = list(_read_csv_rows(path, schema))
    return [f for f, _, _ in rows], [y for _, y, _ in rows]


def _load_json(path: Path, schema: IngestionSchema) -> LabeledDataset:
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "reference" not in payload:
        raise SchemaError("JSON dataset must be an object with a 'reference' list")
    class_count = payload.get("class_count", schema.class_count)
    eff = IngestionSchema(
        class_count=class_count,
        is_probability=schema.is_probability,
    )
    ref_rows, test_rows, test_labels = [], [], []
    for i, item in enumerate(payload["reference"]):
        f = _parse_feature_row([str(v) for v in item["features"]], i, eff)
        label = int(item["label"])
        if label < 0 or (class_count is not None and label >= class_count):
            raise SchemaError(f"reference item {i}: label {label} out of range")
        ref_rows.append((f, label))
    for i, item in enumerate(payload.get("test", [])):
        test_rows.append(_parse_feature_row([str(v) for v in item["features"]], i, eff))
        test_labels.append(int(item["label"]) if "label" in item and item["label"] is not None else None)
    return _finish_dataset(ref_rows, test_rows, test_labels, eff)


def load_dataset(path, schema: IngestionSchema = IngestionSchema()) -> LabeledDataset:
    """Load a validated dataset from a CSV or JSON file, preserving row order."""
    path = Path(path)
    if not path.exists():
        raise DatasetParseError(f"no such file: {path}")
    if path.suffix.lower() == ".json":
        return _load_json(path, schema)
    return _load_csv(path, schema)


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write a dataset in the canonical CSV layout with full float precision."""
    path = Path(path)
    d = ds.reference.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["label", "split"])
        for f, y in zip(ds.reference.features, ds.reference.labels):
            writer.writerow([repr(v) for v in f.values] + [y, "val"])
        for i, f in enumerate(ds.test_features):
            label = "" if ds.test_labels is None else ds.test_labels[i]
            writer.writerow([repr(v) for v in f.values] + [label, "test"])


def derive_error_detection_set(
    reference_probs: Sequence[FeatureVector], reference_true: Sequence[int]
) -> ReferenceSet:
    """Binary reference set for error detection.

    Label 1 marks samples where the base classifier's argmax prediction
    disagrees with the true class ("prediction error"); label 0 marks
    correct predictions. Features are the probability vectors unchanged.
    """
    if len(reference_probs) != len(reference_true):
        raise ContractError(
            f"{len(reference_probs)} probability vectors vs {len(reference_true)} labels"
        )
    labels = [
        1 if argmax_index(p.values) != int(t) else 0
        for p, t in zip(reference_probs, reference_true)
    ]
    return ReferenceSet(tuple(reference_probs), tuple(labels), 2)
