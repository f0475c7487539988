"""Use-case pipelines and evaluation metrics.

Two pipelines wrap an already-trained base classifier whose output
probabilities are available for a labeled validation split and for the
test split:

* error detection: label each test prediction as correct (0) or wrong (1),
  using the validation split's correctness labels as the reference set;
* accuracy improvement: re-predict the test samples' classes directly,
  using the validation probabilities with their true labels as the
  reference set.

The selection plan depends only on the reference set, so it is computed
once per run and shared by every test sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, Literal, Optional, Sequence, Union

import numpy as np

from . import backends as backends_mod
from .baselines import KnnConfig, UbKnnConfig, batch_classify
from .core import FeatureVector, ReferenceSet, checked_int, checked_rows
from .core import derive_error_detection_set, inferred_class_count, read_labels
from .errors import ContractError
from .prompt import SerializationConfig
from .selection import build_plan

Method = Literal["prompt", "knn", "ubknn"]
# probability vectors: an (m, d) array or a sequence of FeatureVectors
Probs = Union[np.ndarray, Sequence[FeatureVector]]


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts plus the derived classification metrics.

    ``confusion[t][p]`` counts test samples of true class t predicted as p.
    Per-class accuracy is per-class recall; balanced accuracy is its mean
    over classes that actually occur in the truth. Precision, recall and
    F-score are reported for binary tasks only, with respect to the
    configured positive class.
    """

    confusion: tuple[tuple[int, ...], ...]
    per_class_accuracy: tuple[float, ...]
    balanced_accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f_score: Optional[float]
    fallback_count: int
    n_test: int


def _check_evaluable(n: int, class_count: int, positive_class: int) -> None:
    """An evaluation needs some samples, at most 4,096 classes (a C x C confusion matrix) and a positive class among them."""
    checked_int(class_count, 2, "class_count", high=4096)
    if n == 0:
        raise ContractError("cannot evaluate an empty prediction set")
    if isinstance(positive_class, bool) or not (isinstance(positive_class, Integral) and 0 <= positive_class < class_count):
        raise ContractError(f"positive_class {positive_class!r} outside [0, {class_count})")


def compute_metrics(
    predictions: Sequence[int],
    truths: Sequence[int],
    class_count: int,
    positive_class: int = 1,
    fallback_count: int = 0,
) -> EvalReport:
    """Confusion matrix and derived metrics for one evaluation run: ``predictions``
    and ``truths`` are labels of the same samples (see :func:`~transduct.core.read_labels`)."""
    class_count = checked_int(class_count, 2, "class_count")
    p = read_labels(predictions, None, class_count, "prediction")
    t = read_labels(truths, len(p), class_count, "truth")
    _check_evaluable(len(p), class_count, positive_class)
    confusion = np.bincount(t * class_count + p, minlength=class_count**2).reshape(class_count, -1).tolist()
    support = [sum(row) for row in confusion]
    per_class = [row[c] / n if n else 0.0 for c, (row, n) in enumerate(zip(confusion, support))]
    present = [r for r, n in zip(per_class, support) if n]
    balanced = sum(present) / len(present)
    precision = recall = f_score = None
    if class_count == 2:
        pos, neg = positive_class, 1 - positive_class
        tp, fp, fn = confusion[pos][pos], confusion[neg][pos], confusion[pos][neg]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        confusion=tuple(tuple(row) for row in confusion),
        per_class_accuracy=tuple(per_class),
        balanced_accuracy=balanced,
        precision=precision,
        recall=recall,
        f_score=f_score,
        fallback_count=fallback_count,
        n_test=len(p),
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs besides the data. ``knn`` sets k and
    the metric of both baselines; ``bags`` and ``seed`` are UB-KNN's."""

    method: Method = "prompt"
    selection_ratio: float = 0.25
    interleave_by_class: bool = True
    positive_class: int = 1
    backend: backends_mod.BackendConfig = field(default_factory=backends_mod.BackendConfig)
    serialization: SerializationConfig = field(default_factory=SerializationConfig)
    knn: KnnConfig = field(default_factory=KnnConfig)
    bags: int = 11
    seed: int = 0


def predict(
    ref: ReferenceSet, test_X: Probs, cfg: RunConfig
) -> Iterator[tuple[int, Optional[backends_mod.ClassifyAudit]]]:
    """Each test sample's label, in order, with its ClassifyAudit for the
    ``prompt`` method (None for ``knn`` and ``ubknn``).

    ``test_X`` (an ``(n, d)`` matrix or FeatureVectors) is checked once. The
    prompt method checks it, then builds the plan and the backend for the
    first sample, and classifies each row of the checked matrix with one
    ``backends.classify`` call; the baselines classify a few rows at a time.
    Under every method a bad test row (another dimension, a non-finite value
    or, where a cosine ranks it, zero norm; see
    :func:`~transduct.core.checked_rows`) raises before the first label, naming
    its test index: the prompt method builds no plan and sends no request.
    """
    if cfg.method == "prompt":
        Q = checked_rows(test_X, ref.dimension, cosine=True)
        plan = build_plan(ref, cfg.selection_ratio, cfg.interleave_by_class)
        backend = backends_mod.make_backend(cfg.backend)
        for row in Q:
            yield backends_mod.classify(ref, row, plan, backend, cfg.serialization)
    elif cfg.method in ("knn", "ubknn"):
        method_cfg = cfg.knn if cfg.method == "knn" else UbKnnConfig(cfg.knn, cfg.bags, cfg.seed)
        for label in batch_classify(ref, test_X, method_cfg):
            yield label, None
    else:
        raise ContractError(f"unknown method {cfg.method!r}")


def _run(
    ref: ReferenceSet,
    test_X: np.ndarray,
    truths: Sequence[int],
    cfg: RunConfig,
) -> EvalReport:
    results = list(predict(ref, test_X, cfg))
    return compute_metrics(
        [label for label, _ in results],
        truths,
        ref.class_count,
        positive_class=cfg.positive_class,
        fallback_count=sum(audit is not None and audit.fallback for _, audit in results),
    )


def run_error_detection(
    val_probs: Probs,
    val_true: Sequence[int],
    test_probs: Probs,
    test_true: Sequence[int],
    cfg: RunConfig = RunConfig(),
) -> EvalReport:
    """Detect base-classifier mistakes on the test split.

    Ground truth for scoring is whether the base classifier's argmax on
    each test probability vector disagrees with the true class, one of its
    d columns. Every test row (:func:`~transduct.core.checked_rows`), label
    and ``cfg.positive_class`` is checked before the first sample is predicted.
    """
    ref = derive_error_detection_set(val_probs, val_true)
    T = checked_rows(test_probs, ref.dimension, cosine=False)
    test_y = read_labels(test_true, len(T), ref.dimension, "test label")
    _check_evaluable(len(test_y), ref.class_count, cfg.positive_class)
    return _run(ref, T, (np.argmax(T, axis=1) != test_y).astype(np.int64), cfg)


def base_classifier_report(
    test_probs: Probs,
    test_true: Sequence[int],
    class_count: int,
    positive_class: int = 1,
) -> EvalReport:
    """Metrics of the unmodified base classifier: the argmax of each test row (of ``class_count`` values)."""
    T = checked_rows(test_probs, checked_int(class_count, 2, "class_count"), cosine=False)
    return compute_metrics(np.argmax(T, axis=1), test_true, class_count, positive_class)


def run_accuracy_improvement(
    val_probs: Probs,
    val_true: Sequence[int],
    test_probs: Probs,
    test_true: Sequence[int],
    cfg: RunConfig = RunConfig(),
    class_count: Optional[int] = None,
) -> tuple[EvalReport, EvalReport]:
    """Re-predict test labels from validation references.

    Returns (adjusted report, base argmax report) so the adjustment can be
    compared against leaving the classifier untouched. Every test row, every
    label, the class count and ``cfg.positive_class`` are checked before the
    first test sample is predicted.
    """
    val_y, test_y = read_labels(val_true), read_labels(test_true, noun="test label")
    ref = ReferenceSet(val_probs, val_y, inferred_class_count(val_y, test_y) if class_count is None else class_count)
    if ref.dimension != ref.class_count:
        raise ContractError(
            f"accuracy improvement expects one probability per class: features"
            f" have {ref.dimension} values but there are {ref.class_count} classes"
        )
    T = checked_rows(test_probs, ref.dimension, cosine=False)
    test_y = read_labels(test_y, len(T), ref.class_count, "test label")
    _check_evaluable(len(test_y), ref.class_count, cfg.positive_class)
    report = _run(ref, T, test_y, cfg)
    return report, base_classifier_report(T, test_y, ref.class_count, cfg.positive_class)
