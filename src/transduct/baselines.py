"""Transductive baselines: KNN and class-balanced UnderBagging KNN.

UnderBagging draws, per bag, a without-replacement undersample of every
class down to the minority-class size, runs KNN on the balanced subsample,
and majority-votes across bags. Bag b uses seed ``seed + b`` so runs are
reproducible and bags independent. The bags depend only on the reference
set, ``n_bags`` and ``seed``, so they are drawn once per reference set and
config and kept on the reference set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import FeatureVector, ReferenceSet, cosine_scores, unit_rows
from .errors import ContractError


@dataclass(frozen=True)
class KnnConfig:
    k_neighbors: int = 5
    metric: Literal["cosine", "euclidean"] = "cosine"

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ContractError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.metric not in ("cosine", "euclidean"):
            raise ContractError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class UbKnnConfig:
    base: KnnConfig = field(default_factory=KnnConfig)
    n_bags: int = 11
    seed: int = 0

    def __post_init__(self):
        if self.n_bags < 1:
            raise ContractError(f"n_bags must be >= 1, got {self.n_bags}")


def _distances(
    ref: ReferenceSet, f_test: FeatureVector, metric: str, used=slice(None)
) -> np.ndarray:
    """Distance from ``f_test`` to every row of ``ref``'s feature matrix.

    Both kernels work row by row (``einsum`` in :func:`core.cosine_scores`,
    not a BLAS matrix-vector product), so a row's distance does not depend
    on the rows around it: a subset of the matrix gets the same values as
    the full matrix, and identical rows get identical distances. Under
    cosine, a zero-norm query or a zero-norm row among the ``used`` rows
    (an index array or a row mask) raises DegenerateInputError; zero-norm
    rows outside ``used`` get a NaN distance.
    """
    X = ref.feature_matrix()
    if metric == "cosine":
        return 1.0 - cosine_scores(unit_rows(X, used), f_test)
    if len(f_test) != ref.dimension:
        raise ContractError("test feature dimension mismatch")
    return np.linalg.norm(X - f_test.as_array(), axis=1)


def _vote(dist: np.ndarray, labels: np.ndarray, k: int, class_count: int) -> int:
    """Majority label of the k smallest distances; distance ties go to the
    earlier position, vote ties to the smaller class."""
    nearest = np.argsort(dist, kind="stable")[:k]
    return int(np.argmax(np.bincount(labels[nearest], minlength=class_count)))


def knn_classify(ref: ReferenceSet, f_test: FeatureVector, cfg: KnnConfig = KnnConfig()) -> int:
    """Majority vote among the k nearest references; vote ties go to the
    smaller class index, distance ties to the smaller sample index."""
    if cfg.k_neighbors > ref.size:
        raise ContractError(f"k_neighbors {cfg.k_neighbors} > reference size {ref.size}")
    dist = _distances(ref, f_test, cfg.metric)
    return _vote(dist, ref.label_array(), cfg.k_neighbors, ref.class_count)


def nearest_label(ref: ReferenceSet, f_test: FeatureVector, rows) -> int:
    """Label of the cosine-nearest of ``ref``'s rows ``rows``; distance ties
    go to the row listed first. Equals ``knn_classify(ref.subset(rows),
    f_test, KnnConfig(1, "cosine"))`` without building the subset."""
    rows = np.asarray(rows, dtype=np.intp)
    dist = _distances(ref, f_test, "cosine", rows)
    return _vote(dist[rows], ref.label_array()[rows], 1, ref.class_count)


@dataclass(frozen=True)
class _Bags:
    rows: tuple[np.ndarray, ...]  # each bag's reference indices, ascending
    labels: tuple[np.ndarray, ...]  # their labels
    drawn: np.ndarray  # row mask: held by some bag


def _bags(ref: ReferenceSet, cfg: UbKnnConfig) -> _Bags:
    """The class-balanced undersamples of ``ref`` for ``cfg``, drawn on the
    first call and kept on ``ref`` (they depend on nothing else)."""
    key = ("ubknn_bags", cfg)
    bags = ref._derived.get(key)
    if bags is not None:
        return bags
    y = ref.label_array()
    members = [np.flatnonzero(y == c) for c in range(ref.class_count)]
    sizes = [len(m) for m in members]
    if min(sizes) == 0:
        raise ContractError(f"every class must be non-empty, sizes: {sizes}")
    minority = min(sizes)
    if cfg.base.k_neighbors > minority * ref.class_count:
        raise ContractError(
            f"k_neighbors {cfg.base.k_neighbors} exceeds balanced subsample size"
        )
    rows = []
    drawn = np.zeros(ref.size, dtype=bool)
    for bag in range(cfg.n_bags):
        rng = np.random.default_rng(cfg.seed + bag)
        chosen = np.concatenate([rng.choice(m, size=minority, replace=False) for m in members])
        rows.append(np.sort(chosen))
        drawn[chosen] = True
    bags = _Bags(tuple(rows), tuple(y[r] for r in rows), drawn)
    ref._derived[key] = bags
    return bags


def ubknn_classify(
    ref: ReferenceSet, f_test: FeatureVector, cfg: UbKnnConfig = UbKnnConfig()
) -> int:
    """Majority vote of KNN over n_bags class-balanced undersamples.

    The bags are drawn once per reference set and config; each call
    computes one distance vector over all rows and votes within every bag,
    which gives the label that KNN on each bag's subset would.
    """
    bags = _bags(ref, cfg)
    dist = _distances(ref, f_test, cfg.base.metric, bags.drawn)
    votes = np.zeros(ref.class_count, dtype=int)
    for rows, labels in zip(bags.rows, bags.labels):
        votes[_vote(dist[rows], labels, cfg.base.k_neighbors, ref.class_count)] += 1
    return int(np.argmax(votes))
