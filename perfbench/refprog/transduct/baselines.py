"""Transductive baselines: KNN and class-balanced UnderBagging KNN.

UnderBagging draws, per bag, a without-replacement undersample of every
class down to the minority-class size, runs KNN on the balanced subsample,
and majority-votes across bags. Bag b uses seed ``seed + b`` so runs are
reproducible and bags independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import FeatureVector, ReferenceSet
from .errors import ContractError, DegenerateInputError


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


def _distances(ref: ReferenceSet, f_test: FeatureVector, metric: str) -> np.ndarray:
    X = ref.feature_matrix()
    q = f_test.as_array()
    if metric == "euclidean":
        return np.linalg.norm(X - q, axis=1)
    norms = np.linalg.norm(X, axis=1)
    qn = np.linalg.norm(q)
    if qn == 0.0 or np.any(norms == 0.0):
        raise DegenerateInputError("cosine distance undefined for zero-norm vectors")
    return 1.0 - (X @ q) / (norms * qn)


def knn_classify(ref: ReferenceSet, f_test: FeatureVector, cfg: KnnConfig = KnnConfig()) -> int:
    """Majority vote among the k nearest references; vote ties go to the
    smaller class index, distance ties to the smaller sample index."""
    if cfg.k_neighbors > ref.size:
        raise ContractError(f"k_neighbors {cfg.k_neighbors} > reference size {ref.size}")
    if len(f_test) != ref.dimension:
        raise ContractError("test feature dimension mismatch")
    dist = _distances(ref, f_test, cfg.metric)
    nearest = np.argsort(dist, kind="stable")[: cfg.k_neighbors]
    votes = np.bincount([ref.labels[i] for i in nearest], minlength=ref.class_count)
    return int(np.argmax(votes))


def ubknn_classify(
    ref: ReferenceSet, f_test: FeatureVector, cfg: UbKnnConfig = UbKnnConfig()
) -> int:
    """Majority vote of KNN over n_bags class-balanced undersamples."""
    sizes = [len(ref.class_members(c)) for c in range(ref.class_count)]
    if min(sizes) == 0:
        raise ContractError(f"every class must be non-empty, sizes: {sizes}")
    minority = min(sizes)
    if cfg.base.k_neighbors > minority * ref.class_count:
        raise ContractError(
            f"k_neighbors {cfg.base.k_neighbors} exceeds balanced subsample size"
        )
    votes = np.zeros(ref.class_count, dtype=int)
    members = [np.asarray(ref.class_members(c)) for c in range(ref.class_count)]
    for bag in range(cfg.n_bags):
        rng = np.random.default_rng(cfg.seed + bag)
        chosen = np.concatenate(
            [rng.choice(members[c], size=minority, replace=False) for c in range(ref.class_count)]
        )
        sub = ref.subset(sorted(int(i) for i in chosen))
        votes[knn_classify(sub, f_test, cfg.base)] += 1
    return int(np.argmax(votes))
