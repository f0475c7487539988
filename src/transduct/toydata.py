"""Seeded toy dataset generators (two moons, concentric circles).

Formulas:

* moons: class 0 on the upper half-circle (cos t, sin t), class 1 on the
  shifted lower half-circle (1 - cos t, 0.5 - sin t), t in [0, pi];
* circles: class 0 on the unit circle, class 1 on a circle of radius 0.5,
  angles evenly spaced over [0, 2pi).

Gaussian noise is added to both coordinates, then rows are shuffled with
the same seed. By default a norm-equalizing third coordinate
sqrt(R^2 - x^2 - y^2) (R = max row norm) is appended so that every row has
norm R: the pipeline's cosine similarity then ranks neighbors exactly like
euclidean distance, which keeps radius information visible on the
concentric-circles data (cosine alone sees only angles).
"""

from __future__ import annotations

import numpy as np

from .core import FeatureVector, LabeledDataset, ReferenceSet, as_feature_matrix
from .errors import ContractError


def _equalize_norms(X: np.ndarray) -> np.ndarray:
    radius = float(np.max(np.linalg.norm(X, axis=1)))
    extra = np.sqrt(np.maximum(radius**2 - (X**2).sum(axis=1), 0.0))
    return np.hstack([X, extra[:, None]])


def _finish(X: np.ndarray, y: np.ndarray, noise: float, rng: np.random.Generator, equalize: bool):
    if noise > 0:
        X = X + rng.normal(scale=noise, size=X.shape)
    perm = rng.permutation(len(X))
    X, y = X[perm], y[perm]
    if equalize:
        X = _equalize_norms(X)
    return [FeatureVector.of(row) for row in X], [int(v) for v in y]


def make_moons(n: int = 200, noise: float = 0.05, seed: int = 0, equalize_norms: bool = True):
    """Two interleaving half-circles; returns (features, labels)."""
    if n < 4:
        raise ContractError("need at least 4 samples")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    X = np.vstack(
        [
            np.column_stack([np.cos(t0), np.sin(t0)]),
            np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
        ]
    )
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return _finish(X, y, noise, rng, equalize_norms)


def make_circles(n: int = 200, noise: float = 0.05, seed: int = 0, equalize_norms: bool = True):
    """Two concentric circles, radii 1 and 0.5; returns (features, labels)."""
    if n < 4:
        raise ContractError("need at least 4 samples")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = np.linspace(0.0, 2 * np.pi, n0, endpoint=False)
    t1 = np.linspace(0.0, 2 * np.pi, n1, endpoint=False)
    X = np.vstack(
        [
            np.column_stack([np.cos(t0), np.sin(t0)]),
            0.5 * np.column_stack([np.cos(t1), np.sin(t1)]),
        ]
    )
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return _finish(X, y, noise, rng, equalize_norms)


def generate(dataset: str, n: int = 200, noise: float = 0.05, seed: int = 0, equalize_norms: bool = True):
    if dataset == "moons":
        return make_moons(n, noise, seed, equalize_norms)
    if dataset == "circles":
        return make_circles(n, noise, seed, equalize_norms)
    raise ContractError(f"unknown toy dataset {dataset!r}")


def split_dataset(features, labels, reference_fraction: float = 0.5) -> LabeledDataset:
    """Deterministic stratified split of two-class toy data: the first
    ``reference_fraction`` of each class (in row order) becomes the
    reference split."""
    if not 0 < reference_fraction < 1:
        raise ContractError("reference_fraction must be in (0, 1)")
    X, y = as_feature_matrix(features), np.asarray(labels)
    part = np.full(len(y), -1)  # 0: reference, 1: test, -1: neither class
    for c in range(2):
        members = np.flatnonzero(y == c)
        part[members] = np.arange(len(members)) >= int(len(members) * reference_fraction)
    return LabeledDataset(ReferenceSet.build(X[part == 0], y[part == 0], 2), X[part == 1], y[part == 1])
