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

from .core import FeatureVector, LabeledDataset, ReferenceSet, as_feature_matrix, checked_int, checked_real, checked_switch
from .errors import ContractError


def _equalize_norms(X: np.ndarray) -> np.ndarray:
    radius = float(np.max(np.linalg.norm(X, axis=1)))
    extra = np.sqrt(np.maximum(radius**2 - (X**2).sum(axis=1), 0.0))
    return np.hstack([X, extra[:, None]])


def _two_classes(n, seed, full_turn: bool):
    """The generator of ``seed`` and the angles of the two classes of ``n`` rows: ``n // 2``
    and the rest, evenly spaced over [0, pi] or, with ``full_turn``, [0, 2pi)."""
    n = checked_int(n, 4, "n", high=2**20)  # a row is a FeatureVector: 2**20 take about 0.3 GB and half a minute
    rng, stop = np.random.default_rng(checked_int(seed, 0, "seed")), 2 * np.pi if full_turn else np.pi
    return rng, *(np.linspace(0.0, stop, size, endpoint=not full_turn) for size in (n // 2, n - n // 2))


def _finish(class0: np.ndarray, class1: np.ndarray, noise: float, rng: np.random.Generator, equalize: bool):
    X, y = np.vstack([class0, class1]), np.repeat([0, 1], [len(class0), len(class1)])
    if noise > 0:
        X = X + rng.normal(scale=noise, size=X.shape)
    perm = rng.permutation(len(X))
    X, y = X[perm], y[perm]
    if checked_switch(equalize, "equalize_norms"):
        X = _equalize_norms(X)
    return [FeatureVector.of(row) for row in X], [int(v) for v in y]


def make_moons(n: int = 200, noise: float = 0.05, seed: int = 0, equalize_norms: bool = True):
    """Two interleaving half-circles; returns (features, labels)."""
    rng, t0, t1 = _two_classes(n, seed, full_turn=False)
    upper, lower = np.column_stack([np.cos(t0), np.sin(t0)]), np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    return _finish(upper, lower, noise, rng, equalize_norms)


def make_circles(n: int = 200, noise: float = 0.05, seed: int = 0, equalize_norms: bool = True):
    """Two concentric circles, radii 1 and 0.5; returns (features, labels)."""
    rng, t0, t1 = _two_classes(n, seed, full_turn=True)
    outer, inner = np.column_stack([np.cos(t0), np.sin(t0)]), 0.5 * np.column_stack([np.cos(t1), np.sin(t1)])
    return _finish(outer, inner, noise, rng, equalize_norms)


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
    checked_real(reference_fraction, "reference_fraction", 1.0, closed=False)
    X, y = as_feature_matrix(features), np.asarray(labels)
    part = np.full(len(y), -1)  # 0: reference, 1: test, -1: neither class
    for c in range(2):
        members = np.flatnonzero(y == c)
        part[members] = np.arange(len(members)) >= int(len(members) * reference_fraction)
    return LabeledDataset(ReferenceSet.build(X[part == 0], y[part == 0], 2), X[part == 1], y[part == 1])
