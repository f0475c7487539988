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

from .core import FeatureVector, LabeledDataset, ReferenceSet, as_feature_matrix, checked_int, checked_real, checked_switch, read_labels
from .errors import ContractError


def _equalize_norms(X: np.ndarray) -> np.ndarray:
    radius = float(np.max(np.linalg.norm(X, axis=1)))
    extra = np.sqrt(np.maximum(radius**2 - (X**2).sum(axis=1), 0.0))
    return np.hstack([X, extra[:, None]])


def generate(dataset: str, n: int = 200, noise: float = 0.05, seed: int = 0, equalize_norms: bool = True):
    """The ``"moons"`` or ``"circles"`` set of ``n`` rows, ``n // 2`` of class 0 and the rest of
    class 1, by the formulas above; returns (features, labels)."""
    if dataset not in ("moons", "circles"):
        raise ContractError(f"unknown toy dataset {dataset!r}")
    n = checked_int(n, 4, "n", high=2**20)  # a row is a FeatureVector: 2**20 take about 0.3 GB and half a minute
    noise = checked_real(noise, "noise", closed=False, zero=True)  # a finite real >= 0; 0 gives the noiseless set
    rng, circles = np.random.default_rng(checked_int(seed, 0, "seed")), dataset == "circles"
    t0, t1 = (np.linspace(0.0, 2 * np.pi if circles else np.pi, size, endpoint=not circles) for size in (n // 2, n - n // 2))
    class0 = np.column_stack([np.cos(t0), np.sin(t0)])
    class1 = 0.5 * np.column_stack([np.cos(t1), np.sin(t1)]) if circles else np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    X, y = np.vstack([class0, class1]), np.repeat([0, 1], [len(class0), len(class1)])
    if noise > 0:
        X = X + rng.normal(scale=noise, size=X.shape)
    perm = rng.permutation(len(X))
    X, y = X[perm], y[perm]
    if checked_switch(equalize_norms, "equalize_norms"):
        X = _equalize_norms(X)
    return [FeatureVector.of(row) for row in X], [int(v) for v in y]


def split_dataset(features, labels, reference_fraction: float = 0.5) -> LabeledDataset:
    """Deterministic stratified split of two-class toy data: the first
    ``reference_fraction`` of each class (in row order) becomes the
    reference split. The labels are read by :func:`read_labels`, one per
    row and each 0 or 1."""
    checked_real(reference_fraction, "reference_fraction", 1.0, closed=False)
    X = as_feature_matrix(features)
    y = read_labels(labels, len(X), 2)
    test = np.zeros(len(y), dtype=bool)
    for c in range(2):
        members = np.flatnonzero(y == c)
        test[members] = np.arange(len(members)) >= int(len(members) * reference_fraction)
    return LabeledDataset(ReferenceSet.build(X[~test], y[~test], 2), X[test], y[test])
