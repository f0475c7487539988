"""Seeded simulated base-classifier outputs in transduct's canonical CSV layout.

Each row is the probability vector a trained C-class classifier emitted for
one sample. The generator fixes, per split, exactly how many rows the base
classifier gets wrong, so the error (minority) share is the same for every
seed. A row's vector is drawn from a Dirichlet distribution whose
concentration is raised on the predicted class (more for correct
predictions than for wrong ones) and, for wrong predictions, on the true
class as runner-up. The entries are then permuted so that the argmax is the
predicted class.

The CSV (``f0..f{C-1}``, ``label``, ``split``) is written here with the
benchmark's own code, not with ``transduct.save_dataset``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Split:
    probs: np.ndarray  # (rows, C) float64, each row on the simplex
    truth: np.ndarray  # (rows,) int64 true class
    pred: np.ndarray  # (rows,) int64 base-classifier argmax

    @property
    def wrong(self) -> np.ndarray:
        return (self.pred != self.truth).astype(np.int64)


def _split(rng: np.random.Generator, rows: int, p: dict) -> Split:
    classes = p["classes"]
    truth = np.arange(rows) % classes
    rng.shuffle(truth)
    wrong = np.zeros(rows, dtype=bool)
    wrong[rng.permutation(rows)[: round((1.0 - p["accuracy"]) * rows)]] = True
    pred = np.where(wrong, (truth + rng.integers(1, classes, size=rows)) % classes, truth)
    alpha = np.full((rows, classes), p["concentration"])
    alpha[np.arange(rows), pred] += np.where(wrong, p["peak_wrong"], p["peak_correct"])
    alpha[np.flatnonzero(wrong), truth[wrong]] += p["runner_up"]
    gamma = rng.standard_gamma(alpha)
    probs = gamma / gamma.sum(axis=1, keepdims=True)
    top = probs.argmax(axis=1)
    r = np.arange(rows)
    probs[r, top], probs[r, pred] = probs[r, pred], probs[r, top]
    return Split(probs, truth, pred)


def generate(seed: int, p: dict) -> tuple[Split, Split]:
    """(reference split, test split) for one workload's generator parameters."""
    rng = np.random.default_rng(seed)
    return _split(rng, p["val_rows"], p), _split(rng, p["test_rows"], p)


def write_csv(path, val: Split, test: Split, test_labels: bool) -> None:
    classes = val.probs.shape[1]
    lines = [",".join([f"f{i}" for i in range(classes)] + ["label", "split"])]
    for row, y in zip(val.probs.tolist(), val.truth.tolist()):
        lines.append(",".join(map(repr, row)) + f",{y},val")
    for row, y in zip(test.probs.tolist(), test.truth.tolist()):
        lines.append(",".join(map(repr, row)) + (f",{y},test" if test_labels else ",,test"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
