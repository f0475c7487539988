"""The benchmark's own numpy versions of what the program computes.

Correctness checks compare the program's labels with these. They follow
the behaviour documented in transduct's docstrings (plan = per-class
representativeness ranking joined round-robin; local backend = cosine 1-NN
over the rendered Part 1 rows; UB-KNN bag b draws with
``default_rng(seed + b)``), but share no code with the program. Where two
candidates are within ``TIE_TOL`` of each other, the reference cannot say
which one the program's floating-point order picks, so the row is reported
as a tie and skipped.
"""

from __future__ import annotations

import numpy as np

TIE_TOL = 1e-9


def render(values: np.ndarray, decimals: int) -> np.ndarray:
    """Values as the prompt renders and parses them back (round-half-even on
    the exact binary value, as ``format(v, '.2f')`` does)."""
    spec = f".{decimals}f"
    flat = [float(format(v, spec)) for v in values.ravel().tolist()]
    return np.asarray(flat, dtype=np.float64).reshape(values.shape)


def render_line(row, decimals: int) -> str:
    return "[" + ", ".join(format(v, f".{decimals}f") for v in row) + "] is in class\n"


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def plan_indices(features: np.ndarray, labels: np.ndarray, classes: int, ratio: float) -> list[int]:
    """Selected reference indices in prompt order (interleaved plan).

    A row's representativeness is its cosine-affinity row sum, which equals
    ``u_i . sum_j u_j`` for unit rows u, so no m x m matrix is needed.
    """
    u = _unit(features)
    rep = u @ u.sum(axis=0)
    k = max(1, int(ratio * len(labels)))
    ranked = []
    for c in range(classes):
        members = np.flatnonzero(labels == c)
        ranked.append(members[np.lexsort((members, -rep[members]))].tolist())
    quota = [0] * classes
    while sum(quota) < k:
        for c in range(classes):
            if sum(quota) < k and quota[c] < len(ranked[c]):
                quota[c] += 1
    joined = [ranked[c][r] for r in range(max(quota)) for c in range(classes) if r < quota[c]]
    return joined[::-1]


def cosine_1nn(keys: np.ndarray, key_labels: np.ndarray, queries: np.ndarray, tol: float = TIE_TOL):
    """(labels, tie mask): label of the most cosine-similar key per query.

    A query is a tie when the best key of another label is within ``tol``.
    """
    sims = _unit(queries) @ _unit(keys).T
    best = sims.argmax(axis=1)
    labels = key_labels[best]
    other = np.where(key_labels[None, :] != labels[:, None], sims, -np.inf).max(axis=1)
    ties = sims[np.arange(len(best)), best] - other < tol
    return labels, ties


def ubknn(features, labels, queries, k: int, bags: int, seed: int):
    """(labels, tie mask) of UnderBagging cosine KNN for every query.

    Bag b draws, with ``default_rng(seed + b)``, a without-replacement
    sample of minority size from each class (in class order, members in
    ascending index), keeps the drawn indices sorted, and votes with the k
    nearest; vote ties go to the smaller class. A query is a tie when the
    k-th and (k+1)-th distances of some bag are within TIE_TOL and their
    labels differ.
    """
    classes = int(labels.max()) + 1
    members = [np.flatnonzero(labels == c) for c in range(classes)]
    minority = min(len(m) for m in members)
    q = _unit(queries)
    votes = np.zeros((len(queries), classes), dtype=np.int64)
    ties = np.zeros(len(queries), dtype=bool)
    cols = np.arange(len(queries))
    for bag in range(bags):
        rng = np.random.default_rng(seed + bag)
        idx = np.sort(np.concatenate([rng.choice(m, size=minority, replace=False) for m in members]))
        dist = 1.0 - _unit(features[idx]) @ q.T  # (sub, n)
        order = np.argsort(dist, axis=0, kind="stable")
        near = labels[idx][order[:k]]  # (k, n)
        counts = np.stack([(near == c).sum(axis=0) for c in range(classes)], axis=1)
        votes[cols, counts.argmax(axis=1)] += 1
        if len(idx) > k:
            gap = dist[order[k], cols] - dist[order[k - 1], cols]
            ties |= (gap < TIE_TOL) & (labels[idx][order[k]] != labels[idx][order[k - 1]])
    return votes.argmax(axis=1), ties


def balanced_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean recall over the classes present in the truth."""
    recalls = [float(np.mean(pred[truth == c] == c)) for c in np.unique(truth)]
    return sum(recalls) / len(recalls)


def confusion(pred: np.ndarray, truth: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(out, (truth, pred), 1)
    return out
