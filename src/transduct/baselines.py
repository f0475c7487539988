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
from typing import Iterator, Literal, Union

import numpy as np

from .core import FeatureVector, ReferenceSet, checked_int, checked_rows, unit_cosines, unit_rows
from .errors import ContractError

# Cap on the bytes of the largest temporary a chunk of c test rows makes:
# the (c, G, g) distances gathered for G row groups of g rows (or the
# (c, m) distance block, if larger), or under euclidean the (c, m, d)
# differences; a chunk holds at least one row. At m = 4000, d = 10 one row
# per chunk was as fast as 2 to 16, whose blocks only add peak memory.
_CHUNK_BYTES = 1 << 17


@dataclass(frozen=True)
class KnnConfig:
    k_neighbors: int = 5
    metric: Literal["cosine", "euclidean"] = "cosine"

    def __post_init__(self):
        checked_int(self.k_neighbors, 1, "k_neighbors")
        if self.metric not in ("cosine", "euclidean"):
            raise ContractError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class UbKnnConfig:
    base: KnnConfig = field(default_factory=KnnConfig)
    n_bags: int = 11
    seed: int = 0

    def __post_init__(self):
        checked_int(self.n_bags, 1, "n_bags")
        checked_int(self.seed, 0, "seed")


def _vote(D: np.ndarray, groups: np.ndarray, y: np.ndarray, k: int, class_count: int) -> np.ndarray:
    """``(c, G)`` majority labels (``y``) of the k nearest rows of each row
    group (``groups``: ``(G, g)`` indices) for each row of the ``(c, m)``
    distances ``D``. The rows at or below each k-th distance
    (``np.partition``) are the k nearest unless ties leave more; only those
    are then stable-sorted, so a distance tie goes to the row earlier in
    its group. Vote ties go to the smaller class."""
    (c, _), (G, g), C = D.shape, groups.shape, class_count
    Dg = D[:, groups]
    near = Dg <= np.partition(Dg, k - 1, axis=2)[:, :, k - 1, None]
    hit = np.flatnonzero(near)
    block = hit // g  # q * G + group
    votes = np.bincount(block * C + y[groups.ravel()[hit % (G * g)]], minlength=c * G * C).reshape(-1, C)
    for b in np.flatnonzero(np.bincount(block, minlength=c * G) > k):
        q, group = divmod(int(b), G)
        rows = groups[group, near[q, group]]
        rows = rows[np.argsort(D[q, rows], kind="stable")[:k]]
        votes[b] = np.bincount(y[rows], minlength=C)
    return np.argmax(votes, axis=1).reshape(c, G)


def _distances(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The ``(c, m)`` euclidean distances of the rows ``Q`` to the rows ``X``, as each row ranks them. A
    row ``q`` with a distance that overflows (``[1e200, 9e200]``, whose differences to rows near the origin
    all round to ``-q``) is ranked by ``|x/s|^2 - 2 (q/s).(x/s)``, with ``s`` ``q``'s largest magnitude or
    ``X``'s over 2**400 if larger, so no square overflows; every other row keeps its distances' bits."""
    with np.errstate(over="ignore"):
        D = np.linalg.norm(X - Q[:, None, :], axis=2)
    big = ~np.isfinite(D).all(axis=1)
    if big.any():
        s = np.maximum(np.abs(Q[big]).max(axis=1), np.abs(X).max() * 2.0**-400)[:, None, None]
        Xs = X / s
        D[big] = (Xs * (Xs - 2 * (Q[big][:, None, :] / s))).sum(axis=2)
    return D


def _labels(ref: ReferenceSet, queries, groups: np.ndarray, k: int, metric: str, used) -> Iterator[int]:
    """Each query's label (queries: an ``(n, d)`` matrix or FeatureVectors),
    in order, a chunk at a time (:data:`_CHUNK_BYTES`): the majority over
    ``ref``'s row groups (``groups``: ``(G, g)`` indices, a group per row in
    vote order) of each group's k-NN label. Distances are row-wise, so they
    do not depend on the chunk. Under cosine a zero-norm row among ``used``
    raises first, then any query that :func:`checked_rows` rejects, before
    the first label."""
    U = ref.unit_rows(used) if metric == "cosine" else None
    X = ref.feature_matrix()
    m, d = X.shape
    Q = checked_rows(queries, d, cosine=U is not None)
    classes = np.arange(ref.class_count)
    step = max(1, _CHUNK_BYTES // (8 * max(groups.size, m * d if U is None else m)))
    for start in range(0, len(Q), step):
        chunk = Q[start : start + step]
        if U is None:
            D = _distances(X, chunk)
        else:
            D = 1.0 - unit_cosines(U, unit_rows(chunk))
        votes = _vote(D, groups, ref.label_array(), k, ref.class_count)[:, :, None] == classes
        yield from np.argmax(np.count_nonzero(votes, axis=1), axis=1).tolist()


def batch_classify(ref: ReferenceSet, queries, cfg: Union[KnnConfig, UbKnnConfig]) -> Iterator[int]:
    """:func:`knn_classify` (or, for a UbKnnConfig, :func:`ubknn_classify`)
    of each query (an ``(n, d)`` matrix or FeatureVectors), in order."""
    if isinstance(cfg, UbKnnConfig):
        bags = _bags(ref, cfg)
        return _labels(ref, queries, bags.rows, cfg.base.k_neighbors, cfg.base.metric, bags.drawn)
    if cfg.k_neighbors > ref.size:
        raise ContractError(f"k_neighbors {cfg.k_neighbors} > reference size {ref.size}")
    all_rows = np.arange(ref.size)[None, :]
    return _labels(ref, queries, all_rows, cfg.k_neighbors, cfg.metric, slice(None))


def knn_classify(ref: ReferenceSet, f_test: FeatureVector, cfg: KnnConfig = KnnConfig()) -> int:
    """Majority vote among the k nearest references; vote ties go to the
    smaller class index, distance ties to the smaller sample index."""
    return next(batch_classify(ref, [f_test], cfg))


def nearest_label(ref: ReferenceSet, f_test, rows) -> int:
    """Label of the cosine-nearest of ``ref``'s rows ``rows`` (an index array or sequence); distance
    ties go to the row listed first. Equals ``knn_classify(ref.subset(rows), f_test, KnnConfig(1,
    "cosine"))``, errors and their order included, without building the subset: it scores only
    ``rows``, O(k d) for k rows."""
    rows = np.asarray(rows, dtype=np.intp)
    U = ref.unit_rows(rows)[rows]  # a zero-norm listed row raises first
    q = unit_rows(checked_rows([f_test], ref.dimension, cosine=True))
    return int(ref.label_array()[rows[np.argmin(1.0 - unit_cosines(U, q)[0])]])


@dataclass(frozen=True)
class _Bags:
    rows: np.ndarray  # (n_bags, bag size): each bag's reference indices, ascending
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
    for bag in range(cfg.n_bags):
        rng = np.random.default_rng(cfg.seed + bag)
        chosen = np.concatenate([rng.choice(m, size=minority, replace=False) for m in members])
        rows.append(np.sort(chosen))
    rows = np.stack(rows)
    drawn = np.zeros(ref.size, dtype=bool)
    drawn[rows] = True
    bags = _Bags(rows, drawn)
    ref._derived[key] = bags
    return bags


def ubknn_classify(
    ref: ReferenceSet, f_test: FeatureVector, cfg: UbKnnConfig = UbKnnConfig()
) -> int:
    """Majority vote of KNN over n_bags class-balanced undersamples; each
    bag votes the label KNN on its subset would."""
    return next(batch_classify(ref, [f_test], cfg))
