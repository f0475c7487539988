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

from .core import FeatureVector, ReferenceSet, _scaled_rows, checked_int, checked_rows, unit_cosines, unit_rows
from .errors import ContractError

# Cap on the bytes of the largest temporary a chunk of c test rows makes:
# the (c, u) distances to the u used rows, or under euclidean the (c, m, d)
# differences; a chunk holds at least one row. Each row's vote then works
# on its own prefix, one row at a time.
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
        checked_int(self.n_bags, 1, "n_bags", high=4096)  # each a seeded draw and a byte per reference row
        checked_int(self.seed, 0, "seed")


def _vote(D: np.ndarray, members: np.ndarray, y: np.ndarray, k: int, class_count: int, width: int) -> np.ndarray:
    """``(c, G)`` majority labels (``y``) of the k nearest columns each row group holds (``members``:
    a ``(G, u)`` mask) for each row of the ``(c, u)`` distances ``D``. A row ranks only its prefix: its
    ``width`` nearest columns and every column tied with the last of them, stable-sorted, so a distance
    tie goes to the earlier column. Each group takes its first k members of the prefix; while some
    group holds fewer, the row's prefix widens fourfold, up to all u columns, so every label is the
    one a full sort gives. Vote ties go to the smaller class."""
    (c, u), (G, _), C = D.shape, members.shape, class_count
    labels = np.empty((c, G), dtype=np.intp)
    for i, row in enumerate(D):
        w = width
        while True:
            near = np.flatnonzero(row <= np.partition(row, w - 1)[w - 1]) if w < u else np.arange(u)
            near = near[np.argsort(row[near], kind="stable")]
            held = members[:, near]
            rank = np.cumsum(held, axis=1)
            if w >= u or rank[:, -1].min() >= k:
                break
            w *= 4
        group, at = np.nonzero(held & (rank <= k))
        labels[i] = np.argmax(np.bincount(group * C + y[near[at]], minlength=G * C).reshape(G, C), axis=1)
    return labels


def _distances(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The ``(c, m)`` euclidean distances of the rows ``Q`` to the rows ``X``, as each row ``q`` ranks them: their logs
    where :func:`~transduct.core._scaled_rows` scales one of ``q``'s difference rows. Where ``q`` is over 2**26 times
    its nearest row (``x - q`` then keeps under 27 of ``x``'s 53 bits: ``[1e17, 9e17]``) or a difference is past the
    float range, ``log(|x - q| / |q|)``, for such a row and each under the bound as ``log1p((|x/t|^2 - 2 (q/t).(x/t))
    / |q/t|^2) / 2``, ``t`` ``q``'s largest magnitude. Every other row keeps its distances' bits."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # handled below; log(0) is -inf
        _, s, D = _scaled_rows(X - Q[:, None, :])
        keyed = (s != 1.0).any(axis=1)
        D[keyed] = np.log(s[keyed]) + np.log(D[keyed])
        t = np.abs(Q).max(axis=1, keepdims=True)  # q's largest magnitude
        far = np.isnan(D).any(axis=1) | (np.abs(X[D.argmin(axis=1)]).max(axis=1) * 2.0**26 < t[:, 0])
        if far.any():
            Xs, Qs = X / t[far, None], Q[far, None] / t[far, None]
            N = (Qs * Qs).sum(axis=2)  # |q/t|^2
            L = np.where(keyed[far, None], D[far], np.log(D[far])) - np.log(t[far]) - np.log(N) / 2
            F = np.log1p((Xs * (Xs - 2 * Qs)).sum(axis=2) / N) / 2
            D[far] = np.where(np.isnan(L) | (np.abs(X).max(axis=1) * 2.0**26 < t[far]), F, L)
    return D


def _labels(ref: ReferenceSet, queries, cols, members: np.ndarray, k: int, metric: str) -> Iterator[int]:
    """Each query's label (queries: an ``(n, d)`` matrix or FeatureVectors),
    in order, a chunk at a time (:data:`_CHUNK_BYTES`): the majority over
    row groups (``members``: a ``(G, u)`` mask, a row per group, of which
    of the ``ref`` rows ``cols`` it holds; ``cols``, an index array or
    ``slice(None)``, lists them in the order that breaks distance ties) of
    each group's k-NN label. Distances are row-wise, so they do not depend
    on the chunk. Under cosine a zero-norm row among ``cols`` raises first,
    then any query that :func:`checked_rows` rejects, before the first label."""
    U = ref.unit_rows(cols)[cols] if metric == "cosine" else None
    X = ref.feature_matrix()
    m, d = X.shape
    Q = checked_rows(queries, d, cosine=U is not None)
    y, u = ref.label_array()[cols], members.shape[1]
    width = 4 * k * u // np.count_nonzero(members[0])  # the groups are equal-sized: each expects 4k in it
    classes = np.arange(ref.class_count)
    step = max(1, _CHUNK_BYTES // (8 * (u if U is not None else m * d)))
    for start in range(0, len(Q), step):
        chunk = Q[start : start + step]
        if U is None:
            D = _distances(X, chunk)[:, cols]
        else:
            D = 1.0 - unit_cosines(U, unit_rows(chunk))
        votes = _vote(D, members, y, k, ref.class_count, width)[:, :, None] == classes
        yield from np.argmax(np.count_nonzero(votes, axis=1), axis=1).tolist()


def batch_classify(ref: ReferenceSet, queries, cfg: Union[KnnConfig, UbKnnConfig]) -> Iterator[int]:
    """:func:`knn_classify` (or, for a UbKnnConfig, :func:`ubknn_classify`)
    of each query (an ``(n, d)`` matrix or FeatureVectors), in order."""
    if isinstance(cfg, UbKnnConfig):
        bags = _bags(ref, cfg)
        return _labels(ref, queries, bags.cols, bags.held, cfg.base.k_neighbors, cfg.base.metric)
    if cfg.k_neighbors > ref.size:
        raise ContractError(f"k_neighbors {cfg.k_neighbors} > reference size {ref.size}")
    return _labels(ref, queries, slice(None), np.ones((1, ref.size), dtype=bool), cfg.k_neighbors, cfg.metric)


def knn_classify(ref: ReferenceSet, f_test: FeatureVector, cfg: KnnConfig = KnnConfig()) -> int:
    """Majority vote among the k nearest references; vote ties go to the
    smaller class index, distance ties to the smaller sample index."""
    return next(batch_classify(ref, [f_test], cfg))


def nearest_label(ref: ReferenceSet, f_test, rows) -> int:
    """Label of the cosine-nearest of ``ref``'s rows ``rows`` (an index array or sequence), by the core with k = 1
    over ``rows`` as one group, so a distance tie goes to the row listed first: ``knn_classify(ref.subset(rows),
    f_test, KnnConfig(1, "cosine"))``, errors and their order included, without building the subset."""
    cols = np.asarray(rows, dtype=np.intp)
    return next(_labels(ref, [f_test], cols, np.ones((1, len(cols)), dtype=bool), 1, "cosine"))


@dataclass(frozen=True)
class _Bags:
    cols: np.ndarray  # the reference rows some bag holds, ascending
    held: np.ndarray  # (n_bags, len(cols)) mask: bag b holds cols[i]


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
    held = np.zeros((cfg.n_bags, ref.size), dtype=bool)
    for bag in range(cfg.n_bags):
        rng = np.random.default_rng(cfg.seed + bag)
        held[bag, np.concatenate([rng.choice(m, size=minority, replace=False) for m in members])] = True
    cols = np.flatnonzero(held.any(axis=0))
    bags = _Bags(cols, held[:, cols])
    ref._derived[key] = bags
    return bags


def ubknn_classify(
    ref: ReferenceSet, f_test: FeatureVector, cfg: UbKnnConfig = UbKnnConfig()
) -> int:
    """Majority vote of KNN over n_bags class-balanced undersamples; each
    bag votes the label KNN on its subset would."""
    return next(batch_classify(ref, [f_test], cfg))
