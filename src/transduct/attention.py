"""Attention-based reference model for transductive classification.

Three executable facts motivate using a next-token predictor for label
propagation, and this module makes each of them checkable:

1. Scaled dot-product attention ``softmax(QK^T / s) V`` with unit-norm
   reference features as keys, one-hot labels as values, and the unit-norm
   test feature as the query tends to the cosine nearest-neighbor
   classifier as the scale ``s`` shrinks.
2. Self-attention over feature-label concatenations (known rows carry
   their one-hot label, the test row a zero label block) yields the same
   label vector for the test row: its zero label block means only
   features enter its similarities.
3. Iterating self-attention performs clustering steps on the feature-label
   rows, converging after finitely many layers on well-separated data.

This module is also the "local-attention" completion backend: it answers
prompts offline and deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .baselines import KnnConfig, knn_classify
from .core import FeatureVector, ReferenceSet, checked_int, checked_real, checked_rows, checked_switch, unit_cosines, unit_rows
from .errors import ContractError, NumericError


@dataclass(frozen=True)
class AttentionConfig:
    """Parameters of the attention reference model.

    ``scale_s`` is the softmax temperature; small values sharpen the
    attention toward the single nearest neighbor. ``strict_setup2``
    restricts self-attention similarities to the feature block, which makes
    the iterated dynamics ignore label-label interactions between known rows.
    """

    scale_s: float = 1e-6
    convergence_tol: float = 1e-8
    max_layers: int = 256
    strict_setup2: bool = False

    def __post_init__(self):
        checked_real(self.scale_s, "scale_s")
        checked_real(self.convergence_tol, "convergence_tol")
        checked_int(self.max_layers, 1, "max_layers")
        checked_switch(self.strict_setup2, "strict_setup2")


def _floats(x, name: str, matrix: bool = False) -> np.ndarray:
    """``x`` as a float array, or with ``matrix`` as a matrix whose 1-D form is one row; anything
    else (not numbers; with ``matrix``, more than 2 dimensions) is a ContractError naming ``name``."""
    try:
        x = np.asarray(x, float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ContractError(f"{name} is not an array of numbers: {exc}") from None
    if matrix and x.ndim > 2:
        raise ContractError(f"{name} must be a row or a matrix, got shape {x.shape}")
    return np.atleast_2d(x) if matrix else x


def attention(Q: np.ndarray, K: np.ndarray, V: np.ndarray, s: float) -> np.ndarray:
    """softmax(Q K^T / s) V, each row's largest score subtracted before the division by ``s``.
    K has at least one row; a 1-D Q, K or V is one row."""
    Q, K, V = _floats(Q, "Q", True), _floats(K, "K", True), _floats(V, "V", True)
    checked_real(s, "scale")
    if K.shape[0] == 0:
        raise ContractError("K must have at least one row")
    if Q.shape[1] != K.shape[1]:
        raise ContractError(f"Q columns {Q.shape[1]} != K columns {K.shape[1]}")
    if K.shape[0] != V.shape[0]:
        raise ContractError(f"K rows {K.shape[0]} != V rows {V.shape[0]}")
    return _attention(Q, K, V, s)


def _attention(Q: np.ndarray, K: np.ndarray, V: np.ndarray, s: float) -> np.ndarray:
    """:func:`attention` of float matrices whose shapes match and a checked scale ``s``."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflowed scores are refused below; gap / s -> -inf: weight 0
        scores = Q @ K.T
        exp = np.exp((scores - scores.max(axis=1, keepdims=True)) / s)
    out = exp / exp.sum(axis=1, keepdims=True) @ V
    if not np.isfinite(out).all():
        raise NumericError("non-finite attention output")
    return out


def nn_attention_classify(ref: ReferenceSet, f_test, s: float = 1e-6) -> np.ndarray:
    """Distribution over the ``ref.class_count`` classes from attention over the reference set.

    Keys are the unit-normalized reference features, values their one-hot
    labels (both kept on ``ref``), the query the unit-normalized test
    FeatureVector or row, checked by :func:`checked_rows`. For small ``s``
    the argmax is the cosine 1-NN label.
    """
    Q = checked_rows([f_test], ref.dimension, cosine=True)
    return _attention(unit_rows(Q), ref.unit_rows(), ref.one_hot_labels(), checked_real(s, "scale"))[0]


@dataclass(frozen=True)
class FeatureLabelMatrix:
    """(m+1) rows of [unit feature || label block]; the last row is the test
    sample with an all-zero label block."""

    rows: np.ndarray
    feature_dim: int
    class_count: int

    def __post_init__(self):
        rows = _floats(self.rows, "rows")
        checked_int(self.feature_dim, 1, "feature_dim")
        checked_int(self.class_count, 2, "class_count")
        if rows.ndim != 2 or rows.shape[1] != self.feature_dim + self.class_count:
            raise ContractError("rows must be (m+1) x (feature_dim + class_count)")
        if rows.shape[0] < 2:
            raise ContractError("need at least one known row plus the test row")
        feats = rows[:, : self.feature_dim]
        norms = np.linalg.norm(feats, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ContractError("feature blocks must be unit-normalized")
        labels = rows[:, self.feature_dim :]
        if not np.allclose(labels[-1], 0.0):
            raise ContractError("test row's label block must be all zeros")
        for i, row in enumerate(labels[:-1]):
            if not (np.isclose(row.sum(), 1.0) and np.all((np.isclose(row, 0) | np.isclose(row, 1)))):
                raise ContractError(f"known row {i} label block is not one-hot")

    @classmethod
    def from_reference(cls, ref: ReferenceSet, f_test) -> "FeatureLabelMatrix":
        """The rows of ``ref`` and the test FeatureVector or row, checked by :func:`checked_rows`."""
        q = checked_rows([f_test], ref.dimension, cosine=True)
        feats = unit_rows(np.vstack([ref.feature_matrix(), q]))
        labels = np.vstack([ref.one_hot_labels(), np.zeros(ref.class_count)])
        return cls(np.hstack([feats, labels]), ref.dimension, ref.class_count)


def self_attention_classify(
    M: FeatureLabelMatrix, s: float = 1e-6, strict_setup2: bool = False
) -> np.ndarray:
    """Label block of the test row after one self-attention layer.

    The test row attends over the known rows (its own zero label block is
    not a label candidate). Because that block is zero, its similarities to
    known rows involve only the feature blocks, so the result matches
    :func:`nn_attention_classify` on the same data; ``strict_setup2``
    makes the feature-only similarity explicit.
    """
    rows = np.asarray(M.rows, float)
    known, cols = rows[:-1], slice(M.feature_dim) if checked_switch(strict_setup2, "strict_setup2") else slice(None)
    return attention(rows[-1:, cols], known[:, cols], known[:, M.feature_dim :], s)[0]


def iterate_self_attention(
    M: FeatureLabelMatrix, cfg: AttentionConfig
) -> tuple[list[np.ndarray], Optional[int]]:
    """Repeated full self-attention over all rows (clustering dynamics).

    Returns the per-layer outputs M_1..M_L and the 1-based layer index at
    which the infinity-norm step change first dropped below
    ``cfg.convergence_tol`` (None if ``cfg.max_layers`` was hit first).
    """
    current = np.asarray(M.rows, float)
    cols = slice(M.feature_dim) if cfg.strict_setup2 else slice(None)  # similarity columns
    outputs: list[np.ndarray] = []
    converged_at = None
    for layer in range(1, cfg.max_layers + 1):
        nxt = attention(current[:, cols], current[:, cols], current, cfg.scale_s)
        outputs.append(nxt)
        if np.abs(nxt - current).max() < cfg.convergence_tol:
            converged_at = layer
            break
        current = nxt
    return outputs, converged_at


def cosine_1nn_label(ref: ReferenceSet, f_test: FeatureVector) -> int:
    """Label of the reference sample with the highest cosine similarity.

    Ties go to the lowest sample index: this is ``knn_classify`` with k = 1
    under the cosine metric, whose row-wise kernel gives identical rows
    identical scores.
    """
    return knn_classify(ref, f_test, KnnConfig(1, "cosine"))


# ---------------------------------------------------------------------------
# Property suites (the `oracle-check` CLI subcommand)
# ---------------------------------------------------------------------------


def _random_instance(rng: np.random.Generator):
    m = int(rng.integers(5, 51))
    d = int(rng.integers(2, 17))
    c = int(rng.integers(2, 5))
    feats = unit_rows(rng.normal(size=(m, d)))
    labels = rng.integers(0, c, size=m)
    labels[: c] = np.arange(c)  # every class populated
    ref = ReferenceSet.build(feats, labels, c)
    f_test = FeatureVector.of(rng.normal(size=d))
    return ref, f_test


def _has_cosine_tie(ref: ReferenceSet, f_test: FeatureVector, tol: float = 1e-9) -> bool:
    sims = np.sort(unit_cosines(ref.unit_rows(), unit_rows(f_test.as_array()[None, :]))[0])
    return bool(sims[-1] - sims[-2] < tol) if len(sims) > 1 else False


def _nn_limit_suite(trials: int, s: float, seed: int) -> dict:
    """Attention argmax vs cosine-1NN over random instances (tie cases skipped)."""
    rng = np.random.default_rng(seed)
    checked = agreements = skipped = 0
    while checked < trials:
        ref, f_test = _random_instance(rng)
        if _has_cosine_tie(ref, f_test):
            skipped += 1
            continue
        checked += 1
        pred = int(np.argmax(nn_attention_classify(ref, f_test, s)))
        if pred == cosine_1nn_label(ref, f_test):
            agreements += 1
    return {"trials": checked, "agreements": agreements, "skipped_ties": skipped}


def _setup_equivalence_suite(trials: int, s: float, seed: int) -> dict:
    """Self-attention vs plain attention classification on random instances."""
    rng = np.random.default_rng(seed)
    max_diff = 0.0
    argmax_agreements = 0
    for _ in range(trials):
        ref, f_test = _random_instance(rng)
        setup1 = nn_attention_classify(ref, f_test, s)
        M = FeatureLabelMatrix.from_reference(ref, f_test)
        strict = self_attention_classify(M, s, strict_setup2=True)
        literal = self_attention_classify(M, s, strict_setup2=False)
        max_diff = max(max_diff, float(np.abs(strict - setup1).max()))
        if int(np.argmax(literal)) == int(np.argmax(setup1)):
            argmax_agreements += 1
    return {"trials": trials, "max_elementwise_diff": max_diff, "argmax_agreements": argmax_agreements}


def two_cluster_fixture(seed: int = 0) -> FeatureLabelMatrix:
    """Two orthogonal clusters of 5 rows with spread 0.02: rows 0-4 and
    5-9, the test row last in the second."""
    rng = np.random.default_rng(checked_int(seed, 0, "seed"))
    d, c, n = 4, 2, 10
    centres = np.zeros((n, d))
    centres[:5, 0] = centres[5:, 1] = 1.0
    feats = unit_rows(centres + 0.02 * rng.normal(size=(n, d)))
    labels = np.zeros((n, c))
    labels[:5, 0] = labels[5:-1, 1] = 1.0
    return FeatureLabelMatrix(np.hstack([feats, labels]), d, c)


def cluster_separation(final: np.ndarray, cluster_a: Sequence[int], cluster_b: Sequence[int]) -> tuple[float, float]:
    """(max intra-cluster distance, min inter-cluster distance) of the rows."""
    a, b = list(cluster_a), list(cluster_b)
    D = np.linalg.norm(final[:, None, :] - final[None, :, :], axis=2)
    return float(max(D[np.ix_(a, a)].max(), D[np.ix_(b, b)].max())), float(D[np.ix_(a, b)].min())


def _clustering_suite(trials: int, s: float, seed: int) -> dict:
    """Iterated self-attention on two-cluster fixtures: convergence + separation."""
    histogram: dict[int, int] = {}
    separated = 0
    cfg = AttentionConfig(scale_s=s)
    for t in range(trials):
        M = two_cluster_fixture(seed=seed + t)
        outputs, converged_at = iterate_self_attention(M, cfg)
        key = int(converged_at) if converged_at is not None else -1
        histogram[key] = histogram.get(key, 0) + 1
        intra, inter = cluster_separation(outputs[-1], list(range(5)), list(range(5, 10)))
        if intra < inter:
            separated += 1
    return {"trials": trials, "converged_at_histogram": histogram, "separated": separated}


def property_report(trials: int = 1000, s: float = 1e-6, seed: int = 0) -> dict:
    """Full report backing the `oracle-check` CLI subcommand."""
    # a trial of the nearest-neighbour suite takes about 0.4 ms: 10**6 of them run about 7 minutes
    trials, seed = checked_int(trials, 1, "trials", high=10**6), checked_int(seed, 0, "seed")
    return {
        "nn_limit": _nn_limit_suite(trials, s, seed),
        "setup_equivalence": _setup_equivalence_suite(min(trials, 100), s, seed + 1),
        "clustering": _clustering_suite(20, 0.05, seed + 2),
    }
