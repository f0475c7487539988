"""Representativeness scoring and prompt-order planning.

A sample's representativeness is its row sum of the cosine affinity matrix
(self-similarity included; it adds a constant 1 and never changes ranking).
With unit rows u_i that row sum is u_i . (sum_j u_j), so scoring takes
O(md) time and memory instead of building the m x m matrix.
The plan emits selected samples in reverse rank order so the most
representative sample lands at the end of the prompt, where it has the
most influence on the completion. For imbalanced problems the per-class
rankings are joined round-robin before the reversal.

Ties in any ranking are broken by ascending sample index (stable sort), so
plans are fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .core import ReferenceSet, as_feature_matrix, unit_rows
from .errors import ContractError

@dataclass(frozen=True)
class SelectionPlan:
    """Ordered reference indices as they will appear in the prompt.

    ``ordered_indices[0]`` is emitted first; the last index is the most
    influential (most representative) sample. ``rep_scores`` covers all m
    reference samples, not just the selected ones.
    """

    ordered_indices: tuple[int, ...]
    rep_scores: tuple[float, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"plan must select at least one sample, k={self.k}")
        if len(self.ordered_indices) != self.k:
            raise ContractError(f"plan has {len(self.ordered_indices)} indices, k={self.k}")
        if len(set(self.ordered_indices)) != self.k:
            raise ContractError("plan contains duplicate indices")


# Scores closer than this times m may rank differently under the two
# summation orders (each is off by at most ~(d + log2 m) * 2.2e-16 * m).
_NEAR_TIE = 1e-12
_ROW_BLOCK = 256  # affinity rows per block when recomputing near-ties


def representativeness(features) -> list[float]:
    """Row sums of the affinity matrix of ``features`` (an ``(m, d)`` array or
    FeatureVectors), self-term included.

    Computed as u_i . sum_j u_j. That rounds differently from the row sum,
    and where scores are equal up to rounding (the two samples of any m = 2
    set, say) the rounding decides their rank. So each score within
    ``_NEAR_TIE`` * m of another is recomputed as its row sum, which ranks
    near-ties as the pairwise definition does.
    """
    normed = unit_rows(as_feature_matrix(features))
    rep = normed @ normed.sum(axis=0)
    order = np.argsort(rep, kind="stable")
    close = np.flatnonzero(np.diff(rep[order]) <= _NEAR_TIE * len(rep))
    near = np.unique(np.concatenate([order[close], order[close + 1]]))
    for start in range(0, near.size, _ROW_BLOCK):
        rows = near[start : start + _ROW_BLOCK]
        rep[rows] = np.clip(normed[rows] @ normed.T, -1.0, 1.0).sum(axis=1)
    return rep.tolist()


def _rank_descending(scores: Sequence[float], candidates: Sequence[int]) -> list[int]:
    # stable: equal scores keep ascending index order
    return sorted(candidates, key=lambda i: (-scores[i], i))


def _interleaved_indices(ref: ReferenceSet, rep: Sequence[float], k: int) -> list[int]:
    # rank-major round-robin over the per-class rankings (class index order
    # within a rank), cut at k: each class gives its next sample in turn. Only
    # the classes present are ranked; an absent one would add nothing.
    y = ref.label_array()
    per_class = [_rank_descending(rep, np.flatnonzero(y == c).tolist()) for c in np.unique(y)]
    joined = [i for rank in zip_longest(*per_class) for i in rank if i is not None]
    return joined[:k]


def build_plan(
    ref: ReferenceSet, selection_ratio: float = 0.25, interleave_by_class: bool = False
) -> SelectionPlan:
    """Select and order the reference samples to emit in the prompt.

    k = max(1, floor(selection_ratio * m)). The selected samples are
    emitted in reverse rank order (most representative last); with
    ``interleave_by_class`` the per-class rankings are round-robin joined
    from rank 1 downward before the reversal, so each class's top sample
    sits near the prompt's end.
    """
    if not 0.0 < selection_ratio <= 1.0:
        raise ContractError(f"selection_ratio must be in (0, 1], got {selection_ratio}")
    m = ref.size
    rep = representativeness(ref.feature_matrix())
    k = max(1, math.floor(selection_ratio * m))
    if interleave_by_class:
        picked = _interleaved_indices(ref, rep, k)
    else:
        picked = _rank_descending(rep, range(m))[:k]
    ordered = tuple(reversed(picked))
    return SelectionPlan(ordered, tuple(rep), k)
