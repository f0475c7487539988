"""Representativeness scoring and prompt-order planning.

A sample's representativeness is its row sum of the cosine affinity matrix
(self-similarity included; it adds a constant 1 and never changes ranking).
With unit rows u_i that row sum is u_i . (sum_j u_j), so scoring takes
O(md) time and memory instead of building the m x m matrix. Rows whose
scores are near-tied are grouped by identical unit row, and only a group
near-tied with another group is re-summed row by row (see
:func:`representativeness`); with stable array sorts for the ranking, a plan
costs O(m log m + r m d) for r such groups, so rounded or repeated rows
plan about as fast as distinct ones.
The plan emits selected samples in reverse rank order so the most
representative sample lands at the end of the prompt, where it has the
most influence on the completion. For imbalanced problems the per-class
rankings are joined round-robin before the reversal.

Ties in any ranking are broken by ascending sample index (stable sort), so
plans are fully deterministic. Identical unit rows always get bit-equal
scores, so duplicates too rank by ascending index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ReferenceSet, _finite_rows, _read_only, as_feature_matrix, checked_int, checked_real, checked_switch, unit_rows
from .errors import ContractError

@dataclass(frozen=True)
class SelectionPlan:
    """Ordered reference indices as they will appear in the prompt.

    ``ordered_indices[0]`` is emitted first; the last index is the most
    influential (most representative) sample. The indices are distinct
    integers >= 0; the Part 1 renderer checks each against the reference set.
    """

    ordered_indices: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"plan must select at least one sample, k={self.k}")
        if not all(type(i) is int and i >= 0 for i in self.ordered_indices):  # plain ints pass at once
            for i in self.ordered_indices:
                checked_int(i, 0, "plan index")
        if len(set(self.ordered_indices)) != self.k:
            raise ContractError("plan contains duplicate indices")

    @property
    def k(self) -> int:
        """The number of selected samples, ``len(ordered_indices)``."""
        return len(self.ordered_indices)

    @cached_property
    def index_array(self) -> np.ndarray:
        """``ordered_indices`` as a read-only intp array, built on first use."""
        return _read_only(np.array(self.ordered_indices, dtype=np.intp))


# Scores closer than this times m may rank differently under the two
# summation orders (each is off by at most ~(d + log2 m) * 2.2e-16 * m).
_NEAR_TIE = 1e-12
_ROW_BLOCK = 256  # affinity rows per block when recomputing near-ties


def _near_ties(scores: np.ndarray, tol: float) -> np.ndarray:
    """Ascending indices of the scores within ``tol`` of another score."""
    order = np.argsort(scores)  # equal scores are all in, whatever their order
    close = np.flatnonzero(np.diff(scores[order]) <= tol)
    near = np.zeros(scores.size, dtype=bool)
    near[order[close]] = near[order[close + 1]] = True
    return np.flatnonzero(near)


def _scores(normed: np.ndarray) -> np.ndarray:
    rep = normed @ normed.sum(axis=0)
    tol = _NEAR_TIE * len(rep)
    near = _near_ties(rep, tol)
    if near.size == 0:
        return rep
    # Group the near-tied rows by identical unit row. The sort is stable and
    # ``near`` ascending, so a group's first row in sorted order is its
    # smallest index, its head; the head's score stands for the group.
    rows = normed[near]
    order = np.lexsort(rows.T)
    rows = rows[order]
    new = np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]
    heads = near[order[new]]
    # Only heads near-tied with another head are re-summed, in ascending
    # index order, by the same blocks as when no rows repeat.
    tied = np.sort(heads[_near_ties(rep[heads], tol)])
    for start in range(0, tied.size, _ROW_BLOCK):
        block = tied[start : start + _ROW_BLOCK]
        rep[block] = np.clip(normed[block] @ normed.T, -1.0, 1.0).sum(axis=1)
    rep[near[order]] = rep[heads][np.cumsum(new) - 1]
    return rep


def representativeness(features) -> list[float]:
    """Row sums of the affinity matrix of ``features`` (an ``(m, d)`` array or
    FeatureVectors, checked as a reference set's are), self-term included.

    Computed as u_i . sum_j u_j. That rounds differently from the row sum,
    and where scores are equal up to rounding (the two samples of any m = 2
    set, say) the rounding decides their rank. So the rows whose scores are
    within ``_NEAR_TIE`` * m of another are grouped by identical unit row,
    each group takes one score, and a group within that distance of another
    group is recomputed as its row sum, which ranks near-ties as the
    pairwise definition does. Identical rows get bit-equal scores, and the
    cost is O(m log m + r m d) for r such groups, so rounded or repeated
    rows cost about what distinct ones do.
    """
    return _scores(unit_rows(_finite_rows(as_feature_matrix(features)))).tolist()


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
    checked_real(selection_ratio, "selection_ratio", 1.0)
    rep = _scores(ref.unit_rows())
    k = max(1, math.floor(selection_ratio * ref.size))
    if checked_switch(interleave_by_class, "interleave_by_class"):
        # rank within each class (stable: by class, score descending, index),
        # then rank-major with classes ascending within a rank; only the
        # classes present take part
        y = ref.label_array()
        by_class = np.lexsort((-rep, y))
        labels = y[by_class]
        rank = np.arange(labels.size) - np.searchsorted(labels, labels)
        picked = by_class[np.argsort(rank, kind="stable")[:k]]
    else:
        picked = np.argsort(-rep, kind="stable")[:k]
    return SelectionPlan(tuple(picked[::-1].tolist()))
