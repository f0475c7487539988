import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transduct import FeatureVector, ReferenceSet, build_plan, representativeness
from transduct.core import unit_rows

from conftest import oracle_plan_indices, oracle_representativeness
from seed_copy import rowwise


def fv(*v):
    return FeatureVector.of(v)


class TestRepresentativeness:
    def test_array_and_feature_vectors_agree(self):
        X = np.random.default_rng(4).normal(size=(7, 3))
        feats = [FeatureVector.of(r) for r in X]
        assert representativeness(X) == representativeness(feats)

    def test_single_sample(self):
        assert representativeness([fv(0.3, 0.7)]) == pytest.approx([1.0])

    def test_orthogonal_unit_vectors(self):
        feats = [fv(1, 0, 0), fv(0, 1, 0), fv(0, 0, 1)]
        assert representativeness(feats) == pytest.approx([1.0, 1.0, 1.0])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        feats = [FeatureVector.of(r) for r in rng.normal(size=(5, 3))]
        got = representativeness(feats)
        expected = oracle_representativeness(feats)
        assert got == pytest.approx(expected, abs=1e-9)

class TestBuildPlan:
    def test_k1_reduces_to_argmax(self, small_ref):
        plan = build_plan(small_ref, 0.25)
        rep = representativeness(small_ref.features)
        assert plan.k == 1
        assert plan.ordered_indices == (int(np.argmax(rep)),)

    def test_reverse_of_top_k(self, imbalanced_ref):
        plan = build_plan(imbalanced_ref, 0.5, interleave_by_class=False)
        rep = representativeness(imbalanced_ref.X)
        top4 = sorted(range(8), key=lambda i: (-rep[i], i))[:4]
        assert plan.ordered_indices == tuple(reversed(top4))
        last = plan.ordered_indices[-1]
        assert rep[last] == max(rep)

    def test_index_array_is_the_plan_order_read_only_and_built_once(self, imbalanced_ref):
        plan = build_plan(imbalanced_ref, 0.5)
        rows = plan.index_array
        assert rows.tolist() == list(plan.ordered_indices) and rows.dtype == np.intp
        assert not rows.flags.writeable and plan.index_array is rows
        assert plan == build_plan(imbalanced_ref, 0.5)  # not a field: equality ignores it

    def test_interleaved_alternates_classes(self, imbalanced_ref):
        plan = build_plan(imbalanced_ref, 0.5, interleave_by_class=True)
        assert plan.k == 4
        labels = [imbalanced_ref.labels[i] for i in plan.ordered_indices]
        assert labels == [1, 0, 1, 0]
        # per-class counts: 2 picks per class
        assert sum(1 for l in labels if l == 0) == 2

    def test_interleaved_per_class_top_is_last_of_its_class(self, imbalanced_ref):
        plan = build_plan(imbalanced_ref, 0.5, interleave_by_class=True)
        rep = representativeness(imbalanced_ref.X)
        for c in (0, 1):
            of_class = [i for i in plan.ordered_indices if imbalanced_ref.labels[i] == c]
            selected_best = of_class[-1]
            assert rep[selected_best] == max(rep[i] for i in of_class)

    def test_ratio_one_selects_all(self, small_ref):
        plan = build_plan(small_ref, 1.0)
        assert plan.k == 4
        assert sorted(plan.ordered_indices) == [0, 1, 2, 3]

    @pytest.mark.parametrize("interleave", [False, True])
    def test_matches_brute_force_oracle(self, interleave):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 20))
            c = int(rng.integers(2, 4))
            feats = rng.normal(size=(m, 3))
            labels = rng.integers(0, c, size=m)
            labels[0] = 0
            ref = ReferenceSet.build(feats, labels, c)
            ratio = float(rng.uniform(0.1, 1.0))
            plan = build_plan(ref, ratio, interleave)
            assert list(plan.ordered_indices) == oracle_plan_indices(ref, ratio, interleave)


class TestPlanProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        feats = rng.normal(size=(m, 3))
        labels = rng.integers(0, 2, size=m)
        perm = rng.permutation(m)
        ref = ReferenceSet.build(feats, labels, 2)
        ref_p = ReferenceSet.build(feats[perm], labels[perm], 2)
        rep = representativeness(ref.features)
        rep_p = representativeness(ref_p.features)
        assert rep_p == pytest.approx([rep[i] for i in perm], abs=1e-9)
        assume(min(np.diff(np.sort(rep))) > 1e-6)  # ties break by index, not value
        plan = build_plan(ref, 0.5)
        plan_p = build_plan(ref_p, 0.5)
        selected = sorted(tuple(ref.features[i].values) for i in plan.ordered_indices)
        selected_p = sorted(tuple(ref_p.features[i].values) for i in plan_p.ordered_indices)
        assert selected == selected_p

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        feats = rng.normal(size=(m, 4))
        labels = rng.integers(0, 2, size=m)
        ref = ReferenceSet.build(feats, labels, 2)
        ref_s = ReferenceSet.build(feats * scale, labels, 2)
        rep = representativeness(ref.features)
        assert np.allclose(rep, representativeness(ref_s.features), atol=1e-9)
        assume(min(np.diff(np.sort(rep))) > 1e-6)  # near-ties may flip under rescaling
        assert build_plan(ref, 0.5).ordered_indices == build_plan(ref_s, 0.5).ordered_indices


class TestPlanCostFollowsTheData:
    def test_large_label_plans_in_little_memory(self):
        # ranking every class up to the largest label took 27 MB and 5.6 s
        # for a label of 200000
        ref = ReferenceSet.build([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]], [0, 1, 10**6], 10**6 + 1)
        build_plan(ref, 1.0, interleave_by_class=True)  # first-use allocations
        tracemalloc.start()
        try:
            plan = build_plan(ref, 1.0, interleave_by_class=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert sorted(plan.ordered_indices) == [0, 1, 2]

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        class_count=st.integers(2, 12),
        ratio=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
        interleave=st.booleans(),
        rows=st.sampled_from(["distinct", "rounded", "repeated", "proportional"]),
    )
    def test_plans_equal_the_seed_programs(self, seed, class_count, ratio, interleave, rows):
        # labels drawn from a few of the classes, so some classes are absent
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        present = rng.choice(class_count, size=int(rng.integers(1, class_count + 1)), replace=False)
        X, y = rng.dirichlet(np.ones(3), size=m), rng.choice(present, size=m)
        if rows == "rounded":
            X = np.round(X, 1)
            X[X.sum(axis=1) == 0, 0] = 1.0
        elif rows == "repeated":
            X = X[rng.integers(0, max(1, m // 3), size=m)]
        elif rows == "proportional":
            X = X[rng.integers(0, max(1, m // 3), size=m)] * rng.choice([0.1, 0.3, 1.0, 3.0, 7.0], size=(m, 1))
        got = build_plan(ReferenceSet.build(X, y, class_count), ratio, interleave)
        _, group = np.unique(unit_rows(X), axis=0, return_inverse=True)
        group = group.reshape(-1)  # numpy 2.0.0 returns the inverse as (m, 1)
        if np.unique(group).size == m:
            old = rowwise.build_plan(rowwise.ReferenceSet.build(X.tolist(), y.tolist(), class_count), ratio, interleave)
            assert got.ordered_indices == old.ordered_indices
        assert_duplicates_tie_by_index(got, X, group, y if interleave else None)

    def test_identical_rows_tie_bit_for_bit(self):
        # a re-sum by matrix product rounds by a row's place in the block, so
        # copies of a row could score 1 ulp apart and rank out of index order
        for seed in range(400):
            rng = np.random.default_rng(seed)
            m, d = int(rng.integers(2, 400)), int(rng.integers(2, 11))
            base = rng.dirichlet(np.ones(d), size=int(rng.integers(1, m // 2 + 2)))
            X = base[rng.integers(0, len(base), size=m)]
            plan = build_plan(ReferenceSet.build(X, rng.integers(0, 3, size=m), 3), 1.0)
            _, group = np.unique(X, axis=0, return_inverse=True)
            assert_duplicates_tie_by_index(plan, X, group.reshape(-1))

    def test_rounded_rows_plan_as_fast_as_distinct_rows(self):
        # binary probabilities rounded to 2 decimals repeat about 80 times
        # each; re-summing every near-tied copy cost O(m^2 d), 60-130x the
        # time of the distinct rows
        rng = np.random.default_rng(3)
        X = rng.dirichlet(np.ones(2), size=8000)
        y = X.argmax(axis=1)
        cost = []
        for rows in (X, np.round(X, 2)):
            ref = ReferenceSet.build(rows, y, 2)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                build_plan(ref, 0.25, interleave_by_class=True)
                times.append(time.perf_counter() - start)
            cost.append(min(times))
        assert cost[1] <= 5 * cost[0]


def assert_duplicates_tie_by_index(plan, X, group, labels=None):
    """Rows of one ``group`` of ``X`` have bit-equal scores, and where the plan
    emits every row the smaller index ranks higher: in the one ranking, or
    with ``labels`` (an interleaved plan) in its class's ranking."""
    rep = np.array(representativeness(X))
    for g in np.flatnonzero(np.bincount(group) > 1):
        members = np.flatnonzero(group == g)
        assert np.unique(rep[members].view(np.int64)).size == 1, f"rows {members.tolist()} differ in score"
    if len(plan.ordered_indices) == len(rep):
        key = group if labels is None else group * (labels.max() + 1) + labels
        ranked = plan.ordered_indices[::-1]
        for g in np.unique(key):
            emitted = [i for i in ranked if key[i] == g]
            assert emitted == sorted(emitted)
