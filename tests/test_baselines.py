import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import FeatureVector, KnnConfig, ReferenceSet, UbKnnConfig, knn_classify, ubknn_classify
from transduct import baselines, build_plan, core, selection
from transduct.baselines import _labels, nearest_label
from transduct.core import unit_cosines, unit_rows
from transduct.errors import ContractError, DegenerateInputError
from transduct.workflow import RunConfig, predict

from conftest import oracle_cosine


def fv(*v):
    return FeatureVector.of(v)


def blob_ref(rng, n_major=30, n_minor=3):
    major = rng.normal([1.0, 0.2], 0.35, size=(n_major, 2))
    minor = rng.normal([0.6, 0.7], 0.35, size=(n_minor, 2))
    feats = np.vstack([major, minor])
    labels = [0] * n_major + [1] * n_minor
    return ReferenceSet.build(feats, labels, 2)


def oracle_knn(ref, f_test, k, metric="cosine", dist=None):
    """Exhaustive sort + vote, plain Python, over ``dist`` (one distance per
    reference row; by default computed here in plain Python)."""
    if dist is not None:
        pass
    elif metric == "cosine":
        dist = [1.0 - oracle_cosine(f.values, f_test.values) for f in ref.features]
    else:
        dist = [
            math.sqrt(sum((a - b) ** 2 for a, b in zip(f.values, f_test.values)))
            for f in ref.features
        ]
    order = sorted(range(ref.size), key=lambda i: (dist[i], i))[:k]
    counts = [0] * ref.class_count
    for i in order:
        counts[ref.labels[i]] += 1
    return max(range(ref.class_count), key=lambda c: (counts[c], -c))


def oracle_bags(ref, n_bags, seed):
    """Bag b: a ``default_rng(seed + b)`` draw of minority size per class, in
    class order from the members in index order, sorted ascending."""
    members = [[i for i, y in enumerate(ref.labels) if y == c] for c in range(ref.class_count)]
    minority = min(len(m) for m in members)
    bags = []
    for b in range(n_bags):
        rng = np.random.default_rng(seed + b)
        chosen = [int(i) for m in members for i in rng.choice(m, size=minority, replace=False)]
        bags.append(sorted(chosen))
    return bags


def oracle_ubknn(ref, f_test, cfg, dist=None):
    """KNN on each bag's subset (in index order), then a vote across bags."""
    votes = [0] * ref.class_count
    for rows in oracle_bags(ref, cfg.n_bags, cfg.seed):
        bag_dist = None if dist is None else [dist[i] for i in rows]
        votes[oracle_knn(ref.subset(rows), f_test, cfg.base.k_neighbors, cfg.base.metric, bag_dist)] += 1
    return max(range(ref.class_count), key=lambda c: (votes[c], -c))


def dup_ref(rng, m, d, classes):
    """Random positive features where about a third of the rows repeat an
    earlier row; every class is populated."""
    feats = rng.uniform(0.05, 1.0, size=(m, d))
    for i in range(1, m):
        if rng.random() < 0.35:
            feats[i] = feats[rng.integers(0, i)]
    labels = rng.integers(0, classes, size=m)
    labels[:classes] = np.arange(classes)
    return ReferenceSet.build(feats, labels, classes)


class TestKnn:
    def test_k1_self_match(self, small_ref):
        assert knn_classify(small_ref, fv(0.1, 0.9), KnnConfig(k_neighbors=1)) == 1

    def test_majority_vote(self):
        ref = ReferenceSet.build([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], [0, 0, 1], 2)
        assert knn_classify(ref, fv(0.8, 0.2), KnnConfig(k_neighbors=3)) == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for metric in ("cosine", "euclidean"):
            for _ in range(30):
                feats = rng.uniform(0.05, 1.0, size=(30, 4))
                labels = rng.integers(0, 3, size=30)
                labels[:3] = [0, 1, 2]
                ref = ReferenceSet.build(feats, labels, 3)
                f = FeatureVector.of(rng.uniform(0.05, 1.0, size=4))
                got = knn_classify(ref, f, KnnConfig(k_neighbors=5, metric=metric))
                assert got == oracle_knn(ref, f, 5, metric)

    def test_k_equals_m_predicts_mode(self):
        ref = ReferenceSet.build(
            [[1, 0], [0.9, 0.1], [0.8, 0.2], [0, 1], [0.1, 0.9]], [1, 1, 1, 0, 0], 2
        )
        assert knn_classify(ref, fv(0.5, 0.5), KnnConfig(k_neighbors=5)) == 1

    def test_vote_tie_smaller_class_wins(self):
        ref = ReferenceSet.build([[1, 0], [0, 1]], [1, 0], 2)
        assert knn_classify(ref, fv(0.7, 0.7), KnnConfig(k_neighbors=2)) == 0

    def test_duplicate_rows_tie_to_smaller_index(self):
        # Row j repeats row 0 with the other label; the query is row 0, so the
        # two rows tie exactly and k = 1 must pick row 0.
        rng = np.random.default_rng(3)
        for _ in range(4000):
            m = int(rng.integers(5, 41))
            d = int(rng.choice([3, 4, 7, 10]))
            feats = rng.uniform(0.0, 1.0, size=(m, d))
            j = int(rng.integers(1, m))
            feats[j] = feats[0]
            labels = np.zeros(m, dtype=int)
            labels[j] = 1
            ref = ReferenceSet.build(feats, labels, 2)
            assert knn_classify(ref, FeatureVector.of(feats[0]), KnnConfig(1)) == 0, (m, d, j)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        feats = rng.uniform(0.05, 1.0, size=(12, 3))
        labels = rng.integers(0, 2, size=12)
        labels[:2] = [0, 1]
        perm = rng.permutation(12)
        ref = ReferenceSet.build(feats, labels, 2)
        ref_p = ReferenceSet.build(feats[perm], labels[perm], 2)
        for _ in range(10):
            f = FeatureVector.of(rng.uniform(0.05, 1.0, size=3))
            assert knn_classify(ref, f, KnnConfig(3)) == knn_classify(ref_p, f, KnnConfig(3))


class TestUbKnn:
    def test_balanced_set_matches_knn(self):
        ref = ReferenceSet.build(
            [[1, 0], [0.9, 0.1], [0, 1], [0.1, 0.9]], [0, 0, 1, 1], 2
        )
        cfg = UbKnnConfig(KnnConfig(k_neighbors=3), n_bags=1, seed=0)
        for f in (fv(0.8, 0.2), fv(0.2, 0.8), fv(0.6, 0.4)):
            assert ubknn_classify(ref, f, cfg) == knn_classify(ref, f, KnnConfig(3))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(2)
        ref = blob_ref(rng)
        cfg = UbKnnConfig(KnnConfig(k_neighbors=3), n_bags=5, seed=42)
        f = fv(0.7, 0.5)
        assert ubknn_classify(ref, f, cfg) == ubknn_classify(ref, f, cfg)

    def test_empty_class_rejected(self):
        ref = ReferenceSet.build([[1, 0], [0.9, 0.1]], [0, 0], 2)
        with pytest.raises(ContractError):
            ubknn_classify(ref, fv(0.5, 0.5), UbKnnConfig(KnnConfig(1)))

    def test_improves_minority_recall_on_imbalanced_blobs(self):
        knn_recalls, ub_recalls = [], []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            ref = blob_ref(rng, n_major=100, n_minor=10)
            tests = rng.normal([0.6, 0.7], 0.35, size=(50, 2))
            knn_cfg = KnnConfig(k_neighbors=5)
            ub_cfg = UbKnnConfig(knn_cfg, n_bags=11, seed=seed)
            knn_hits = sum(
                knn_classify(ref, FeatureVector.of(t), knn_cfg) == 1 for t in tests
            )
            ub_hits = sum(
                ubknn_classify(ref, FeatureVector.of(t), ub_cfg) == 1 for t in tests
            )
            knn_recalls.append(knn_hits / 50)
            ub_recalls.append(ub_hits / 50)
        assert np.mean(ub_recalls) >= np.mean(knn_recalls) + 0.05

    def test_equals_per_bag_oracle(self):
        rng = np.random.default_rng(5)
        for classes in (2, 3, 4):
            for metric in ("cosine", "euclidean"):
                for _ in range(8):
                    ref = dup_ref(rng, int(rng.integers(12, 40)), int(rng.integers(2, 6)), classes)
                    cfg = UbKnnConfig(
                        KnnConfig(int(rng.integers(1, 4)), metric),
                        n_bags=int(rng.integers(1, 8)),
                        seed=int(rng.integers(0, 100)),
                    )
                    for _ in range(6):
                        if rng.random() < 0.5:
                            f = ref.features[int(rng.integers(0, ref.size))]
                        else:
                            f = FeatureVector.of(rng.uniform(0.05, 1.0, size=ref.dimension))
                        assert ubknn_classify(ref, f, cfg) == oracle_ubknn(ref, f, cfg)

    def test_configs_alternated_on_one_set(self):
        rng = np.random.default_rng(6)
        ref = blob_ref(rng, n_major=60, n_minor=4)
        cfg_a = UbKnnConfig(KnnConfig(3), n_bags=3, seed=0)
        cfg_b = UbKnnConfig(KnnConfig(1), n_bags=2, seed=9)
        queries = [FeatureVector.of(t) for t in rng.normal([0.8, 0.45], 0.35, size=(30, 2))]
        differ = 0
        for f in queries:
            a, b = ubknn_classify(ref, f, cfg_a), ubknn_classify(ref, f, cfg_b)
            assert a == oracle_ubknn(ref, f, cfg_a)
            assert b == oracle_ubknn(ref, f, cfg_b)
            differ += a != b
        assert differ > 0

    def test_reference_set_is_freed(self):
        rng = np.random.default_rng(7)
        ref = blob_ref(rng)
        ubknn_classify(ref, fv(0.7, 0.5), UbKnnConfig(KnnConfig(3), n_bags=3))
        knn_classify(ref, fv(0.7, 0.5))
        alive = weakref.ref(ref)
        del ref
        gc.collect()
        assert alive() is None

    def test_zero_norm_row_raises_only_when_drawn(self):
        feats = [[1.0, 0.1 * i + 0.1] for i in range(30)] + [[0.2, 1.0], [0.1, 0.9], [0.3, 0.8]]
        feats[4] = [0.0, 0.0]
        ref = ReferenceSet.build(feats, [0] * 30 + [1] * 3, 2)
        drawn = [s for s in range(40) if 4 in oracle_bags(ref, 1, s)[0]]
        not_drawn = [s for s in range(40) if s not in drawn]
        assert drawn and not_drawn
        with pytest.raises(DegenerateInputError):
            ubknn_classify(ref, fv(0.5, 0.5), UbKnnConfig(KnnConfig(1), n_bags=1, seed=drawn[0]))
        cfg = UbKnnConfig(KnnConfig(1), n_bags=1, seed=not_drawn[0])
        assert ubknn_classify(ref, fv(0.5, 0.5), cfg) == oracle_ubknn(ref, fv(0.5, 0.5), cfg)
        with pytest.raises(DegenerateInputError):
            ubknn_classify(ref, fv(0.0, 0.0), cfg)


class TestCachedArrays:
    def test_feature_matrix_is_read_only(self, small_ref):
        X = small_ref.feature_matrix()
        with pytest.raises(ValueError):
            X[0, 0] = 5.0
        with pytest.raises(ValueError):
            small_ref.label_array()[0] = 1
        assert small_ref.feature_matrix() is X
        assert small_ref.feature_matrix().tolist() == [list(f.values) for f in small_ref.features]
        assert small_ref.label_array().tolist() == list(small_ref.labels)


class TestNearestLabel:
    def test_equals_subset_1nn(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ref = dup_ref(rng, 30, 3, 3)
            rows = [int(i) for i in rng.permutation(30)[:12]]
            f = FeatureVector.of(rng.uniform(0.05, 1.0, size=3))
            expected = knn_classify(ref.subset(rows), f, KnnConfig(1, "cosine"))
            assert nearest_label(ref, f, rows) == expected

    def test_tie_goes_to_first_row_listed(self):
        ref = ReferenceSet.build([[0.3, 0.7], [1.0, 0.0], [0.3, 0.7]], [0, 0, 1], 2)
        assert nearest_label(ref, fv(0.3, 0.7), [2, 1, 0]) == 1
        assert nearest_label(ref, fv(0.3, 0.7), [0, 1, 2]) == 0


def kernel_dist(ref, f_test, metric):
    """One query's distances from the per-sample row-wise kernels."""
    X = ref.feature_matrix()
    if metric == "cosine":
        q = unit_rows(f_test.as_array()[None, :])
        return (1.0 - unit_cosines(unit_rows(X, used=[]), q)[0]).tolist()
    return np.linalg.norm(X - f_test.as_array(), axis=1).tolist()


class TestBatchedCore:
    """``predict`` classifies the test features chunk by chunk through one
    batched core; every label must equal the per-sample oracles'."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        metric=st.sampled_from(["cosine", "euclidean"]),
        rounded=st.booleans(),
        k_is_bag_size=st.booleans(),
        cap=st.integers(1, 3000),
    )
    def test_predict_equals_per_sample_oracles(self, seed, metric, rounded, k_is_bag_size, cap):
        rng = np.random.default_rng(seed)
        classes = int(rng.integers(2, 4))
        ref = dup_ref(rng, int(rng.integers(6, 30)), int(rng.integers(1, 5)), classes)
        queries = rng.uniform(0.05, 1.0, size=(int(rng.integers(1, 13)), ref.dimension))
        for i in np.flatnonzero(rng.random(len(queries)) < 0.4):
            queries[i] = ref.feature_matrix()[rng.integers(0, ref.size)]
        if rounded:  # many rows tie, parallel rows among them
            ref = ReferenceSet.build(np.round(ref.feature_matrix(), 1), ref.label_array(), classes)
            queries = np.round(queries, 1)
        tests = [FeatureVector.of(q) for q in queries]
        bag_size = classes * min(np.bincount(ref.label_array(), minlength=classes))
        k = bag_size if k_is_bag_size else int(rng.integers(1, bag_size + 1))
        knn = KnnConfig(int(rng.integers(1, ref.size + 1)), metric)
        ubknn = UbKnnConfig(KnnConfig(k, metric), int(rng.integers(1, 6)), int(rng.integers(0, 50)))
        ub_run = RunConfig(method="ubknn", knn=ubknn.base, bags=ubknn.n_bags, seed=ubknn.seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "_CHUNK_BYTES", cap)  # chunks of 1 to ~60 queries
            got_knn = [label for label, _ in predict(ref, tests, RunConfig(method="knn", knn=knn))]
            got_ub = [label for label, _ in predict(ref, tests, ub_run)]
        for f, a, b in zip(tests, got_knn, got_ub):
            # Parallel rounded rows tie in exact arithmetic; the plain-Python
            # cosine may round such a tie differently from the row-wise
            # kernel, so rounded sets vote over the per-sample kernel's
            # distances instead.
            dist = kernel_dist(ref, f, metric) if rounded else None
            assert a == oracle_knn(ref, f, knn.k_neighbors, metric, dist)
            assert b == oracle_ubknn(ref, f, ubknn, dist)
        assert len(got_knn) == len(got_ub) == len(tests)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rounded=st.booleans())
    def test_cosine_block_is_bit_equal_to_per_sample_scores(self, seed, rounded):
        rng = np.random.default_rng(seed)
        m, d, n = int(rng.integers(1, 200)), int(rng.integers(1, 40)), int(rng.integers(1, 17))
        X = rng.dirichlet(np.ones(d), size=m)
        Q = rng.dirichlet(np.ones(d), size=n)
        if rounded:
            X, Q = np.round(X, 1) + 0.05, np.round(Q, 1) + 0.05
        U = unit_rows(X)
        block = unit_cosines(U, unit_rows(Q))
        for i, q in enumerate(Q):
            assert np.array_equal(block[i], unit_cosines(U, unit_rows(q[None, :]))[0])
            assert np.array_equal(block[i], np.einsum("ij,j->i", U, unit_rows(q[None, :])[0]))
        a, b = sorted(rng.integers(0, n + 1, size=2))
        assert np.array_equal(unit_cosines(U, unit_rows(Q))[a:b], block[a:b])
        rows = rng.permutation(m)[: max(1, m // 2)]
        assert np.array_equal(unit_cosines(U[rows], unit_rows(Q)), block[:, rows])

    @pytest.mark.parametrize(
        "metric, groups, per_query",
        [
            ("cosine", None, lambda m, d, g: m),
            ("euclidean", None, lambda m, d, g: m * d),
            ("cosine", (9, 30), lambda m, d, g: g),  # bags hold more rows than the set
        ],
    )
    def test_chunks_keep_the_largest_temporary_under_the_cap(self, monkeypatch, metric, groups, per_query):
        rng = np.random.default_rng(4)
        ref = dup_ref(rng, 40, 3, 2)
        rows = np.arange(40)[None, :] if groups is None else rng.integers(0, 40, size=groups)
        Q = rng.uniform(0.05, 1.0, size=(10, 3))
        chunks = []
        def recording(D, *args):
            chunks.append(len(D))
            return vote(D, *args)
        vote = baselines._vote
        monkeypatch.setattr(baselines, "_vote", recording)
        monkeypatch.setattr(baselines, "_CHUNK_BYTES", 3 * 8 * per_query(40, 3, rows.size))
        labels = list(_labels(ref, Q, rows, 2, metric, slice(None)))
        assert chunks == [3, 3, 3, 1]
        monkeypatch.setattr(baselines, "_CHUNK_BYTES", 1)
        assert list(_labels(ref, Q, rows, 2, metric, slice(None))) == labels
        assert chunks[4:] == [1] * 10

    def test_peak_memory_does_not_grow_with_the_test_split(self):
        rng = np.random.default_rng(5)
        ref = dup_ref(rng, 3000, 4, 2)
        cfg = RunConfig(method="ubknn", knn=KnnConfig(5), bags=7)
        peaks = []
        for n in (20, 400):
            tests = [FeatureVector.of(q) for q in rng.uniform(0.05, 1.0, size=(n, 4))]
            list(predict(ref, tests[:1], cfg))  # bags and unit rows are cached on ref
            tracemalloc.start()
            list(predict(ref, tests, cfg))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < peaks[0] + 200_000, peaks

    def test_unit_rows_are_computed_once_per_set(self, monkeypatch):
        calls = []
        def counting(X, used=slice(None)):
            calls.append(len(X))
            return unit_rows(X, used)
        # the set's rows are normalised by ReferenceSet.unit_rows, the queries in baselines
        for module in (core, baselines, selection):
            monkeypatch.setattr(module, "unit_rows", counting)
        ref = dup_ref(np.random.default_rng(6), 25, 3, 2)
        for _ in range(3):
            build_plan(ref, 0.5)
            knn_classify(ref, fv(0.2, 0.5, 0.7))
            ubknn_classify(ref, fv(0.2, 0.5, 0.7), UbKnnConfig(KnnConfig(1), 3))
            nearest_label(ref, fv(0.2, 0.5, 0.7), [3, 1, 2])
        assert calls.count(25) == 1 and calls.count(1) == 9

    @pytest.mark.parametrize("method", ["knn", "ubknn"])
    def test_zero_norm_test_row_is_named_by_its_test_index(self, monkeypatch, method):
        ref = blob_ref(np.random.default_rng(2))
        cfg = RunConfig(method=method, knn=KnnConfig(3), bags=3)
        results = predict(ref, [fv(0.7, 0.5), fv(0.0, 0.0), fv(0.5, 0.7)], cfg)
        with pytest.raises(DegenerateInputError, match="test feature 1") as info:
            next(results)  # the first next(): no label comes before the bad row's error
        assert info.value.index == 1
        # a later chunk: still no label, and the error names the row's index
        monkeypatch.setattr(baselines, "_CHUNK_BYTES", 1)
        tests = [fv(0.7, 0.5 + i / 10) for i in range(5)] + [fv(0.0, 0.0), fv(0.5, 0.7)]
        labels = []
        with pytest.raises(DegenerateInputError, match="test feature 5") as info:
            for label, _ in predict(ref, tests, cfg):
                labels.append(label)
        assert info.value.index == 5 and labels == []

    def test_errors_keep_their_precedence(self):
        ok = ReferenceSet.build([[1.0, 0.1], [0.2, 1.0], [0.5, 0.5]], [0, 1, 0], 2)
        bad = ReferenceSet.build([[1.0, 0.1], [0.0, 0.0], [0.5, 0.5]], [0, 1, 0], 2)
        for call in (
            lambda ref, f: knn_classify(ref, f, KnnConfig(1)),
            lambda ref, f: nearest_label(ref, f, [2, 1]),
            lambda ref, f: list(predict(ref, [f, f], RunConfig(method="knn", knn=KnnConfig(1)))),
            lambda ref, f: list(predict(ref, [f], RunConfig(method="ubknn", knn=KnnConfig(1), bags=1, seed=1))),
        ):
            with pytest.raises(DegenerateInputError) as info:
                call(bad, fv(0.0, 0.0, 0.0))  # zero-norm used row first
            assert info.value.index == 1
            with pytest.raises(ContractError) as info:
                call(ok, fv(0.0, 0.0, 0.0))  # then the dimension
            assert type(info.value) is ContractError
            with pytest.raises(DegenerateInputError):
                call(ok, fv(0.0, 0.0))  # then the zero-norm query
        assert nearest_label(bad, fv(0.5, 0.5), [2, 0]) == 0  # an unused zero row is fine

    def test_empty_test_split_yields_nothing(self):
        ref = blob_ref(np.random.default_rng(3))
        for method in ("knn", "ubknn"):
            assert list(predict(ref, [], RunConfig(method=method))) == []
            assert list(predict(ref, (), RunConfig(method=method))) == []


class TestOverflowingDistances:
    """A test row with a euclidean distance past the float range is ranked as
    exact arithmetic ranks it; each reference row is its own class."""

    @pytest.mark.parametrize("q, rows", [
        ([1e200, 9e200], [[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8]]),  # differences round alike
        ([1e308, 1e308], [[-1e308, -1e308], [-0.5e308, -0.5e308]]),  # a difference past the range
        ([0.0, 0.0], [[1.5e308, 1.5e308], [1e308, 1e308], [1.2e308, 1.2e308]]),  # finite and not
        ([1e308, -1e308], [[-1e308, 1e308], [0.0, 0.0], [1e308, -1e308]]),
        ([-1e200, 1e200], [[1e308, 1e-300], [3.0, -1.0], [-2.0, 5.0], [0.5, 0.5]]),  # a far outlier
        ([1e-300, 0.0], [[1.5e308, 1.5e308], [1e308, 1.1e308], [1e308, 1e308]]),
    ])
    def test_nearest_row_is_the_exact_one(self, q, rows):
        exact = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(q, row)) for row in rows]
        ref = ReferenceSet.build(rows, list(range(len(rows))), len(rows))
        assert knn_classify(ref, FeatureVector.of(q), KnnConfig(1, "euclidean")) == exact.index(min(exact))


class TestNearestLabelOrder:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_first_listed_of_the_nearest_wins(self, seed):
        rng = np.random.default_rng(seed)
        ref = dup_ref(rng, int(rng.integers(3, 30)), int(rng.integers(1, 4)), 3)
        rows = [int(i) for i in rng.permutation(ref.size)[: int(rng.integers(1, ref.size + 1))]]
        f = ref.features[rows[int(rng.integers(0, len(rows)))]]  # a listed row: exact ties
        dist = kernel_dist(ref, f, "cosine")
        first = min(range(len(rows)), key=lambda p: (dist[rows[p]], p))
        assert nearest_label(ref, f, rows) == ref.labels[rows[first]]


# few distinct values, so rows repeat, scores tie and some rows are all zero
TIE_VALUES = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1e-200])


@st.composite
def fallback_case(draw):
    """A tie-heavy reference set, a plan (listed rows in another order than
    their indices) and a query: a listed row, another set's row or zeros."""
    m, d = draw(st.integers(2, 24)), draw(st.integers(1, 4))
    distinct = draw(st.lists(st.lists(TIE_VALUES, min_size=d, max_size=d), min_size=1, max_size=6))
    X = [distinct[draw(st.integers(0, len(distinct) - 1))] for _ in range(m)]
    y = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    rows = draw(st.permutations(range(m)))[: draw(st.integers(1, m))]
    f = draw(st.one_of(st.sampled_from([X[i] for i in rows]), st.lists(TIE_VALUES, min_size=d, max_size=d)))
    return ReferenceSet.build(X, y, 3), rows, FeatureVector.of(f)


def outcome(call):
    try:
        return call(), None
    except DegenerateInputError as exc:
        return None, exc


class TestNearestLabelEqualsSubsetKnn:
    @settings(max_examples=300, deadline=None)
    @given(case=fallback_case())
    def test_label_or_error_equals_1nn_over_the_plan_rows(self, case):
        ref, rows, f = case
        got, got_error = outcome(lambda: nearest_label(ref, f, np.array(rows)))
        want, want_error = outcome(lambda: knn_classify(ref.subset(rows), f, KnnConfig(1, "cosine")))
        assert got == want and type(got_error) is type(want_error)
        norms = np.linalg.norm(ref.X, axis=1)  # 0 for [1e-200]: its square underflows
        zero = [i for i in rows if norms[i] == 0.0]
        if zero:  # the first zero-norm listed row, by its reference index; unlisted ones never raise
            assert got_error.index == zero[0] == rows[want_error.index]
        elif want_error is not None:  # the query, which both name as test feature 0
            assert str(got_error) == str(want_error)

    def test_a_row_whose_norm_underflows_is_a_zero_norm_row(self):
        # its unit row is inf, not NaN; it used to win every cosine (label 0 here)
        ref = ReferenceSet.build([[1e-200, 1e-200], [1.0, 0.0]], [0, 1], 2)
        for call in (
            lambda: knn_classify(ref, fv(1.0, 0.01), KnnConfig(1)),
            lambda: nearest_label(ref, fv(1.0, 0.01), [1, 0]),
            lambda: ubknn_classify(ref, fv(1.0, 0.01), UbKnnConfig(KnnConfig(1), 1)),
        ):
            with pytest.raises(DegenerateInputError, match="zero-norm feature vector at index 0") as info:
                call()
            assert info.value.index == 0
        assert nearest_label(ref, fv(1.0, 0.01), [1]) == 1  # unlisted, it is never compared

    def test_an_index_array_and_a_list_give_one_label(self):
        ref = ReferenceSet.build([[0.3, 0.7], [1.0, 0.0], [0.3, 0.7], [0.0, 0.0]], [0, 0, 1, 1], 2)
        rows = np.array([2, 1, 0], dtype=np.intp)
        rows.flags.writeable = False
        assert nearest_label(ref, fv(0.3, 0.7), rows) == nearest_label(ref, fv(0.3, 0.7), [2, 1, 0]) == 1
