import gc
import weakref

import numpy as np
import pytest

from transduct import FeatureVector, KnnConfig, ReferenceSet, UbKnnConfig, knn_classify, ubknn_classify
from transduct.baselines import nearest_label
from transduct.errors import ContractError, DegenerateInputError

from conftest import oracle_cosine


def fv(*v):
    return FeatureVector.of(v)


def blob_ref(rng, n_major=30, n_minor=3):
    major = rng.normal([1.0, 0.2], 0.35, size=(n_major, 2))
    minor = rng.normal([0.6, 0.7], 0.35, size=(n_minor, 2))
    feats = np.vstack([major, minor])
    labels = [0] * n_major + [1] * n_minor
    return ReferenceSet.build(feats, labels, 2)


def oracle_knn(ref, f_test, k, metric="cosine"):
    """Exhaustive sort + vote, plain Python."""
    if metric == "cosine":
        dist = [1.0 - oracle_cosine(f.values, f_test.values) for f in ref.features]
    else:
        dist = [
            sum((a - b) ** 2 for a, b in zip(f.values, f_test.values)) ** 0.5
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


def oracle_ubknn(ref, f_test, cfg):
    """KNN on each bag's subset (in index order), then a vote across bags."""
    votes = [0] * ref.class_count
    for rows in oracle_bags(ref, cfg.n_bags, cfg.seed):
        votes[oracle_knn(ref.subset(rows), f_test, cfg.base.k_neighbors, cfg.base.metric)] += 1
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

    def test_k_too_large(self, small_ref):
        with pytest.raises(ContractError):
            knn_classify(small_ref, fv(0.5, 0.5), KnnConfig(k_neighbors=5))

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
