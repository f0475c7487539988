import math

import numpy as np
import pytest

from transduct import (
    AttentionConfig,
    FeatureLabelMatrix,
    FeatureVector,
    ReferenceSet,
    attention,
    cosine_1nn_label,
    iterate_self_attention,
    nn_attention_classify,
    self_attention_classify,
)
from transduct.attention import cluster_separation, property_report, two_cluster_fixture
from transduct.core import unit_rows
from transduct.errors import ContractError, DegenerateInputError

from conftest import oracle_1nn


def fv(*v):
    return FeatureVector.of(v)


def random_ref(rng, m=None, d=None, c=2):
    m = m or int(rng.integers(3, 20))
    d = d or int(rng.integers(2, 8))
    feats = rng.normal(size=(m, d))
    labels = rng.integers(0, c, size=m)
    labels[:c] = np.arange(c)
    return ReferenceSet.build(feats, labels, c)


class TestAttentionKernel:
    def test_single_row_softmax_is_one(self):
        out = attention([[1.0, 0.0]], [[1.0, 0.0]], [[1.0]], s=0.37)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0)

    def test_hand_softmax(self):
        out = attention([[1.0, 0.0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], s=1.0)
        e = math.e
        assert out[0] == pytest.approx([e / (e + 1), 1 / (e + 1)], abs=1e-9)
        assert out[0] == pytest.approx([0.7311, 0.2689], abs=1e-4)

    def test_small_scale_limit(self):
        out = attention([[1.0, 0.0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], s=1e-6)
        assert out[0] == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_a_1d_q_k_or_v_is_one_row(self):
        out = attention([[1.0, 0.0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], s=1.0)
        assert np.array_equal(attention([1.0, 0.0], [[1, 0], [0, 1]], [[1, 0], [0, 1]], s=1.0), out)
        assert np.array_equal(attention([[1.0, 0.0]], [1.0, 0.0], [2.0], s=1.0), [[2.0]])
        assert np.array_equal(attention([[1.0, 0.0]], [[1.0, 0.0]], [2.0, 3.0], s=1.0), [[2.0, 3.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            attention([[1.0, 0.0]], [[1.0]], [[1.0]], s=1.0)
        with pytest.raises(ContractError):
            attention([[1.0]], [[1.0], [2.0]], [[1.0]], s=1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ContractError):
            attention([[1.0]], [[1.0]], [[1.0]], s=0.0)

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(0)
        Q, K = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        V = np.eye(7)
        out = attention(Q, K, V, s=0.5)  # V=I exposes the softmax weights
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)

    def test_permutation_of_kv_rows(self):
        rng = np.random.default_rng(1)
        Q, K, V = rng.normal(size=(2, 3)), rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        assert np.allclose(attention(Q, K, V, 0.3), attention(Q, K[perm], V[perm], 0.3), atol=1e-12)


class TestNnAttentionClassify:
    def test_self_match(self):
        ref = ReferenceSet.build([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]], [0, 1, 0], 2)
        out = nn_attention_classify(ref, fv(0.1, 0.9), s=1e-6)
        assert out == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ref = random_ref(rng, c=3)
            out = nn_attention_classify(ref, FeatureVector.of(rng.normal(size=ref.dimension)))
            assert out.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(out >= 0)

    def test_small_s_matches_1nn_oracle(self):
        rng = np.random.default_rng(3)
        agreements = 0
        for _ in range(200):
            ref = random_ref(rng, m=20, d=4, c=3)
            f = FeatureVector.of(rng.normal(size=4))
            pred = int(np.argmax(nn_attention_classify(ref, f, s=1e-6)))
            assert pred == oracle_1nn(ref, f)
            agreements += 1
        assert agreements == 200

    def test_a_row_gives_the_distribution_of_its_feature_vector(self):
        rng = np.random.default_rng(4)
        ref = random_ref(rng, m=20, d=4, c=3)
        row = rng.normal(size=4)
        got = nn_attention_classify(ref, row, s=0.1)
        assert got.tolist() == nn_attention_classify(ref, FeatureVector.of(row), s=0.1).tolist()

    def test_large_s_gives_class_frequencies(self):
        ref = ReferenceSet.build(
            [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.1, 0.9]], [0, 0, 0, 1], 2
        )
        out = nn_attention_classify(ref, fv(0.5, 0.5), s=1e9)
        assert out == pytest.approx([0.75, 0.25], abs=1e-6)

class TestCosine1nnLabel:
    def test_duplicate_rows_tie_to_smaller_index(self):
        # Row j repeats row 0 with the other label; the query is row 0, so the
        # two rows tie exactly and the label of row 0 must win.
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
            assert cosine_1nn_label(ref, FeatureVector.of(feats[0])) == 0, (m, d, j)

    def test_matches_plain_python_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            ref = random_ref(rng, c=3)
            f = FeatureVector.of(rng.normal(size=ref.dimension))
            assert cosine_1nn_label(ref, f) == oracle_1nn(ref, f)

class TestUnitRows:
    def test_rows_have_unit_norm(self):
        X = np.random.default_rng(2).normal(size=(6, 3))
        U = unit_rows(X)
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0)
        assert np.allclose(U * np.linalg.norm(X, axis=1)[:, None], X)

    def test_first_zero_norm_row_is_reported(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError) as info:
            unit_rows(X)
        assert info.value.index == 1

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractError):
            unit_rows(np.zeros((0, 3)))


class TestFeatureLabelMatrix:
    def test_from_reference_invariants(self, small_ref):
        M = FeatureLabelMatrix.from_reference(small_ref, fv(0.7, 0.3))
        assert M.rows.shape == (5, 4)
        assert np.allclose(np.linalg.norm(M.rows[:, :2], axis=1), 1.0, atol=1e-9)
        assert np.allclose(M.rows[-1, 2:], 0.0)

    def test_rejects_unnormalized(self):
        rows = np.array([[2.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        with pytest.raises(ContractError):
            FeatureLabelMatrix(rows, 2, 2)


class TestSelfAttentionClassify:
    def test_equals_setup1_strict(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ref = random_ref(rng, c=3)
            f = FeatureVector.of(rng.normal(size=ref.dimension))
            M = FeatureLabelMatrix.from_reference(ref, f)
            setup1 = nn_attention_classify(ref, f, s=1e-3)
            setup2 = self_attention_classify(M, s=1e-3, strict_setup2=True)
            assert np.abs(setup2 - setup1).max() < 1e-9

    def test_literal_argmax_matches_1nn(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            ref = random_ref(rng, c=2)
            f = FeatureVector.of(rng.normal(size=ref.dimension))
            M = FeatureLabelMatrix.from_reference(ref, f)
            out = self_attention_classify(M, s=1e-6, strict_setup2=False)
            assert int(np.argmax(out)) == oracle_1nn(ref, f)

    def test_single_known_sample(self):
        ref = ReferenceSet.build([[0.2, 0.8]], [1], 2)
        M = FeatureLabelMatrix.from_reference(ref, fv(0.3, 0.7))
        out = self_attention_classify(M, s=1e-6)
        assert int(np.argmax(out)) == 1
        assert out == pytest.approx([0.0, 1.0], abs=1e-9)  # single-candidate softmax


class TestIterateSelfAttention:
    def test_identical_rows_fixed_point(self):
        A = np.tile([0.3, 0.7, 1.0, 0.0], (4, 1))
        assert np.allclose(attention(A, A, A, s=1.0), A, atol=1e-12)

    def test_uniform_rows_converge_immediately(self):
        # identical feature blocks: one step averages all rows together,
        # after which the matrix is row-uniform and stationary
        rows = np.array(
            [[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
        )
        M = FeatureLabelMatrix(rows, 2, 2)
        cfg = AttentionConfig(scale_s=1.0, strict_setup2=True, convergence_tol=1e-12)
        outputs, converged_at = iterate_self_attention(M, cfg)
        assert converged_at == 2
        assert np.allclose(outputs[0], outputs[1], atol=1e-12)

    def test_degenerate_tolerance(self, small_ref):
        M = FeatureLabelMatrix.from_reference(small_ref, fv(0.7, 0.3))
        cfg = AttentionConfig(scale_s=1.0, convergence_tol=float("inf"))
        outputs, converged_at = iterate_self_attention(M, cfg)
        assert converged_at == 1
        assert len(outputs) == 1

    def test_two_cluster_separation(self):
        M = two_cluster_fixture(seed=0)
        cfg = AttentionConfig(scale_s=0.05)
        outputs, converged_at = iterate_self_attention(M, cfg)
        assert converged_at is not None and converged_at <= 256
        intra, inter = cluster_separation(outputs[-1], list(range(5)), list(range(5, 10)))
        assert intra < inter

    def test_step_changes_non_increasing(self):
        # contraction observed empirically on fixtures, not claimed as a theorem
        for seed in range(5):
            M = two_cluster_fixture(seed=seed)
            cfg = AttentionConfig(scale_s=0.05, convergence_tol=1e-12, max_layers=64)
            outputs, _ = iterate_self_attention(M, cfg)
            diffs = [
                np.abs(b - a).max() for a, b in zip(outputs, outputs[1:])
            ]
            assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))


class TestPropertySuites:
    """The three suites of ``property_report``: 50 nearest-neighbour trials,
    as many setup-equivalence trials and 20 clustering trials."""

    @pytest.fixture(scope="class")
    def report(self):
        return property_report(trials=50, seed=0)

    def test_nn_limit_suite_small(self, report):
        assert report["nn_limit"]["agreements"] == report["nn_limit"]["trials"] == 50

    def test_setup_equivalence_suite_small(self, report):
        assert report["setup_equivalence"]["max_elementwise_diff"] < 1e-9
        assert report["setup_equivalence"]["argmax_agreements"] == report["setup_equivalence"]["trials"] == 50

    def test_clustering_suite_small(self, report):
        assert report["clustering"]["separated"] == report["clustering"]["trials"] == 20
        assert all(k != -1 for k in report["clustering"]["converged_at_histogram"])
