import numpy as np
import pytest

from transduct import generate, split_dataset

from conftest import oracle_1nn, oracle_cosine


class TestGenerators:
    def test_moons_shape_and_balance(self):
        feats, labels = generate("moons", n=200, noise=0.05, seed=0)
        assert len(feats) == len(labels) == 200
        assert sorted(set(labels)) == [0, 1]
        assert labels.count(0) == labels.count(1) == 100
        assert all(len(f.values) == 3 for f in feats)  # lifted coordinate

    def test_circles_shape_and_balance(self):
        feats, labels = generate("circles", n=101, noise=0.0, seed=1)
        assert len(feats) == 101
        assert labels.count(0) == 50 and labels.count(1) == 51

    def test_seeded_determinism(self):
        a = generate("moons", n=40, noise=0.1, seed=7)
        b = generate("moons", n=40, noise=0.1, seed=7)
        c = generate("moons", n=40, noise=0.1, seed=8)
        assert a == b
        assert a != c

    def test_norm_equalization_makes_rows_equal_norm(self):
        feats, _ = generate("circles", n=60, noise=0.05, seed=2)
        norms = [np.linalg.norm(f.values) for f in feats]
        assert np.ptp(norms) < 1e-9

    def test_no_equalize_keeps_2d(self):
        feats, _ = generate("moons", n=20, noise=0.0, seed=0, equalize_norms=False)
        assert all(len(f.values) == 2 for f in feats)

    def test_noiseless_circles_radii(self):
        feats, labels = generate("circles", n=40, noise=0.0, seed=0, equalize_norms=False)
        for f, y in zip(feats, labels):
            r = np.linalg.norm(f.values)
            assert r == pytest.approx(1.0 if y == 0 else 0.5, abs=1e-9)

    def test_equalized_cosine_orders_like_euclidean(self):
        # the lift exists so cosine ranking equals euclidean ranking
        feats, _ = generate("circles", n=30, noise=0.05, seed=3)
        X = np.array([f.values for f in feats])
        q = X[0]
        cos_order = np.argsort([-oracle_cosine(tuple(row), tuple(q)) for row in X[1:]])
        euc_order = np.argsort([np.linalg.norm(row - q) for row in X[1:]])
        assert list(cos_order) == list(euc_order)

    def test_generate_dispatch(self):
        assert generate("moons", n=10, noise=0.0)[0]

class TestSplitDataset:
    def test_stratified_halves(self):
        feats, labels = generate("moons", n=100, noise=0.05, seed=4)
        ds = split_dataset(feats, labels, reference_fraction=0.5)
        assert ds.reference.size == 50
        assert len(ds.test_features) == 50
        ref_labels = list(ds.reference.labels)
        assert ref_labels.count(0) == ref_labels.count(1) == 25

    def test_partition_is_exact(self):
        feats, labels = generate("circles", n=30, noise=0.05, seed=5)
        ds = split_dataset(feats, labels, reference_fraction=0.4)
        combined = sorted(
            list(ds.reference.features) + list(ds.test_features),
            key=lambda f: f.values,
        )
        assert combined == sorted(feats, key=lambda f: f.values)

    def test_toy_data_separable_by_1nn(self):
        # the headline property: cosine 1NN against the reference half
        # classifies the held-out half perfectly on low-noise data
        for name in ("moons", "circles"):
            feats, labels = generate(name, n=120, noise=0.05, seed=6)
            ds = split_dataset(feats, labels)
            hits = sum(
                oracle_1nn(ds.reference, f) == y
                for f, y in zip(ds.test_features, ds.test_labels)
            )
            assert hits / len(ds.test_features) > 0.95
