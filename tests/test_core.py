from fractions import Fraction

import numpy as np
import pytest

from transduct import (
    FeatureVector,
    IngestionSchema,
    LabeledDataset,
    ReferenceSet,
    derive_error_detection_set,
    load_dataset,
    save_dataset,
)
from transduct.core import load_split_files, unit_cosines, unit_rows
from transduct.errors import (
    ContractError,
    DegenerateInputError,
    SchemaError,
)


def fv(*v):
    return FeatureVector.of(v)


class TestFeatureVector:
    @pytest.mark.parametrize("value", [np.True_, np.float32(0.5), np.int64(1), Fraction(1, 2)])
    def test_takes_numpy_scalars_and_other_reals(self, value):
        assert FeatureVector((0.5, value)).values == (0.5, value)

    def test_argmax_tie_lowest_index(self):
        # the tie rule the base-classifier argmax and the local backend rely on
        assert np.argmax([0.5, 0.5]) == 0
        assert np.argmax([0.1, 0.4, 0.4, 0.1]) == 1


def cosine_scores(U, f):
    """The cosines of ``f`` to the unit rows ``U``, from the one kernel."""
    return unit_cosines(U, unit_rows(f.as_array()[None, :]))[0]


class TestCosineScores:
    def test_identical_unit_vectors(self):
        assert cosine_scores(unit_rows(np.array([[1.0, 0.0]])), fv(1, 0)) == pytest.approx([1.0])

    def test_orthogonal(self):
        assert cosine_scores(unit_rows(np.array([[1.0, 0.0]])), fv(0, 1)) == pytest.approx([0.0])

    def test_hand_value(self):
        # (0.6*0.8 + 0.8*0.6) / (1 * 1)
        assert cosine_scores(unit_rows(np.array([[0.6, 0.8]])), fv(0.8, 0.6)) == pytest.approx([0.96])

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_scores(unit_rows(np.array([[1.0, 0.0]])), fv(0, 0))
        with pytest.raises(DegenerateInputError):
            unit_rows(np.array([[0.0, 0.0]]))

    def test_zero_norm_rows_outside_used_are_nan(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        U = unit_rows(X, used=[1])
        assert np.isnan(U[[0, 2]]).all() and U[1].tolist() == [0.6, 0.8]
        assert np.isnan(unit_rows(X, used=np.array([False, True, False]))[0]).all()
        with pytest.raises(DegenerateInputError) as info:
            unit_rows(X, used=[1, 2])
        assert info.value.index == 2


class TestReferenceSet:
    @pytest.mark.parametrize(
        "labels",
        [[0, 1], [0.0, 1.0], [False, True], [np.int32(0), np.float32(1.0)], np.array([0.0, 1.0]), np.array([0, 1], np.uint8)],
        ids=["int", "float", "bool", "numpy-scalars", "float-array", "uint8-array"],
    )
    def test_whole_labels_of_any_type_read_alike(self, labels):
        ref = ReferenceSet.build([[0.9, 0.1], [0.1, 0.9]], labels, 2)
        assert ref.y.dtype == np.int64 and ref.labels == (0, 1)

    def test_one_hot(self, small_ref):
        oh = small_ref.one_hot_labels()
        assert oh.shape == (4, 2)
        assert oh.sum() == 4
        assert list(np.argmax(oh, axis=1)) == [0, 1, 0, 0]


class TestCsvIngestion:
    def test_single_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label,split\n0.9,0.1,1,val\n")
        ds = load_dataset(path)
        assert ds.reference.size == 1
        assert ds.reference.dimension == 2
        assert ds.reference.class_count >= 2
        assert ds.reference.labels == (1,)

    def test_six_row_fixture_counts(self, tmp_path):
        rows = [
            "0.9,0.1,0,val", "0.2,0.8,1,val", "0.6,0.4,0,val", "0.3,0.7,1,val",
            "0.55,0.45,0,test", "0.15,0.85,1,test",
        ]
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label,split\n" + "\n".join(rows) + "\n")
        # independent count straight off the file text
        lines = path.read_text().strip().splitlines()[1:]
        assert sum(1 for l in lines if l.endswith("val")) == 4
        assert sum(1 for l in lines if l.endswith("test")) == 2
        ds = load_dataset(path)
        assert ds.reference.size == 4
        assert len(ds.test_features) == 2
        assert ds.test_labels == (0, 1)

    def test_split_column_optional_only_for_split_files(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n0.9,0.1,0\n0.1,0.9,1\n")
        ds = load_split_files(path)
        assert len(ds.reference.features) == 2 and ds.reference.labels == (0, 1)
        ds = load_split_files(path, path)
        assert len(ds.test_features) == 2 and ds.test_labels == (0, 1)
        with pytest.raises(SchemaError):
            load_dataset(path)  # one file needs its split column


    def test_test_features_are_built_on_first_use(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label,split\n0.9,0.1,0,val\n0.2,0.8,1,val\n0.3,0.7,1,test\n")
        ds = load_dataset(path)
        assert "test_features" not in vars(ds) and "test_labels" not in vars(ds)
        assert ds.test_X.tolist() == [[0.3, 0.7]] and ds.test_y.tolist() == [1]
        assert ds.test_features == (fv(0.3, 0.7),) and ds.test_labels == (1,)
        assert "test_features" in vars(ds) and ds.test_features is ds.test_features


class TestLabeledDataset:
    def test_read_only_matrix_is_shared_not_copied(self, small_ref):
        T = np.array([[0.3, 0.7], [0.6, 0.4]])
        T.flags.writeable = False
        ds = LabeledDataset(small_ref, T, np.array([1, 0]))
        assert ds.test_X is T
        assert ds.test_y.dtype == np.int64 and not ds.test_y.flags.writeable
        writable = np.array([[0.3, 0.7]])
        copied = LabeledDataset(small_ref, writable, None).test_X
        assert copied is not writable and not copied.flags.writeable and copied.dtype == np.float64

    def test_every_row_form_gives_the_same_arrays_and_views(self, small_ref):
        rows = [[0.3, 0.7], [0.6, 0.4]]
        forms = [rows, [fv(*r) for r in rows], np.array(rows), tuple(map(tuple, rows))]
        for form in forms:
            ds = LabeledDataset(small_ref, form, (1, 0))
            assert ds.test_X.tolist() == rows and ds.test_y.tolist() == [1, 0]
            assert ds.test_features == (fv(0.3, 0.7), fv(0.6, 0.4)) and ds.test_labels == (1, 0)
        empty = LabeledDataset(small_ref, (), None)
        assert empty.test_X.shape == (0, 2) and empty.test_features == () and empty.test_labels is None

    @pytest.mark.parametrize(
        "rows, labels, error, message",
        [
            ([[0.3, 0.7, 0.0], [0.6, 0.4, 0.0]], None, ContractError, "test feature 0 has dimension 3, expected 2"),
            ([[0.3, 0.7], [float("nan"), 0.4]], None, ContractError, "test feature 1 contains non-finite values"),
            ([[0.3, 0.7], [0.6, 0.4]], [1, 2], SchemaError, "test label 2 at index 1 outside [0, 2)"),
            ([[0.3, 0.7], [0.6, 0.4]], [-1, 0], SchemaError, "test label -1 at index 0 outside [0, 2)"),
            ([[0.3, 0.7], [0.6, 0.4]], [1], ContractError, "expected 2 test labels, got 1"),
        ],
        ids=["dimension", "non-finite", "label-above", "label-negative", "length"],
    )
    def test_a_bad_row_or_label_reads_the_same_in_every_form(self, small_ref, rows, labels, error, message):
        finite = all(map(np.isfinite, sum(rows, [])))
        row_forms = [rows, np.array(rows)] + ([[fv(*r) for r in rows]] if finite else [])
        label_forms = [None] if labels is None else [tuple(labels), np.array(labels)]
        for form in row_forms:
            for y in label_forms:
                with pytest.raises(error) as info:
                    LabeledDataset(small_ref, form, y)
                assert str(info.value) == message

class TestJsonIngestion:
    def test_round_trip_shape(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            '{"class_count": 3, "reference": [{"features": [0.2, 0.8], "label": 2}],'
            ' "test": [{"features": [0.5, 0.5]}]}'
        )
        ds = load_dataset(path)
        assert ds.reference.class_count == 3
        assert ds.reference.labels == (2,)
        assert len(ds.test_features) == 1
        assert ds.test_labels is None


class TestSaveLoadRoundTrip:
    def test_identity_on_features_and_labels(self, tmp_path, small_ref):
        ds = LabeledDataset(small_ref, (fv(0.3, 0.7),), (1,))
        path = tmp_path / "out.csv"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert again.reference.features == ds.reference.features
        assert again.reference.labels == ds.reference.labels
        assert again.test_features == ds.test_features
        assert again.test_labels == ds.test_labels

    def test_identity_on_random_data(self, tmp_path):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(12, 5))
        labels = rng.integers(0, 3, size=12)
        ref = ReferenceSet.build(feats[:8], [int(x) for x in labels[:8]], 3)
        ds = LabeledDataset(ref, tuple(FeatureVector.of(r) for r in feats[8:]), None)
        path = tmp_path / "out.csv"
        save_dataset(ds, path)
        again = load_dataset(path, IngestionSchema(class_count=3))
        assert again.reference.features == ds.reference.features
        assert again.test_features == ds.test_features


    @pytest.mark.parametrize("labelled", [True, False])
    def test_json_path_keeps_the_class_count(self, tmp_path, labelled):
        ref = ReferenceSet.build([[0.9, 0.1, 0.0], [0.1, 0.9, -0.0], [1e-300, 0.5, 1 / 3]], [0, 1, 1], 3)
        ds = LabeledDataset(ref, [[0.2, 0.7, 0.1]], [1] if labelled else None)
        path = tmp_path / "out.JSON"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert again.reference.class_count == 3
        assert again.reference.feature_matrix().tobytes() == ref.feature_matrix().tobytes()
        assert again.reference.labels == ref.labels
        assert again.test_X.tobytes() == ds.test_X.tobytes()
        assert again.test_labels == ds.test_labels

    def test_csv_of_a_set_whose_top_class_has_no_row_is_refused(self, tmp_path):
        ref = ReferenceSet.build([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]], [0, 1], 3)
        path = tmp_path / "out.csv"
        with pytest.raises(ContractError, match="class 2 has no row, so it would be read back with 2 classes") as err:
            save_dataset(LabeledDataset(ref, [[0.2, 0.7, 0.1]], [1]), path)
        assert "IngestionSchema(class_count=3) (--class-count 3); save as .json" in str(err.value)
        assert not path.exists()
        save_dataset(LabeledDataset(ref, [[0.2, 0.7, 0.1]], [2]), path)  # a test row of class 2 carries it
        assert load_dataset(path).reference.class_count == 3


class TestDeriveErrorDetectionSet:
    def test_correct_prediction_gets_zero(self):
        out = derive_error_detection_set([fv(0.9, 0.1)], [0])
        assert out.labels == (0,)
        assert out.class_count == 2

    def test_wrong_prediction_gets_one(self):
        out = derive_error_detection_set([fv(0.4, 0.6)], [0])
        assert out.labels == (1,)

    def test_mismatch_count_on_batch(self):
        rng = np.random.default_rng(11)
        probs = []
        trues = []
        for i in range(10):
            p = rng.dirichlet([1, 1, 1])
            probs.append(FeatureVector.of(p))
            trues.append(int(rng.integers(0, 3)))
        out = derive_error_detection_set(probs, trues)
        # brute-force recount
        expected = sum(
            1 for p, t in zip(probs, trues) if int(np.argmax(p.as_array())) != t
        )
        assert sum(out.labels) == expected
        assert out.features == tuple(probs)

    def test_elementwise_rule_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            t = int(rng.integers(0, 4))
            out = derive_error_detection_set([FeatureVector.of(p)], [t])
            assert out.labels[0] == int(int(np.argmax(p)) != t)
