import gc
import warnings
import weakref
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import (
    BackendConfig,
    FeatureVector,
    LabeledDataset,
    ReferenceSet,
    RunConfig,
    SerializationConfig,
    build_bundle,
    build_plan,
    compute_metrics,
    derive_error_detection_set,
    run_accuracy_improvement,
    run_error_detection,
)
from transduct import KnnConfig, UbKnnConfig, classify, knn_classify, make_backend, ubknn_classify
from transduct import workflow
from transduct.backends import prompt_hash
from transduct.core import _not_numbers, _read_only, _what, _width, as_feature_matrix, checked_rows
from transduct.errors import ContractError, DegenerateInputError
from transduct.workflow import base_classifier_report, predict


def fv(*v):
    return FeatureVector.of(v)


def oracle_metrics(predictions, truths, class_count):
    """Independent confusion/metric computation, plain loops."""
    confusion = [[0] * class_count for _ in range(class_count)]
    for p, t in zip(predictions, truths):
        confusion[t][p] += 1
    recalls = []
    per_class = []
    for c in range(class_count):
        support = sum(confusion[c])
        r = confusion[c][c] / support if support else 0.0
        per_class.append(r)
        if support:
            recalls.append(r)
    return confusion, per_class, sum(recalls) / len(recalls)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        report = compute_metrics([0, 1, 2, 0], [0, 1, 2, 0], 3)
        assert report.balanced_accuracy == 1.0
        assert report.per_class_accuracy == (1.0, 1.0, 1.0)
        assert report.precision is None  # only reported for binary tasks

    def test_hand_confusion(self):
        # TP=3 FP=2 FN=1 TN=4 with positive class 1
        predictions = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        truths = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        report = compute_metrics(predictions, truths, 2, positive_class=1)
        assert report.precision == pytest.approx(0.6)
        assert report.recall == pytest.approx(0.75)
        assert report.f_score == pytest.approx(2 / 3)
        # balanced accuracy is the mean of per-class recalls: (3/4 + 4/6) / 2
        assert report.balanced_accuracy == pytest.approx(17 / 24)

    def test_all_one_class_on_balanced_binary(self):
        report = compute_metrics([0, 0, 0, 0], [0, 0, 1, 1], 2)
        assert report.balanced_accuracy == pytest.approx(0.5)
        assert report.recall == 0.0
        assert report.f_score == 0.0

    def test_positive_class_flip(self):
        predictions = [1, 1, 0, 0]
        truths = [1, 0, 1, 0]
        rep_pos1 = compute_metrics(predictions, truths, 2, positive_class=1)
        rep_pos0 = compute_metrics(predictions, truths, 2, positive_class=0)
        assert rep_pos1.precision == pytest.approx(0.5)
        assert rep_pos0.precision == pytest.approx(0.5)
        assert rep_pos1.balanced_accuracy == rep_pos0.balanced_accuracy

    def test_confusion_sums_to_n(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 4, size=100)
        truths = rng.integers(0, 4, size=100)
        report = compute_metrics(list(preds), list(truths), 4)
        assert sum(sum(row) for row in report.confusion) == 100
        assert report.n_test == 100

    def test_whole_float_labels_count_as_their_integers(self):
        assert compute_metrics([1.0, 0], [1, 0.0], 2).confusion == compute_metrics([1, 0], [1, 0], 2).confusion

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_matches_independent_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 40))
        preds = [int(x) for x in rng.integers(0, c, size=n)]
        truths = [int(x) for x in rng.integers(0, c, size=n)]
        report = compute_metrics(preds, truths, c)
        confusion, per_class, balanced = oracle_metrics(preds, truths, c)
        assert [list(r) for r in report.confusion] == confusion
        assert report.per_class_accuracy == pytest.approx(per_class)
        assert report.balanced_accuracy == pytest.approx(balanced)


def echo_truth_fixtures(ref, test_probs, truths, ratio=0.5, interleave=True, ser=SerializationConfig()):
    """Mock fixture table scripting the backend to answer the ground truth."""
    plan = build_plan(ref, ratio, interleave)
    table = {}
    for f, t in zip(test_probs, truths):
        bundle = build_bundle(ref, f, plan, ser)
        table[prompt_hash(bundle.prompt)] = f" {t}"
    return table


VAL_PROBS = [fv(0.9, 0.1), fv(0.2, 0.8), fv(0.4, 0.6), fv(0.7, 0.3), fv(0.3, 0.7), fv(0.6, 0.4)]
VAL_TRUE = [0, 1, 0, 1, 1, 0]  # errors at indices 2 and 3
TEST_PROBS = [
    fv(0.8, 0.2), fv(0.1, 0.9), fv(0.45, 0.55), fv(0.65, 0.35), fv(0.25, 0.75),
    fv(0.9, 0.1), fv(0.4, 0.6), fv(0.55, 0.45), fv(0.35, 0.65), fv(0.15, 0.85),
]
TEST_TRUE = [0, 1, 0, 1, 1, 0, 0, 0, 1, 1]


def error_truths():
    return [1 if np.argmax(p.values) != t else 0 for p, t in zip(TEST_PROBS, TEST_TRUE)]


class TestRunErrorDetection:
    def test_perfect_mock_detector(self):
        ref = derive_error_detection_set(VAL_PROBS, VAL_TRUE)
        truths = error_truths()
        table = echo_truth_fixtures(ref, TEST_PROBS, truths)
        cfg = RunConfig(
            backend=BackendConfig(kind="mock", mock_fixtures=table),
            selection_ratio=0.5,
        )
        report = run_error_detection(VAL_PROBS, VAL_TRUE, TEST_PROBS, TEST_TRUE, cfg)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f_score == 1.0
        assert report.balanced_accuracy == 1.0
        assert report.fallback_count == 0

    def test_always_zero_mock(self):
        cfg = RunConfig(backend=BackendConfig(kind="mock", mock_default=" 0"), selection_ratio=0.5)
        report = run_error_detection(VAL_PROBS, VAL_TRUE, TEST_PROBS, TEST_TRUE, cfg)
        truths = error_truths()
        assert sum(truths) == 3  # fixture has 3 base-classifier errors
        assert report.recall == 0.0
        assert report.balanced_accuracy == pytest.approx(0.5)

    def test_local_backend_equals_1nn_oracle_pipeline(self):
        from conftest import oracle_1nn

        cfg = RunConfig(
            backend=BackendConfig(kind="local-attention"),
            selection_ratio=1.0,
            serialization=SerializationConfig(decimals=6),
        )
        report = run_error_detection(VAL_PROBS, VAL_TRUE, TEST_PROBS, TEST_TRUE, cfg)
        ref = derive_error_detection_set(VAL_PROBS, VAL_TRUE)
        plan = build_plan(ref, 1.0, True)
        selected = ref.subset(list(plan.ordered_indices))
        # re-run the pipeline with a brute-force 1NN on the rounded prompts
        from transduct.prompt import parse_prompt

        ser = SerializationConfig(decimals=6)
        preds = []
        for f in TEST_PROBS:
            bundle = build_bundle(ref, f, plan, ser)
            ref_p, f_p = parse_prompt(bundle.prompt)
            preds.append(oracle_1nn(ref_p, FeatureVector.of(f_p)))
        expected = compute_metrics(preds, error_truths(), 2)
        assert report.confusion == expected.confusion
        assert report.balanced_accuracy == expected.balanced_accuracy


THREE_CLASS_PROTOS = {
    0: (0.8, 0.1, 0.1),
    1: (0.1, 0.8, 0.1),
    2: (0.15, 0.55, 0.3),  # systematic confusion: class 2 mass leaks into class 1
}


def three_class_split(rng, n_per_class):
    probs, trues = [], []
    for c, proto in THREE_CLASS_PROTOS.items():
        for _ in range(n_per_class):
            jitter = rng.normal(0, 0.01, size=3)
            v = np.clip(np.asarray(proto) + jitter, 0.01, None)
            probs.append(FeatureVector.of(v / v.sum()))
            trues.append(c)
    return probs, trues


class TestRunAccuracyImprovement:
    def test_mock_echoing_argmax_matches_base(self):
        rng = np.random.default_rng(3)
        val_probs, val_true = three_class_split(rng, 4)
        test_probs, test_true = three_class_split(rng, 3)
        from transduct.core import ReferenceSet

        ref = ReferenceSet.build(val_probs, val_true, 3)
        argmaxes = [np.argmax(p.values) for p in test_probs]
        table = echo_truth_fixtures(ref, test_probs, argmaxes)
        cfg = RunConfig(
            backend=BackendConfig(kind="mock", mock_fixtures=table), selection_ratio=0.5
        )
        report, base = run_accuracy_improvement(val_probs, val_true, test_probs, test_true, cfg)
        assert report.confusion == base.confusion
        assert report.balanced_accuracy == base.balanced_accuracy

    def test_local_backend_fixes_systematic_confusion(self):
        rng = np.random.default_rng(4)
        val_probs, val_true = three_class_split(rng, 6)
        test_probs, test_true = three_class_split(rng, 5)
        cfg = RunConfig(backend=BackendConfig(kind="local-attention"), selection_ratio=1.0)
        report, base = run_accuracy_improvement(val_probs, val_true, test_probs, test_true, cfg)
        # base argmax calls every class-2 sample class 1
        assert base.per_class_accuracy[2] == 0.0
        assert report.per_class_accuracy[2] == 1.0
        assert report.balanced_accuracy >= base.balanced_accuracy

    def test_per_class_accuracies_average_to_balanced(self):
        rng = np.random.default_rng(5)
        val_probs, val_true = three_class_split(rng, 4)
        test_probs, test_true = three_class_split(rng, 3)
        cfg = RunConfig(backend=BackendConfig(kind="local-attention"), selection_ratio=0.5)
        report, _ = run_accuracy_improvement(val_probs, val_true, test_probs, test_true, cfg)
        assert report.balanced_accuracy == pytest.approx(
            sum(report.per_class_accuracy) / 3
        )

    def test_inferred_class_count_is_at_least_two(self):
        # every label 0, as in a file: two classes, so two-column features fit
        probs = [fv(0.9, 0.1), fv(0.8, 0.2)]
        cfg = RunConfig(method="knn", knn=KnnConfig(k_neighbors=1))
        report, base = run_accuracy_improvement(probs, [0, 0], probs, [0, 0], cfg)
        assert len(report.confusion) == len(base.confusion) == 2

    def test_a_class_count_past_its_bound_is_refused_before_the_first_sample(self, monkeypatch):
        monkeypatch.setattr(workflow, "batch_classify", lambda *a: pytest.fail("a sample was classified"))
        V, T = np.eye(3, 4097), np.eye(2, 4097)
        with pytest.raises(ContractError, match="^class_count must be at most 4096, got 4097$"):
            run_accuracy_improvement(V, [0, 1, 2], T, [0, 1], RunConfig(method="knn", knn=KnnConfig(1)), class_count=4097)

    def test_base_report_never_predicted_class(self):
        # a class the base argmax never predicts gets per-class accuracy 0
        probs = [fv(0.6, 0.3, 0.1), fv(0.5, 0.4, 0.1), fv(0.2, 0.7, 0.1)]
        trues = [0, 2, 1]
        base = base_classifier_report(probs, trues, 3)
        assert base.per_class_accuracy[2] == 0.0


class TestWorkflowProperties:
    def test_part1_shared_across_test_samples(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        b1 = build_bundle(small_ref, fv(0.7, 0.3), plan)
        b2 = build_bundle(small_ref, fv(0.2, 0.8), plan)
        assert b1.part1 == b2.part1
        assert b1.part2 != b2.part2

    def test_end_to_end_determinism(self):
        cfg = RunConfig(backend=BackendConfig(kind="local-attention"), selection_ratio=0.5)
        first = run_error_detection(VAL_PROBS, VAL_TRUE, TEST_PROBS, TEST_TRUE, cfg)
        second = run_error_detection(VAL_PROBS, VAL_TRUE, TEST_PROBS, TEST_TRUE, cfg)
        assert first == second

    def test_knn_and_ubknn_methods_run(self):
        # the derived reference has only 2 error samples, so keep k small
        configs = [
            RunConfig(method="knn", knn=KnnConfig(k_neighbors=3)),
            RunConfig(method="ubknn", knn=KnnConfig(k_neighbors=3)),
        ]
        for cfg in configs:
            report = run_error_detection(VAL_PROBS, VAL_TRUE, TEST_PROBS, TEST_TRUE, cfg)
            assert report.n_test == len(TEST_PROBS)
            assert report.fallback_count == 0


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


class TestPredict:
    def test_prompt_method_shares_one_plan_and_backend(self, monkeypatch):
        calls = []
        monkeypatch.setattr(workflow, "build_plan", counting(calls, "plan", build_plan))
        monkeypatch.setattr(workflow.backends_mod, "make_backend", counting(calls, "backend", make_backend))
        ref = derive_error_detection_set(VAL_PROBS, VAL_TRUE)
        cfg = RunConfig(backend=BackendConfig(kind="local-attention"), selection_ratio=0.5)
        results = list(predict(ref, TEST_PROBS, cfg))
        assert calls == ["plan", "backend"]
        plan = build_plan(ref, 0.5, True)
        backend = make_backend(cfg.backend)
        for f, (label, audit) in zip(TEST_PROBS, results):
            assert (label, audit) == classify(ref, f, plan, backend)
            assert audit.label == label
        assert len({id(audit.part1) for _, audit in results}) == 1

    def test_baselines_yield_no_audit(self):
        ref = derive_error_detection_set(VAL_PROBS, VAL_TRUE)
        knn, ubknn = KnnConfig(k_neighbors=3), UbKnnConfig(KnnConfig(k_neighbors=3), 5, 7)
        cfg = RunConfig(method="knn", knn=knn, bags=5, seed=7)
        assert list(predict(ref, TEST_PROBS, cfg)) == [(knn_classify(ref, f, knn), None) for f in TEST_PROBS]
        cfg = RunConfig(method="ubknn", knn=knn, bags=5, seed=7)
        assert list(predict(ref, TEST_PROBS, cfg)) == [(ubknn_classify(ref, f, ubknn), None) for f in TEST_PROBS]

    def test_ubknn_reads_k_and_metric_from_knn(self):
        # a seeded set where UB-KNN's labels at k = 1 and k = 5 differ
        rng = np.random.default_rng(3)
        ref = ReferenceSet.build(rng.uniform(0.05, 1.0, size=(48, 3)), rng.integers(0, 2, size=48), 2)
        tests = [FeatureVector.of(q) for q in rng.uniform(0.05, 1.0, size=(200, 3))]
        k1, k5 = UbKnnConfig(KnnConfig(1), 3), UbKnnConfig(KnnConfig(5), 3)
        expected = [ubknn_classify(ref, f, k1) for f in tests]
        assert expected != [ubknn_classify(ref, f, k5) for f in tests]
        cfg = RunConfig(method="ubknn", knn=KnnConfig(1), bags=3)
        assert [label for label, _ in predict(ref, tests, cfg)] == expected

    @pytest.mark.parametrize("method", ["prompt-local", "prompt-mock", "knn", "ubknn"])
    def test_matrix_and_feature_vectors_give_equal_labels_and_audits(self, method):
        rng = np.random.default_rng(8)
        ref = ReferenceSet.build(rng.dirichlet(np.ones(3), size=30), np.arange(30) % 3, 3)
        ds = LabeledDataset(ref, rng.dirichlet(np.ones(3), size=12))
        backend = {
            "prompt-local": BackendConfig(kind="local-attention"),
            "prompt-mock": BackendConfig(kind="mock", mock_default=" 2"),
        }.get(method, BackendConfig())
        cfg = RunConfig(method=method.split("-")[0], backend=backend, selection_ratio=0.5, knn=KnnConfig(3), bags=3)
        from_matrix = list(predict(ref, ds.test_X, cfg))
        assert from_matrix == list(predict(ref, ds.test_features, cfg))
        assert len(from_matrix) == 12

    @pytest.mark.parametrize(
        "backend", [BackendConfig(kind="local-attention"), BackendConfig(kind="mock")], ids=["local", "mock"]
    )
    def test_test_row_rendered_to_zeros_takes_the_fallback_unsent(self, backend):
        # the mock has no fixture and no default: a request would raise TransportError
        ref = ReferenceSet.build([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]], [0, 0, 1, 1], 2)
        [(label, audit)] = predict(ref, [fv(0.001, 0.002)], RunConfig(backend=backend, selection_ratio=1.0))
        assert audit.part2 == "[0.00, 0.00] is in class\n"
        assert (audit.completions, audit.fallback, label) == ((), True, 1)

    @pytest.mark.parametrize("reply", [" 1", " x"], ids=["answered", "fallback"])
    def test_prompt_method_checks_the_matrix_then_each_row_in_its_bundle(self, monkeypatch, reply):
        from transduct import backends, baselines, core, prompt

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return core.checked_rows(*args, **kwargs)

        for module in (backends, baselines, prompt, workflow):
            if hasattr(module, "checked_rows"):
                monkeypatch.setattr(module, "checked_rows", spy)
        ref = ReferenceSet.build([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]], [0, 0, 1, 1], 2)
        tests = np.array([[0.7, 0.3], [0.4, 0.6], [0.2, 0.8], [0.6, 0.4]])
        cfg = RunConfig(backend=BackendConfig(kind="mock", mock_default=reply), selection_ratio=1.0)
        results = list(predict(ref, tests, cfg))
        fallbacks = [audit.fallback for _, audit in results]
        assert fallbacks == [reply == " x"] * 4
        # one check of the matrix, one per build_bundle, and a fallback's
        # cosine 1-NN checks its row for zero norm
        assert len(calls) == 1 + len(tests) + sum(fallbacks)

    @pytest.mark.parametrize(
        "backend",
        [BackendConfig(kind="mock", mock_default=" 1"), BackendConfig(kind="mock", mock_default=" x"),
         BackendConfig(kind="local-attention")],
        ids=["answered", "fallback", "local"],
    )
    def test_prompt_method_runs_each_sample_through_the_public_classify(self, monkeypatch, backend):
        # the benchmark's tracer wraps these two names, and CI's traced run counts the
        # backends.classify spans: each sample must pass through both, once and in order
        from transduct import backends

        seen = {"classify": [], "build_bundle": []}

        def recorded(name, fn):
            def wrapper(ref, f_test, *args, **kwargs):
                seen[name].append(np.asarray(f_test).tolist())
                return fn(ref, f_test, *args, **kwargs)

            return wrapper

        for name in seen:
            monkeypatch.setattr(backends, name, recorded(name, getattr(backends, name)))
        ref = ReferenceSet.build([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]], [0, 0, 1, 1], 2)
        tests = np.array([[0.7, 0.3], [0.4, 0.6], [0.2, 0.8]])
        assert len(list(predict(ref, tests, RunConfig(backend=backend, selection_ratio=1.0)))) == 3
        assert seen == {"classify": tests.tolist(), "build_bundle": tests.tolist()}

    @pytest.mark.parametrize(
        "ref_rows", [[[0.9, 0.1], [0.8, 0.2], [0.2, 0.8]], [[0.9, 0.1], [0.0, 0.0], [0.2, 0.8]]],
        ids=["good-reference", "zero-reference-row"],
    )
    @pytest.mark.parametrize("kind", ["local-attention", "mock"])
    def test_a_bad_test_row_is_refused_before_the_plan_and_the_backend(self, monkeypatch, ref_rows, kind):
        calls = []
        monkeypatch.setattr(workflow, "build_plan", counting(calls, "plan", build_plan))
        monkeypatch.setattr(workflow.backends_mod, "make_backend", counting(calls, "backend", make_backend))
        ref = ReferenceSet.build(ref_rows, [0, 0, 1], 2)
        cfg = RunConfig(backend=BackendConfig(kind=kind), selection_ratio=1.0)
        # the test row's error wins over the zero reference row the plan would refuse
        with pytest.raises(ContractError, match="test feature 1 contains non-finite values") as info:
            next(predict(ref, np.array([[0.7, 0.3], [np.nan, 0.5]]), cfg))
        assert type(info.value) is ContractError and calls == []

    def test_reference_row_rendered_to_zeros_keeps_its_message(self):
        ref = ReferenceSet.build([[0.9, 0.1], [0.001, 0.002], [0.1, 0.9]], [0, 0, 1], 2)
        cfg = RunConfig(backend=BackendConfig(kind="local-attention"), selection_ratio=1.0)
        # the local backend names the row by its Part 1 line: plan (0, 2, 1) renders row 1 last, as [0.00, 0.00]
        with pytest.raises(DegenerateInputError) as info:
            list(predict(ref, [fv(0.7, 0.3)], cfg))
        assert str(info.value) == "Part 1 line 3 has zero norm; cosine similarity undefined" and info.value.index == 2

    def test_reference_set_is_freed_after_a_local_run(self):
        rng = np.random.default_rng(5)
        ref = ReferenceSet.build(rng.dirichlet(np.ones(3), size=40), np.arange(40) % 3, 3)
        tests = [FeatureVector.of(r) for r in rng.dirichlet(np.ones(3), size=5)]
        cfg = RunConfig(backend=BackendConfig(kind="local-attention"))
        assert len(list(predict(ref, tests, cfg))) == 5
        alive = weakref.ref(ref)
        del ref
        gc.collect()
        assert alive() is None

    def test_fallbacks_are_counted(self):
        cfg = RunConfig(backend=BackendConfig(kind="mock", mock_default="??"), selection_ratio=0.5)
        report = run_error_detection(VAL_PROBS, VAL_TRUE, TEST_PROBS, TEST_TRUE, cfg)
        assert report.fallback_count == len(TEST_PROBS)


def row_walk_oracle(queries, d, cosine):
    """``checked_rows`` as it was before its whole-input test: the rows are
    walked in order, up to the first of another width or shape, every time."""
    if not (isinstance(queries, Sequence) or isinstance(queries, np.ndarray) and queries.ndim == 2):
        raise ContractError(f"test features must form an (n, d) matrix or a sequence of rows, got {_what(queries)}")
    rows = queries[:1] if isinstance(queries, np.ndarray) else queries
    n = next((i for i, f in enumerate(rows) if _width(f) != d or getattr(f, "ndim", 1) != 1), len(queries))
    head = queries[:n] if n < len(queries) else queries
    try:
        Q = as_feature_matrix(head) if n else _read_only(np.empty((0, d)))
    except ContractError:
        for i, why in enumerate(_not_numbers(row, d) for row in head):
            if why:
                row_walk_oracle(head[:i], d, cosine)
                raise ContractError(f"test feature {i} is not a row of numbers: {why}") from None
        raise
    finite = np.isfinite(Q).all(axis=1)
    good = finite & Q.any(axis=1) if cosine else finite  # [1e-200] is scaled, not refused
    if not good.all():
        i = int(np.argmin(good))
        if not finite[i]:
            raise ContractError(f"test feature {i} contains non-finite values")
        raise DegenerateInputError(f"test feature {i} has zero norm; cosine similarity undefined", index=i)
    if n < len(queries):
        w = _width(queries[n])
        problem = f"is not a row of numbers, got {_what(queries[n])}" if w in (None, d) else f"has dimension {w}, expected {d}"
        raise ContractError(f"test feature {n} {problem}")
    return Q


FINITE = st.sampled_from([0.0, 0.0, 0.5, -1.0, 2.0, 1e-200, 1e300])
ITEMS = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf, True, False, 3, "0.5", "x", None, [0.5]]))


@st.composite
def row_input(draw, d):
    """One test row, mostly good: a list, tuple, FeatureVector or array of d
    numbers, or a ragged row, a string, a number or a 0-d, 2-D or 3-D array."""
    width = draw(st.sampled_from([d, d, d, d, d - 1, d + 1]))
    finite = draw(st.lists(FINITE, min_size=width, max_size=width))
    kind = draw(st.sampled_from(["list", "list", "tuple", "vector", "array", "array", "mixed", "other"]))
    if kind == "list":
        return finite
    if kind == "tuple":
        return tuple(finite)
    if kind == "vector":
        return FeatureVector.of(finite) if finite else [0.5] * d
    if kind == "array":
        return np.array(finite)
    if kind == "mixed":
        return draw(st.lists(ITEMS, min_size=width, max_size=width))
    return draw(st.sampled_from([
        "ab"[:d] or "a", 0.5, np.array(0.5), np.full((1, d), 0.5), np.full((d, d), 0.5),
        np.full((1, 1, d), 0.5), np.array([True] * d), np.array(["0.5"] * d), np.array([np.nan] * d),
    ]))


@st.composite
def rows_input(draw):
    """``(queries, d)``: a sequence of rows, a 2-D array of several dtypes and
    flags (a read-only float64 one among them), or something that is neither."""
    d = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["list", "list", "list", "tuple", "matrix", "matrix", "other"]))
    if shape in ("list", "tuple"):
        rows = draw(st.lists(row_input(d), max_size=4))
        return (rows if shape == "list" else tuple(rows)), d
    if shape == "matrix":
        n, width = draw(st.integers(0, 4)), draw(st.sampled_from([d, d, d + 1]))
        X = np.array(draw(st.lists(ITEMS.filter(lambda v: not isinstance(v, (str, list)) and v is not None),
                                   min_size=n * width, max_size=n * width)), dtype=float).reshape(n, width)
        with np.errstate(invalid="ignore", over="ignore"):  # NaN, inf and 1e300 cast to int64 or float32
            X = X.astype(draw(st.sampled_from([np.float64, np.float64, np.float32, np.int64, bool, object])))
        X.flags.writeable = draw(st.booleans())
        return X, d
    return draw(st.sampled_from([np.full(d, 0.5), np.full((2, d, 1), 0.5), 0.5, "0.5", "ab"])), d


def row_check_outcome(check, queries, d, cosine):
    try:
        Q = check(queries, d, cosine)
    except Exception as exc:  # the error's type and message must match too
        return type(exc), str(exc)
    return Q.dtype, Q.shape, Q.tolist(), Q.flags.writeable, Q is queries


class TestRowCheckEqualsTheRowWalk:
    @settings(max_examples=1000, deadline=None)
    @given(case=rows_input(), cosine=st.booleans())
    def test_same_matrix_or_same_error(self, case, cosine):
        queries, d = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy's cast warnings for inf, NaN and huge values
            assert row_check_outcome(checked_rows, queries, d, cosine) == row_check_outcome(row_walk_oracle, queries, d, cosine)
