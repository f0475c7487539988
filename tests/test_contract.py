"""The input contract in one table: what every public entry point does with each input form.

A row is an input form (a 0-d array, a generator, NaN, a bool where an integer belongs, a
directory where a data file belongs, ...); a column is an entry point, with the slot it takes the
input in. A cell names the outcome:

* an error type and its message, exact or, where the end is numpy's or Python's text, ending in
  "..." for its start. No backend may have been asked for a completion and no label yielded
  before it, and ``cli.main`` must report it as ``error: <message>`` with the exit code
  :data:`EXIT_CODES` gives its type, and no traceback;
* ``OK``: the call returns; or ``Value(x)``: it returns ``x`` (labels, scores, a distribution).

Each family is a grid: a form's outcome holds in every column unless the form names its own
outcome for a column. A cell's id is its family's name, its column's and its form's, and no two
cells share one. The file and command rows run ``cli.main`` on small files and check the
exit code, the message and what reached ``--out``. README's "Errors and exit codes" table names
the same exit codes as :data:`EXIT_CODES`.
"""

import contextlib
import io
import json
import re
import warnings
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from transduct import (
    AttentionConfig, BackendConfig, CompletionRequest, CompletionResponse, FeatureLabelMatrix, FeatureVector,
    IngestionSchema, KnnConfig, LabeledDataset, ReferenceSet, RetryPolicy, RunConfig, SelectionPlan, SerializationConfig,
    UbKnnConfig, attention, build_bundle, build_part1, build_part2, build_plan, classify, cli, compute_metrics,
    cosine_1nn_label, derive_error_detection_set, generate, iterate_self_attention, knn_classify, load_dataset,
    make_backend, nn_attention_classify, representativeness, run_accuracy_improvement, run_error_detection,
    self_attention_classify, split_dataset, ubknn_classify,
)
from transduct.attention import property_report, two_cluster_fixture
from transduct.backends import LocalAttentionBackend, MockBackend, RateLimiter, RemoteBackend
from transduct.core import load_split_files
from transduct.errors import (
    ContractError, CredentialError, DatasetParseError, DegenerateInputError, GrammarError, NumericError,
    RequestBudgetError, SchemaError, TokenBudgetError, TransductError, TransportError, ValidationError,
)
from transduct.workflow import base_classifier_report, predict

EXIT_CODES = {  # the exit code of cli.main for each error type
    TransductError: 1, ContractError: 1, DegenerateInputError: 1, DatasetParseError: 1, SchemaError: 1,
    ValidationError: 1, TokenBudgetError: 1, NumericError: 1, GrammarError: 1,
    OSError: 1,  # an output path that cannot be written
    CredentialError: 2, TransportError: 2, RequestBudgetError: 2,
}


class Value:
    """The outcome of a call that returns ``value``."""

    def __init__(self, value):
        self.value = value


OK = Value(None)  # the call returns; what it returns is not pinned


def grid(family, columns, forms):
    """The cells of a family: ``forms`` maps a form to ``(input, outcome[, {column: outcome}])``."""
    return [
        pytest.param(call, value, own[0].get(column, outcome) if own else outcome, id=f"{family}-{column}-{form}")
        for form, (value, outcome, *own) in forms.items()
        for column, call in columns.items()
    ]


def unique_ids(cells):
    """``cells``, whose ids must all differ: pytest would suffix a repeated one."""
    ids = [c.id for c in cells]
    assert len(set(ids)) == len(ids), sorted({i for i in ids if ids.count(i) > 1})
    return cells


ASKED = []  # every completion a backend is asked for


@pytest.fixture(scope="module", autouse=True)
def count_completions():
    with pytest.MonkeyPatch.context() as patch:
        for kind in (MockBackend, LocalAttentionBackend, RemoteBackend):
            patch.setattr(kind, "complete", lambda self, req, fn=kind.complete: ASKED.append(req) or fn(self, req))
        yield


def run_cli(argv) -> tuple[int, str, str]:
    """``cli.main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_CLI_CODES = {}


def cli_exit_code(exc: Exception) -> int:
    """The exit code of ``cli.main`` for a command that raises ``exc``, which it must print as
    ``error: <exc>`` with no traceback; it depends only on the type, so it is run once per type."""
    if type(exc) not in _CLI_CODES:

        def command(args):
            raise exc

        with mock.patch.object(cli, "_cmd_plan", command):
            code, _, err = run_cli(["plan"])
        assert err == f"error: {exc}\n"
        _CLI_CODES[type(exc)] = code
    return _CLI_CODES[type(exc)]


def check_message(text: str, message: str):
    assert text.startswith(message[:-3]) if message.endswith("...") else text == message


def check(call, value, outcome):
    ASKED.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no warning on the way, numpy's casts and overflows among them
        if isinstance(outcome, Value):
            result = call(value() if callable(value) else value)
            assert outcome is OK or result == outcome.value
            return
        kind, message = outcome
        with pytest.raises(TransductError) as info:
            call(value() if callable(value) else value)
    exc = info.value
    assert type(exc) is kind
    check_message(str(exc), message)
    if kind is DegenerateInputError:  # it names the row by its index
        assert exc.index == int(re.search(r"\d+", message).group())
    assert cli_exit_code(exc) == EXIT_CODES[kind]
    assert ASKED == []


# --- test rows: the one test-row rule, core.checked_rows ---------------------------------------

REF = ReferenceSet.build([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]], [0, 0, 1, 1], 2)
MOCK_1 = BackendConfig(kind="mock", mock_default=" 1")
UNPARSEABLE = BackendConfig(kind="mock", mock_default=" x")  # each reply fails, so the fallback labels
LOCAL = BackendConfig(kind="local-attention")
PROBS2 = [[0.9, 0.1], [0.2, 0.8]]
KNN1 = RunConfig(method="knn", knn=KnnConfig(k_neighbors=1))


def labels_of(results) -> list:
    """The labels ``predict`` yields; an error must come before the first."""
    labels = []
    try:
        for label, _ in results:
            labels.append(label)
    except TransductError:
        assert labels == []
        raise
    return labels


def predicted(method, backend=MOCK_1, metric="cosine"):
    cfg = RunConfig(method=method, backend=backend, selection_ratio=1.0, knn=KnnConfig(1, metric), bags=3)
    return lambda test_X: labels_of(predict(REF, test_X, cfg))


MATRIX_TAKERS = {
    "predict-knn": predicted("knn"),
    "predict-knn-euclidean": predicted("knn", metric="euclidean"),
    "predict-ubknn": predicted("ubknn"),
    "predict-prompt": predicted("prompt"),
    "predict-prompt-local": predicted("prompt", LOCAL),
    "LabeledDataset": lambda test_X: LabeledDataset(REF, test_X),
    "run_error_detection": lambda test_X: run_error_detection(PROBS2, [0, 1], test_X, [0, 1], KNN1),
    "run_accuracy_improvement": lambda test_X: run_accuracy_improvement(PROBS2, [0, 1], test_X, [0, 1], KNN1),
    "base_classifier_report": lambda test_X: base_classifier_report(test_X, [0, 1], 2),
}
NOT_ROWS = "test features must form an (n, d) matrix or a sequence of rows, got"
ZERO_NORM = "has zero norm; cosine similarity undefined"
# only where a cosine ranks a row is a zero row refused
NOT_COSINE = dict.fromkeys(("predict-knn-euclidean", "LabeledDataset", "base_classifier_report"), OK)
BIG = [1e200, 9e200]  # a finite row whose norm overflows; its cosine-nearest reference row is of class 1
MATRIX_FORMS = {
    "0-d array": (np.array(0.5), (ContractError, f"{NOT_ROWS} shape ()")),
    "1-D array": (np.array([0.5, 0.5]), (ContractError, f"{NOT_ROWS} shape (2,)")),
    "3-D array": (np.full((2, 2, 2), 0.5), (ContractError, f"{NOT_ROWS} shape (2, 2, 2)")),
    "flat list": ([0.5, 0.5], (ContractError, "test feature 0 is not a row of numbers, got float")),
    "number": (0.5, (ContractError, f"{NOT_ROWS} float")),
    # a string is a sequence of 1-character rows
    "string": ("0.5", (ContractError, "test feature 0 has dimension 1, expected 2")),
    "generator": (lambda: (row for row in [[0.7, 0.3]]), (ContractError, f"{NOT_ROWS} generator")),
    "ragged": ([[0.7, 0.3], [0.5]], (ContractError, "test feature 1 has dimension 1, expected 2")),
    "NaN": ([[0.7, 0.3], [np.nan, 0.5]], (ContractError, "test feature 1 contains non-finite values")),
    "inf": (np.array([[0.7, 0.3], [0.5, -np.inf]]), (ContractError, "test feature 1 contains non-finite values")),
    "zero row": ([[0.7, 0.3], [0.0, 0.0]], (DegenerateInputError, f"test feature 1 {ZERO_NORM}"), NOT_COSINE),
    # a norm that underflows is scaled first, so only an all-zero row is refused
    "underflowing row": ([[0.7, 0.3], [1e-200, 1e-200]], OK),
    "overflowing row": ([[0.7, 0.3], BIG], OK, {
        "predict-knn": Value([0, 1]), "predict-ubknn": Value([0, 1]), "predict-prompt": Value([1, 1]),
        "predict-prompt-local": Value([0, 1]),
        "predict-knn-euclidean": Value([0, 1]),
    }),
    "objects": ([[0.7, 0.3], [{}, None]], (ContractError, "test feature 1 is not a row of numbers: float() argument must be...")),
    "huge integer": ([[0.7, 10**400]], (ContractError, "test feature 0 is not a row of numbers: int too large to convert to float")),
    "nested lists": ([[0.7, 0.3], [[0.1, 0.2], [0.3, 0.4]]],
                     (ContractError, "test feature 1 is not a row of numbers: its items form shape (2, 2)")),
    "nested lists alone": ([[[0.1, 0.2], [0.3, 0.4]]],
                           (ContractError, "test feature 0 is not a row of numbers: its items form shape (2, 2)")),
    "object array": (np.array([[0.7, 0.3], [0.2, {}]], dtype=object),
                     (ContractError, "test feature 1 is not a row of numbers: float() argument...")),
    "2-D array row": ([[0.7, 0.3], np.full((2, 2), 0.5), [0.2, 0.8]],
                      (ContractError, "test feature 1 is not a row of numbers, got shape (2, 2)")),
    # the first bad row in order wins, whatever its fault
    "non-finite first": ([[np.nan, 0.3], [{}, None]], (ContractError, "test feature 0 contains non-finite values")),
    "unreadable first": ([[0.7, 0.3], [{}, 0.5], [0.1, 0.2, 0.3]], (ContractError, "test feature 1 is not a row of numbers...")),
    "dimension first": ([[0.7, 0.3], [0.1, 0.2, 0.3], [{}, 0.5]], (ContractError, "test feature 1 has dimension 3, expected 2")),
    "dimension after FeatureVectors": ([FeatureVector.of([0.3, 0.7]), FeatureVector.of([0.2, 0.3, 0.5])],
                                       (ContractError, "test feature 1 has dimension 3, expected 2")),
}

ROW_TAKERS = {
    "classify": lambda f: classify(REF, f, build_plan(REF, 1.0), make_backend(MOCK_1))[0],
    "build_bundle": lambda f: build_bundle(REF, f, build_plan(REF, 1.0)).part2,
    "build_part2": build_part2,
    "knn_classify": lambda f: knn_classify(REF, f, KnnConfig(k_neighbors=1)),
    "cosine_1nn_label": lambda f: cosine_1nn_label(REF, f),
    "ubknn_classify": lambda f: ubknn_classify(REF, f, UbKnnConfig(KnnConfig(1), n_bags=3)),
    "nn_attention_classify": lambda f: nn_attention_classify(REF, f).tolist(),
    "FeatureLabelMatrix.from_reference": lambda f: FeatureLabelMatrix.from_reference(REF, f),
}
ANY_WIDTH = {"build_part2": OK}  # build_part2 takes a row of any width
PART2 = Value("[0.70, 0.30] is in class\n")
ROW_FORMS = {
    "0-d array": (np.array(0.5), (ContractError, "test feature 0 is not a row of numbers, got shape ()")),
    "2-D array": (np.array([[0.7, 0.3]]), (ContractError, "test feature 0 has dimension 1, expected 2"),
                  {"build_part2": (ContractError, "test feature 0 is not a row of numbers, got shape (1, 2)")}),
    "3-D array": (np.full((2, 2, 2), 0.5), (ContractError, "test feature 0 is not a row of numbers, got shape (2, 2, 2)")),
    "number": (0.5, (ContractError, "test feature 0 is not a row of numbers, got float")),
    "generator": (lambda: (v for v in [0.7, 0.3]), (ContractError, "test feature 0 is not a row of numbers, got generator")),
    "short": ([0.7], (ContractError, "test feature 0 has dimension 1, expected 2"), ANY_WIDTH),
    "long FeatureVector": (FeatureVector.of([0.7, 0.2, 0.1]), (ContractError, "test feature 0 has dimension 3, expected 2"),
                           ANY_WIDTH),
    "NaN": (np.array([np.nan, 0.5]), (ContractError, "test feature 0 contains non-finite values")),
    "inf": ([0.5, np.inf], (ContractError, "test feature 0 contains non-finite values")),
    "zero row": (np.array([0.0, 0.0]), (DegenerateInputError, f"test feature 0 {ZERO_NORM}"),
                 {"build_part2": OK, "build_bundle": OK}),
    "objects": ([{}, None], (ContractError, "test feature 0 is not a row of numbers: float() argument must be...")),
    "huge integer": ([0.7, 10**400], (ContractError, "test feature 0 is not a row of numbers: int too large to convert to float")),
    "overflowing row": (BIG, OK, {
        "classify": Value(1), "knn_classify": Value(1), "cosine_1nn_label": Value(1), "ubknn_classify": Value(1),
        "nn_attention_classify": Value([0.0, 1.0]),
    }),
    "list": ([0.7, 0.3], OK, {"classify": Value(1), "knn_classify": Value(0), "build_part2": PART2}),
    "1-D array": (np.array([0.7, 0.3]), OK, {"classify": Value(1), "knn_classify": Value(0), "build_part2": PART2}),
}

# an all-zero reference row: refused where a cosine uses it (every row, a bag's, the plan's)
ZERO_REF = ReferenceSet.build([[0.9, 0.1], [0.0, 0.0], [0.1, 0.9], [0.2, 0.8]], [0, 0, 1, 1], 2)
ZERO_REF_TAKERS = {
    "knn_classify": lambda f: knn_classify(ZERO_REF, f, KnnConfig(1)),
    "knn_classify-euclidean": lambda f: knn_classify(ZERO_REF, f, KnnConfig(1, "euclidean")),
    "cosine_1nn_label": lambda f: cosine_1nn_label(ZERO_REF, f),
    "nn_attention_classify": lambda f: nn_attention_classify(ZERO_REF, f).tolist(),
    "build_plan": lambda f: build_plan(ZERO_REF, 1.0),
    "representativeness": lambda f: representativeness(ZERO_REF.X),
    "predict-prompt-local": lambda f: labels_of(predict(ZERO_REF, [f], RunConfig(backend=LOCAL))),
    "classify-mock": lambda f: classify(ZERO_REF, f, SelectionPlan((3, 2)), make_backend(MOCK_1))[0],
    "classify-fallback": lambda f: classify(ZERO_REF, f, SelectionPlan((1, 2)), make_backend(UNPARSEABLE))[0],
}
ZERO_ROW_1 = (DegenerateInputError, "zero-norm feature vector at index 1; cosine similarity undefined")
ZERO_REF_FORMS = {
    "zero reference row": ([0.7, 0.3], ZERO_ROW_1, {
        "knn_classify-euclidean": Value(0), "classify-mock": Value(1),
        "classify-fallback": ZERO_ROW_1,
    }),
}

# --- plans: the one plan rule, SelectionPlan's check and the Part 1 renderer's -------------------


def planned(use):
    """A column taking ``(reference set, plan indices, test row)``: it builds the plan, then uses it."""
    return lambda case: use(case[0], SelectionPlan(case[1]), case[2])


PLAN_TAKERS = {
    "SelectionPlan": planned(lambda ref, plan, f: None),
    "build_part1": planned(lambda ref, plan, f: build_part1(ref, plan)),
    "build_bundle": planned(lambda ref, plan, f: build_bundle(ref, f, plan).part1),
    "classify-mock": planned(lambda ref, plan, f: classify(ref, f, plan, make_backend(MOCK_1))[0]),
    "classify-fallback": planned(lambda ref, plan, f: classify(ref, f, plan, make_backend(UNPARSEABLE))[0]),
}
# the plan is refused where it is built; an index past the set, where the set is first known
IN_SET = {"SelectionPlan": OK}
PLAN_FORMS = {
    **{f"index {form}": ((REF, (0, i), [0.7, 0.3]), (ContractError, f"plan index must be an integer >= 0, got {i!r}"))
       for form, i in {"float": 1.5, "bool": True, "string": "1", "None": None, "list": [0], "negative": -1}.items()},
    "index m": ((REF, (0, 4), [0.7, 0.3]), (ContractError, "plan index 4 outside reference set of size 4"), IN_SET),
    "index huge integer": ((REF, (0, 2**70), [0.7, 0.3]),
                           (ContractError, f"plan index {2**70} outside reference set of size 4"), IN_SET),
    # checked before the plan's norms are
    "index m on a zero-norm set": ((ZERO_REF, (0, 4), [0.7, 0.3]),
                                   (ContractError, "plan index 4 outside reference set of size 4"), IN_SET),
    # the test row is checked before the plan's norms, as predict does
    "NaN test row, zero-norm plan row": ((ZERO_REF, (1, 2), [np.nan, 0.5]),
                                         (ContractError, "test feature 0 contains non-finite values"),
                                         {"SelectionPlan": OK, "build_part1": OK}),
}

# --- labels: the one label rule, core.read_labels ----------------------------------------------

LABEL_TAKERS = {  # (call, the noun its messages use); each takes two labels in [0, 2)
    "ReferenceSet": (lambda y: ReferenceSet.build(PROBS2, y, 2), "label"),
    "LabeledDataset": (lambda y: LabeledDataset(ReferenceSet.build(PROBS2, [0, 1], 2), PROBS2, y), "test label"),
    "derive_error_detection_set": (lambda y: derive_error_detection_set(PROBS2, y), "label"),
    "compute_metrics-predictions": (lambda y: compute_metrics(y, [0, 1], 2), "prediction"),
    "compute_metrics-truths": (lambda y: compute_metrics([0, 1], y, 2), "truth"),
    "run_error_detection-val": (lambda y: run_error_detection(PROBS2, y, PROBS2, [0, 1], KNN1), "label"),
    "run_error_detection-test": (lambda y: run_error_detection(PROBS2, [0, 1], PROBS2, y, KNN1), "test label"),
    "run_accuracy_improvement-val": (lambda y: run_accuracy_improvement(PROBS2, y, PROBS2, [0, 1], KNN1), "label"),
    "run_accuracy_improvement-test": (lambda y: run_accuracy_improvement(PROBS2, [0, 1], PROBS2, y, KNN1), "test label"),
    "run_accuracy_improvement-test-prompt": (
        lambda y: run_accuracy_improvement(PROBS2, [0, 1], PROBS2, y, RunConfig(backend=MOCK_1), class_count=2), "test label"),
    "base_classifier_report": (lambda y: base_classifier_report(PROBS2, y, 2), "truth"),
}
# accuracy improvement reads its labels before it knows the class range: without a class count
# it infers one from them, and a label past int64 is refused before any range
INFERRED = ("run_accuracy_improvement-val", "run_accuracy_improvement-test")
UNRANGED = (*INFERRED, "run_accuracy_improvement-test-prompt")


def huge_label(noun, column, value=10**20):
    return SchemaError, f"{noun} {value} at index 1 {'does not fit in int64' if column in UNRANGED else 'outside [0, 2)'}"


def not_whole(value, index):
    return lambda noun, column: (ContractError, f"{noun} {value} at index {index} is not a whole number")


LABEL_FORMS = {  # input, and its outcome given the column's noun and name
    "0-d array": (np.array(0), lambda noun, column: (ContractError, f"{noun}s must form a 1-D array, got shape ()")),
    "2-D array": (np.array([[0], [1]]), lambda noun, column: (ContractError, f"{noun}s must form a 1-D array, got shape (2, 1)")),
    "number": (1, lambda noun, column: (ContractError, f"{noun}s must form a 1-D array, got shape ()")),
    # compute_metrics counts the predictions, then the truths
    "short": ([0], lambda noun, column: (ContractError, "expected 1 truths, got 2" if column == "compute_metrics-predictions"
                                         else f"expected 2 {noun}s, got 1")),
    "negative": ([1, -1], lambda noun, column: (SchemaError, f"{noun} -1 at index 1 outside [0, 2)")),
    "above": ([1, 2], lambda noun, column: (
        ContractError, "accuracy improvement expects one probability per class: features have 2 values but there are 3 classes"
    ) if column in INFERRED else (SchemaError, f"{noun} 2 at index 1 outside [0, 2)")),
    "half": ([0, 0.5], not_whole(0.5, 1)),
    "NaN": ([np.nan, 0], not_whole("nan", 0)),
    "NaN array": (np.array([0, np.nan]), not_whole("nan", 1)),
    "half array": (np.array([0.0, 1.5]), not_whole(1.5, 1)),
    "None": ([None, 0], not_whole(None, 0)),
    "string": (["1", 0], not_whole("'1'", 0)),
    "huge integer": ([0, 10**20], huge_label),
    "huge integer array": (np.array([0, 10**20], dtype=object), huge_label),
    "huge float array": (np.array([0, 1e20]), huge_label),
    "uint64 array": (np.array([0, 2**63], dtype=np.uint64), lambda noun, column: huge_label(noun, column, 2**63)),
    "huge float": ([0, 2.0**64], lambda noun, column: huge_label(noun, column, 2**64)),
    "past int64": ([0, 2**63], lambda noun, column: huge_label(noun, column, 2**63)),
    # read once: its count is that of the labels it yields
    "generator": (lambda: (y for y in [0, 1]), lambda noun, column: Value(compute_metrics([0, 1], [0, 1], 2))
                  if column == "compute_metrics-predictions" else OK),
    "bools": ([False, True], lambda noun, column: OK),
    "whole floats": (np.array([0.0, 1.0]), lambda noun, column: OK),
}
LABEL_CELLS = [
    pytest.param(call, value, outcome(noun, column), id=f"label-{column}-{form}")
    for form, (value, outcome) in LABEL_FORMS.items()
    for column, (call, noun) in LABEL_TAKERS.items()
]

# --- reference features: the reference-row rule --------------------------------------------------

REFERENCE_TAKERS = {
    "ReferenceSet": lambda X: ReferenceSet.build(X, [0, 1], 2),
    "derive_error_detection_set": lambda X: derive_error_detection_set(X, [0, 1]),
    "run_error_detection": lambda X: run_error_detection(X, [0, 1], PROBS2, [0, 1], KNN1),
    "run_accuracy_improvement": lambda X: run_accuracy_improvement(X, [0, 1], PROBS2, [0, 1], KNN1),
    "representativeness": representativeness,
}
NOT_MATRIX = "features must form an (m, d >= 1) matrix, got shape"
REFERENCE_FORMS = {
    "0-d array": (np.array(0.5), (ContractError, f"{NOT_MATRIX} ()")),
    "1-D array": (np.array([0.5, 0.5]), (ContractError, f"{NOT_MATRIX} (2,)")),
    "3-D array": (np.full((2, 2, 2), 0.5), (ContractError, f"{NOT_MATRIX} (2, 2, 2)")),
    "no columns": ([[], []], (ContractError, f"{NOT_MATRIX} (2, 0)")),
    "ragged": ([[0.9, 0.1], [0.5]], (ContractError, "features do not form an (m, d) matrix: ...")),
    "objects": ([[0.9, 0.1], [{}, None]], (ContractError, "features do not form an (m, d) matrix: float() argument...")),
    "NaN": ([[0.9, 0.1], [np.nan, 0.5]], (ContractError, "feature 1: feature vector contains non-finite values: (nan, 0.5)")),
    # a non-finite row is named before a zero row
    "inf": ([[np.inf, 0.1], [0.0, 0.0]], (ContractError, "feature 0: feature vector contains non-finite values: (inf, 0.1)")),
    # refused only where a cosine ranks it: here by the KNN runs and representativeness
    "zero row": ([[0.9, 0.1], [0.0, 0.0]], OK,
                 dict.fromkeys(("run_error_detection", "run_accuracy_improvement", "representativeness"), ZERO_ROW_1)),
    "generator": (lambda: (row for row in PROBS2), OK),
    "overflowing row": ([[0.9, 0.1], BIG], OK),
}

# --- settings: core.checked_int and core.checked_real ------------------------------------------


def remote(**settings):
    """The completion of a remote backend of these settings, from a transport that answers " 1"."""
    cfg = BackendConfig(kind="remote", endpoint_url="https://api.example.test/v1", api_key_env="K", **settings)
    backend = make_backend(cfg, transport=lambda *a: (200, {"choices": [{"text": " 1"}]}), sleep=lambda s: None, env={"K": "k"})
    return backend.complete(CompletionRequest("x")).text


def predicted_with(**cfg):
    return labels_of(predict(REF, [[0.7, 0.3]], RunConfig(knn=KnnConfig(1), **cfg)))


CLUSTERS = two_cluster_fixture()
INT_SETTINGS = {  # (least value, call); each call takes the setting's value
    "KnnConfig.k_neighbors": (1, lambda v: knn_classify(REF, [0.7, 0.3], KnnConfig(v))),
    "UbKnnConfig.n_bags": (1, lambda v: ubknn_classify(REF, [0.7, 0.3], UbKnnConfig(KnnConfig(1), n_bags=v))),
    "UbKnnConfig.seed": (0, lambda v: ubknn_classify(REF, [0.7, 0.3], UbKnnConfig(KnnConfig(1), n_bags=2, seed=v))),
    "RunConfig.bags": (1, lambda v: predicted_with(method="ubknn", bags=v)),
    "RunConfig.seed": (0, lambda v: predicted_with(method="ubknn", bags=2, seed=v)),
    "SerializationConfig.decimals": (1, lambda v: build_part2([0.7, 0.3], SerializationConfig(decimals=v))),
    "SerializationConfig.token_budget": (1, lambda v: build_part2([0.7, 0.3], SerializationConfig(token_budget=v))),
    "AttentionConfig.max_layers": (1, lambda v: len(iterate_self_attention(CLUSTERS, AttentionConfig(0.05, max_layers=v))[0])),
    "RetryPolicy.max_attempts": (1, lambda v: remote(retry=RetryPolicy(max_attempts=v))),
    "RetryPolicy.base_backoff_ms": (0, lambda v: remote(retry=RetryPolicy(base_backoff_ms=v))),
    "BackendConfig.rate_limit_rpm": (1, lambda v: remote(rate_limit_rpm=v)),
    "BackendConfig.request_budget": (0, lambda v: remote(request_budget=v)),
    "RateLimiter.rpm": (1, lambda v: RateLimiter(v).rpm),
    "CompletionRequest.max_tokens": (1, lambda v: CompletionRequest("x", max_tokens=v)),
    "generate.n": (4, lambda v: len(generate("moons", n=v)[0])),
    "generate.seed": (0, lambda v: len(generate("moons", n=8, seed=v)[0])),
    "ReferenceSet.class_count": (2, lambda v: ReferenceSet(np.array(PROBS2), np.array([0, 1]), v)),
    "ReferenceSet.build-class_count": (2, lambda v: ReferenceSet.build(PROBS2, [0, 1], v)),
    "IngestionSchema.class_count": (2, lambda v: IngestionSchema(class_count=v)),
    "compute_metrics.class_count": (2, lambda v: compute_metrics([0, 1], [0, 1], v)),
    "base_classifier_report.class_count": (2, lambda v: base_classifier_report(PROBS2, [0, 1], v)),
    "run_accuracy_improvement.class_count": (2, lambda v: run_accuracy_improvement(PROBS2, [0, 1], PROBS2, [0, 1], KNN1, class_count=v)),
}
HUGE = 10**30
INT_FORMS = {  # the input given the least value, and the outcome where it is not the rule's error
    "float": (lambda low: 2.5, {}),
    "whole float": (lambda low: float(low + 1), {}),
    "bool": (lambda low: True, {}),
    "string": (lambda low: str(low + 1), {}),
    # no class count: the largest label + 1
    "None": (lambda low: None, dict.fromkeys(("IngestionSchema.class_count", "run_accuracy_improvement.class_count"), OK)),
    "below": (lambda low: low - 1, {}),
    "numpy integer": (lambda low: np.int64(max(low, 1)), {
        column: Value(" 1") if column.startswith(("RetryPolicy", "BackendConfig")) else OK for column in INT_SETTINGS
    }),
    "huge integer": (lambda low: HUGE, {
        **dict.fromkeys(INT_SETTINGS, OK),
        "KnnConfig.k_neighbors": (ContractError, f"k_neighbors {HUGE} > reference size 4"),
        "base_classifier_report.class_count": (ContractError, f"test feature 0 has dimension 2, expected {HUGE}"),
        "run_accuracy_improvement.class_count": (
            ContractError, f"accuracy improvement expects one probability per class: features have 2 values but there are {HUGE} classes"),
        # no float64 has a nonzero digit past the 1,074th (2**-1074 is its finest step)
        "SerializationConfig.decimals": (ContractError, f"decimals must be at most 1074, got {HUGE}"),
        # each bound is what the setting allocates or loops over: a C x C confusion matrix, bags, rows
        "compute_metrics.class_count": (ContractError, f"class_count must be at most 4096, got {HUGE}"),
        "UbKnnConfig.n_bags": (ContractError, f"n_bags must be at most 4096, got {HUGE}"),
        "RunConfig.bags": (ContractError, f"n_bags must be at most 4096, got {HUGE}"),
        "generate.n": (ContractError, f"n must be at most 1048576, got {HUGE}"),
    }),
}


def int_rule(column, low, value):
    names = {"RunConfig.bags": "n_bags", "RateLimiter.rpm": "rate_limit_rpm"}
    name = names.get(column, column.rsplit(".", 1)[1].split("-")[-1])
    return SchemaError if column.startswith("IngestionSchema") else ContractError, f"{name} must be an integer >= {low}, got {value!r}"


INT_CELLS = [
    pytest.param(call, make(low), own.get(column, int_rule(column, low, make(low))), id=f"int-{column}-{form}")
    for form, (make, own) in INT_FORMS.items()
    for column, (low, call) in INT_SETTINGS.items()
]

REAL_SETTINGS = {  # (the range its message names, call)
    "build_plan.selection_ratio": ("in (0, 1]", lambda v: build_plan(REF, v).k),
    "RunConfig.selection_ratio": ("in (0, 1]", lambda v: predicted_with(selection_ratio=v, backend=MOCK_1)),
    "split_dataset.reference_fraction": ("in (0, 1)", lambda v: split_dataset(*generate("moons", 8), reference_fraction=v).reference.size),
    "BackendConfig.attention_scale": ("positive", lambda v: BackendConfig(kind="local-attention", attention_scale=v)),
    "AttentionConfig.scale_s": ("positive", lambda v: AttentionConfig(scale_s=v)),
    "AttentionConfig.convergence_tol": ("positive", lambda v: AttentionConfig(convergence_tol=v)),
    "nn_attention_classify.scale": ("positive", lambda v: nn_attention_classify(REF, [0.7, 0.3], v).tolist()),
    "generate.noise": ("in [0, inf)", lambda v: len(generate("moons", n=8, noise=v)[0])),
}
REAL_FORMS = {  # the input, and the ranges that take it
    "zero": (0.0, ("in [0, inf)",)), "negative": (-1e-6, ()), "NaN": (np.nan, ()), "string": ("0.5", ()), "bool": (True, ()),
    "None": (None, ()), "one": (1.0, ("in (0, 1]", "positive", "in [0, inf)")), "above one": (1.5, ("positive", "in [0, inf)")),
    "inf": (np.inf, ("positive",)), "numpy float": (np.float64(0.5), ("in (0, 1]", "in (0, 1)", "positive", "in [0, inf)")),
}
# the toy generator's noise: it used to let a TypeError out of "a" and None and to take -1.0 and NaN as no noise
NOISE_FORMS = {
    form: (value, (ContractError, f"noise must be in [0, inf), got {value!r}"))
    for form, value in {"a": "a", "None": None, "-1.0": -1.0, "nan": np.nan, "inf": np.inf}.items()
}
REAL_CELLS = [
    pytest.param(call, value, OK if span in takes else (ContractError, f"{column.rsplit('.', 1)[1]} must be {span}, got {value!r}"),
                 id=f"real-{column}-{form}")
    for form, (value, takes) in REAL_FORMS.items()
    for column, (span, call) in REAL_SETTINGS.items()
]

POSITIVE_CLASS_TAKERS = {
    "compute_metrics": lambda v: compute_metrics([0, 1], [0, 1], 2, positive_class=v),
    "base_classifier_report": lambda v: base_classifier_report(PROBS2, [0, 1], 2, positive_class=v),
    "run_error_detection": lambda v: run_error_detection(PROBS2, [0, 1], PROBS2, [0, 1], RunConfig(positive_class=v, backend=MOCK_1)),
    "run_accuracy_improvement": lambda v: run_accuracy_improvement(
        PROBS2, [0, 1], PROBS2, [0, 1], RunConfig(positive_class=v, backend=MOCK_1)),
}
POSITIVE_CLASS_FORMS = {
    **{form: (value, (ContractError, f"positive_class {value!r} outside [0, 2)"))
       for form, value in {"above": 5, "negative": -1, "float": 0.5, "bool": True, "string": "1", "None": None}.items()},
    "numpy integer": (np.int64(0), OK),
}

FEATURE_VECTOR_FORMS = {
    "empty": ((), (ContractError, "feature vector must be non-empty")),
    **{form: ((0.5, value), (ContractError, f"feature vector contains non-finite or non-real values: {(0.5, value)}"))
       for form, value in {"NaN": np.nan, "inf": np.inf, "string": "1.5", "None": None, "complex": 1 + 2j,
                           "Decimal": Decimal("0.5")}.items()},
    "numpy bool": ((0.5, np.True_), OK),
}

# --- choices, backends and empty evaluations ---------------------------------------------------

CHOICES = {  # a setting that names one of a few choices, given a name it does not know
    "RunConfig.method": (lambda v: predicted_with(method=v), "unknown method 'bogus'"),
    "KnnConfig.metric": (lambda v: KnnConfig(metric=v), "unknown metric 'bogus'"),
    "BackendConfig.kind": (lambda v: BackendConfig(kind=v), "unknown backend kind 'bogus'"),
    "generate.dataset": (lambda v: generate(v), "unknown toy dataset 'bogus'"),
}
REMOTE_ENDPOINTS = {
    "no endpoint": (None, (ContractError, "remote backend requires endpoint_url and api_key_env")),
    "no scheme": ("127.0.0.1:9/v1", (ContractError, "endpoint_url must be an http or https URL, got '127.0.0.1:9/v1'")),
    "ftp": ("ftp://api.example.test/v1", (ContractError, "endpoint_url must be an http or https URL, got 'ftp://api.example.test/v1'")),
}
# the remote settings are read only by the remote backend: the others take any value
REMOTE_ONLY = {
    f"{name} {form}": (settings, OK)
    for form, value in {"below": -1, "float": 2.5, "string": "3"}.items()
    for name, settings in {
        "endpoint_url": dict(endpoint_url=value), "max_attempts": dict(retry=RetryPolicy(max_attempts=value)),
        "base_backoff_ms": dict(retry=RetryPolicy(base_backoff_ms=value)), "rate_limit_rpm": dict(rate_limit_rpm=value),
        "request_budget": dict(request_budget=value),
    }.items()
}
KEY = "a" * 64  # a prompt hash
MOCK_SETTINGS = {  # the mock backend's fixtures and default, checked when it is built
    "mock_fixtures": lambda v: make_backend(BackendConfig(kind="mock", mock_fixtures={KEY: v})),
    "mock_default": lambda v: make_backend(BackendConfig(kind="mock", mock_default=v)),
}
MOCK_FORMS = {
    form: (value, (ContractError, f"mock fixture {KEY}: expected a string or a non-empty list of strings, got {value!r}"),
           {"mock_default": (ContractError, f"mock_default must be a string, got {value!r}")})
    for form, value in {"number": 5, "list of a number": ["x", 7], "empty list": [], "dict": {"text": "1"}}.items()
}
MOCK_FORMS["None"] = (None, (ContractError, f"mock fixture {KEY}: expected a string or a non-empty list of strings, got None"),
                      {"mock_default": OK})
EMPTY = {  # an evaluation of no samples
    "compute_metrics": lambda _: compute_metrics([], [], 2),
    "base_classifier_report": lambda _: base_classifier_report([], [], 2),
    "run_error_detection": lambda _: run_error_detection(PROBS2, [0, 1], [], [], KNN1),
    "run_accuracy_improvement": lambda _: run_accuracy_improvement(PROBS2, [0, 1], [], [], RunConfig(backend=MOCK_1)),
}

# --- switches: core.checked_switch -------------------------------------------------------------

SWITCHES = {  # each call takes the switch's value; the message names the part after the dot
    "build_plan.interleave_by_class": lambda v: build_plan(REF, 0.5, v).k,
    "RunConfig.interleave_by_class": lambda v: predicted_with(interleave_by_class=v, backend=MOCK_1),
    "IngestionSchema.is_probability": lambda v: IngestionSchema(is_probability=v),
    "generate.equalize_norms": lambda v: len(generate("moons", n=8, equalize_norms=v)[0]),
    "AttentionConfig.strict_setup2": lambda v: AttentionConfig(strict_setup2=v),
    "self_attention_classify.strict_setup2":
        lambda v: self_attention_classify(FeatureLabelMatrix.from_reference(REF, [0.7, 0.3]), strict_setup2=v).tolist(),
}
SWITCH_CELLS = [
    pytest.param(call, value, OK if ok else (ContractError, f"{column.rsplit('.', 1)[1]} must be true or false, got {value!r}"),
                 id=f"switch-{column}-{form}")
    for form, (value, ok) in {
        "string": ("no", False), "None": (None, False), "integer": (1, False), "float": (0.0, False),
        "false": (False, True), "numpy bool": (np.True_, True),
    }.items()
    for column, call in SWITCHES.items()
]

# --- completion texts: a prompt and a reply are strings --------------------------------------------


def replying(text):
    """A backend whose every completion is ``text``."""
    return SimpleNamespace(complete=lambda req: CompletionResponse(text, 0))


PROMPT_FORMS = {
    form: (value, (ContractError, f"prompt must be a non-empty string, got {value!r}"))
    for form, value in {"number": 123, "bytes": b"p", "None": None, "empty": ""}.items()
}
PROMPT_FORMS["string"] = ("p", OK)
# (label, fallback flag, completions asked for): re-asked once, then the plan's cosine 1-NN
REPLY_FORMS = {form: (text, Value((0, True, 2))) for form, text in {"number": 5, "bytes": b" 1", "None": None}.items()}
REPLY_FORMS["string"] = (" 1", Value((1, False, 1)))


def classified(text):
    label, audit = classify(REF, [0.7, 0.3], build_plan(REF, 1.0), replying(text))
    return label, audit.fallback, len(audit.completions)


# --- the attention kernel: finite at every scale, the cosine 1-NN label as it shrinks --------------

KERNELS = {
    "nn_attention_classify": lambda s: nn_attention_classify(REF, [0.7, 0.3], s).tolist(),
    "self_attention_classify": lambda s: self_attention_classify(FeatureLabelMatrix.from_reference(REF, [0.7, 0.3]), s).tolist(),
    "iterate_self_attention": lambda s: bool(np.isfinite(iterate_self_attention(CLUSTERS, AttentionConfig(s, max_layers=4))[0]).all()),
    "predict-prompt-local": lambda s: labels_of(predict(REF, [[0.7, 0.3], [0.2, 0.8]], RunConfig(
        selection_ratio=1.0, backend=BackendConfig(kind="local-attention", attention_scale=s)))),
}
NEAREST = {"nn_attention_classify": Value([1.0, 0.0]), "self_attention_classify": Value([1.0, 0.0]),
           "iterate_self_attention": Value(True), "predict-prompt-local": Value([0, 1])}
KERNEL_FORMS = {  # at s = inf every weight is equal: half of the rows are of each class, and a tie is class 0
    "subnormal": (5e-324, OK, NEAREST),
    "tiny": (1e-320, OK, NEAREST),
    "inf": (np.inf, OK, {**NEAREST, "nn_attention_classify": Value([0.5, 0.5]), "self_attention_classify": Value([0.5, 0.5]),
                          "predict-prompt-local": Value([0, 0])}),
}

# --- attention(): Q, K and V are rows or matrices of numbers, and K has a row --------------------

ATTENTION_FORMS = {  # (Q, K, V), at scale 1
    "string Q": (("ab", np.ones((3, 2)), np.ones((3, 2))),
                 (ContractError, "Q is not an array of numbers: could not convert string to float: 'ab'")),
    "no keys": ((np.ones((1, 2)), np.empty((0, 2)), np.empty((0, 3))), (ContractError, "K must have at least one row")),
    "3-D Q": ((np.ones((2, 1, 2)), np.ones((3, 1)), np.ones((3, 1))),
              (ContractError, "Q must be a row or a matrix, got shape (2, 1, 2)")),
    "3-D K": ((np.ones((1, 2)), np.ones((3, 2, 1)), np.ones((3, 2))),
              (ContractError, "K must be a row or a matrix, got shape (3, 2, 1)")),
}

# --- FeatureLabelMatrix: [unit feature || label block] rows, the test row last -------------------

FLM_ROWS = FeatureLabelMatrix.from_reference(REF, [0.7, 0.3]).rows  # 4 known rows of 2 + 2 columns, then the test row


def labelled(i, block):
    """``FLM_ROWS`` with row ``i``'s label block set to ``block``."""
    rows = FLM_ROWS.copy()
    rows[i, 2:] = block
    return rows


NOT_ONE_HOT = "label block is not one-hot"
FEATURE_LABEL_MATRIX_FORMS = {
    "rows": (FLM_ROWS, OK),
    "wrong width": (FLM_ROWS[:, :3], (ContractError, "rows must be (m+1) x (feature_dim + class_count)")),
    "1-D rows": (FLM_ROWS[0], (ContractError, "rows must be (m+1) x (feature_dim + class_count)")),
    "test row alone": (FLM_ROWS[-1:], (ContractError, "need at least one known row plus the test row")),
    "feature block not unit": (FLM_ROWS * 2, (ContractError, "feature blocks must be unit-normalized")),
    "labelled test row": (labelled(-1, [0.0, 1.0]), (ContractError, "test row's label block must be all zeros")),
    "half labels": (labelled(2, [0.5, 0.5]), (ContractError, f"known row 2 {NOT_ONE_HOT}")),
    "two labels": (labelled(1, [1.0, 1.0]), (ContractError, f"known row 1 {NOT_ONE_HOT}")),
    "last known row unlabelled": (labelled(3, [0.0, 0.0]), (ContractError, f"known row 3 {NOT_ONE_HOT}")),
    "string": ("abc", (ContractError, "rows is not an array of numbers: could not convert string to float: 'abc'")),
    "ragged": ([[1.0, 0.0, 1.0, 0.0], [1.0]], (ContractError, "rows is not an array of numbers: setting an array element...")),
}

# --- split_dataset: its labels by the one label rule, each 0 or 1 ---------------------------------

SIX_ROWS = [[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8], [0.7, 0.3], [0.3, 0.7]]
SPLIT_LABEL_FORMS = {
    "three classes": ([0, 1, 2, 0, 1, 2], (SchemaError, "label 2 at index 2 outside [0, 2)")),
    "one too many": ([0, 1, 0, 1, 0, 1, 0], (ContractError, "expected 6 labels, got 7")),
    "strings": (["a", "b"], (ContractError, "label 'a' at index 0 is not a whole number")),
    "nested lists": ([[0], [1]], (ContractError, "label [0] at index 0 is not a whole number")),
}

# --- error paths with no other cell ------------------------------------------------------------

ONE_MINORITY_ROW = ReferenceSet.build(REF.X, [0, 0, 0, 1], 2)  # a balanced subsample of 2 rows
ERROR_PATHS = {  # id: (call, outcome)
    "SelectionPlan-duplicate": (lambda _: SelectionPlan((0, 0)), (ContractError, "plan contains duplicate indices")),
    "SelectionPlan-empty": (lambda _: SelectionPlan(()), (ContractError, "plan must select at least one sample, k=0")),
    "ubknn_classify-k-past-subsample": (
        lambda _: ubknn_classify(ONE_MINORITY_ROW, [0.7, 0.3], UbKnnConfig(KnnConfig(3), n_bags=1)),
        (ContractError, "k_neighbors 3 exceeds balanced subsample size")),
    "ReferenceSet-empty": (lambda _: ReferenceSet(np.empty((0, 2)), [], 2),
                           (ContractError, "reference set must contain at least one sample")),
    "FeatureLabelMatrix-feature_dim-string": (lambda _: FeatureLabelMatrix(FLM_ROWS, "2", 2),
                                              (ContractError, "feature_dim must be an integer >= 1, got '2'")),
    "FeatureLabelMatrix-feature_dim-whole-float": (lambda _: FeatureLabelMatrix(FLM_ROWS, 2.0, 2),
                                                   (ContractError, "feature_dim must be an integer >= 1, got 2.0")),
    "FeatureLabelMatrix-class_count-None": (lambda _: FeatureLabelMatrix(FLM_ROWS, 2, None),
                                            (ContractError, "class_count must be an integer >= 2, got None")),
    "two_cluster_fixture-seed-negative": (lambda _: two_cluster_fixture(seed=-1), (ContractError, "seed must be an integer >= 0, got -1")),
    "two_cluster_fixture-seed-float": (lambda _: two_cluster_fixture(seed=1.5), (ContractError, "seed must be an integer >= 0, got 1.5")),
    # an output that overflows is refused, with no warning on the way
    "attention-overflow": (lambda _: attention([[1e200]], [[1e200]], [[1.0]], 1.0), (NumericError, "non-finite attention output")),
}


LIBRARY_CELLS = unique_ids(
    grid("matrix", MATRIX_TAKERS, MATRIX_FORMS)
    + grid("row", ROW_TAKERS, ROW_FORMS)
    + grid("zero-ref", ZERO_REF_TAKERS, ZERO_REF_FORMS)
    + grid("plan", PLAN_TAKERS, PLAN_FORMS)
    + LABEL_CELLS
    + grid("reference", REFERENCE_TAKERS, REFERENCE_FORMS)
    + INT_CELLS
    + REAL_CELLS
    + grid("noise", {"generate": lambda v: generate("moons", n=8, noise=v)}, NOISE_FORMS)
    + grid("positive-class", POSITIVE_CLASS_TAKERS, POSITIVE_CLASS_FORMS)
    + grid("feature-vector", {"FeatureVector": FeatureVector}, FEATURE_VECTOR_FORMS)
    + grid("attention", {"attention": lambda qkv: attention(*qkv, 1.0)}, ATTENTION_FORMS)
    + grid("feature-label-matrix", {"FeatureLabelMatrix": lambda rows: FeatureLabelMatrix(rows, 2, 2)}, FEATURE_LABEL_MATRIX_FORMS)
    + grid("split-labels", {"split_dataset": lambda y: split_dataset(SIX_ROWS, y)}, SPLIT_LABEL_FORMS)
    + [pytest.param(call, "bogus", (ContractError, message), id=f"choice-{column}-unknown") for column, (call, message) in CHOICES.items()]
    + grid("endpoint", {"BackendConfig-remote": lambda url: BackendConfig(kind="remote", endpoint_url=url)}, REMOTE_ENDPOINTS)
    + grid("remote-only",
           {f"BackendConfig-{kind}": lambda s, kind=kind: BackendConfig(kind=kind, **s) for kind in ("local-attention", "mock")},
           REMOTE_ONLY)
    + grid("mock", MOCK_SETTINGS, MOCK_FORMS)
    + grid("empty", EMPTY, {"no samples": (None, (ContractError, "cannot evaluate an empty prediction set"))})
    + SWITCH_CELLS
    + grid("prompt", {"CompletionRequest.prompt": CompletionRequest}, PROMPT_FORMS)
    + grid("reply", {"classify": classified}, REPLY_FORMS)
    + grid("kernel", KERNELS, KERNEL_FORMS)
    + [pytest.param(call, None, outcome, id=f"error-path-{name}") for name, (call, outcome) in ERROR_PATHS.items()]
)


@pytest.mark.parametrize("call, value, outcome", LIBRARY_CELLS)
def test_library_cell(call, value, outcome):
    check(call, value, outcome)


@pytest.mark.parametrize("call, high, name, at_bound", [
    (lambda v: UbKnnConfig(n_bags=v), 4096, "n_bags", True),
    (lambda v: SerializationConfig(decimals=v), 1074, "decimals", True),
    (lambda v: compute_metrics([0, 1], [0, 1], v), 4096, "class_count", True),
    (lambda v: generate("moons", n=v), 2**20, "n", False),  # 2**20 rows would take half a minute
    (lambda v: property_report(trials=v), 10**6, "trials", False),  # 10**6 trials would take minutes
])
def test_a_bounded_setting_takes_its_bound_and_refuses_one_more(call, high, name, at_bound):
    if at_bound:
        call(high)
    check(call, high + 1, (ContractError, f"{name} must be at most {high}, got {high + 1}"))


@pytest.mark.parametrize("column", list(ROW_TAKERS))
def test_a_list_a_1d_array_and_a_feature_vector_are_one_row(column):
    def result(f):
        out = ROW_TAKERS[column](f)
        return out.rows.tolist() if isinstance(out, FeatureLabelMatrix) else out

    assert result([0.7, 0.3]) == result(np.array([0.7, 0.3])) == result(FeatureVector.of([0.7, 0.3]))


BIG_REF = ReferenceSet.build([[1e200, 1e200], [1.0, 0.0]], [0, 1], 2)
UNIT_REF = ReferenceSet.build([[1.0, 0.0], [1.0, 1.0]], [0, 1], 2)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: knn_classify(BIG_REF, FeatureVector.of([1.0, 1.0]), KnnConfig(1)), 0),
        (lambda: knn_classify(UNIT_REF, FeatureVector.of([1e200, 1e200]), KnnConfig(1)), 1),
        (lambda: nn_attention_classify(UNIT_REF, [1e200, 1e200]).tolist(), [0.0, 1.0]),
        # the big row scores and ranks as the row it scales to, not as 0.0
        (lambda: (representativeness(BIG_REF.X), build_plan(BIG_REF, 1.0).ordered_indices),
         (representativeness([[1.0, 1.0], [1.0, 0.0]]), build_plan(ReferenceSet.build([[1.0, 1.0], [1.0, 0.0]], [0, 1], 2), 1.0).ordered_indices)),
    ],
    ids=["knn_classify-reference", "knn_classify-query", "nn_attention_classify-query", "build_plan-reference"],
)
def test_overflowing_norm_cell(call, expected):
    """A finite row whose norm overflows (``[1e200, 1e200]``) ranks as the row it scales to."""
    check(lambda _: call(), None, Value(expected))


# --- data files: load_dataset, load_split_files and plan ---------------------------------------

HEADER = "f0,f1,label,split\n"
SPLIT_FILES = ("load_split_files-val", "load_split_files-test", "plan --val")
FILES = {  # CI's malformed files and more: (content, outcome[, {column: outcome}])
    "missing.csv": (None, (DatasetParseError, "no such file: missing.csv")),
    "dir": (Path, (DatasetParseError, "cannot read dir: Is a directory")),
    "dir.json": (Path, (DatasetParseError, "cannot read dir.json: Is a directory")),
    "malformed.csv": (HEADER + "0.9,0.1,0,val\n0.5,nan,0,val\n0.4,0.6,x,val\n",
                      (DatasetParseError, "row 3: feature vector contains non-finite values: (0.5, nan)")),
    "huge-label.csv": (HEADER + "0.9,0.1,0,val\n0.1,0.9,100000000000000000000,val\n",
                       (SchemaError, "row 3: label 100000000000000000000 does not fit in int64")),
    "arabic-label.csv": (HEADER + "0.9,0.1,0,val\n0.1,0.9,\u0661,val\n", (DatasetParseError, "row 3: non-integer label '\u0661'")),
    "long-cell.csv": (HEADER + "0.9,0.1,0,val\n" + " " * 200000 + "0.1,0.9,1,val\n",
                      (DatasetParseError, "row 3: field larger than field limit (131072)")),
    "dup-header.csv": ("f0,f1,label,label,split\n0.9,0.1,0,1,val\n",
                       (SchemaError, "header has more than one 'label' column: ['f0', 'f1', 'label', 'label', 'split']")),
    "val-train.csv": (HEADER + "0.9,0.1,0,train\n", (SchemaError, "row 2: split must be 'val' or 'test', got 'train'")),
    "utf8-label.csv": (b"f0,f1,label,split\n0.9,0.1,0,val\n0.1,0.9,\xff,val\n",
                       (DatasetParseError, "row 3: not UTF-8: byte 0xff at offset 40")),
    "utf8-feature.csv": (b"f0,f1,label,split\n0.9,0.1,0,val\n0.1\xff,0.9,1,val\n",
                         (DatasetParseError, "row 3: not UTF-8: byte 0xff at offset 35")),
    "utf8-label.json": (b'{"reference": [{"features": [0.9, 0.1], "label": "\xff"}]}',
                        (DatasetParseError, "not UTF-8: byte 0xff at offset 50"),
                        dict.fromkeys(SPLIT_FILES, (DatasetParseError, "row 1: not UTF-8: byte 0xff at offset 50"))),
    "bad-item.json": (json.dumps({"reference": [{"features": [0.9, 0.1], "label": "x"}]}),
                      (DatasetParseError, "reference item 0: label must be an integer, got 'x'")),
    # a file longer than one 64K-byte block of the C reader's line feed, with blank lines on
    # both sides of the first boundary: the bad label after them names its file row
    "chunked.csv": (HEADER + "0.125,0.5,1,val\n" * 12 + "0.25,0.5,1,val\n" * 4355 + "\n\n0.5,0.5,x,val\n",
                    (DatasetParseError, "row 4371: non-integer label 'x'")),
    # CRLF line ends, quoted cells and a row of empty cells: the row reader reads the file again
    "crlf.csv": ('f0,f1,label,split\r\n"0.9",0.1,0,val\r\n,,,\r\n0.1,"0.9",1,"val"\r\n', OK),
    "no-split.csv": ("f0,f1,label\n0.9,0.1,0\n0.1,0.9,1\n", (SchemaError, "header must contain 'split': ['f0', 'f1', 'label']"),
                     dict.fromkeys(SPLIT_FILES, OK)),
    "empty.csv": ("", (DatasetParseError, "empty file")),
    "not-a-number.csv": (HEADER + "0.9,0.1,0,val\n0.9,oops,1,val\n", (DatasetParseError, "row 3: could not convert string to float: 'oops'")),
    "wrong-arity.csv": (HEADER + "0.9,0.1,0\n", (DatasetParseError, "row 2: expected 4 cells, got 3")),
    # a blank line counts as a file row
    "no-label.csv": (HEADER + "0.9,0.1,0,val\n\n0.5,0.5,,val\n", (SchemaError, "reference row 4 has no label"),
                     {"load_split_files-test": (SchemaError, "test row 4 has no label but other test rows have one")}),
    "partly-labelled.csv": (HEADER + "0.9,0.1,1,test\n0.3,0.7,,test\n",
                            (SchemaError, "test row 3 has no label but other test rows have one"),
                            dict.fromkeys(("load_split_files-val", "plan --val"), (SchemaError, "reference row 3 has no label"))),
    "three-features.csv": ("f0,f1,f2,label,split\n0.8,0.1,0.1,0,val\n", OK,
                           {"load_split_files-test": (ContractError, "test feature 0 has dimension 3, expected 2")}),
    # an item of another dimension is named before a later NaN
    "json-dimension.json": (json.dumps({"reference": [{"features": f, "label": 0} for f in ([0.9, 0.1, 0.0], [0.9, 0.1], [np.nan, 0.1])]}),
                            (ContractError, "feature 1 has dimension 2, expected 3")),
}
for name in ("bad-item.json", "json-dimension.json"):  # a JSON file's first line read as a CSV header
    header = [cell.strip() for cell in FILES[name][0].split(",")]
    FILES[name] += (dict.fromkeys(SPLIT_FILES, (SchemaError, f"header must contain 'label': {header}")),)
GOOD_ITEM = {"features": [0.9, 0.1], "label": 0}
INGEST = {  # the ingest's typed errors: (content, IngestionSchema options, outcome), read by load_dataset and plan --data
    "json-label-not-int.json": ({"reference": [GOOD_ITEM, {"features": [0.5, 0.5], "label": "x"}]}, {}, (DatasetParseError, "reference item 1: label must be an integer, got 'x'")),
    "json-test-label-not-int.json": ({"reference": [GOOD_ITEM], "test": [{"features": [0.5, 0.5], "label": "x"}]}, {}, (DatasetParseError, "test item 0: label must be an integer, got 'x'")),
    "json-missing-features.json": ({"reference": [GOOD_ITEM, {"label": 1}]}, {}, (DatasetParseError, "reference item 1: expected an object with a 'features' list")),
    "json-missing-label.json": ({"reference": [GOOD_ITEM, {"features": [0.5, 0.5]}]}, {}, (DatasetParseError, "reference item 1: label must be an integer, got None")),
    "json-features-not-list.json": ({"reference": [{"features": 0.5, "label": 0}]}, {}, (DatasetParseError, "reference item 0: expected an object with a 'features' list")),
    "json-item-not-object.json": ({"reference": [GOOD_ITEM], "test": [[0.5, 0.5]]}, {}, (DatasetParseError, "test item 0: expected an object with a 'features' list")),
    "json-class-count-1.json": ({"class_count": 1, "reference": [GOOD_ITEM]}, {}, (SchemaError, "class_count must be an integer >= 2, got 1")),
    # a class count given beside the file's must agree with it; the items are not read
    "json-class-count-disagrees.json": ({"class_count": 3, "reference": [{"features": [0.5, 0.5], "label": 4}]}, {"class_count": 5},
                                        (SchemaError, "JSON dataset: class_count 3 disagrees with the given class_count 5")),
    "json-class-count-agrees.json": ({"class_count": 3, "reference": [GOOD_ITEM]}, {"class_count": 3}, OK),
    "json-test-negative-label.json": ({"reference": [GOOD_ITEM], "test": [GOOD_ITEM, {"features": [0.5, 0.5], "label": -3}]}, {}, (SchemaError, "test item 1: negative label -3")),
    "json-test-label-over-class-count.json": ({"class_count": 2, "reference": [GOOD_ITEM], "test": [GOOD_ITEM, {"features": [0.4, 0.6], "label": 5}]}, {}, (SchemaError, "test item 1: label 5 out of range")),
    "schema-class-count-1.csv": (HEADER + "0.9,0.1,0,val\n", {"class_count": 1}, (SchemaError, "class_count must be an integer >= 2, got 1")),
    "label-above-class-count.csv": (HEADER + "0.9,0.1,5,val\n", {"class_count": 2}, (SchemaError, "row 2: label 5 >= class_count 2")),
    "probability.csv": (HEADER + "0.25,0.75,0,val\n", {"is_probability": True}, OK),
    "probability-sum.csv": (HEADER + "0.5,0.6,0,val\n", {"is_probability": True}, (ValidationError, "row 2: probability vector sums to 1.1, expected 1 within 1e-06")),
    "probability-outside.csv": (HEADER + "-0.1,1.1,0,val\n", {"is_probability": True}, (ValidationError, "row 2: probability values outside [0, 1]: (-0.1, 1.1)")),
    "csv-test-partly-labelled.csv": (HEADER + "0.9,0.1,0,val\n0.5,0.5,1,test\n\n0.2,0.8,?,test\n0.1,0.9,,test\n", {}, (SchemaError, "test row 5 has no label but other test rows have one")),
    "csv-test-first-unlabelled.csv": (HEADER + "0.9,0.1,0,val\n0.5,0.5,,test\n0.1,0.9,1,val\n0.2,0.8,1,test\n", {}, (SchemaError, "test row 3 has no label but other test rows have one")),
    "json-test-partly-labelled.json": ({"reference": [GOOD_ITEM], "test": [GOOD_ITEM, {"features": [0.5, 0.5]}]}, {}, (SchemaError, "test item 1 has no label but other test items have one")),
    "json-test-first-unlabelled.json": ({"reference": [GOOD_ITEM], "test": [{"features": [0.5, 0.5], "label": None}, GOOD_ITEM]}, {}, (SchemaError, "test item 0 has no label but other test items have one")),
    # labels too large for int64 (the reader buffers int64 labels)
    "csv-huge-label.csv": (HEADER + "0.9,0.1,0,val\n0.9,0.1,100000000000000000000,val\n0.5,0.5,1,test\n", {}, (SchemaError, "row 3: label 100000000000000000000 does not fit in int64")),
    "csv-huge-test-label.csv": (HEADER + "0.9,0.1,0,val\n0.5,0.5,9223372036854775808,test\n", {}, (SchemaError, "row 3: label 9223372036854775808 does not fit in int64")),
    "csv-huge-label-huger-class-count.csv": (HEADER + "0.9,0.1,100000000000000000000,val\n", {"class_count": 10**21}, (SchemaError, "row 2: label 100000000000000000000 does not fit in int64")),
    "csv-huge-label-then-nan.csv": (HEADER + "0.9,0.1,100000000000000000000,val\n0.5,nan,0,val\n", {}, (SchemaError, "row 2: label 100000000000000000000 does not fit in int64")),
    "json-huge-label.json": ({"reference": [GOOD_ITEM, {"features": [0.5, 0.5], "label": 10**20}]}, {}, (SchemaError, "reference item 1: label 100000000000000000000 out of range")),
    "json-huge-test-label.json": ({"reference": [GOOD_ITEM], "test": [{"features": [0.5, 0.5], "label": 2**63}]}, {}, (SchemaError, "test item 0: label 9223372036854775808 out of range")),
    "json-huge-label-huger-class-count.json": ({"class_count": 10**21, "reference": [{"features": [0.5, 0.5], "label": 10**20}]}, {}, (SchemaError, "reference item 0: label 100000000000000000000 out of range")),
    # a CSV label is ASCII digits (Python's int() would read 10, 0 and 1 here)
    "csv-underscore-label.csv": (HEADER + "0.9,0.1,0,val\n0.1,0.9,1_0,val\n", {}, (DatasetParseError, "row 3: non-integer label '1_0'")),
    "csv-plus-label.csv": (HEADER + "0.9,0.1,1,val\n0.1,0.9,+0,val\n", {}, (DatasetParseError, "row 3: non-integer label '+0'")),
    "csv-arabic-indic-test-label.csv": (HEADER + "0.9,0.1,0,val\n0.1,0.9,1,val\n0.5,0.5,\u0661,test\n", {}, (DatasetParseError, "row 4: non-integer label '\u0661'")),
    "csv-fullwidth-label.csv": (HEADER + "0.9,0.1,0,val\n0.1,0.9,\uff11,val\n", {}, (DatasetParseError, "row 3: non-integer label '\uff11'")),
    "csv-two-split-columns.csv": ("f0,split,f1,label, split\n0.9,val,0.1,0,test\n", {}, (SchemaError, "header has more than one 'split' column: ['f0', 'split', 'f1', 'label', 'split']")),
    "csv-header-not-utf8.csv": (b"f0,f1,lab\xe9l,split\n0.9,0.1,0,val\n", {}, (DatasetParseError, "row 1: not UTF-8: byte 0xe9 at offset 9")),
    "csv-no-feature-column.csv": ("label,split\n0,val\n", {}, (SchemaError, "no feature columns in header")),
    # a JSON feature is a JSON number (Python's float() would read 10 and 1 from the first two strings)
    "json-string-feature.json": ({"reference": [GOOD_ITEM, {"features": [0.5, "1_0"], "label": 1}]}, {},
                                 (DatasetParseError, "reference item 1: feature 1 must be a number, got '1_0'")),
    "json-digit-string-feature.json": ({"reference": [GOOD_ITEM], "test": [{"features": ["\u0661", 0.5]}]}, {},
                                       (DatasetParseError, "test item 0: feature 0 must be a number, got '\u0661'")),
    "json-true-feature.json": ({"reference": [{"features": [True, 0.0], "label": 0}]}, {},
                               (DatasetParseError, "reference item 0: feature 0 must be a number, got True")),
    "json-null-feature.json": ({"reference": [GOOD_ITEM, {"features": [0.5, None], "label": 1}]}, {},
                               (DatasetParseError, "reference item 1: feature 1 must be a number, got None")),
    # an integer past the float range is a number, read as an infinity
    "json-huge-int-feature.json": ({"reference": [GOOD_ITEM, {"features": [0.5, -(10**400)], "label": 1}]}, {},
                                   (DatasetParseError, "row 1: feature vector contains non-finite values: (0.5, -inf)")),
    "json-test-not-list.json": ({"reference": [GOOD_ITEM], "test": {}}, {}, (SchemaError, "JSON dataset: 'test' must be a list")),
    "json-empty-features.json": ({"reference": [{"features": [], "label": 0}]}, {}, (DatasetParseError, "row 0: feature vector must be non-empty")),
    "json-truncated.json": ('{"reference": [{"features": [0.9', {}, (DatasetParseError, "invalid JSON: ...")),
    "json-array.json": ([1, 2], {}, (SchemaError, "JSON dataset must be an object with a 'reference' list")),
    # Python's int() reads at most 4,300 digits
    "json-long-int.json": ('{"reference": [{"features": [0.5, ' + "1" * 5000 + '], "label": 0}]}', {}, (DatasetParseError, "invalid JSON: ...")),
}
FILE_TAKERS = {  # a column of the files family: a library call, or a command and the flag the path follows
    "load_dataset": lambda path, schema: load_dataset(path, schema),
    "load_split_files-val": lambda path, schema: load_split_files(path, schema=schema),
    "load_split_files-test": lambda path, schema: load_split_files("good.csv", path, schema),
    "plan --data": ["plan", "--data"],
    "plan --val": ["plan", "--val"],
}


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    """A directory holding every file of the files family, made the working directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("files"))
        Path("good.csv").write_text(HEADER + "0.9,0.1,0,val\n0.1,0.9,1,val\n")
        for name, (content, *_) in {**FILES, **INGEST}.items():
            if content is Path:
                Path(name).mkdir()
            elif isinstance(content, bytes):
                Path(name).write_bytes(content)
            elif content is not None:
                Path(name).write_text(content if isinstance(content, str) else json.dumps(content), newline="")
        yield


FILE_CELLS = unique_ids([
    pytest.param(column, name, {}, own[0].get(column, outcome) if own else outcome, id=f"{column}-{name}")
    for name, (_, outcome, *own) in FILES.items()
    for column in FILE_TAKERS
] + [
    pytest.param(column, name, options, outcome, id=f"{column}-{name}")
    for name, (_, options, outcome) in INGEST.items()
    for column in ("load_dataset", "plan --data")
])


@pytest.mark.parametrize("column, name, options, outcome", FILE_CELLS)
def test_file_cell(data_files, column, name, options, outcome):
    take = FILE_TAKERS[column]
    if callable(take):
        check(lambda path: take(path, IngestionSchema(**options)), name, outcome)
        return
    flags = ["--probability"] if options.get("is_probability") else []
    flags += ["--class-count", str(options["class_count"])] if "class_count" in options else []
    code, out, err = run_cli([take[0], *flags, *take[1:], name])
    if isinstance(outcome, Value):
        assert (code, err) == (0, "") and json.loads(out)["k"] == 1
    else:
        assert code == EXIT_CODES[outcome[0]] and err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        check_message(err[len("error: "):-1], outcome[1])


# --- whole commands: cli.main ------------------------------------------------------------------

DATA_CSV = HEADER + "0.9,0.1,0,val\n0.1,0.9,1,val\n0.5,0.5,0,val\n0.8,0.2,0,val\n0.7,0.3,0,test\n0.2,0.8,1,test\n"
COMMAND_FILES = {
    "data.csv": DATA_CSV,
    "zero-row.csv": HEADER + "0.9,0.1,0,val\n0.1,0.9,1,val\n0.7,0.3,0,test\n0.0,0.0,1,test\n",
    "zero-last.csv": DATA_CSV + "0.0,0.0,0,test\n",
    "tiny.csv": DATA_CSV.replace("0.7,0.3,0,test\n0.2,0.8,1,test\n", "0.001,0.002,1,test\n"),
    "partly.csv": DATA_CSV + "0.6,0.4,?,test\n",
    "unlabelled.csv": DATA_CSV.replace(",0,test", ",,test").replace(",1,test", ",,test"),
    "one.csv": DATA_CSV.replace("0.2,0.8,1,test\n", ""),
    "three.csv": "f0,f1,f2,label,split\n0.7,0.2,0.1,0,val\n0.2,0.7,0.1,1,val\n0.8,0.1,0.1,0,test\n",
    "cfg-choice.json": json.dumps({"backend": "bogus"}),
    "cfg-number.json": json.dumps({"ratio": [1]}),
    "cfg-integer.json": json.dumps({"decimals": 2.5}),
    "cfg-switch.json": json.dumps({"interleave": "no"}),
    "cfg-string.json": json.dumps({"model": 3}),
    "not-json.json": "{not json",
    "not-object.json": "[1, 2]",
    "fixture-number.json": json.dumps({KEY: 5}),
    "fixture-list.json": json.dumps({KEY: ["x", 7]}),
    "fixture-empty.json": json.dumps({KEY: []}),
}
INFER = "infer --data data.csv --ratio 0.5 --out out.jsonl"
REMOTE = "infer --data data.csv --out out.jsonl --backend remote --api-key-env TRANSDUCT_CONTRACT_KEY"
ENDPOINT = "--endpoint http://127.0.0.1:9/v1"
ED = "evaluate --data data.csv --use-case error_detection"
AI = "evaluate --data data.csv --use-case accuracy_improvement --k 1"
NOT_A_FIXTURE = f"mock fixture {KEY}: expected a string or a non-empty list of strings, got"


def records():
    return [json.loads(line) for line in Path("out.jsonl").read_text().splitlines()] if Path("out.jsonl").exists() else []


def fallbacks():
    return [(r["label"], r["fallback"], r["completions"]) for r in records()]


COMMANDS = {  # argv: (exit code, message or None, a check of what the command wrote, or None)
    # CI's console-script cases
    "evaluate --use-case error_detection --method prompt --backend mock --positive-class 5 --data data.csv":
        (1, "positive_class 5 outside [0, 2)", None),
    "infer --backend mock --ratio 1.0 --data zero-row.csv --out out.jsonl":
        (1, f"test feature 1 {ZERO_NORM}", lambda: not Path("out.jsonl").exists()),
    f"{AI} --method ubknn --seed -1": (1, "seed must be an integer >= 0, got -1", None),
    # Part 1 alone (4 lines, 27 tokens) overflows: the hint counts the lines that fit beside Part 2
    "prompt --data data.csv --ratio 1.0 --token-budget 26":
        (1, "prompt needs ~34 tokens, budget is 26; 2 reference lines fit beside part 2", None),
    # a completion of 5000 digits (past int()'s 4300) is out of range: re-asked, then the fallback
    f"infer --backend mock --mock-default {'7' * 5000} --data data.csv --out out.jsonl":
        (0, None, lambda: [(r["fallback"], len(r["completions"])) for r in records()] == [(True, 2)] * 2),
    # the test rows
    f"{INFER} --backend local --data zero-last.csv": (1, f"test feature 2 {ZERO_NORM}", lambda: records() == []),
    f"{INFER} --backend mock --mock-default x --data zero-last.csv": (1, f"test feature 2 {ZERO_NORM}", lambda: records() == []),
    f"{AI} --method knn --data zero-last.csv": (1, f"test feature 2 {ZERO_NORM}", None),
    f"{AI} --method ubknn --data zero-last.csv": (1, f"test feature 2 {ZERO_NORM}", None),
    # Part 2 of [0.001, 0.002] reads [0.00, 0.00]: no request, the cosine-1NN fallback at once
    "infer --backend local --ratio 1.0 --data tiny.csv --out out.jsonl": (0, None, lambda: fallbacks() == [(0, True, [])]),
    "infer --backend mock --ratio 1.0 --data tiny.csv --out out.jsonl": (0, None, lambda: fallbacks() == [(0, True, [])]),
    f"{ED} --method knn --data partly.csv": (1, "test row 8 has no label but other test rows have one", None),
    f"{ED} --method knn --data unlabelled.csv": (1, "evaluate requires labeled test rows", None),
    "evaluate --val three.csv --test three.csv --use-case accuracy_improvement --method knn --k 1":
        (1, "accuracy improvement expects one probability per class: features have 3 values but there are 2 classes", None),
    "prompt --data one.csv --test-index 1": (1, "--test-index 1 outside [0, 1): the dataset has 1 test rows", None),
    "prompt --data one.csv --test-index 5": (1, "--test-index 5 outside [0, 1): the dataset has 1 test rows", None),
    "prompt --data one.csv --test-index -1": (1, "--test-index -1 outside [0, 1): the dataset has 1 test rows", None),
    # settings; --bags and --seed are read only by --method ubknn
    f"{AI} --method knn --seed -1": (0, None, None),
    f"{AI} --method ubknn --bags 0": (1, "n_bags must be an integer >= 1, got 0", None),
    f"{AI} --method knn --bags 0": (0, None, None),
    f"{AI} --method knn --k 0": (1, "k_neighbors must be an integer >= 1, got 0", None),
    "infer --data data.csv --backend local --s 0": (1, "attention_scale must be positive, got 0.0", None),
    "infer --data data.csv --backend local --s nan": (1, "attention_scale must be positive, got nan", None),
    "plan --data data.csv --ratio nan": (1, "selection_ratio must be in (0, 1], got nan", None),
    "plan --data data.csv --ratio 0": (1, "selection_ratio must be in (0, 1], got 0.0", None),
    "plan --data data.csv --class-count 1": (1, "class_count must be an integer >= 2, got 1", None),
    "prompt --data data.csv --decimals 0": (1, "decimals must be an integer >= 1, got 0", None),
    "gen-toy --dataset moons --n 3 --out toy.csv": (1, "n must be an integer >= 4, got 3", lambda: not Path("toy.csv").exists()),
    "gen-toy --dataset moons --seed -1 --out toy.csv": (1, "seed must be an integer >= 0, got -1", None),
    "gen-toy --dataset moons --reference-fraction 1 --out toy.csv": (1, "reference_fraction must be in (0, 1), got 1.0", None),
    **{f"gen-toy --dataset moons --noise {v} --out toy.csv": (1, f"noise must be in [0, inf), got {float(v)!r}", lambda: not Path("toy.csv").exists())
       for v in ("-1", "nan", "inf")},
    "oracle-check --seed -1": (1, "seed must be an integer >= 0, got -1", None),
    "oracle-check --trials 0": (1, "trials must be an integer >= 1, got 0", None),
    "oracle-check --trials 1000001": (1, "trials must be at most 1000000, got 1000001", None),
    # paths
    "plan --data /nonexistent/file.csv": (1, "no such file: /nonexistent/file.csv", None),
    "plan": (1, "provide --data or --val (optionally with --test)", None),
    "plan --data data.csv --out .": (1, "[Errno 21] Is a directory: '.'", None),
    # the backends: settings are refused before the first request; a failed request is exit 2
    f"{REMOTE} {ENDPOINT} --base-backoff-ms -5": (1, "base_backoff_ms must be an integer >= 0, got -5", None),
    f"{REMOTE} {ENDPOINT} --max-attempts 0": (1, "max_attempts must be an integer >= 1, got 0", None),
    f"{REMOTE} {ENDPOINT} --budget -1": (1, "request_budget must be an integer >= 0, got -1", None),
    f"{REMOTE} {ENDPOINT} --rpm 0": (1, "rate_limit_rpm must be an integer >= 1, got 0", None),
    f"{REMOTE} --endpoint 127.0.0.1:9/v1": (1, "endpoint_url must be an http or https URL, got '127.0.0.1:9/v1'", None),
    f"{REMOTE} --endpoint ftp://api.example.test/v1":
        (1, "endpoint_url must be an http or https URL, got 'ftp://api.example.test/v1'", None),
    REMOTE: (1, "remote backend requires endpoint_url and api_key_env", None),
    f"{REMOTE} --endpoint https://api.example.test/v1": (2, "environment variable TRANSDUCT_CONTRACT_KEY is not set", None),
    f"{INFER} --backend mock": (2, "no mock fixture for prompt hash ...", None),
    f"{INFER} --backend mock --mock-fixtures fixture-number.json": (1, f"{NOT_A_FIXTURE} 5", lambda: records() == []),
    f"{INFER} --backend mock --mock-fixtures fixture-list.json": (1, f"{NOT_A_FIXTURE} ['x', 7]", lambda: records() == []),
    f"{INFER} --backend mock --mock-fixtures fixture-empty.json": (1, f"{NOT_A_FIXTURE} []", lambda: records() == []),
    # --config and --mock-fixtures files
    f"--config cfg-choice.json {ED}": (1, "--config cfg-choice.json: backend must be one of 'mock', 'local', 'remote', got \"bogus\"", None),
    "--config cfg-number.json plan --data data.csv": (1, "--config cfg-number.json: ratio must be a number, got [1]", None),
    "--config cfg-integer.json prompt --data data.csv": (1, "--config cfg-integer.json: decimals must be an integer, got 2.5", None),
    "--config cfg-switch.json plan --data data.csv": (1, "--config cfg-switch.json: interleave must be true or false, got \"no\"", None),
    "--config cfg-string.json infer --data data.csv": (1, "--config cfg-string.json: model must be a string, got 3", None),
    **{
        argv.format(file): (1, f"{flag} {file}: {why}", None)
        for flag, argv in (("--config", "--config {} " + INFER + " --backend mock --mock-default 1"),
                           ("--mock-fixtures", INFER + " --backend mock --mock-default 1 --mock-fixtures {}"))
        for file, why in (("missing.json", "[Errno 2] No such file or directory: 'missing.json'"),
                          ("not-json.json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
                          ("not-object.json", "expected a JSON object"))
    },
}


@pytest.mark.parametrize("argv, code, message, wrote", unique_ids([pytest.param(a, *c, id=a) for a, c in COMMANDS.items()]))
def test_command_cell(tmp_path, monkeypatch, argv, code, message, wrote):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRANSDUCT_CONTRACT_KEY", raising=False)
    argv = argv.split(" ")
    for name in set(argv) & set(COMMAND_FILES):
        Path(name).write_text(COMMAND_FILES[name])
    ASKED.clear()
    result, _, err = run_cli(argv)
    assert result == code and "Traceback" not in err
    if message is None:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        check_message(err[len("error: "):-1], message)
        assert code == 2 or ASKED == []
    assert wrote is None or wrote()


def test_readme_names_the_exit_codes_of_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| [^|]+ \| `(\w+)` \| (\d) \|$", readme, re.MULTILINE)
    assert {(name, int(code)) for name, code in rows} == {(kind.__name__, code) for kind, code in EXIT_CODES.items()}
