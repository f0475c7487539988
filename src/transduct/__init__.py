"""Transductive label propagation for trained classifiers.

Improves an already-trained classifier by propagating labels from a small
labeled reference set (typically the validation split) to test samples.
Inference runs either through a completion backend fed a two-part
feature-label prompt, or through a local scaled-dot-product-attention
model that behaves as a cosine nearest-neighbor classifier.
"""

__version__ = "0.1.0"

from .attention import (
    AttentionConfig,
    FeatureLabelMatrix,
    attention,
    cosine_1nn_label,
    iterate_self_attention,
    nn_attention_classify,
    self_attention_classify,
)
from .backends import (
    BackendConfig,
    ClassifyAudit,
    CompletionRequest,
    CompletionResponse,
    RetryPolicy,
    classify,
    make_backend,
)
from .baselines import KnnConfig, UbKnnConfig, knn_classify, ubknn_classify
from .core import (
    FeatureVector,
    IngestionSchema,
    LabeledDataset,
    ReferenceSet,
    derive_error_detection_set,
    load_dataset,
    save_dataset,
)
from .prompt import (
    PromptBundle,
    SerializationConfig,
    build_bundle,
    build_part1,
    build_part2,
    parse_completion,
)
from .selection import SelectionPlan, build_plan, representativeness
from .toydata import generate, split_dataset
from .workflow import (
    EvalReport,
    RunConfig,
    compute_metrics,
    run_accuracy_improvement,
    run_error_detection,
)

__all__ = [
    "AttentionConfig",
    "BackendConfig",
    "ClassifyAudit",
    "CompletionRequest",
    "CompletionResponse",
    "EvalReport",
    "FeatureLabelMatrix",
    "FeatureVector",
    "IngestionSchema",
    "KnnConfig",
    "LabeledDataset",
    "PromptBundle",
    "ReferenceSet",
    "RetryPolicy",
    "RunConfig",
    "SelectionPlan",
    "SerializationConfig",
    "UbKnnConfig",
    "attention",
    "build_bundle",
    "build_part1",
    "build_part2",
    "build_plan",
    "classify",
    "compute_metrics",
    "cosine_1nn_label",
    "derive_error_detection_set",
    "generate",
    "iterate_self_attention",
    "knn_classify",
    "load_dataset",
    "make_backend",
    "nn_attention_classify",
    "parse_completion",
    "representativeness",
    "run_accuracy_improvement",
    "run_error_detection",
    "save_dataset",
    "self_attention_classify",
    "split_dataset",
    "ubknn_classify",
]
