"""Line-level supervised extraction of categorical fields from free-text reports."""

from .corpus import (
    AttributeSchema,
    CorpusError,
    EnrichedAnnotation,
    LabeledDocument,
    Report,
    Split,
    compose_label,
    load_corpus,
    load_schemas,
    save_corpus,
    split_corpus,
    validate_against_schema,
)
from .evaluation import agreement, bootstrap_ci, learning_curve, macro_f1, micro_f1
from .pipeline import (
    Prediction,
    SlaHyperParams,
    SlaModel,
    load_model,
    predict_sla,
    predict_sla_batch,
    save_model,
    train_sla,
)
from .stage import TnmStage, compose_tnm, extract_stage_tokens, parse_tnm, stage_report
from .synth import GenConfig, generate_corpus
from .tuning import cross_validate, fit_variant, random_search

__version__ = "0.1.0"

__all__ = [
    "AttributeSchema",
    "CorpusError",
    "EnrichedAnnotation",
    "GenConfig",
    "LabeledDocument",
    "Prediction",
    "Report",
    "SlaHyperParams",
    "SlaModel",
    "Split",
    "TnmStage",
    "agreement",
    "bootstrap_ci",
    "compose_label",
    "compose_tnm",
    "cross_validate",
    "extract_stage_tokens",
    "fit_variant",
    "generate_corpus",
    "learning_curve",
    "load_corpus",
    "load_model",
    "load_schemas",
    "macro_f1",
    "micro_f1",
    "parse_tnm",
    "predict_sla",
    "predict_sla_batch",
    "random_search",
    "save_corpus",
    "save_model",
    "split_corpus",
    "stage_report",
    "train_sla",
    "validate_against_schema",
]
