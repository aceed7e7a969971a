"""The layers the traced run measures, and the per-layer metrics made from
the tracer's spans and counts.

A layer is one module of ``sla``.  ``evaluation`` is left out (a
1000-iteration bootstrap costs about 0.05 s), and so are ``stage`` and
``cli``, which no workload calls.  No layer has a queue, so each reports
work done and self (busy) time, never waiting time.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Target, Tracer


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_reports(state, args, kwargs, result):
    state.setdefault("reports", set()).add(_arg(args, kwargs, 0, "report").id)


def _count_dimension(state, args, kwargs, result):
    state["dimension"] = state.get("dimension", 0) + result.dimension


def _count_gbt(state, args, kwargs, result):
    state["rows"] = state.get("rows", 0) + _arg(args, kwargs, 0, "X").shape[0]
    state["trees"] = state.get("trees", 0) + len(result.trees)


def _count_scored_rows(state, args, kwargs, result):
    state["rows"] = state.get("rows", 0) + len(result)


def _count_logreg(state, args, kwargs, result):
    classes = len(result.classes)
    state["binary_fits"] = state.get("binary_fits", 0) + (classes if classes > 1 else 0)
    state["nonzero"] = state.get("nonzero", 0) + int(np.count_nonzero(result.weights))
    state["weights"] = state.get("weights", 0) + result.weights.size


def _count_bundle(state, args, kwargs, result):
    state["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


TARGETS = [
    Target("textproc", "tokenize_lines", _count_reports),
    Target("textproc", "tokenize"),
    Target("textproc", "vectorize"),
    Target("textproc", "build_vocabulary", _count_dimension),
    Target("textproc", "to_csr"),
    Target("learners", "train_gbt", _count_gbt),
    Target("learners", "predict_gbt_batch", _count_scored_rows),
    Target("learners", "train_l1_logreg", _count_logreg),
    Target("learners", "predict_logreg"),
    Target("pipeline", "train_sla"),
    Target("pipeline", "predict_sla"),
    Target("pipeline", "select_top_k"),
    Target("pipeline", "join_adjacent"),
    Target("pipeline", "compose_representation"),
    Target("pipeline", "save_model", _count_bundle),
    Target("pipeline", "load_model"),
    Target("baselines", "featurize_document"),
    Target("baselines", "train_doc_baseline"),
    Target("baselines", "predict_doc_baseline"),
    Target("tuning", "cross_validate"),
    Target("tuning", "fit_variant"),
    Target("synth", "generate_corpus"),
    Target("corpus", "select_documents"),
]

# Per-layer metric name -> unit.  Every traced run reports all of them; a
# layer whose function is gone reports 0 and is counted in
# tracer.absent_functions.
UNITS = {
    "textproc.tokenize_lines.calls": "count",
    "textproc.tokenize_lines.self_s": "s",
    "textproc.tokenize_lines.reports_per_distinct": "ratio",
    "textproc.tokenize.self_s": "s",
    "textproc.vectorize.calls": "count",
    "textproc.vectorize.self_s": "s",
    "textproc.build_vocabulary.calls": "count",
    "textproc.build_vocabulary.self_s": "s",
    "textproc.build_vocabulary.dimension_mean": "count",
    "textproc.to_csr.self_s": "s",
    "learners.train_gbt.calls": "count",
    "learners.train_gbt.self_s": "s",
    "learners.train_gbt.rows": "count",
    "learners.train_gbt.trees": "count",
    "learners.predict_gbt_batch.calls": "count",
    "learners.predict_gbt_batch.self_s": "s",
    "learners.predict_gbt_batch.rows_per_call": "count",
    "learners.train_l1_logreg.calls": "count",
    "learners.train_l1_logreg.self_s": "s",
    "learners.train_l1_logreg.binary_fits": "count",
    "learners.train_l1_logreg.nonzero_share": "ratio",
    "learners.predict_logreg.self_s": "s",
    "pipeline.train_sla.self_s": "s",
    "pipeline.predict_sla.self_s": "s",
    "pipeline.select_top_k.self_s": "s",
    "pipeline.join_adjacent.self_s": "s",
    "pipeline.compose_representation.self_s": "s",
    "pipeline.save_model.self_s": "s",
    "pipeline.load_model.self_s": "s",
    "pipeline.bundle_bytes": "bytes",
    "baselines.featurize_document.self_s": "s",
    "baselines.train_doc_baseline.self_s": "s",
    "baselines.predict_doc_baseline.self_s": "s",
    "tuning.cross_validate.calls": "count",
    "tuning.cross_validate.self_s": "s",
    "tuning.fit_variant.calls": "count",
    "tuning.fit_variant.self_s": "s",
    "synth.generate_corpus.self_s": "s",
    "corpus.select_documents.self_s": "s",
    "tracer.overhead_s": "s",
    "tracer.spans": "count",
    "tracer.absent_functions": "count",
    "tracer.count_errors": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric in ``UNITS`` from one finished traced run."""
    stats = tracer.stats()
    state = tracer.state
    values: dict[str, float] = {}
    for key, entry in stats.items():
        values[f"{key}.calls"] = entry.calls
        values[f"{key}.self_s"] = entry.self_s

    tl = state["textproc.tokenize_lines"]
    values["textproc.tokenize_lines.reports_per_distinct"] = _ratio(
        stats["textproc.tokenize_lines"].calls, len(tl.get("reports", ()))
    )
    values["textproc.build_vocabulary.dimension_mean"] = _ratio(
        state["textproc.build_vocabulary"].get("dimension", 0),
        stats["textproc.build_vocabulary"].calls,
    )
    gbt = state["learners.train_gbt"]
    values["learners.train_gbt.rows"] = gbt.get("rows", 0)
    values["learners.train_gbt.trees"] = gbt.get("trees", 0)
    values["learners.predict_gbt_batch.rows_per_call"] = _ratio(
        state["learners.predict_gbt_batch"].get("rows", 0),
        stats["learners.predict_gbt_batch"].calls,
    )
    l1 = state["learners.train_l1_logreg"]
    values["learners.train_l1_logreg.binary_fits"] = l1.get("binary_fits", 0)
    values["learners.train_l1_logreg.nonzero_share"] = _ratio(
        l1.get("nonzero", 0), l1.get("weights", 0)
    )
    values["pipeline.bundle_bytes"] = state["pipeline.save_model"].get("bytes", 0)
    values["tracer.overhead_s"] = overhead_s
    values["tracer.spans"] = len(tracer.spans)
    values["tracer.absent_functions"] = len(tracer.absent)
    values["tracer.count_errors"] = sum(tracer.count_errors.values())
    return {name: float(values[name]) for name in UNITS}
