"""Command-line interface.

Every artifact-producing command writes a RunManifest next to its outputs
(``<out>.manifest.json``, or ``manifest.json`` inside an output
directory) recording the exact argv, the resolved options, the seed, and
sha256 checksums of inputs and outputs, so any run can be re-executed
exactly.  All writes are atomic (temp file + rename).  No command mutates
its inputs.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import bundle, evaluation, pipeline, stage, synth, tuning
from .corpus import (
    CorpusError,
    corpus_to_jsonl,
    gold_label,
    load_corpus,
    load_schemas,
    read_json,
    validate_against_schema,
)

_MANIFEST_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# small file helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _manifest_path(out: str) -> str:
    if os.path.isdir(out):
        return os.path.join(out, "manifest.json")
    return out + ".manifest.json"


@dataclass(frozen=True)
class _Run:
    """What a command read (an option that was not given reads None and is
    skipped) and wrote, its exit code, and the values it records that the
    parsed namespace does not hold as they are.  ``main`` writes the
    manifest from it; a run that wrote nothing has none."""

    inputs: tuple
    outputs: tuple
    code: int = EXIT_OK
    recorded: dict = field(default_factory=dict)


def _write_manifest(args, argv: list[str], run: _Run, started: float) -> None:
    resolved = {
        key: run.recorded[key] if key in run.recorded else getattr(args, key, None)
        for key in args.manifest_keys
    }
    manifest = {
        "version": _MANIFEST_VERSION,
        "command": args.command,
        "argv": list(argv),
        "resolved": resolved,
        "seed": resolved.get("seed"),
        "inputs": {p: _sha256(p) for p in run.inputs if p},
        "outputs": {p: _sha256(p) for p in run.outputs},
        "wall_clock_seconds": round(time.time() - started, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _atomic_write(_manifest_path(args.out), _json_text(manifest))


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise _UsageError(f"bad --sizes value {text!r}") from exc
    if not sizes:
        raise _UsageError("--sizes must list at least one size")
    if len(set(sizes)) != len(sizes):
        raise _UsageError(f"--sizes names a size twice: {text!r}")
    return sizes


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> _Run:
    config = synth.load_gen_config(args.config)
    payload = synth.config_to_dict(config)
    for key in ("seed", "num_docs", "scheme"):
        if getattr(args, key) is not None:
            payload[key] = getattr(args, key)
    config = synth.config_from_dict(payload)
    docs = synth.generate_corpus(config)
    _atomic_write(args.out, corpus_to_jsonl(docs))
    print(f"wrote {len(docs)} documents to {args.out}")
    return _Run((args.config,), (args.out,), recorded={"config": payload, "seed": payload["seed"]})


def _cmd_validate(args) -> _Run:
    docs = load_corpus(args.corpus)
    schemas = load_schemas(args.schema)
    report = validate_against_schema(docs, schemas)
    print(f"{len(report)} violations")
    for v in report.violations:
        print(f"  {v.doc_id} {v.attribute}: {v.message}")
    if args.out:
        payload = {
            "n_documents": len(docs),
            "n_violations": len(report),
            "violations": [
                {"id": v.doc_id, "attribute": v.attribute, "message": v.message}
                for v in report.violations
            ],
        }
        _atomic_write(args.out, _json_text(payload))
    code = EXIT_OK if report.ok() else EXIT_DATA
    return _Run((args.corpus, args.schema), (args.out,) if args.out else (), code)


def _load_params(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return read_json(json.load(fh), dict, f"{path}: the params file")


def _cmd_train(args) -> _Run:
    if args.rules and args.variant != "rules":
        raise _UsageError(f"--rules applies only to --variant rules, not {args.variant!r}")
    docs = load_corpus(args.corpus)
    schemas = load_schemas(args.schema)
    config = _load_params(args.params)
    rules = None
    if args.rules:
        rules = pipeline.load_keyword_rules(args.rules).get(args.attribute)
        if rules is None:
            raise CorpusError(f"{args.rules}: no rules for attribute {args.attribute!r}")
    fitted = tuning.fit_variant(
        args.variant,
        docs,
        args.attribute,
        config,
        seed=args.seed,
        schemas=schemas,
        keyword_rules=rules,
    )
    _atomic_write(args.out, bundle.bundle_text(fitted.sla_model or fitted.baseline))
    print(f"trained {args.variant} model for {args.attribute!r} -> {args.out}")
    inputs = (args.corpus, args.params, args.schema, args.rules)
    return _Run(inputs, (args.out,), recorded={"params": config})


def _cmd_predict(args) -> _Run:
    docs = load_corpus(args.corpus)
    fitted = tuning.FittedVariant.load(args.model)
    records = [
        {
            "id": doc.report.id,
            "attribute": fitted.attribute,
            "label": pred.label,
            "scores": pred.scores,
            "rationale": [
                {**asdict(seg), "text": " ".join(doc.report.lines[seg.start : seg.end + 1])}
                for seg in pred.rationale.segments
            ],
        }
        for doc, pred in zip(docs, fitted.predict_many(docs))
    ]
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    _atomic_write(args.out, text)
    print(f"wrote {len(records)} predictions to {args.out}")
    return _Run((args.corpus, args.model), (args.out,))


def _load_labels(path: str) -> dict[tuple[str, str], str]:
    """Labels by (id, attribute) from JSONL; a repeated key is a CorpusError."""
    labels: dict[tuple[str, str], str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = read_json(json.loads(line), dict, "the record")
                doc_id, attribute, label = (
                    read_json(record[k], str, f"field {k!r}") for k in ("id", "attribute", "label")
                )
            except (KeyError, ValueError) as exc:
                raise CorpusError(f"{path}: record {lineno}: {exc}") from exc
            key = (doc_id, attribute)
            if key in labels:
                raise CorpusError(f"{path}: record {lineno}: duplicate record {key}")
            labels[key] = label
    return labels


def _cmd_evaluate(args) -> _Run:
    docs = load_corpus(args.corpus)
    by_id = {d.report.id: d for d in docs}
    schemas = load_schemas(args.schema)
    preds = _load_labels(args.preds)
    grouped: dict[str, list[tuple[str, str]]] = {}
    for (doc_id, attribute), label in preds.items():
        doc = by_id.get(doc_id)
        if doc is None:
            raise CorpusError(f"prediction for unknown document {doc_id!r}")
        if attribute not in doc.annotations:
            raise CorpusError(f"doc {doc_id} has no gold label for {attribute!r}")
        grouped.setdefault(attribute, []).append(
            (label, gold_label(doc, attribute, schemas))
        )
    if not grouped:
        raise CorpusError(f"{args.preds}: no predictions to evaluate")
    attr_reports = {
        attribute: evaluation.score_outcomes(
            grouped[attribute], args.bootstrap_iterations, args.ci_level, args.seed
        )
        for attribute in sorted(grouped)
    }
    summary = evaluation.evaluate_attributes(attr_reports)
    payload = {
        "attributes": {a: report.to_dict() for a, report in attr_reports.items()},
        "avg_micro_f1": summary.avg_micro_f1,
        "avg_macro_f1": summary.avg_macro_f1,
        "ci_level": args.ci_level,
        "bootstrap_iterations": args.bootstrap_iterations,
    }
    _atomic_write(args.out, _json_text(payload))
    print(
        f"avg micro-F1 {summary.avg_micro_f1:.4f}, avg macro-F1 {summary.avg_macro_f1:.4f} "
        f"over {len(attr_reports)} attribute(s)"
    )
    return _Run((args.corpus, args.preds, args.schema), (args.out,))


def _cmd_tune(args) -> _Run:
    docs = load_corpus(args.corpus)
    schemas = load_schemas(args.schema)
    best, results = tuning.random_search(
        docs,
        args.attribute,
        trials=args.trials,
        folds=args.folds,
        seed=args.seed,
        variant=args.variant,
        schemas=schemas,
        jobs=args.jobs,
    )
    os.makedirs(args.out, exist_ok=True)
    best_path = os.path.join(args.out, "best.json")
    trials_path = os.path.join(args.out, "trials.jsonl")
    _atomic_write(best_path, _json_text(best))
    _atomic_write(
        trials_path,
        "".join(
            json.dumps({"trial": i, **asdict(result)}, ensure_ascii=False) + "\n"
            for i, result in enumerate(results)
        ),
    )
    best_score = max(r.mean_score for r in results)
    print(f"best mean micro-F1 {best_score:.4f} over {len(results)} trials -> {best_path}")
    return _Run((args.corpus, args.schema), (best_path, trials_path))


# the columns of curve.csv, read from each cell's record with its two
# intervals split into low and high ends
_CURVE_COLUMNS = (
    "attribute", "size", "run", "split_seed", "search_seed", "micro_f1", "macro_f1",
    "micro_ci_lo", "micro_ci_hi", "macro_ci_lo", "macro_ci_hi", "n_test_docs",
)


def _cmd_learning_curve(args) -> _Run:
    # usage errors first, before a possibly large corpus is read
    sizes = _parse_sizes(args.sizes)
    attributes = [a.strip() for a in args.attribute.split(",") if a.strip()]
    if not attributes:
        raise _UsageError("--attribute must name at least one attribute")
    if len(set(attributes)) != len(attributes):
        raise _UsageError(f"--attribute names an attribute twice: {args.attribute!r}")
    docs = load_corpus(args.corpus)
    schemas = load_schemas(args.schema)
    curves = [
        evaluation.learning_curve(
            docs,
            attribute,
            variant=args.variant,
            sizes=sizes,
            runs=args.runs,
            base_seed=args.seed,
            trials=args.trials,
            folds=args.folds,
            ci_iterations=args.ci_iterations,
            ci_level=args.ci_level,
            schemas=schemas,
            jobs=args.jobs,
        )
        for attribute in attributes
    ]
    os.makedirs(args.out, exist_ok=True)
    curve_path = os.path.join(args.out, "curve.json")
    table_path = os.path.join(args.out, "curve.csv")

    cells = [cell.to_dict() for curve in curves for cell in curve.cells]
    summary = [
        {
            "attribute": curve.attribute,
            "size": size,
            "mean_micro_f1": curve.mean_micro_f1(size),
            "mean_macro_f1": curve.mean_macro_f1(size),
        }
        for curve in curves
        for size in curve.sizes
    ]
    payload = {
        "variant": args.variant,
        "attributes": attributes,
        "sizes": list(sizes),
        "runs": args.runs,
        "trials": args.trials,
        "folds": args.folds,
        "ci_level": args.ci_level,
        "ci_iterations": args.ci_iterations,
        "seed": args.seed,
        "cells": cells,
        "summary": summary,
    }
    _atomic_write(curve_path, _json_text(payload))

    table = io.StringIO()
    writer = csv.DictWriter(table, _CURVE_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for cell in cells:
        (micro_lo, micro_hi), (macro_lo, macro_hi) = cell["micro_ci"], cell["macro_ci"]
        writer.writerow(
            {**cell, "micro_ci_lo": micro_lo, "micro_ci_hi": micro_hi,
             "macro_ci_lo": macro_lo, "macro_ci_hi": macro_hi}
        )
    _atomic_write(table_path, table.getvalue())
    print(f"wrote {len(cells)} curve cells to {curve_path}")
    return _Run((args.corpus, args.schema), (curve_path, table_path),
                recorded={"sizes": list(sizes)})


def _cmd_agreement(args) -> _Run:
    labels_a = _load_labels(args.a)
    labels_b = _load_labels(args.b)
    if set(labels_a) != set(labels_b):
        only_a = len(set(labels_a) - set(labels_b))
        only_b = len(set(labels_b) - set(labels_a))
        raise CorpusError(
            f"annotation files cover different items ({only_a} only in a, {only_b} only in b)"
        )
    by_attr: dict[str, list[tuple[str, str]]] = {}
    for key in sorted(labels_a):
        by_attr.setdefault(key[1], []).append((labels_a[key], labels_b[key]))

    def entry(pairs):
        fraction, kappa = evaluation.agreement([x for x, _ in pairs], [y for _, y in pairs])
        return {"fraction": fraction, "kappa": kappa, "n": len(pairs)}

    payload_attrs = {attribute: entry(pairs) for attribute, pairs in sorted(by_attr.items())}
    all_pairs = [p for pairs in by_attr.values() for p in pairs]
    payload = {"attributes": payload_attrs, "overall": entry(all_pairs)}
    _atomic_write(args.out, _json_text(payload))
    for attribute, entry in payload_attrs.items():
        print(f"{attribute}: fraction {entry['fraction']:.4f}, kappa {entry['kappa']:.4f}")
    return _Run((args.a, args.b), (args.out,))


def _cmd_stage(args) -> _Run:
    docs = load_corpus(args.corpus)
    lines = io.StringIO()
    n_found = 0
    for doc in docs:
        parsed = stage.stage_report(doc.report)
        if parsed is None:
            record = {"id": doc.report.id, "token": None}
        else:
            n_found += 1
            record = {
                "id": doc.report.id,
                "token": stage.compose_tnm(parsed),
                "prefixes": list(parsed.prefixes),
                "t": parsed.t,
                "n": parsed.n,
                "m": parsed.m,
            }
        lines.write(json.dumps(record, ensure_ascii=False) + "\n")
    _atomic_write(args.out, lines.getvalue())
    print(f"found stage tokens in {n_found}/{len(docs)} documents")
    return _Run((args.corpus,), (args.out,))


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="sla", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--num-docs", type=int, default=None, dest="num_docs")
    p.add_argument("--scheme", choices=("minimal", "full"), default=None)
    p.set_defaults(func=_cmd_synth, manifest_keys=("config", "out", "seed"))

    p = sub.add_parser("validate", help="check a corpus against a schema")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", default=None, help="schema JSON (default: packaged)")
    p.add_argument("--out", default=None, help="optional violations report JSON")
    p.set_defaults(func=_cmd_validate, manifest_keys=("corpus", "schema", "out", "seed"))

    p = sub.add_parser("train", help="train one variant for one attribute")
    p.add_argument("--corpus", required=True)
    p.add_argument("--attribute", required=True)
    p.add_argument("--variant", default="sla", choices=tuning.METHODS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", default=None, help="flat config JSON (e.g. tune's best.json)")
    p.add_argument("--rules", default=None, help="keyword rules JSON for the rules variant")
    p.add_argument("--schema", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(
        func=_cmd_train,
        manifest_keys=("corpus", "attribute", "variant", "params", "seed", "out"),
    )

    p = sub.add_parser("predict", help="predict labels with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict, manifest_keys=("corpus", "model", "out", "seed"))

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--bootstrap-iterations", type=int, default=1000, dest="bootstrap_iterations")
    p.add_argument("--ci-level", type=float, default=0.95, dest="ci_level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(
        func=_cmd_evaluate,
        manifest_keys=("corpus", "preds", "bootstrap_iterations", "ci_level", "seed", "out"),
    )

    p = sub.add_parser("tune", help="random-search hyperparameters")
    p.add_argument("--corpus", required=True)
    p.add_argument("--attribute", required=True)
    p.add_argument("--variant", default="sla", choices=tuning.METHODS)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--schema", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(
        func=_cmd_tune,
        manifest_keys=("corpus", "attribute", "variant", "trials", "folds", "seed", "jobs", "out"),
    )

    p = sub.add_parser("learning-curve", help="accuracy vs training-set size")
    p.add_argument("--corpus", required=True)
    p.add_argument("--attribute", required=True, help="attribute, or comma-separated list")
    p.add_argument("--variant", default="sla", choices=tuning.METHODS)
    p.add_argument("--sizes", default="32,64,128,186")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--ci-iterations", type=int, default=1000, dest="ci_iterations")
    p.add_argument("--ci-level", type=float, default=0.95, dest="ci_level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--schema", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(
        func=_cmd_learning_curve,
        manifest_keys=(
            "corpus", "attribute", "variant", "sizes", "runs", "trials", "folds",
            "ci_iterations", "ci_level", "seed", "jobs", "out",
        ),
    )

    p = sub.add_parser("agreement", help="inter-annotator agreement per attribute")
    p.add_argument("--a", required=True, help="JSONL of {id, attribute, label}")
    p.add_argument("--b", required=True, help="JSONL of {id, attribute, label}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_agreement, manifest_keys=("a", "b", "out", "seed"))

    p = sub.add_parser("stage", help="extract TNM stage tokens from reports")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stage, manifest_keys=("corpus", "out", "seed"))

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    started = time.time()
    try:
        run = args.func(args)
        if run.outputs:
            _write_manifest(args, argv, run, started)
        return run.code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
