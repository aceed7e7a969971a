import json
from dataclasses import dataclass

import pytest

from sla.corpus import (
    CorpusError,
    EnrichedAnnotation,
    LabeledDocument,
    Report,
    annotated_documents,
    compose_label,
    corpus_to_jsonl,
    dataclass_kwargs,
    doc_to_record,
    load_corpus,
    load_schemas,
    record_to_doc,
    save_corpus,
    schema_value_order,
    select_documents,
    split_corpus,
    validate_against_schema,
)


def make_doc(doc_id="d1", cancer="colon", lines=("a", "grade: grade 2", "c"),
             attribute="grade", values=("grade 2",), line_indices=(1,), scheme="minimal"):
    report = Report(id=doc_id, cancer=cancer, lines=tuple(lines))
    ann = EnrichedAnnotation(
        attribute=attribute, values=tuple(values),
        line_indices=tuple(line_indices), scheme=scheme,
    )
    return LabeledDocument(report=report, annotations={attribute: ann})


# ---------------------------------------------------------------------------
# data model invariants
# ---------------------------------------------------------------------------


def test_report_rejects_newlines_and_empty():
    with pytest.raises(CorpusError):
        Report(id="r", cancer="colon", lines=("has\nnewline",))
    with pytest.raises(CorpusError):
        Report(id="r", cancer="colon", lines=())
    with pytest.raises(CorpusError):
        Report(id="r", cancer="lung", lines=("ok",))


def test_annotation_indices_sorted_and_unique():
    ann = EnrichedAnnotation(attribute="grade", values=("grade 2",),
                             line_indices=(3, 1, 1), scheme="minimal")
    assert ann.line_indices == (1, 3)
    with pytest.raises(CorpusError):
        EnrichedAnnotation(attribute="grade", values=(), line_indices=(1,), scheme="minimal")
    with pytest.raises(CorpusError):
        EnrichedAnnotation(attribute="grade", values=("a", "a"), line_indices=(1,), scheme="minimal")


def test_labeled_document_validates_indices_and_keys():
    report = Report(id="r", cancer="colon", lines=("only one line",))
    ann = EnrichedAnnotation(attribute="grade", values=("grade 2",),
                             line_indices=(4,), scheme="minimal")
    with pytest.raises(CorpusError):
        LabeledDocument(report=report, annotations={"grade": ann})
    ok = EnrichedAnnotation(attribute="grade", values=("grade 2",),
                            line_indices=(0,), scheme="minimal")
    with pytest.raises(CorpusError):
        LabeledDocument(report=report, annotations={"other": ok})


def test_empty_highlights_only_for_not_reported():
    report = Report(id="r", cancer="colon", lines=("x", "y"))
    nr = EnrichedAnnotation(attribute="grade", values=("not reported",),
                            line_indices=(), scheme="minimal")
    LabeledDocument(report=report, annotations={"grade": nr})  # fine
    bad = EnrichedAnnotation(attribute="grade", values=("grade 2",),
                             line_indices=(), scheme="minimal")
    with pytest.raises(CorpusError):
        LabeledDocument(report=report, annotations={"grade": bad})


# ---------------------------------------------------------------------------
# label composition
# ---------------------------------------------------------------------------


def test_compose_label_single_value_verbatim():
    assert compose_label(("grade 2",)) == "grade 2"


def test_compose_label_multi_value_sorted_and_joined():
    assert compose_label(("b", "a")) == "a and b"
    order = ("grade 3", "grade 1", "grade 2")
    assert compose_label(("grade 1", "grade 3"), schema_order=order) == "grade 3 and grade 1"


def test_compose_label_rejects_empty():
    with pytest.raises(ValueError):
        compose_label(())


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_packaged_schema_loads_both_cancers():
    schemas = load_schemas()
    assert ("colon", "grade") in schemas
    assert ("kidney", "laterality") in schemas
    assert ("colon", "laterality") not in schemas
    order = schema_value_order(schemas, "colon", "grade")
    assert "not reported" in order


def test_validate_against_schema_flags_bad_values():
    schemas = load_schemas()
    good = make_doc(values=("grade 2",))
    bad_value = make_doc(doc_id="d2", values=("grade nine",))
    bad_attr = LabeledDocument(
        report=Report(id="d3", cancer="colon", lines=("x",)),
        annotations={"laterality": EnrichedAnnotation(
            attribute="laterality", values=("left",), line_indices=(0,), scheme="minimal")},
    )
    report = validate_against_schema([good, bad_value, bad_attr], schemas)
    assert not report.ok()
    assert len(report) == 2
    messages = " | ".join(v.message for v in report.violations)
    assert "not in schema" in messages
    assert "not applicable" in messages
    assert validate_against_schema([good], schemas).ok()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_record_roundtrip():
    doc = make_doc()
    assert record_to_doc(doc_to_record(doc)) == doc


def test_save_and_load_corpus(tmp_path):
    docs = [make_doc(doc_id=f"d{i}") for i in range(4)]
    path = tmp_path / "corpus.jsonl"
    save_corpus(docs, str(path))
    assert load_corpus(str(path)) == docs
    # canonical serialization is stable
    assert corpus_to_jsonl(docs) == path.read_text()


def test_load_corpus_reports_record_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(doc_to_record(make_doc())) + "\n{not json\n")
    with pytest.raises(CorpusError, match="record 2"):
        load_corpus(str(path))


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    rec = json.dumps(doc_to_record(make_doc()))
    path = tmp_path / "dup.jsonl"
    path.write_text(rec + "\n" + rec + "\n")
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(str(path))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_corpus_is_deterministic_and_partitions():
    docs = [make_doc(doc_id=f"d{i}") for i in range(10)]
    s1 = split_corpus(docs, 6, seed=3)
    s2 = split_corpus(docs, 6, seed=3)
    assert s1 == s2
    assert len(s1.train_ids) == 6 and len(s1.test_ids) == 4
    assert set(s1.train_ids) | set(s1.test_ids) == {f"d{i}" for i in range(10)}
    assert not set(s1.train_ids) & set(s1.test_ids)
    assert split_corpus(docs, 6, seed=4) != s1


def test_split_sides_keep_corpus_order():
    docs = [make_doc(doc_id=f"d{i}") for i in range(8)]
    split = split_corpus(docs, 5, seed=0)
    order = {f"d{i}": i for i in range(8)}
    assert list(split.train_ids) == sorted(split.train_ids, key=order.get)
    assert list(split.test_ids) == sorted(split.test_ids, key=order.get)


def test_split_corpus_bounds():
    docs = [make_doc(doc_id=f"d{i}") for i in range(3)]
    with pytest.raises(ValueError):
        split_corpus(docs, 0, seed=0)
    with pytest.raises(ValueError):
        split_corpus(docs, 3, seed=0)


def test_select_documents_preserves_requested_order():
    docs = [make_doc(doc_id=f"d{i}") for i in range(5)]
    picked = select_documents(docs, ["d3", "d0"])
    assert [d.report.id for d in picked] == ["d3", "d0"]


def test_annotated_documents_keeps_order_and_names_its_floor():
    docs = [make_doc("d1"), make_doc("d2", attribute="procedure"), make_doc("d3")]
    picked = annotated_documents(docs, "grade", 2, "training")
    assert [d.report.id for d in picked] == ["d1", "d3"]
    with pytest.raises(ValueError, match="training needs at least 3 documents annotated for"):
        annotated_documents(docs, "grade", 3, "training")
    with pytest.raises(ValueError, match="testing needs at least 1 document annotated for 'x'"):
        annotated_documents(docs, "x", 1, "testing")


@dataclass
class _Pair:
    left: int
    right: int = 0


def test_dataclass_kwargs_names_unknown_and_missing_keys():
    assert dataclass_kwargs(_Pair, {"left": 1, "right": 2}, "pair") == {"left": 1, "right": 2}
    assert dataclass_kwargs(_Pair, {"left": 1}, "pair", optional=("right",)) == {"left": 1}
    with pytest.raises(ValueError, match="pair: missing keys: right"):
        dataclass_kwargs(_Pair, {"left": 1}, "pair")
    with pytest.raises(ValueError, match="pair: unknown keys: middle, top"):
        dataclass_kwargs(_Pair, {"left": 1, "right": 2, "top": 3, "middle": 4}, "pair")
    with pytest.raises(ValueError, match="pair must be a JSON object, got list"):
        dataclass_kwargs(_Pair, [1, 2], "pair")
