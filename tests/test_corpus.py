import json
import math
from dataclasses import asdict, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sla.corpus import (
    CANCERS,
    SCHEMES,
    CorpusError,
    EnrichedAnnotation,
    LabeledDocument,
    Report,
    annotated_documents,
    compose_label,
    corpus_to_jsonl,
    doc_to_record,
    load_corpus,
    load_schemas,
    read_json,
    record_to_doc,
    save_corpus,
    schema_value_order,
    select_documents,
    split_corpus,
    validate_against_schema,
)
from sla.learners import GbtParams, LinParams
from sla.pipeline import SlaHyperParams
from sla.synth import DEFAULT_CUES, GenConfig, SynthAttribute


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


def test_read_json_names_unknown_and_missing_keys():
    assert read_json({"left": 1, "right": 2}, _Pair, "pair") == _Pair(1, 2)
    assert read_json({"left": 1}, _Pair, "pair", optional=("right",)) == _Pair(1)
    with pytest.raises(ValueError, match="pair: missing keys: right"):
        read_json({"left": 1}, _Pair, "pair")
    with pytest.raises(ValueError, match="pair: unknown keys: middle, top"):
        read_json({"left": 1, "right": 2, "top": 3, "middle": 4}, _Pair, "pair")
    with pytest.raises(ValueError, match="pair must be a JSON object, got list"):
        read_json([1, 2], _Pair, "pair")


@pytest.mark.parametrize("text, kind, message", [
    ("NaN", float, "value must be a finite number, got nan"),
    ("-Infinity", float | None, "value must be a finite number, got -inf"),
    ("1e400", float, "value must be a finite number, got inf"),  # json.load overflows it
    ("[0.5, 2, Infinity]", tuple[float, ...], r"value\[2\] must be a finite number, got inf"),
    ("[[1.0], [NaN]]", tuple[tuple[float, ...], ...],
     r"value\[1\]\[0\] must be a finite number, got nan"),
    ("[1, NaN]", tuple[int, float], r"value\[1\] must be a finite number, got nan"),
    ('{"a": 1.5, "b": -Infinity}', dict[str, float], "value key 'b' must be a finite number"),
    (json.dumps({**asdict(GbtParams()), "learning_rate": math.inf}), GbtParams,
     "value key 'learning_rate' must be a finite number, got inf"),
])
def test_read_json_refuses_a_number_that_is_not_finite(text, kind, message):
    with pytest.raises(ValueError, match=message):
        read_json(json.loads(text), kind, "value")


def test_read_json_refuses_an_integer_too_large_for_a_float_where_a_number_belongs():
    big = 10**400  # json.load reads an integer of any length
    assert read_json([0.5, 2, -1e308, 2**1023], tuple[float, ...], "value") == (
        0.5, 2, -1e308, 2**1023)
    with pytest.raises(ValueError, match=r"value\[1\] must be a finite number, got 1000"):
        read_json([0.5, big], tuple[float, ...], "value")
    with pytest.raises(ValueError, match="value must be a finite number, got 1000"):
        read_json(big, float, "value")
    assert read_json(big, int, "value") == big


# a float field may also be written as an integer, which the reader keeps
def _number(lo, hi):
    return st.floats(lo, hi) | st.integers(max(1, int(lo)), int(hi))


_GBT = st.builds(
    GbtParams,
    learning_rate=_number(1e-3, 10),
    max_depth=st.integers(1, 10),
    min_split_loss=_number(0, 10),
    subsample=st.floats(0, 1, exclude_min=True),
    l2_lambda=_number(0, 10),
    num_rounds=st.integers(0, 500),
    seed=st.integers(0, 2**32),
)
_LIN = st.builds(
    LinParams,
    l1_strength=_number(1e-6, 1e6),
    balanced=st.booleans(),
    max_iter=st.integers(1, 5000),
    tol=_number(0, 1),
)
_HYPER = st.builds(
    SlaHyperParams,
    line_ngram_n=st.integers(1, 4),
    final_ngram_n=st.integers(1, 4),
    k=st.integers(1, 10),
    gbt=_GBT,
    lin=_LIN,
)
_WORDS = st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4, unique=True)


@st.composite
def _synth_attributes(draw, name):
    values = draw(_WORDS)
    weights = st.lists(st.floats(0.1, 5), min_size=len(values), max_size=len(values))
    return SynthAttribute(
        name, tuple(values), draw(st.none() | weights.map(tuple)), draw(st.none() | st.text())
    )


@st.composite
def _gen_configs(draw):
    names = draw(st.lists(st.sampled_from(sorted(DEFAULT_CUES)), min_size=1, max_size=3,
                          unique=True))
    echo_hi = draw(st.integers(0, 2))
    # the fewest lines a report of these attributes and echoes needs
    lines_lo = draw(st.integers(8 + len(names) * (2 + echo_hi), 40))
    return GenConfig(
        cancer=draw(st.sampled_from(CANCERS)),
        num_docs=draw(st.integers(1, 1000)),
        lines_per_doc=(lines_lo, draw(st.integers(lines_lo, 50))),
        attributes=tuple(draw(_synth_attributes(name)) for name in names),
        synoptic_probability=draw(_number(0, 1)),
        distractor_lexicon=tuple(draw(st.lists(st.text(), min_size=4, max_size=6))),
        rare_phrasing_rate=draw(_number(0, 1)),
        multi_label_rate=draw(_number(0, 1)),
        echo_lines=(draw(st.integers(0, echo_hi)), echo_hi),
        scheme=draw(st.sampled_from(SCHEMES)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(_GBT, _LIN, _HYPER, _gen_configs()))
def test_read_json_round_trips_what_json_dumps_writes(value):
    text = json.dumps(asdict(value))
    read = read_json(json.loads(text), type(value), "value")
    assert read == value
    assert json.dumps(asdict(read)) == text  # an integer stays an integer
