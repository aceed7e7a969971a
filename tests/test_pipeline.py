import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from sla import pipeline, synth
from sla.corpus import (
    EnrichedAnnotation,
    LabeledDocument,
    Report,
    compose_label,
    load_schemas,
    schema_value_order,
    select_documents,
    split_corpus,
)
from sla.pipeline import (
    SCORED_VARIANTS,
    VARIANTS,
    Segment,
    SelectedLines,
    SlaHyperParams,
    build_line_labels,
    compose_representation,
    join_adjacent,
    load_keyword_rules,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_sla,
    predict_sla_batch,
    _rule_hits,
    _select,
    save_model,
    select_top_k,
    train_sla,
)
from sla.learners import (
    GbtModel,
    GbtParams,
    LinParams,
    predict_gbt_batch,
    predict_gbt_pairs,
    predict_logreg,
    train_l1_logreg,
)
from sla.textproc import build_vocabulary, find_ngrams, tokenize, tokenize_lines, vectorize


def tiny_corpus(n=24, seed=0, **overrides):
    config = dict(
        cancer="colon",
        num_docs=n,
        lines_per_doc=(12, 16),
        attributes=(
            synth.SynthAttribute(
                "grade",
                ("grade 1", "grade 2", "grade 3", "not reported"),
                weights=(0.4, 0.35, 0.15, 0.1),
            ),
        ),
        synoptic_probability=0.8,
        rare_phrasing_rate=0.25,
        scheme="minimal",
        seed=seed,
    )
    config.update(overrides)
    return synth.generate_corpus(synth.GenConfig(**config))


# ---------------------------------------------------------------------------
# selection primitives
# ---------------------------------------------------------------------------


def test_select_top_k_orders_and_breaks_ties_low():
    scores = [0.1, 0.9, 0.9, 0.3]
    assert select_top_k(scores, 1) == (1,)  # tie 1 vs 2 -> lower index
    assert select_top_k(scores, 2) == (1, 2)
    assert select_top_k(scores, 3) == (1, 2, 3)
    assert select_top_k(scores, 99) == (0, 1, 2, 3)  # k clamps
    with pytest.raises(ValueError):
        select_top_k(scores, 0)


@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
    st.integers(1, 10),
)
@settings(max_examples=150)
def test_select_top_k_is_a_correct_partial_sort(scores, k):
    chosen = select_top_k(scores, k)
    assert len(chosen) == min(k, len(scores))
    assert list(chosen) == sorted(chosen)
    worst_chosen = min(scores[i] for i in chosen)
    for i, s in enumerate(scores):
        if i not in chosen:
            assert s <= worst_chosen


def test_join_adjacent_merges_runs_with_max_weight():
    sel = join_adjacent([1, 2, 5], {1: 0.4, 2: 0.9, 5: 0.3})
    assert [(s.start, s.end) for s in sel.segments] == [(1, 2), (5, 5)]
    assert sel.segments[0].weight == 0.9
    assert sel.segments[1].weight == 0.3
    assert sel.line_indices() == (1, 2, 5)


@given(st.sets(st.integers(0, 40), max_size=15))
@settings(max_examples=150)
def test_join_adjacent_preserves_membership_and_disjointness(selected):
    scores = {i: 0.5 for i in selected}
    sel = join_adjacent(sorted(selected), scores)
    assert set(sel.line_indices()) == selected
    # segments are maximal runs: gaps between consecutive segments
    for a, b in zip(sel.segments, sel.segments[1:]):
        assert b.start > a.end + 1


def test_selected_lines_rejects_overlapping_segments():
    with pytest.raises(ValueError):
        SelectedLines((Segment(0, 2, 1.0), Segment(2, 3, 1.0)))


def test_rule_select_matches_phrases_after_normalization():
    report = Report(
        id="r",
        cancer="colon",
        lines=("Histologic Grade: grade 2", "no grading here", "the grade is 3"),
    )
    token_lines = tokenize_lines(report)
    assert _rule_hits(token_lines, [tokenize("histologic grade")]) == (0,)
    # phrase matching is token-contiguous, not substring
    assert _rule_hits(token_lines, [tokenize("grade is")]) == (2,)
    assert _rule_hits(token_lines, [tokenize("absent phrase")]) == ()


def test_packaged_keyword_rules_cover_schema_attributes():
    rules = load_keyword_rules()
    for attr in (
        "grade",
        "tumor_site",
        "histologic_type",
        "procedure",
        "laterality",
        "lymphovascular_invasion",
        "perineural_invasion",
    ):
        assert rules[attr]


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


def test_compose_representation_joins_segment_lines():
    report = Report(id="r", cancer="colon", lines=("alpha beta", "beta gamma", "x"))
    vocab = build_vocabulary([tokenize(l) for l in report.lines] * 2, max_n=2)
    sel = SelectedLines((Segment(0, 1, 0.5),))
    rep = compose_representation([sel], find_ngrams([tokenize_lines(report)], vocab))
    inv = {i: g for g, i in vocab.ngram_to_index.items()}
    grams = {inv[i] for i in rep.indices}
    # "beta beta" crosses the joined boundary; it is not in the vocabulary
    # (built per line), so the crossing n-gram is dropped, not invented
    assert "alpha beta" in grams
    assert "beta gamma" in grams
    assert all(v == 0.5 for v in rep.data)


def test_compose_representation_takes_weights_from_the_selection():
    report = Report(id="r", cancer="colon", lines=("alpha beta", "gamma"))
    vocab = build_vocabulary([tokenize(l) for l in report.lines] * 2, max_n=1)
    scored = SelectedLines((Segment(0, 0, 0.25), Segment(1, 1, 0.75)))
    flat = SelectedLines((Segment(0, 0, 1.0), Segment(1, 1, 1.0)))
    hits = find_ngrams([tokenize_lines(report)], vocab)
    assert set(compose_representation([scored], hits).data) == {0.25, 0.75}
    assert set(compose_representation([flat], hits).data) == {1.0}


def test_overlapping_segment_sum_accumulates():
    report = Report(id="r", cancer="colon", lines=("alpha", "alpha"))
    vocab = build_vocabulary([tokenize(l) for l in report.lines], max_n=1)
    sel = SelectedLines((Segment(0, 0, 0.5), Segment(1, 1, 0.25)))
    rep = compose_representation([sel], find_ngrams([tokenize_lines(report)], vocab))
    assert rep.data.tolist() == [0.75]


def test_compose_representation_merges_and_drops_zeros():
    # unigram columns a=0, b=1, c=2, d=3; segment features {a, c}, {c, d}, {d}
    report = Report(id="r", cancer="colon", lines=("a c", "c d", "d", "b"))
    vocab = build_vocabulary([tokenize(l) for l in report.lines] * 2, max_n=1)
    sel = SelectedLines((Segment(0, 0, 1.0), Segment(1, 1, 2.0), Segment(2, 2, -2.0)))
    rep = compose_representation([sel], find_ngrams([tokenize_lines(report)], vocab))
    assert rep.shape == (1, 4)
    assert rep.indices.tolist() == [0, 2]
    assert rep.data.tolist() == [1.0, 3.0]


# ---------------------------------------------------------------------------
# stage-1 labels
# ---------------------------------------------------------------------------


def test_build_line_labels_positive_only_on_highlights():
    report = Report(id="r", cancer="colon", lines=("a b", "grade : x", "c"))
    ann = EnrichedAnnotation(
        attribute="grade", values=("x",), line_indices=(1,), scheme="minimal"
    )
    doc = LabeledDocument(report=report, annotations={"grade": ann})
    assert build_line_labels(doc, "grade").tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        build_line_labels(doc, "laterality")


# ---------------------------------------------------------------------------
# end-to-end variants
# ---------------------------------------------------------------------------


def fit(docs, variant, k=2, **kw):
    hyper = SlaHyperParams(k=k, gbt=GbtParams(num_rounds=30, seed=0))
    return train_sla(docs, "grade", hyper=hyper, variant=variant,
                     schemas=load_schemas(), **kw)


def test_sla_selects_planted_line_top1_on_held_out_docs():
    docs = tiny_corpus(n=60, seed=3)
    split = split_corpus(docs, 40, seed=0)
    train = select_documents(docs, split.train_ids)
    test = select_documents(docs, split.test_ids)
    model = fit(train, "sla", k=1)
    hits = total = 0
    for d in test:
        planted = set(d.annotations["grade"].line_indices)
        if not planted:
            continue
        total += 1
        sel = predict_sla(model, d.report).rationale
        if planted & set(sel.line_indices()):
            hits += 1
    assert total > 0
    assert hits / total >= 0.9


def test_sla_learns_clean_planted_corpus():
    docs = tiny_corpus(n=60, seed=1)
    split = split_corpus(docs, 40, seed=1)
    train = select_documents(docs, split.train_ids)
    test = select_documents(docs, split.test_ids)
    model = fit(train, "sla", k=1)
    correct = 0
    for d in test:
        pred = predict_sla(model, d.report)
        if pred.label == " and ".join(d.annotations["grade"].values):
            correct += 1
    assert correct / len(test) >= 0.9


def test_prediction_exposes_rationale_lines():
    docs = tiny_corpus(n=30, seed=5)
    model = fit(docs, "sla", k=2)
    pred = predict_sla(model, docs[0].report)
    assert pred.rationale.segments
    assert pred.label in pred.scores
    assert 1 <= len(pred.rationale.line_indices()) <= 2 + 1  # k plus a join


def test_oracle_variant_requires_and_uses_gold_lines():
    docs = tiny_corpus(n=30, seed=7)
    model = fit(docs, "oracle")
    doc = next(d for d in docs if d.annotations["grade"].line_indices)
    gold = doc.annotations["grade"].line_indices
    pred = predict_sla(model, doc.report, gold_lines=gold)
    assert set(pred.rationale.line_indices()) == set(gold)
    assert all(s.weight == 1.0 for s in pred.rationale.segments)
    with pytest.raises(ValueError):
        predict_sla(model, doc.report)


def test_rules_variant_selects_cue_lines_with_weight_one():
    docs = tiny_corpus(n=30, seed=9)
    model = fit(docs, "rules")
    assert model.keyword_rules  # packaged defaults resolved at train time
    doc = next(d for d in docs if d.annotations["grade"].line_indices)
    pred = predict_sla(model, doc.report)
    planted = doc.annotations["grade"].line_indices[0]
    assert planted in pred.rationale.line_indices()
    assert all(s.weight == 1.0 for s in pred.rationale.segments)


def test_no_weight_and_no_join_selection_shapes():
    docs = tiny_corpus(n=30, seed=11)
    report = docs[0].report

    nw = fit(docs, "no_weight", k=3)
    sel = predict_sla(nw, report).rationale
    assert all(s.weight == 1.0 for s in sel.segments)

    nj = fit(docs, "no_join", k=3)
    sel = predict_sla(nj, report).rationale
    assert all(s.start == s.end for s in sel.segments)
    assert len(sel.segments) == 3

    nwj = fit(docs, "no_weight_no_join", k=3)
    sel = predict_sla(nwj, report).rationale
    assert all(s.start == s.end and s.weight == 1.0 for s in sel.segments)


@pytest.mark.parametrize("variant", ["sla", "no_join"])
def test_segments_weigh_their_lines_largest_stage_one_score(variant):
    """The paper's segment weighting: each kept segment carries the largest
    stage-1 score of its lines, the line scorer's output on each line's
    row under the line vocabulary."""
    docs = tiny_corpus(n=36, seed=29, lines_per_doc=(10, 24))
    model = fit(docs[:24], variant, k=4)
    joined = 0
    for d in docs[24:]:
        rows = vectorize(tokenize_lines(d.report), model.line_vocab)
        scores = predict_gbt_batch(model.line_scorer, rows)
        segments = predict_sla(model, d.report).rationale.segments
        assert segments
        for seg in segments:
            assert seg.weight == max(scores[seg.start : seg.end + 1])
        joined += sum(seg.end > seg.start for seg in segments)
    # a joined variant joins some lines here, so its maximum is exercised
    assert (joined > 0) == (variant == "sla")


def test_scored_variants_share_selection_until_weighting():
    docs = tiny_corpus(n=30, seed=13)
    sla = fit(docs, "sla", k=3)
    nw = fit(docs, "no_weight", k=3)
    report = docs[3].report
    assert (
        predict_sla(sla, report).rationale.line_indices()
        == predict_sla(nw, report).rationale.line_indices()
    )


@pytest.mark.parametrize("variant", SCORED_VARIANTS)
def test_train_sla_scores_training_lines_as_select_segments_does(variant):
    """train_sla scores every training line in one call; rebuilding the
    stage-2 matrix document by document from the rationale predict_sla
    reports and refitting it must give the same classifier, bit for bit."""
    schemas = load_schemas()
    docs = tiny_corpus(n=30, seed=17)
    model = fit(docs, variant, k=3)
    rows, labels = [], []
    for d in docs:
        selection = predict_sla(model, d.report).rationale
        hits = find_ngrams([tokenize_lines(d.report)], model.final_vocab)
        rows.append(compose_representation([selection], hits))
        ann = d.annotations["grade"]
        labels.append(compose_label(ann.values, schema_value_order(schemas, "colon", "grade")))
    refit = train_l1_logreg(sparse.vstack(rows, format="csr"), labels, model.hyper.lin)
    assert refit.classes == model.final_classifier.classes
    assert refit.weights.tobytes() == model.final_classifier.weights.tobytes()
    assert refit.intercepts.tobytes() == model.final_classifier.intercepts.tobytes()


@functools.lru_cache(maxsize=None)
def _batch_models():
    """Held-out documents of 10 to 24 lines and one fitted model per variant."""
    docs = tiny_corpus(n=36, seed=19, lines_per_doc=(10, 24))
    return docs[24:], {variant: fit(docs[:24], variant, k=2) for variant in VARIANTS}


def _bits(pred):
    return (
        pred.label,
        [(c, s.hex()) for c, s in pred.scores.items()],
        [(seg.start, seg.end, seg.weight.hex()) for seg in pred.rationale.segments],
    )


@given(st.sampled_from(sorted(VARIANTS)), st.lists(st.integers(0, 11), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_predict_sla_batch_equals_one_report_at_a_time(variant, picks):
    held, models = _batch_models()
    model = models[variant]
    docs = [held[i] for i in picks]
    gold = [d.annotations["grade"].line_indices for d in docs] if variant == "oracle" else None
    batch = predict_sla_batch(model, [d.report for d in docs], gold)
    single = [predict_sla(model, d.report, g) for d, g in zip(docs, gold or [None] * len(docs))]
    assert [_bits(p) for p in batch] == [_bits(p) for p in single]
    assert predict_sla_batch(model, []) == []


def test_train_sla_needs_two_annotated_docs():
    docs = tiny_corpus(n=2, seed=15)
    with pytest.raises(ValueError):
        train_sla(docs[:1], "grade")
    with pytest.raises(ValueError):
        train_sla(docs, "histologic_type")


def test_model_bundle_roundtrip(tmp_path):
    docs = tiny_corpus(n=30, seed=17)
    model = fit(docs, "sla", k=2)
    again = model_from_dict(model_to_dict(model))
    for d in docs[:8]:
        a = predict_sla(model, d.report)
        b = predict_sla(again, d.report)
        assert a.label == b.label
        assert a.scores == b.scores
        assert a.rationale == b.rationale

    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert predict_sla(loaded, docs[0].report).label == predict_sla(model, docs[0].report).label


def _count_finds(monkeypatch) -> list:
    """The vocabulary of each ``pipeline.find_ngrams`` call from now on."""
    calls = []
    real = pipeline.find_ngrams

    def counting(streams, vocab):
        calls.append(vocab)
        return real(streams, vocab)

    monkeypatch.setattr(pipeline, "find_ngrams", counting)
    return calls


def test_bundle_whose_stages_read_the_same_ngrams_loads_one_vocabulary(monkeypatch):
    docs = tiny_corpus(n=30, seed=17)
    reports = [d.report for d in docs]
    for line_n, final_n in ((3, 3), (2, 3)):
        hyper = SlaHyperParams(line_ngram_n=line_n, final_ngram_n=final_n, k=2)
        model = train_sla(docs, "grade", hyper=hyper)
        again = model_from_dict(model_to_dict(model))
        assert again.vocab.to_dict() == model.vocab.to_dict()
        assert again.line_vocab.to_dict() == model.line_vocab.to_dict()
        expect = [_bits(p) for p in predict_sla_batch(model, reports)]
        with monkeypatch.context() as m:
            calls = _count_finds(m)
            batch = predict_sla_batch(again, reports)
        assert calls == [again.vocab]
        assert [_bits(p) for p in batch] == expect


def _two_pass_reference(model, reports, gold):
    """Each report's prediction with each stage's n-grams found afresh under
    its own vocabulary, as serving did before it made one finder call."""
    doc_lines = [tokenize_lines(r) for r in reports]
    line_scores = None
    if model.line_scorer is not None:
        rows = vectorize([tl for lines in doc_lines for tl in lines], model.line_vocab)
        line_scores = predict_gbt_batch(model.line_scorer, rows)
    final_hits = find_ngrams(doc_lines, model.final_vocab)
    selections = _select(model.variant, model.k, model.keyword_rules, final_hits, gold,
                         line_scores)
    X = compose_representation(selections, final_hits)
    outputs = predict_logreg(model.final_classifier, X)
    return [
        _bits(pipeline.Prediction(str(label), scores, selection))
        for (label, scores), selection in zip(outputs, selections)
    ]


@pytest.mark.parametrize("variant, line_n, final_n", [
    ("sla", 3, 3),
    ("sla", 2, 3),
    ("sla", 3, 2),
    ("no_join", 1, 4),
    ("rules", 2, 2),
    ("oracle", 2, 3),
])
def test_every_served_batch_makes_one_finder_call(monkeypatch, variant, line_n, final_n):
    docs = tiny_corpus(n=30, seed=23)
    hyper = SlaHyperParams(line_ngram_n=line_n, final_ngram_n=final_n, k=2,
                           gbt=GbtParams(num_rounds=10, seed=0))
    model = train_sla(docs[:20], "grade", hyper=hyper, variant=variant)
    held = docs[20:]
    reports = [d.report for d in held]
    gold = [pipeline.oracle_gold_lines(model, d) for d in held]
    expect = _two_pass_reference(model, reports, gold)
    for served in (model, model_from_dict(model_to_dict(model))):
        with monkeypatch.context() as m:
            calls = _count_finds(m)
            batch = predict_sla_batch(served, reports, gold)
        # the order of the larger stage vocabulary; rules and oracle have one
        scored = variant in SCORED_VARIANTS
        assert [v.max_n for v in calls] == [max(line_n, final_n) if scored else final_n]
        assert [_bits(p) for p in batch] == expect


def test_stage_one_scores_from_hits_equal_the_line_matrix_scores_bit_for_bit():
    """Serving scores each line from its hits inside the line, never
    building the line matrix; the scores must be the line scorer's on that
    matrix, byte for byte, for every prefix of the forest."""
    docs = tiny_corpus(n=30, seed=23)
    hyper = SlaHyperParams(line_ngram_n=2, final_ngram_n=3, k=2,
                           gbt=GbtParams(num_rounds=10, seed=0))
    model = train_sla(docs[:20], "grade", hyper=hyper)
    scorer, vocab = model.line_scorer, model.vocab
    # blank lines, and a line of words the vocabulary does not know
    odd = Report(id="odd", cancer="colon", lines=("", "Grade: 2", "", "zzz qqq", ""))
    forests = [dataclasses.replace(scorer, trees=scorer.trees[:t]) for t in (0, 1, 4, 10)]
    no_split = {**scorer.to_dict(), "trees": [{"value": 0.5}] * 3}
    forests.append(GbtModel.from_dict(no_split, scorer.num_features))
    assert all("feature" in t for t in scorer.to_dict()["trees"])
    for reports in ([d.report for d in docs[20:]] + [odd], [odd]):
        hits = find_ngrams([tokenize_lines(r) for r in reports], vocab).at(2)
        # n-grams that cross lines, in the batch of several reports
        assert np.any(hits.first != hits.last) == (len(reports) > 1)
        got = [predict_gbt_pairs(forest, *hits.line_entries) for forest in forests]
        assert "lines" not in hits.__dict__
        for forest, scores in zip(forests, got):
            assert scores.tobytes() == predict_gbt_batch(forest, hits.lines).tobytes()
        assert len(got[0]) == sum(len(r.lines) for r in reports)


@pytest.mark.parametrize("line_n, final_n", [(3, 3), (2, 3)])
def test_serving_scores_each_line_from_its_own_hits_without_the_line_matrix(line_n, final_n):
    docs = tiny_corpus(n=30, seed=23)
    hyper = SlaHyperParams(line_ngram_n=line_n, final_ngram_n=final_n, k=2,
                           gbt=GbtParams(num_rounds=10, seed=0))
    model = train_sla(docs[:20], "grade", hyper=hyper)
    doc_lines = [tokenize_lines(d.report) for d in docs[20:]]
    hits = find_ngrams(doc_lines, model.vocab)
    line_hits = hits.at(line_n)
    # a stump on an n-gram that also crosses lines here: only the lines that
    # hold it inside count, as in their line rows
    crossing = line_hits.cols[line_hits.first != line_hits.last]
    stump = {"feature": int(crossing[0]), "left": {"value": -1.0}, "right": {"value": 1.0}}
    stumped = GbtModel.from_dict({**model.line_scorer.to_dict(), "trees": [stump]},
                                 model.line_scorer.num_features)
    for scorer in (model.line_scorer, stumped):
        served = dataclasses.replace(model, line_scorer=scorer)
        predictions = pipeline.predict_featurized(served, hits)
        assert "lines" not in hits.__dict__
        assert "lines" not in line_hits.__dict__
        for lines, pred in zip(doc_lines, predictions, strict=True):
            scores = predict_gbt_batch(scorer, vectorize(lines, served.line_vocab))
            expect = join_adjacent(select_top_k(scores, 2), scores)
            assert pred.rationale == expect


def test_model_bundle_keeps_learner_hyperparameters():
    docs = tiny_corpus(n=30, seed=17)
    hyper = SlaHyperParams(
        k=2,
        gbt=GbtParams(num_rounds=12, learning_rate=0.2, max_depth=4, seed=5),
        lin=LinParams(l1_strength=37.0, balanced=False, max_iter=900, tol=1e-7),
    )
    model = train_sla(docs, "grade", hyper=hyper, schemas=load_schemas())
    again = model_from_dict(model_to_dict(model))
    assert again.hyper == hyper
    assert again.hyper.lin.l1_strength == 37

    # a version-1 bundle written before gbt and lin were serialized: lin
    # takes the defaults, gbt the line scorer's parameters, so the model
    # saves a bundle that loads again
    payload = model_to_dict(model)
    del payload["hyper"]["gbt"], payload["hyper"]["lin"]
    old = model_from_dict(payload)
    assert old.hyper == SlaHyperParams(k=2, gbt=hyper.gbt)
    assert model_from_dict(model_to_dict(old)).hyper == old.hyper


def test_model_bundle_rejects_hyper_keys_that_are_not_fields():
    docs = tiny_corpus(n=30, seed=17)
    payload = model_to_dict(fit(docs, "sla", k=2))
    payload["hyper"]["beam_width"] = 3
    with pytest.raises(ValueError, match="sla model bundle hyper: unknown keys: beam_width"):
        model_from_dict(payload)
    del payload["hyper"]["beam_width"], payload["hyper"]["k"]
    with pytest.raises(ValueError, match="sla model bundle hyper: missing keys: k"):
        model_from_dict(payload)


def test_model_refuses_a_learner_or_vocabulary_its_variant_does_not_read():
    docs = tiny_corpus(n=30, seed=17)
    sla, rules = fit(docs, "sla"), fit(docs, "rules")
    with pytest.raises(ValueError, match="variant rules takes no line scorer"):
        dataclasses.replace(rules, line_scorer=sla.line_scorer)
    with pytest.raises(ValueError, match="variant sla requires a line scorer"):
        dataclasses.replace(sla, line_scorer=None)
    with pytest.raises(ValueError, match="reads a vocabulary of order 3, got 2"):
        dataclasses.replace(sla, hyper=dataclasses.replace(sla.hyper, line_ngram_n=3))


def test_model_bundle_rejects_unknown_version():
    docs = tiny_corpus(n=30, seed=17)
    payload = model_to_dict(fit(docs, "sla", k=2))
    for version in (999, 0, None):
        payload["version"] = version
        with pytest.raises(ValueError, match="version"):
            model_from_dict(payload)


def test_multi_label_documents_compose_joint_label():
    docs = tiny_corpus(n=40, seed=19, multi_label_rate=1.0)
    joint = [
        d for d in docs if len(d.annotations["grade"].values) == 2
    ]
    assert joint, "multi-label rate 1.0 should produce joint labels"
    model = fit(docs, "oracle")
    # the joint class exists in the classifier's label set
    assert any(" and " in c for c in model.final_classifier.classes)
