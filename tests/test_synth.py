import dataclasses
import json

import pytest

from sla import synth
from sla.corpus import compose_label, load_schemas, validate_against_schema
from sla.synth import GenConfig, SynthAttribute, generate_corpus


GRADE = SynthAttribute(
    "grade",
    ("grade 1", "grade 2", "grade 3", "not reported"),
    weights=(0.4, 0.35, 0.15, 0.1),
)
LVI = SynthAttribute(
    "lymphovascular_invasion", ("present", "absent", "not reported"),
    weights=(0.4, 0.5, 0.1),
)


def make(**overrides):
    base = dict(
        cancer="colon",
        num_docs=30,
        lines_per_doc=(14, 18),
        attributes=(GRADE, LVI),
        synoptic_probability=0.7,
        rare_phrasing_rate=0.4,
        echo_lines=(0, 1),
        seed=7,
    )
    base.update(overrides)
    return GenConfig(**base)


def test_same_seed_same_corpus_different_seed_differs():
    a = generate_corpus(make())
    b = generate_corpus(make())
    assert a == b
    c = generate_corpus(make(seed=8))
    assert [d.report.lines for d in a] != [d.report.lines for d in c]


def test_docs_have_unique_ids_and_line_counts_in_range():
    docs = generate_corpus(make())
    ids = [d.report.id for d in docs]
    assert len(set(ids)) == len(ids)
    for d in docs:
        assert 14 <= len(d.report.lines) <= 18


def test_planted_lines_contain_every_gold_value():
    docs = generate_corpus(make())
    for d in docs:
        for attr, ann in d.annotations.items():
            if ann.values == ("not reported",):
                assert ann.line_indices == ()
                continue
            assert ann.line_indices
            support = " ".join(d.report.lines[i].lower() for i in ann.line_indices)
            for v in ann.values:
                assert v in support, (d.report.id, attr, v)


def test_gold_labels_validate_against_packaged_schema():
    docs = generate_corpus(make())
    report = validate_against_schema(docs, load_schemas())
    assert report.ok()
    assert len(report) == 0


def test_schemes_share_text_full_adds_echo_highlights():
    minimal = generate_corpus(make(echo_lines=(1, 2), lines_per_doc=(16, 20), scheme="minimal"))
    full = generate_corpus(make(echo_lines=(1, 2), lines_per_doc=(16, 20), scheme="full"))
    assert [d.report for d in minimal] == [d.report for d in full]
    widened = narrowed = 0
    for m, f in zip(minimal, full):
        for attr in m.annotations:
            mi = set(m.annotations[attr].line_indices)
            fi = set(f.annotations[attr].line_indices)
            assert mi <= fi
            assert m.annotations[attr].values == f.annotations[attr].values
            if fi > mi:
                widened += 1
            if not mi:
                narrowed += 1
                assert not fi  # nothing planted -> nothing to echo
    assert widened > 0


def test_echo_lines_echo_the_planted_value():
    docs = generate_corpus(
        make(echo_lines=(2, 2), lines_per_doc=(16, 20), scheme="full", num_docs=20)
    )
    found = 0
    for d in docs:
        ann = d.annotations["grade"]
        if len(ann.line_indices) < 3:  # 1 planted + 2 echoes
            continue
        found += 1
        phrase = compose_label(ann.values)
        for i in ann.line_indices:
            assert phrase in d.report.lines[i].lower()
    assert found > 0


def test_conflicting_qualified_mentions_are_never_highlighted():
    docs = generate_corpus(make(rare_phrasing_rate=1.0, num_docs=40))
    saw_qualified = 0
    for d in docs:
        for i, line in enumerate(d.report.lines):
            if "cannot be determined" not in line:
                continue
            saw_qualified += 1
            for ann in d.annotations.values():
                assert i not in ann.line_indices
    assert saw_qualified >= 20


def test_multi_label_values_compose_in_declared_order():
    docs = generate_corpus(make(multi_label_rate=1.0, num_docs=20))
    multi = [d.annotations["grade"] for d in docs if len(d.annotations["grade"].values) == 2]
    assert multi
    order = {v: i for i, v in enumerate(GRADE.values)}
    for ann in multi:
        assert order[ann.values[0]] < order[ann.values[1]]
        assert "not reported" not in ann.values


def test_config_validation():
    with pytest.raises(ValueError, match="cancer"):
        make(cancer="liver")
    with pytest.raises(ValueError, match="attribute"):
        make(attributes=())
    with pytest.raises(ValueError, match="scheme"):
        make(scheme="rich")
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        make(rare_phrasing_rate=1.5)
    with pytest.raises(ValueError, match="duplicate"):
        make(attributes=(GRADE, GRADE))
    with pytest.raises(ValueError, match="too small"):
        make(lines_per_doc=(6, 18))
    with pytest.raises(ValueError, match="weights"):
        SynthAttribute("grade", ("a", "b"), weights=(1.0,))


def test_line_budget_scales_with_echoes():
    # 2 attributes, up to 3 echoes each: 5+1+2+6+2+2 = 18 minimum
    with pytest.raises(ValueError, match="need at least 18"):
        make(echo_lines=(0, 3), lines_per_doc=(17, 20))
    make(echo_lines=(0, 3), lines_per_doc=(18, 20))


def test_config_dict_roundtrip(tmp_path):
    config = make(multi_label_rate=0.2, scheme="full")
    payload = synth.config_to_dict(config)
    assert synth.config_from_dict(payload) == config
    assert synth.config_from_dict(json.loads(json.dumps(payload))) == config

    path = tmp_path / "gen.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert synth.load_gen_config(str(path)) == config

    # omitted optional fields fall back to defaults
    slim = {
        "cancer": "kidney",
        "num_docs": 3,
        "lines_per_doc": [14, 20],
        "attributes": [{"attribute": "grade", "values": ["grade 1", "grade 2"]}],
    }
    cfg = synth.config_from_dict(slim)
    assert cfg.scheme == "minimal"
    assert cfg.multi_label_rate == 0.0
    assert cfg.attributes[0].weights is None


def test_config_dict_refuses_unknown_and_missing_keys():
    """A typo is an error naming the key, not a silently applied default."""
    good = {
        "num_docs": 3,
        "lines_per_doc": [14, 20],
        "attributes": [{"attribute": "grade", "values": ["grade 1", "grade 2"],
                        "weights": None}],
    }
    assert synth.config_from_dict(good).attributes[0].weights is None
    typo = {**good, "num_doc": 5}
    with pytest.raises(ValueError, match="generator config: unknown keys: num_doc"):
        synth.config_from_dict(typo)
    typo = {**good, "attributes": [{**good["attributes"][0], "weight": [0.9, 0.1]}]}
    with pytest.raises(ValueError, match=r"config key 'attributes'\[0\]: unknown keys: weight"):
        synth.config_from_dict(typo)
    missing = {**good, "attributes": [{"attribute": "grade"}]}
    with pytest.raises(ValueError, match=r"config key 'attributes'\[0\]: missing keys: values"):
        synth.config_from_dict(missing)


def test_config_is_frozen():
    config = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 99
