"""End-to-end acceptance checks for the whole package.

Each test prints exactly one "criterion N: PASS/FAIL" line (run pytest
with -s to see them all), and where ``criteria.txt`` was made, fails if
the line is not the one listed there (see ``criterion_lines.py``).  The
comparative checks 1-4 train real models on synthetic corpora with five
seeds each, so this module takes a few minutes; everything is
deterministic.
"""

import dataclasses
import hashlib
import json
import re
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy import sparse

import criterion_lines
from sla import cli, evaluation, stage, synth, tuning
from sla.corpus import (
    compose_label,
    load_schemas,
    schema_value_order,
    select_documents,
    split_corpus,
)
from sla.learners import (
    GbtParams,
    LinParams,
    logloss_value_grad,
    predict_gbt_batch,
    predict_gbt_margin,
    train_gbt,
    train_l1_logreg,
)

SCHEMAS = load_schemas()
SEEDS = range(5)


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, f"criterion {number}: {detail}"
    # the checked-in line, where it was made: a bit-for-bit change keeps it
    mismatch = criterion_lines.check(line)
    assert mismatch is None, mismatch


def gold(doc, attribute):
    return compose_label(
        doc.annotations[attribute].values,
        schema_value_order(SCHEMAS, doc.report.cancer, attribute),
    )


def fit_and_score(variant, train, test, attribute, config, seed, metric="micro"):
    fitted = tuning.fit_variant(variant, train, attribute, config, seed=seed,
                                schemas=SCHEMAS)
    preds = [fitted.predict_label(d) for d in test]
    golds = [gold(d, attribute) for d in test]
    fn = evaluation.micro_f1 if metric == "micro" else evaluation.macro_f1
    return fn(preds, golds)


# Three corpus families: A has three attributes plus misleading qualified
# mentions; B has a single attribute with rare classes; C echoes each
# planted value on 2-3 extra lines.

GRADE_5 = ("grade 1", "grade 2", "grade 3", "grade 4", "not reported")


@lru_cache(maxsize=None)
def family_a(seed):
    return synth.generate_corpus(synth.GenConfig(
        cancer="colon", num_docs=250, lines_per_doc=(30, 38),
        attributes=(
            synth.SynthAttribute("grade", GRADE_5, weights=(0.3, 0.3, 0.2, 0.1, 0.1)),
            synth.SynthAttribute("lymphovascular_invasion",
                                 ("present", "absent", "not reported"),
                                 weights=(0.4, 0.5, 0.1)),
            synth.SynthAttribute("perineural_invasion",
                                 ("present", "absent", "not reported"),
                                 weights=(0.35, 0.55, 0.1)),
        ),
        synoptic_probability=0.8, rare_phrasing_rate=0.5, seed=seed,
    ))


@lru_cache(maxsize=None)
def family_b(seed):
    return synth.generate_corpus(synth.GenConfig(
        cancer="colon", num_docs=250, lines_per_doc=(30, 38),
        attributes=(
            synth.SynthAttribute("grade", GRADE_5,
                                 weights=(0.45, 0.3, 0.14, 0.06, 0.05)),
        ),
        synoptic_probability=0.8, rare_phrasing_rate=0.35, seed=seed,
    ))


@lru_cache(maxsize=None)
def family_c(seed, scheme):
    return synth.generate_corpus(synth.GenConfig(
        cancer="colon", num_docs=250, lines_per_doc=(30, 38),
        attributes=(
            synth.SynthAttribute("grade", GRADE_5, weights=(0.3, 0.3, 0.2, 0.1, 0.1)),
        ),
        synoptic_probability=0.8, rare_phrasing_rate=0.35, echo_lines=(2, 3),
        scheme=scheme, seed=seed,
    ))


ATTRS_A = ("grade", "lymphovascular_invasion", "perineural_invasion")
K1 = {"k": 1}
K3 = {"k": 3}


def test_01_low_data_advantage_over_document_baseline():
    started = time.time()
    sla_means, doc_means = [], []
    for seed in SEEDS:
        docs = family_a(seed)
        assert len(docs) == 250
        assert min(len(d.report.lines) for d in docs) >= 30
        assert all(len(d.annotations) == 3 for d in docs)
        split = split_corpus(docs, 32, seed=seed)
        train = select_documents(docs, split.train_ids)
        test = select_documents(docs, split.test_ids)
        sla_per_attr, doc_per_attr = [], []
        for attr in ATTRS_A:
            sla_per_attr.append(
                fit_and_score("sla", train, test, attr, K1, seed)
            )
            space = tuning.SearchSpace(
                {"ngram_n": (1, 2, 3, 4), "C": tuning.log_grid(-2, 4, 13)}
            )
            best, _ = tuning.random_search(
                train, attr, space=space, trials=8, folds=3, seed=seed,
                variant="doc-logreg", schemas=SCHEMAS,
            )
            doc_per_attr.append(
                fit_and_score("doc-logreg", train, test, attr, best, seed)
            )
        sla_means.append(sum(sla_per_attr) / len(ATTRS_A))
        doc_means.append(sum(doc_per_attr) / len(ATTRS_A))
    sla_avg = sum(sla_means) / len(sla_means)
    doc_avg = sum(doc_means) / len(doc_means)
    gap = sla_avg - doc_avg
    wall = time.time() - started
    ok = gap >= 0.05 and wall <= 300.0
    verdict(1, ok, f"32 train docs, 5 seeds: sla micro-F1 {sla_avg:.4f} vs "
                   f"doc-logreg {doc_avg:.4f}, gap {gap:+.4f} >= 0.05, "
                   f"{wall:.0f}s <= 300s")


def test_02_oracle_selection_dominates():
    margins = {}
    for size in (32, 64, 128):
        oracle_avg = sla_avg = 0.0
        for seed in SEEDS:
            docs = family_a(seed)
            split = split_corpus(docs, size, seed=seed)
            train = select_documents(docs, split.train_ids)
            test = select_documents(docs, split.test_ids)
            oracle_avg += fit_and_score("oracle", train, test, "grade", K1, seed) / 5
            sla_avg += fit_and_score("sla", train, test, "grade", K1, seed) / 5
        margins[size] = oracle_avg - sla_avg
    ok = all(m >= -0.02 for m in margins.values())
    detail = ", ".join(f"size {s}: margin {m:+.4f}" for s, m in margins.items())
    verdict(2, ok, f"oracle minus sla micro-F1 (floor -0.02): {detail}")


def test_03_segment_weighting_helps_rare_classes():
    margins = {}
    for size in (32, 64):
        weighted = flat = 0.0
        for seed in SEEDS:
            docs = family_b(seed)
            split = split_corpus(docs, size, seed=seed)
            train = select_documents(docs, split.train_ids)
            test = select_documents(docs, split.test_ids)
            weighted += fit_and_score("sla", train, test, "grade", K3, seed, "macro") / 5
            flat += fit_and_score("no_weight", train, test, "grade", K3, seed, "macro") / 5
        margins[size] = weighted - flat
    ok = all(m >= -0.01 for m in margins.values())
    detail = ", ".join(f"size {s}: margin {m:+.4f}" for s, m in margins.items())
    verdict(3, ok, f"weighted minus unweighted macro-F1, rare-class priors "
                   f"0.06/0.05 (floor -0.01): {detail}")


def test_04_full_annotation_scheme_never_hurts():
    margins = {}
    for size in (32, 64):
        full = minimal = 0.0
        for seed in SEEDS:
            docs_min = family_c(seed, "minimal")
            docs_full = family_c(seed, "full")
            assert [d.report for d in docs_min] == [d.report for d in docs_full]
            split = split_corpus(docs_min, size, seed=seed)
            tr_m = select_documents(docs_min, split.train_ids)
            te_m = select_documents(docs_min, split.test_ids)
            tr_f = select_documents(docs_full, split.train_ids)
            te_f = select_documents(docs_full, split.test_ids)
            minimal += fit_and_score("sla", tr_m, te_m, "grade", K1, seed) / 5
            full += fit_and_score("sla", tr_f, te_f, "grade", K1, seed) / 5
        margins[size] = full - minimal
    ok = all(m >= -0.02 for m in margins.values())
    detail = ", ".join(f"size {s}: margin {m:+.4f}" for s, m in margins.items())
    verdict(4, ok, f"full minus minimal scheme micro-F1, values echoed on "
                   f"2-3 lines (floor -0.02): {detail}")


def test_05_l1_logistic_regression_correctness():
    rng = np.random.default_rng(17)
    eps = 1e-6
    worst_rel = 0.0
    for _ in range(20):
        X = sparse.csr_matrix((rng.random((30, 8)) < 0.4).astype(np.float64))
        y_pm = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        sw = rng.uniform(0.5, 2.0, size=30)
        w = rng.normal(scale=0.8, size=8)
        b = float(rng.normal())
        _, grad_w, grad_b = logloss_value_grad(w, b, X, y_pm, sw)
        for j in range(8):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            fp, _, _ = logloss_value_grad(wp, b, X, y_pm, sw)
            fm, _, _ = logloss_value_grad(wm, b, X, y_pm, sw)
            fd = (fp - fm) / (2 * eps)
            worst_rel = max(worst_rel, abs(grad_w[j] - fd) / max(abs(fd), abs(grad_w[j]), 1e-8))
        fp, _, _ = logloss_value_grad(w, b + eps, X, y_pm, sw)
        fm, _, _ = logloss_value_grad(w, b - eps, X, y_pm, sw)
        fd_b = (fp - fm) / (2 * eps)
        worst_rel = max(worst_rel, abs(grad_b - fd_b) / max(abs(fd_b), abs(grad_b), 1e-8))
    grad_ok = worst_rel <= 1e-4

    rng = np.random.default_rng(23)
    X = sparse.csr_matrix((rng.random((60, 10)) < 0.4).astype(np.float64))
    y_pm = np.where(rng.random(60) < 0.5, 1.0, -1.0)
    y = ["pos" if v > 0 else "neg" for v in y_pm]
    C = 0.5
    model = train_l1_logreg(X, y, LinParams(l1_strength=C, balanced=False,
                                            max_iter=20000, tol=1e-14))
    lam = 1.0 / C
    k = list(model.classes).index("pos")
    w, b = model.weights[k], float(model.intercepts[k])
    _, grad_w, grad_b = logloss_value_grad(w, b, X, y_pm, np.ones(60))
    kkt_ok = abs(grad_b) <= 1e-4
    for j in range(10):
        if w[j] != 0.0:
            kkt_ok &= abs(grad_w[j] + lam * np.sign(w[j])) <= 1e-4
        else:
            kkt_ok &= abs(grad_w[j]) <= lam + 1e-4

    tiny = train_l1_logreg(X, y, LinParams(l1_strength=1e-9, balanced=False))
    zeros_ok = bool(np.all(tiny.weights == 0.0) and np.all(np.isfinite(tiny.intercepts)))

    ok = grad_ok and kkt_ok and zeros_ok
    verdict(5, ok, f"finite-difference rel err {worst_rel:.2e} <= 1e-4, "
                   f"subgradient optimality {'holds' if kkt_ok else 'violated'}, "
                   f"C=1e-9 zeros all weights: {zeros_ok}")


def test_06_boosted_trees_correctness():
    # 1. per-round training logloss never increases with subsample=1
    rng = np.random.default_rng(3)
    X = (rng.random((120, 25)) < 0.25).astype(np.float64)
    w = rng.normal(size=25)
    y = ((X @ w + rng.normal(scale=0.4, size=120)) > 0).astype(int).tolist()
    Xs = sparse.csr_matrix(X)
    model = train_gbt(Xs, y, GbtParams(num_rounds=40, subsample=1.0, seed=0))
    y_arr = np.asarray(y, dtype=np.float64)
    losses = []
    for t in range(len(model.trees) + 1):
        margin = predict_gbt_margin(dataclasses.replace(model, trees=model.trees[:t]), Xs)
        p = 1.0 / (1.0 + np.exp(-margin))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        losses.append(float(-np.mean(y_arr * np.log(p) + (1 - y_arr) * np.log(1 - p))))
    monotone_ok = all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    # 2. 100% training accuracy on a 50-point linearly separable set
    rng = np.random.default_rng(7)
    Xs50 = (rng.random((50, 6)) < 0.5).astype(np.float64)
    y50 = (Xs50[:, 0] > 0).astype(int).tolist()
    sep = train_gbt(sparse.csr_matrix(Xs50), y50, GbtParams(num_rounds=100, seed=1))
    probs = predict_gbt_batch(sep, sparse.csr_matrix(Xs50))
    separable_ok = all((p > 0.5) == bool(t) for p, t in zip(probs, y50))

    # 3. predictions equal an independent walk of the serialized trees
    rng = np.random.default_rng(11)
    Xh = (rng.random((80, 10)) < 0.35).astype(np.float64)
    yh = ((Xh[:, 0] + Xh[:, 3] * Xh[:, 7]) > 0).astype(int).tolist()
    hand = train_gbt(sparse.csr_matrix(Xh), yh,
                     GbtParams(learning_rate=0.3, max_depth=3, num_rounds=12, seed=2))
    payload = hand.to_dict()

    def walk(node, present):
        while "feature" in node:
            node = node["right"] if node["feature"] in present else node["left"]
        return node["value"]

    oracle_ok = True
    for i in (0, 7, 19, 33, 61):
        x = Xh[i]
        present = {j for j in range(10) if x[j] != 0.0}
        margin = payload["base_score"]
        for tree in payload["trees"]:
            margin += payload["params"]["learning_rate"] * walk(tree, present)
        # margins, not probabilities: np.exp and math.exp may differ by one ulp
        oracle_ok &= predict_gbt_margin(hand, sparse.csr_matrix(x))[0] == margin

    ok = monotone_ok and separable_ok and oracle_ok
    verdict(6, ok, f"logloss monotone over {len(losses) - 1} rounds: {monotone_ok}, "
                   f"separable 50/50 correct: {separable_ok}, "
                   f"hand-walked oracle exact on 5 points: {oracle_ok}")


def reference_f1s(preds, golds):
    classes = sorted(set(preds) | set(golds))
    matrix = {g: {p: 0 for p in classes} for g in classes}
    for p, g in zip(preds, golds):
        matrix[g][p] += 1
    per_class = []
    tp_total = fp_total = fn_total = 0
    for c in classes:
        tp = matrix[c][c]
        fp = sum(matrix[g][c] for g in classes if g != c)
        fn = sum(matrix[c][p] for p in classes if p != c)
        tp_total, fp_total, fn_total = tp_total + tp, fp_total + fp, fn_total + fn
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        per_class.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    prec = tp_total / (tp_total + fp_total) if tp_total + fp_total else 0.0
    rec = tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0
    micro = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return micro, sum(per_class) / len(per_class)


def test_07_metrics_match_brute_force_confusion():
    rng = np.random.default_rng(12345)
    alphabet = ["a", "b", "c", "d", "e", "f"]
    worst = 0.0
    accuracy_identical = True
    for _ in range(200):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(2, 7))
        preds = [alphabet[int(i)] for i in rng.integers(0, k, size=n)]
        golds = [alphabet[int(i)] for i in rng.integers(0, k, size=n)]
        ref_micro, ref_macro = reference_f1s(preds, golds)
        worst = max(worst, abs(evaluation.micro_f1(preds, golds) - ref_micro))
        worst = max(worst, abs(evaluation.macro_f1(preds, golds) - ref_macro))
        accuracy = sum(p == g for p, g in zip(preds, golds)) / n
        accuracy_identical &= evaluation.micro_f1(preds, golds) == accuracy
    ok = worst <= 1e-12 and accuracy_identical
    verdict(7, ok, f"200 random vectors: max |diff| vs brute force {worst:.2e} "
                   f"<= 1e-12, micro-F1 == accuracy bit-for-bit: {accuracy_identical}")


def test_08_agreement_worked_example():
    frac, kappa = evaluation.agreement(["x", "x", "y", "y"], ["x", "y", "y", "y"])
    example_ok = abs(frac - 0.75) <= 1e-6 and abs(kappa - 7 / 15) <= 1e-6
    identical_ok = evaluation.agreement(["p", "q", "p"], ["p", "q", "p"]) == (1.0, 1.0)
    ok = example_ok and identical_ok
    verdict(8, ok, f"worked example -> ({frac:.4f}, {kappa:.6f}) vs (0.75, 0.466667), "
                   f"identical sequences -> (1.0, 1.0): {identical_ok}")


def enumerate_stage_tokens():
    digit_subs = [f"{d}{s}" for d in "0123456789" for s in ("", "a", "b", "c", "d")]
    t_subs = digit_subs + ["X", "is"]
    nm_subs = digit_subs + ["X"]
    prefixes = ["", "p", "y", "yp", "c", "cp", "r", "rp",
                "yc", "ycp", "yr", "yrp", "cr", "crp", "ycr", "ycrp"]
    tokens = [f"{p}T{t}" for p in prefixes for t in t_subs]
    tokens += [f"pT{t}N{n}" for t in t_subs for n in nm_subs]
    tokens += [f"ypT3N{n}M{m}" for n in nm_subs for m in nm_subs]
    tokens += [f"{p}T2N0M1" for p in prefixes]
    return tokens


def test_09_stage_parser_round_trip_and_extraction():
    tokens = enumerate_stage_tokens()
    n_tokens = len(tokens)
    roundtrip_failures = sum(
        1 for t in tokens if stage.compose_tnm(stage.parse_tnm(t)) != t
    )
    embedded_failures = 0
    for t in tokens:
        text = f"prior findings noted. staging {t} per protocol; margins clear."
        if [x for x, _ in stage.extract_stage_tokens(text)] != [t]:
            embedded_failures += 1

    docs = synth.generate_corpus(synth.GenConfig(
        cancer="colon", num_docs=100, lines_per_doc=(14, 18),
        attributes=(
            synth.SynthAttribute("grade", ("grade 1", "grade 2", "not reported"),
                                 weights=(0.5, 0.4, 0.1)),
        ),
        synoptic_probability=0.8, seed=13,
    ))
    false_extractions = 0
    for d in docs:
        text = "\n".join(d.report.lines)
        assert "T" not in text  # premise: generated reports are token-free
        false_extractions += len(stage.extract_stage_tokens(text))

    ok = (n_tokens >= 1000 and roundtrip_failures == 0
          and embedded_failures == 0 and false_extractions == 0)
    verdict(9, ok, f"{n_tokens} enumerated tokens: {roundtrip_failures} round-trip "
                   f"failures, {embedded_failures} mid-sentence misses, "
                   f"{false_extractions} false extractions across 100 token-free reports")


GEN_CONFIG_CLI = {
    "cancer": "colon",
    "num_docs": 200,
    "lines_per_doc": [14, 20],
    "attributes": [
        {"attribute": "grade",
         "values": ["grade 1", "grade 2", "grade 3", "not reported"],
         "weights": [0.45, 0.35, 0.15, 0.05]},
    ],
    "synoptic_probability": 0.85,
    "rare_phrasing_rate": 0.2,
    "seed": 21,
}


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-cli")
    config = root / "gen.json"
    config.write_text(json.dumps(GEN_CONFIG_CLI), encoding="utf-8")
    corpus = root / "corpus.jsonl"
    assert cli.main(["synth", "--config", str(config), "--out", str(corpus)]) == 0
    return corpus


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_10_fixed_seed_runs_are_byte_identical(cli_corpus, tmp_path):
    def curve_argv(outdir):
        return ["learning-curve", "--corpus", str(cli_corpus),
                "--attribute", "grade", "--variant", "rules",
                "--sizes", "16,32", "--runs", "2", "--trials", "2", "--folds", "2",
                "--ci-iterations", "200", "--seed", "7", "--out", str(outdir)]

    first, second = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(curve_argv(first)) == 0
    assert cli.main(curve_argv(second)) == 0
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("curve.json", "curve.csv")
    )

    # re-executing the manifest's recorded argv reproduces the recorded hashes
    manifest = json.loads((first / "manifest.json").read_text())
    assert cli.main(list(manifest["argv"])) == 0
    reexec_identical = all(
        sha256(first / name.split("/")[-1]) == digest
        for name, digest in manifest["outputs"].items()
    )
    ok = identical and reexec_identical
    verdict(10, ok, f"two fixed-seed runs byte-identical: {identical}, "
                    f"manifest argv re-executes to recorded hashes: {reexec_identical}")


def test_11_protocol_defaults_recorded_in_manifests(cli_corpus, tmp_path):
    tune_dir = tmp_path / "tuned"
    code = cli.main(["tune", "--corpus", str(cli_corpus), "--attribute", "grade",
                     "--variant", "rules", "--jobs", "4", "--out", str(tune_dir)])
    assert code == 0
    tune_manifest = json.loads((tune_dir / "manifest.json").read_text())
    trials_rows = [json.loads(l) for l in (tune_dir / "trials.jsonl").read_text().splitlines()]
    tune_ok = (
        tune_manifest["resolved"]["trials"] == 40
        and tune_manifest["resolved"]["folds"] == 4
        and len(trials_rows) == 40
        and all(len(r["fold_scores"]) == 4 for r in trials_rows)
    )

    curve_dir = tmp_path / "curve"
    code = cli.main(["learning-curve", "--corpus", str(cli_corpus),
                     "--attribute", "grade", "--variant", "oracle",
                     "--trials", "2", "--folds", "2", "--jobs", "4",
                     "--out", str(curve_dir)])
    assert code == 0
    curve_manifest = json.loads((curve_dir / "manifest.json").read_text())
    payload = json.loads((curve_dir / "curve.json").read_text())
    curve_ok = (
        curve_manifest["resolved"]["sizes"] == [32, 64, 128, 186]
        and curve_manifest["resolved"]["runs"] == 10
        and curve_manifest["resolved"]["ci_level"] == 0.95
        and curve_manifest["resolved"]["ci_iterations"] == 1000
        and payload["sizes"] == [32, 64, 128, 186]
        and payload["runs"] == 10
        and payload["ci_level"] == 0.95
        and len(payload["cells"]) == 4 * 10
    )
    ok = tune_ok and curve_ok
    verdict(11, ok, f"default tune -> 40 trials x 4 folds in manifest: {tune_ok}; "
                    f"default curve -> sizes [32, 64, 128, 186], 10 runs, "
                    f"95% CIs in manifest: {curve_ok}")
