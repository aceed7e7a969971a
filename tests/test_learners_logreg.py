import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy import sparse

from sla import learners, synth, tuning
from sla.baselines import featurize_document
from sla.corpus import gold_label
from sla.learners import (
    LinearModel,
    LinParams,
    balanced_class_weights,
    label_scores,
    logloss_value_grad,
    predict_logreg,
    train_l1_logreg,
)
from sla.textproc import build_vocabulary, to_csr, tokenize_lines


def random_problem(rng, n=30, d=8):
    X = sparse.csr_matrix((rng.random((n, d)) < 0.4).astype(np.float64))
    y_pm = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    sw = rng.uniform(0.5, 2.0, size=n)
    return X, y_pm, sw


# ---------------------------------------------------------------------------
# gradient correctness (smooth part)
# ---------------------------------------------------------------------------


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(17)
    eps = 1e-6
    for _ in range(20):
        X, y_pm, sw = random_problem(rng)
        w = rng.normal(scale=0.8, size=X.shape[1])
        b = float(rng.normal())
        _, grad_w, grad_b = logloss_value_grad(w, b, X, y_pm, sw)

        for j in range(X.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            fp, _, _ = logloss_value_grad(wp, b, X, y_pm, sw)
            fm, _, _ = logloss_value_grad(wm, b, X, y_pm, sw)
            fd = (fp - fm) / (2 * eps)
            denom = max(abs(fd), abs(grad_w[j]), 1e-8)
            assert abs(grad_w[j] - fd) / denom <= 1e-4

        fp, _, _ = logloss_value_grad(w, b + eps, X, y_pm, sw)
        fm, _, _ = logloss_value_grad(w, b - eps, X, y_pm, sw)
        fd_b = (fp - fm) / (2 * eps)
        assert abs(grad_b - fd_b) / max(abs(fd_b), abs(grad_b), 1e-8) <= 1e-4


# ---------------------------------------------------------------------------
# optimality at convergence
# ---------------------------------------------------------------------------


def test_subgradient_optimality_at_convergence():
    """At the optimum of f(w) + lam*||w||_1: grad_j = -lam*sign(w_j) when
    w_j != 0, and |grad_j| <= lam when w_j = 0 (up to solver tolerance)."""
    rng = np.random.default_rng(23)
    X, y_pm, sw = random_problem(rng, n=60, d=10)
    y = ["pos" if v > 0 else "neg" for v in y_pm]
    C = 0.5
    params = LinParams(l1_strength=C, balanced=False, max_iter=20000, tol=1e-14)
    model = train_l1_logreg(X, y, params)
    lam = 1.0 / C

    k = list(model.classes).index("pos")
    w, b = model.weights[k], float(model.intercepts[k])
    ones = np.ones(X.shape[0])
    _, grad_w, grad_b = logloss_value_grad(w, b, X, y_pm, ones)

    slack = 1e-4
    for j in range(X.shape[1]):
        if w[j] != 0.0:
            assert grad_w[j] + lam * np.sign(w[j]) == pytest.approx(0.0, abs=slack)
        else:
            assert abs(grad_w[j]) <= lam + slack
    assert grad_b == pytest.approx(0.0, abs=slack)  # intercept is unpenalized


def test_tiny_c_drives_all_weights_to_exact_zero():
    rng = np.random.default_rng(4)
    X, y_pm, _ = random_problem(rng, n=40, d=12)
    y = ["a" if v > 0 else "b" for v in y_pm]
    model = train_l1_logreg(X, y, LinParams(l1_strength=1e-9, balanced=False))
    assert np.all(model.weights == 0.0)
    # intercepts stay free: prediction falls back to class priors
    assert np.all(np.isfinite(model.intercepts))


def test_objective_never_increases_along_iterates():
    # indirect check: rerunning with more iterations never worsens the objective
    rng = np.random.default_rng(31)
    X, y_pm, _ = random_problem(rng, n=50, d=9)
    y = ["a" if v > 0 else "b" for v in y_pm]
    lam = 2.0

    def objective(model):
        k = list(model.classes).index("a")
        w, b = model.weights[k], float(model.intercepts[k])
        val, _, _ = logloss_value_grad(w, b, X, y_pm, np.ones(X.shape[0]))
        return val + lam * np.abs(w).sum()

    def solve(iters):
        params = LinParams(l1_strength=1 / lam, balanced=False, max_iter=iters, tol=0.0)
        return train_l1_logreg(X, y, params)

    prev = None
    for iters in (1, 3, 10, 50, 300):
        if iters < 50:  # these solves stop at max_iter, and say so
            with pytest.warns(RuntimeWarning, match="stopped before converging"):
                model = solve(iters)
        else:
            model = solve(iters)
        obj = objective(model)
        if prev is not None:
            assert obj <= prev + 1e-9
        prev = obj


# ---------------------------------------------------------------------------
# classification behavior
# ---------------------------------------------------------------------------


def test_separable_multiclass_is_fit_perfectly():
    # three classes, each keyed by its own indicator feature
    X = sparse.csr_matrix(np.vstack([np.eye(3)] * 7))
    y = ["a", "b", "c"] * 7
    model = train_l1_logreg(X, y, LinParams(l1_strength=100.0))
    for (pred, scores), label in zip(predict_logreg(model, X[:3]), ("a", "b", "c")):
        assert pred == label
        assert scores[label] == max(scores.values())


def test_prediction_tie_breaks_to_earliest_class():
    model = LinearModel(
        classes=("a", "b"),
        weights=np.zeros((2, 3)),
        intercepts=np.zeros(2),
    )
    [(pred, scores)] = predict_logreg(model, to_csr(np.array([0]), np.array([0]), (1, 3)))
    assert scores["a"] == scores["b"]
    assert pred == "a"
    # the one labeller of every method: the first of the highest scores
    table = np.array([[0.2, 0.7, 0.7], [0.5, 0.5, 0.5], [1.0, 0.0, 0.0]])
    rows = label_scores(("a", "b", "c"), table)
    assert [label for label, _ in rows] == ["b", "a", "a"]
    assert rows[0][1] == {"a": 0.2, "b": 0.7, "c": 0.7}


def test_single_class_degenerates_to_constant():
    X = sparse.csr_matrix(np.eye(3))
    model = train_l1_logreg(X, ["only"] * 3)
    assert model.classes == ("only",)
    assert np.all(model.weights == 0.0)
    assert [label for label, _ in predict_logreg(model, X)] == ["only"] * 3


def test_balanced_class_weights_formula():
    w = balanced_class_weights(["a", "a", "a", "b"])
    # n / (K * n_c)
    assert w["a"] == pytest.approx(4 / (2 * 3))
    assert w["b"] == pytest.approx(4 / (2 * 1))


def test_balanced_weights_shift_decisions_toward_rare_class():
    # 9-vs-1 imbalance on an ambiguous feature column
    rows = [[1.0]] * 10
    X = sparse.csr_matrix(np.asarray(rows))
    y = ["maj"] * 9 + ["min"]
    balanced = train_l1_logreg(X, y, LinParams(l1_strength=10.0, balanced=True))
    unbalanced = train_l1_logreg(X, y, LinParams(l1_strength=10.0, balanced=False))
    [(_, s_bal)] = predict_logreg(balanced, X[:1])
    [(_, s_unbal)] = predict_logreg(unbalanced, X[:1])
    assert s_bal["min"] > s_unbal["min"]


def test_predict_logreg_gathers_each_rows_columns():
    rng = np.random.default_rng(6)
    X, y_pm, _ = random_problem(rng, n=25, d=7)
    y = ["a" if v > 0 else "b" for v in y_pm]
    model = train_l1_logreg(X, y)
    empty = to_csr(np.array([], dtype=np.int64), np.array([], dtype=np.int64), (1, 7))
    batch = sparse.vstack([X, empty], format="csr")
    scored = predict_logreg(model, batch)
    assert len(scored) == 26
    for i, (_, scores) in enumerate(scored):
        # each row's own arithmetic: the weights of its columns, its values
        row = batch[i]
        idx = np.asarray(row.indices, dtype=np.int64)
        expect = learners._sigmoid(model.weights[:, idx].dot(row.data) + model.intercepts)
        assert np.array(list(scores.values())).tobytes() == expect.tobytes()
        dense = model.weights.dot(row.toarray()[0]) + model.intercepts
        assert np.allclose(list(scores.values()), 1.0 / (1.0 + np.exp(-dense)))
    assert scored[-1][1] == dict(zip(model.classes, learners._sigmoid(model.intercepts)))
    with pytest.raises(ValueError):
        predict_logreg(model, X.toarray())  # dense matrices are not accepted


def test_linear_model_roundtrip():
    rng = np.random.default_rng(2)
    X, y_pm, _ = random_problem(rng)
    y = ["a" if v > 0 else "b" for v in y_pm]
    model = train_l1_logreg(X, y)
    again = LinearModel.from_dict(model.to_dict(), model.num_features)
    assert again.classes == model.classes
    assert np.array_equal(again.weights, model.weights)
    assert np.array_equal(again.intercepts, model.intercepts)


def test_rejects_empty_and_mismatched_inputs():
    X = sparse.csr_matrix(np.eye(2))
    with pytest.raises(ValueError):
        train_l1_logreg(X, ["a"])
    with pytest.raises(ValueError):
        train_l1_logreg(sparse.csr_matrix((0, 2)), [])
    with pytest.raises(ValueError):
        LinParams(l1_strength=0.0)


# ---------------------------------------------------------------------------
# agreement with the reference solver
# ---------------------------------------------------------------------------
#
# The functions below are the first, straightforward implementation of the
# plain proximal-gradient solver, kept as the reference: it rebuilds X.T and
# every temporary on each iteration.  The accelerated solver in sla.learners
# takes other iterates, so full solves are compared by objective and by the
# optimality (KKT) conditions: the new solve must do at least as well as the
# reference wherever the reference stops at max_iter, match it to within its
# stop tolerance elsewhere, and meet the KKT conditions wherever it reports
# convergence.  Its plain steps (the first step, every step after a momentum
# restart or a rejected step, and the step the stop test takes) are the
# reference's step, so a one-iteration solve must equal the reference's to
# the last bit; those are compared with tobytes().


def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_soft_threshold(v, thresh):
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def _ref_fit_l1_binary(X, y_pm, sample_weights, lam, max_iter, tol):
    n, d = X.shape
    w = np.zeros(d, dtype=np.float64)
    b = 0.0
    z = np.zeros(n, dtype=np.float64)

    def smooth_at(z_vec):
        return float(np.dot(sample_weights, np.logaddexp(0.0, -y_pm * z_vec)))

    f = smooth_at(z)
    obj = f
    step = 1.0
    for _ in range(max_iter):
        coef = sample_weights * (-y_pm) * _ref_sigmoid(-y_pm * z)
        grad_w = np.asarray(X.T.dot(coef), dtype=np.float64)
        grad_b = float(coef.sum())

        while True:
            w_new = _ref_soft_threshold(w - step * grad_w, step * lam)
            b_new = b - step * grad_b
            dw = w_new - w
            db = b_new - b
            z_new = z + X.dot(dw) + db
            f_new = smooth_at(z_new)
            bound = (
                f
                + float(np.dot(grad_w, dw))
                + grad_b * db
                + (float(np.dot(dw, dw)) + db * db) / (2.0 * step)
            )
            if f_new <= bound + 1e-12:
                break
            step *= 0.5
            if step < 1e-18:
                return w, b

        obj_new = f_new + lam * float(np.abs(w_new).sum())
        delta = obj - obj_new
        w, b, z, f, obj = w_new, b_new, z_new, f_new, obj_new
        step *= 1.25
        if delta < tol:
            break
    return w, b


def _oracle_problem(kind, n_classes, seed):
    """Seeded problem: binary presence features, or non-negative weighted
    features shaped like stage-2 vectors (sums of up to three segment
    vectors scaled by line scores in (0, 1), with repeated n-grams)."""
    rng = np.random.default_rng(seed)
    n, d = 36, 90
    mask = rng.random((n, d)) < 0.12
    if kind == "binary":
        dense = mask.astype(np.float64)
    else:
        counts = rng.integers(1, 4, size=(n, d))
        scores = rng.uniform(0.05, 1.0, size=(n, d, 3))
        segments = rng.integers(1, 4, size=(n, d))
        weight = np.where(np.arange(3) < segments[..., None], scores, 0.0).sum(axis=2)
        dense = np.where(mask, counts * weight, 0.0)
    labels = [f"c{int(v)}" for v in rng.integers(0, n_classes, size=n)]
    labels[:n_classes] = [f"c{k}" for k in range(n_classes)]  # every class present
    return sparse.csr_matrix(dense), labels


def _fit_both(monkeypatch, X, y, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # max_iter=1 stops unconverged
        fast = train_l1_logreg(X, y, params)
        with monkeypatch.context() as m:
            m.setattr(learners, "_fit_l1_binary", _ref_fit_l1_binary)
            ref = train_l1_logreg(X, y, params)
    return fast, ref


@pytest.mark.parametrize("C", [0.03, 1.0, 100.0, 3162.0])
@pytest.mark.parametrize(
    "kind, n_classes, weighting",
    [
        ("binary", 2, "balanced"),
        ("binary", 5, "unbalanced"),
        ("stage2", 5, "balanced"),
    ],
)
def test_solver_matches_reference_bit_for_bit(monkeypatch, C, kind, n_classes, weighting):
    """The first iteration is a plain proximal-gradient step from zero: the
    same gradient, backtracking and soft-thresholding as the reference."""
    X, y = _oracle_problem(kind, n_classes, seed=n_classes * 100 + len(kind))
    params = LinParams(l1_strength=C, balanced=weighting == "balanced", max_iter=1)
    fast, ref = _fit_both(monkeypatch, X, y, params)
    assert fast.classes == ref.classes
    assert fast.weights.tobytes() == ref.weights.tobytes()
    assert fast.intercepts.tobytes() == ref.intercepts.tobytes()


_MAX_ITER = LinParams().max_iter
_TOL = LinParams().tol
_C_GRID = tuning.log_grid(-2, 4, 13) + (1e-6, 1e6)  # the search grid and _C_DIM's ends
_GRADES = ("grade 1", "grade 2", "grade 3", "grade 4", "not reported")


@lru_cache(maxsize=None)
def _family_a_problem(ngram_n):
    """The doc-logreg design matrix of a 32-document family-A corpus (the
    corpus of acceptance criterion 1), with its grade labels and balanced
    sample weights."""
    docs = synth.generate_corpus(synth.GenConfig(
        cancer="colon", num_docs=32, lines_per_doc=(30, 38),
        attributes=(
            synth.SynthAttribute("grade", _GRADES, weights=(0.3, 0.3, 0.2, 0.1, 0.1)),
            synth.SynthAttribute("lymphovascular_invasion",
                                 ("present", "absent", "not reported"),
                                 weights=(0.4, 0.5, 0.1)),
            synth.SynthAttribute("perineural_invasion",
                                 ("present", "absent", "not reported"),
                                 weights=(0.35, 0.55, 0.1)),
        ),
        synoptic_probability=0.8, rare_phrasing_rate=0.5, seed=2,
    ))
    vocab = build_vocabulary(
        [tl for d in docs for tl in tokenize_lines(d.report)], ngram_n
    )
    X = sparse.vstack([featurize_document(d.report, vocab) for d in docs], format="csr")
    labels = [gold_label(d, "grade") for d in docs]
    per_class = balanced_class_weights(labels)
    return X, labels, np.array([per_class[lab] for lab in labels])


def _oracle_weighted_problem(kind, n_classes, weighting):
    X, labels = _oracle_problem(kind, n_classes, seed=n_classes * 100 + len(kind))
    if weighting == "balanced":
        per_class = balanced_class_weights(labels)
    elif weighting == "explicit":
        per_class = {f"c{k}": 0.5 + 0.75 * k for k in range(n_classes)}
    else:
        per_class = {lab: 1.0 for lab in labels}
    return X, labels, np.array([per_class[lab] for lab in labels])


def _objective(X, y_pm, sw, lam, w, b):
    """The full objective, and the gradient of its smooth part."""
    value, grad_w, grad_b = logloss_value_grad(w, b, X, y_pm, sw)
    return value + lam * float(np.abs(w).sum()), grad_w, grad_b


def _kkt_residual(grad_w, grad_b, w, lam):
    """Largest violation of the optimality conditions: the intercept's
    gradient is zero, grad_j = -lam * sign(w_j) where w_j != 0, and
    |grad_j| <= lam where w_j = 0."""
    on = w != 0.0
    return max(
        abs(grad_b),
        float(np.abs(grad_w[on] + lam * np.sign(w[on])).max(initial=0.0)),
        float(np.maximum(np.abs(grad_w[~on]) - lam, 0.0).max(initial=0.0)),
    )


def _ref_solve(monkeypatch, X, y_pm, sw, lam, max_iter=_MAX_ITER):
    """The reference solve, and whether it ran all max_iter iterations (it
    calls _ref_sigmoid once per iteration)."""
    calls = []
    sigmoid = _ref_sigmoid
    with monkeypatch.context() as m:
        m.setitem(globals(), "_ref_sigmoid", lambda z: calls.append(z) or sigmoid(z))
        w, b = _ref_fit_l1_binary(X, y_pm, sw, lam, max_iter, _TOL)
    return w, b, len(calls) == max_iter


def _solve(X, y_pm, sw, lam, max_iter=_MAX_ITER):
    """The solve under test, and whether it warned that it did not converge."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w, b = learners._fit_l1_binary(X, y_pm, sw, lam, max_iter, _TOL)
    return w, b, any("stopped before converging" in str(c.message) for c in caught)


@pytest.mark.parametrize(
    "problem",
    [
        ("binary", 2, "balanced"),
        ("binary", 5, "unbalanced"),
        ("stage2", 5, "balanced"),
        ("stage2", 2, "explicit"),
        ("family-a", 1),
        ("family-a", 3),
    ],
    ids=lambda problem: "-".join(map(str, problem)),
)
def test_solver_is_no_worse_than_reference_and_meets_kkt(monkeypatch, problem):
    if problem[0] == "family-a":
        X, labels, sw = _family_a_problem(problem[1])
    else:
        X, labels, sw = _oracle_weighted_problem(*problem)
    label_arr = np.array(labels)
    for C in _C_GRID:
        lam = 1.0 / C
        for cls in sorted(set(labels)):
            y_pm = np.where(label_arr == cls, 1.0, -1.0)
            w, b, warned = _solve(X, y_pm, sw, lam)
            w_ref, b_ref, capped = _ref_solve(monkeypatch, X, y_pm, sw, lam)
            new, grad_w, grad_b = _objective(X, y_pm, sw, lam, w, b)
            ref, _, _ = _objective(X, y_pm, sw, lam, w_ref, b_ref)
            where = f"C={C:.4g} class={cls}: new {new!r}, reference {ref!r}"
            if capped:
                assert new <= ref * (1 + 1e-9), where
            else:
                assert new <= ref + 1e-6 * max(1.0, abs(ref)), where
            if not warned:
                assert _kkt_residual(grad_w, grad_b, w, lam) <= 1e-3, where


def test_solver_converges_where_reference_stops_at_max_iter(monkeypatch):
    """At large C the reference runs out of iterations (ROADMAP D6); the
    accelerated solve of the same problem converges to a lower objective."""
    X, labels, sw = _family_a_problem(1)
    y_pm = np.where(np.array(labels) == "grade 1", 1.0, -1.0)
    lam = 1.0 / 1000.0
    w_ref, b_ref, capped = _ref_solve(monkeypatch, X, y_pm, sw, lam)
    assert capped
    w, b, warned = _solve(X, y_pm, sw, lam)
    assert not warned
    new, grad_w, grad_b = _objective(X, y_pm, sw, lam, w, b)
    assert new <= _objective(X, y_pm, sw, lam, w_ref, b_ref)[0]
    assert _kkt_residual(grad_w, grad_b, w, lam) <= 1e-3


def test_solver_matches_reference_when_stopped_by_max_iter(monkeypatch):
    """Stopped after one iteration the solve is the reference's to the last
    bit; stopped after seven it warns, has nonzero weights, and its objective
    is no higher than the reference's seven-iteration objective or than that
    of any shorter prefix."""
    X, labels = _oracle_problem("stage2", 5, seed=3)
    per_class = balanced_class_weights(labels)
    sw = np.array([per_class[lab] for lab in labels])
    lam = 1.0 / 100.0
    nonzero = 0
    for cls in sorted(set(labels)):
        y_pm = np.where(np.array(labels) == cls, 1.0, -1.0)
        w, b, warned = _solve(X, y_pm, sw, lam, max_iter=1)
        w_ref, b_ref, capped = _ref_solve(monkeypatch, X, y_pm, sw, lam, max_iter=1)
        assert warned and capped
        assert w.tobytes() == w_ref.tobytes() and b == b_ref
        objectives = []
        for iters in range(1, 8):
            w, b, warned = _solve(X, y_pm, sw, lam, max_iter=iters)
            assert warned
            objectives.append(_objective(X, y_pm, sw, lam, w, b)[0])
        assert objectives[-1] <= min(objectives)
        w_ref, b_ref, capped = _ref_solve(monkeypatch, X, y_pm, sw, lam, max_iter=7)
        assert capped
        assert objectives[-1] <= _objective(X, y_pm, sw, lam, w_ref, b_ref)[0]
        nonzero += int(np.count_nonzero(w))
    assert nonzero > 0


def test_objective_never_rises_between_prefixes_despite_momentum():
    """Without the safeguard, momentum raises this objective within 40
    iterations (class c2, iteration 27); the safeguard discards such steps."""
    X, labels = _oracle_problem("stage2", 5, seed=3)
    per_class = balanced_class_weights(labels)
    sw = np.array([per_class[lab] for lab in labels])
    lam = 1.0
    for cls in sorted(set(labels)):
        y_pm = np.where(np.array(labels) == cls, 1.0, -1.0)
        objectives = [
            _objective(X, y_pm, sw, lam, *_solve(X, y_pm, sw, lam, max_iter=iters)[:2])[0]
            for iters in range(1, 41)
        ]
        assert all(b <= a for a, b in zip(objectives, objectives[1:])), cls


def test_solver_warns_when_stopped_by_max_iter():
    X, y = _oracle_problem("stage2", 5, seed=3)
    with pytest.warns(RuntimeWarning, match="stopped before converging"):
        train_l1_logreg(X, y, LinParams(l1_strength=100.0, max_iter=7, tol=0.0))


def test_converged_solve_does_not_warn():
    X, y = _oracle_problem("binary", 2, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_l1_logreg(X, y, LinParams(l1_strength=1.0))
    assert np.any(model.weights != 0.0)


def test_sigmoid_matches_masked_formula_bit_for_bit():
    edges = [0.0, 5e-324, 36.7, 700.0, 745.2, 800.0, np.inf]
    rng = np.random.default_rng(41)
    z = np.concatenate([
        np.array(edges + [-v for v in edges]),
        rng.normal(scale=40.0, size=50_000),
        rng.uniform(-800.0, 800.0, size=50_000),
    ])
    assert np.signbit(z[len(edges)])  # -0.0 is in the sample
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = learners._sigmoid(z)
        want = _ref_sigmoid(z)
    assert got.tobytes() == want.tobytes()


def test_soft_threshold_matches_reference_and_keeps_signed_zeros():
    rng = np.random.default_rng(43)
    t = 0.25
    v = np.concatenate([
        np.array([0.0, -0.0, t, -t, 0.1, -0.1]),
        rng.normal(scale=0.5, size=10_000),
    ])
    got = learners._soft_threshold(v, t)
    assert got.tobytes() == _ref_soft_threshold(v, t).tobytes()
    # a small negative weight thresholds to -0.0, which the bundle JSON keeps
    assert np.signbit(got[5]) and got[5] == 0.0


# ---------------------------------------------------------------------------
# the solve over held columns
# ---------------------------------------------------------------------------
# train_l1_logreg solves over the columns that hold a stored entry.  An
# empty column's gradient is +0.0, so its weight stays +0.0, and the other
# iterates are those of the solve over every column unless a comparison fed
# by a d-length sum lands within rounding of its threshold; these checks
# compare the two byte for byte on problems with planted empty columns.


def _plant_empty_columns(X, seed, share=0.9):
    """X with empty columns planted among its own, at seeded places, so
    that about ``share`` of its columns are empty; each row's entries keep
    their stored order."""
    n, d = X.shape
    width = int(round(d / (1.0 - share)))
    place = np.sort(np.random.default_rng(seed).choice(width, size=d, replace=False))
    return sparse.csr_matrix((X.data, place[X.indices], X.indptr), shape=(n, width))


def _fit_every_column(X, labels, params):
    """The weights and intercepts of the per-class solve over every column
    of X."""
    classes = sorted(set(labels))
    per_class = balanced_class_weights(labels) if params.balanced else {}
    sw = np.array([per_class.get(lab, 1.0) for lab in labels])
    fits = [
        learners._fit_l1_binary(
            X, np.where(np.array(labels) == c, 1.0, -1.0), sw, 1.0 / params.l1_strength,
            params.max_iter, params.tol,
        )
        for c in classes
    ]
    return np.array([w for w, _ in fits]), np.array([b for _, b in fits])


def _assert_held_solve_is_the_full_solve(X, labels, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the max_iter case stops unconverged
        model = train_l1_logreg(X, labels, params)
        weights, intercepts = _fit_every_column(X, labels, params)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.intercepts.tobytes() == intercepts.tobytes()
    empty = np.bincount(X.indices, minlength=X.shape[1]) == 0
    assert not np.any(model.weights[:, empty]) and not np.signbit(model.weights[:, empty]).any()
    return model


@pytest.mark.parametrize("C, max_iter", [(0.03, _MAX_ITER), (100.0, _MAX_ITER),
                                         (1e6, _MAX_ITER), (100.0, 7)])
@pytest.mark.parametrize("kind, n_classes", [("binary", 2), ("stage2", 5)])
def test_held_column_solve_is_the_solve_over_every_column(C, max_iter, kind, n_classes):
    X, labels = _oracle_problem(kind, n_classes, seed=n_classes * 10 + len(kind))
    X = _plant_empty_columns(X, seed=n_classes)
    assert np.count_nonzero(np.bincount(X.indices, minlength=X.shape[1]) == 0) > 0.85 * X.shape[1]
    model = _assert_held_solve_is_the_full_solve(
        X, labels, LinParams(l1_strength=C, max_iter=max_iter)
    )
    assert np.any(model.weights != 0.0) == (C > 1.0)  # C = 0.03 zeroes every weight


def test_a_matrix_without_entries_gives_the_intercept_only_fit():
    """With no stored entry every weight is +0.0, and each one-vs-rest
    intercept is the balanced prior log-odds, log(1 / (k - 1))."""
    labels = ["a", "b", "c", "a", "b", "c", "a", "b"]
    X = sparse.csr_matrix((len(labels), 40))
    model = _assert_held_solve_is_the_full_solve(X, labels, LinParams())
    np.testing.assert_allclose(model.intercepts, math.log(1 / 2), atol=1e-3)


def test_unsorted_row_entries_are_solved_in_their_stored_order():
    """Each row's entries are summed in stored order, so a CSR whose rows
    hold their columns out of order gives the bytes of the solve over
    every column of that same CSR, as its sorted copy gives those of its
    own."""
    X, labels = _oracle_problem("stage2", 5, seed=7)
    X = _plant_empty_columns(X, seed=7)
    flipped = [np.arange(X.indptr[i + 1] - 1, X.indptr[i] - 1, -1) for i in range(X.shape[0])]
    order = np.concatenate(flipped)
    unsorted = sparse.csr_matrix((X.data[order], X.indices[order], X.indptr), shape=X.shape)
    assert not unsorted.has_sorted_indices
    params = LinParams(l1_strength=100.0)
    _assert_held_solve_is_the_full_solve(unsorted, labels, params)
    _assert_held_solve_is_the_full_solve(X, labels, params)
