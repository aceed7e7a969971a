import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse

from sla.learners import (
    GbtModel,
    GbtParams,
    predict_gbt_batch,
    predict_gbt_margin,
    predict_gbt_pairs,
    predict_logreg,
    train_gbt,
    train_l1_logreg,
)

# Fixed 6-point dataset whose best first-round stump was derived by hand:
# base score 0, gradients +/-0.5, hessians 0.25.  Splitting on feature 0
# has second-order gain 9/7 with leaf values -/+ 6/7; the other features
# have zero gain.
STUMP_X = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 0, 0)]
STUMP_Y = [1, 1, 0, 0, 1, 0]
STUMP_GAIN = 1.2857142857142858
STUMP_LEAVES = (-0.8571428571428571, 0.8571428571428571)
STUMP_PROBS = {  # after one round, lr = 0.5
    (1, 0, 0): 0.6055324872205857,
    (0, 1, 1): 0.3944675127794143,
    (0, 0, 0): 0.3944675127794143,
    (1, 1, 1): 0.6055324872205857,
}


def dense_to_csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def test_single_stump_matches_hand_derived_split():
    params = GbtParams(learning_rate=0.5, max_depth=1, num_rounds=1, l2_lambda=1.0)
    model = train_gbt(dense_to_csr(STUMP_X), STUMP_Y, params)
    assert model.base_score == 0.0
    (tree,) = model.to_dict()["trees"]
    assert tree["feature"] == 0
    assert tree["left"]["value"] == pytest.approx(STUMP_LEAVES[0], abs=1e-12)
    assert tree["right"]["value"] == pytest.approx(STUMP_LEAVES[1], abs=1e-12)
    for x, prob in STUMP_PROBS.items():
        got = predict_gbt_batch(model, dense_to_csr([x]))[0]
        assert got == pytest.approx(prob, abs=1e-12)


def brute_force_best_split(X, grad, hess, rows, lam, gamma):
    """Reference split search: try every feature, partition on presence."""
    G, H = grad[rows].sum(), hess[rows].sum()
    parent = G * G / (H + lam)
    best = (-np.inf, None)
    for j in range(X.shape[1]):
        col = X[rows, j]
        right = rows[col > 0]
        left = rows[col == 0]
        if len(right) == 0 or len(left) == 0:
            continue
        GL, HL = grad[left].sum(), hess[left].sum()
        GR, HR = grad[right].sum(), hess[right].sum()
        gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent) - gamma
        if gain > best[0]:
            best = (gain, j)
    return best


def test_first_split_agrees_with_brute_force_on_random_data():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n, d = 40, 12
        X = (rng.random((n, d)) < 0.3).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        if len(set(y.tolist())) < 2:
            continue
        p0 = y.mean()
        base = math.log(p0 / (1 - p0))
        p = 1.0 / (1.0 + math.exp(-base))
        grad = np.full(n, p) - y
        hess = np.full(n, p * (1 - p))
        gain, feature = brute_force_best_split(X, grad, hess, np.arange(n), 1.0, 0.0)
        params = GbtParams(max_depth=1, num_rounds=1, l2_lambda=1.0)
        model = train_gbt(dense_to_csr(X), y.tolist(), params)
        (tree,) = model.to_dict()["trees"]
        if "value" in tree:
            assert gain <= 1e-12
        else:
            got_gain, _ = brute_force_best_split(
                X, grad, hess, np.arange(n), 1.0, 0.0
            )
            # the chosen split must achieve the optimal gain (ties allowed)
            col = X[:, tree["feature"]]
            right = np.where(col > 0)[0]
            left = np.where(col == 0)[0]
            GL, HL = grad[left].sum(), hess[left].sum()
            GR, HR = grad[right].sum(), hess[right].sum()
            parent = grad.sum() ** 2 / (hess.sum() + 1.0)
            chosen = 0.5 * (GL**2 / (HL + 1.0) + GR**2 / (HR + 1.0) - parent)
            assert chosen == pytest.approx(gain, rel=1e-9)


def test_hand_walked_tree_oracle_on_fixed_points():
    """Predictions must equal an independent walk of the serialized trees."""
    rng = np.random.default_rng(11)
    X = (rng.random((80, 10)) < 0.35).astype(np.float64)
    y = ((X[:, 0] + X[:, 3] * X[:, 7]) > 0).astype(int).tolist()
    params = GbtParams(learning_rate=0.3, max_depth=3, num_rounds=12, seed=2)
    model = train_gbt(dense_to_csr(X), y, params)

    payload = model.to_dict()  # walk the serialized form, not live objects

    def walk(node, present):
        while "feature" in node:
            node = node["right"] if node["feature"] in present else node["left"]
        return node["value"]

    def stable_sigmoid(z):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        ez = math.exp(z)
        return ez / (1.0 + ez)

    fixed_points = [X[i] for i in (0, 7, 19, 33, 61)]
    for x in fixed_points:
        present = {j for j in range(10) if x[j] != 0.0}
        margin = payload["base_score"]
        for t in payload["trees"]:
            margin += payload["params"]["learning_rate"] * walk(t, present)
        assert predict_gbt_margin(model, dense_to_csr([x]))[0] == margin
        # np.exp may round differently from math.exp in the last bit
        batch = predict_gbt_batch(model, dense_to_csr([x]))[0]
        assert batch == pytest.approx(stable_sigmoid(margin), rel=1e-15, abs=0.0)


def test_training_logloss_non_increasing_per_round():
    rng = np.random.default_rng(3)
    n, d = 120, 25
    X = (rng.random((n, d)) < 0.25).astype(np.float64)
    w = rng.normal(size=d)
    y = ((X @ w + 0.3 * rng.normal(size=n)) > 0).astype(int).tolist()
    params = GbtParams(num_rounds=40, max_depth=4, subsample=1.0)
    model = train_gbt(dense_to_csr(X), y, params)
    X_csr = dense_to_csr(X)
    y_arr = np.asarray(y, dtype=np.float64)
    losses = []
    for t in range(0, params.num_rounds + 1):
        margin = predict_gbt_margin(dataclasses.replace(model, trees=model.trees[:t]), X_csr)
        losses.append(np.logaddexp(0.0, -np.where(y_arr > 0, 1, -1) * margin).mean())
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-12


def test_separable_data_reaches_perfect_training_accuracy():
    rng = np.random.default_rng(9)
    X = (rng.random((50, 8)) < 0.4).astype(np.float64)
    X[:25, 0] = 1.0
    X[25:, 0] = 0.0
    y = [1] * 25 + [0] * 25
    model = train_gbt(dense_to_csr(X), y, GbtParams(num_rounds=100))
    probs = predict_gbt_batch(model, dense_to_csr(X))
    assert ((probs > 0.5).astype(int) == np.asarray(y)).all()


def test_constant_labels_fall_back_to_prior():
    X = dense_to_csr([(1, 0), (0, 1), (1, 1)])
    model = train_gbt(X, [1, 1, 1], GbtParams(num_rounds=5))
    probs = predict_gbt_batch(model, X)
    # prior is clipped away from 1, so scores are high but finite
    assert (probs > 0.99).all()
    assert np.isfinite(model.base_score)


def test_subsample_is_deterministic_given_seed():
    rng = np.random.default_rng(1)
    X = (rng.random((60, 15)) < 0.3).astype(np.float64)
    y = rng.integers(0, 2, size=60).tolist()
    params = GbtParams(subsample=0.6, num_rounds=10, seed=42)
    m1 = train_gbt(dense_to_csr(X), y, params)
    m2 = train_gbt(dense_to_csr(X), y, params)
    assert m1.to_dict() == m2.to_dict()
    m3 = train_gbt(dense_to_csr(X), y, GbtParams(subsample=0.6, num_rounds=10, seed=43))
    assert m1.to_dict() != m3.to_dict()


def test_min_split_loss_prunes_weak_splits():
    # gain of the best split is 9/7; a gamma above that forbids splitting
    params = GbtParams(max_depth=3, num_rounds=1, min_split_loss=2.0)
    model = train_gbt(dense_to_csr(STUMP_X), STUMP_Y, params)
    assert model.feature[model.trees[0]] == -1  # a leaf


def test_gbt_model_roundtrip():
    rng = np.random.default_rng(8)
    X = (rng.random((30, 6)) < 0.4).astype(np.float64)
    y = rng.integers(0, 2, size=30).tolist()
    model = train_gbt(dense_to_csr(X), y, GbtParams(num_rounds=6, max_depth=2))
    again = GbtModel.from_dict(model.to_dict(), model.num_features)
    probs_a = predict_gbt_batch(model, dense_to_csr(X))
    probs_b = predict_gbt_batch(again, dense_to_csr(X))
    assert np.array_equal(probs_a, probs_b)


def test_gbt_rejects_bad_labels_and_params():
    X = dense_to_csr([(1,), (0,)])
    with pytest.raises(ValueError):
        train_gbt(X, [0, 2])
    with pytest.raises(ValueError):
        GbtParams(learning_rate=0.0)
    with pytest.raises(ValueError):
        GbtParams(subsample=0.0)
    with pytest.raises(ValueError):
        GbtParams(max_depth=0)


def test_gbt_rejects_non_binary_features():
    # a value of 2.0 would be counted twice and hide the valid split
    with pytest.raises(ValueError, match="binary"):
        train_gbt(dense_to_csr([(2.0,), (0.0,)]), [1, 0])
    # an explicitly stored 0.0 would count as present and empty a leaf
    stored_zero = sparse.csr_matrix(
        (np.array([1.0, 0.0]), np.array([0, 0]), np.array([0, 1, 2])), shape=(2, 1)
    )
    assert stored_zero.nnz == 2
    with pytest.raises(ValueError, match="binary"):
        train_gbt(stored_zero, [1, 0])
    # a cell stored twice holds 2.0
    stored_twice = sparse.csr_matrix(
        (np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2, 2])), shape=(2, 1)
    )
    assert stored_twice.toarray().tolist() == [[2.0], [0.0]]
    with pytest.raises(ValueError, match="binary"):
        train_gbt(stored_twice, [1, 0])


def test_predict_margin_of_a_tree_prefix():
    X = dense_to_csr(STUMP_X)
    model = train_gbt(X, STUMP_Y, GbtParams(num_rounds=3, max_depth=1))
    base = np.full(len(STUMP_X), model.base_score)
    none = dataclasses.replace(model, trees=model.trees[:0])
    assert predict_gbt_margin(none, X).tobytes() == base.tobytes()
    every = dataclasses.replace(model, trees=model.trees[:3])
    assert predict_gbt_margin(every, X).tobytes() == predict_gbt_margin(model, X).tobytes()


def test_predict_margin_refuses_what_it_cannot_score():
    model = train_gbt(dense_to_csr(STUMP_X), STUMP_Y, GbtParams(max_depth=1, num_rounds=1))
    assert model.to_dict()["trees"][0]["feature"] == 0
    for width in (1, 4):  # too narrow, too wide
        with pytest.raises(ValueError, match="features"):
            predict_gbt_margin(model, sparse.csr_matrix((1, width)))
    # an explicitly stored 0.0 at the split feature would count as present
    stored_zero = sparse.csr_matrix(
        (np.array([0.0]), np.array([0]), np.array([0, 1])), shape=(1, 3)
    )
    with pytest.raises(ValueError, match="binary"):
        predict_gbt_margin(model, stored_zero)
    with pytest.raises(ValueError, match="binary"):
        predict_gbt_batch(model, dense_to_csr([(2.0, 0, 0)]))


def test_predict_pairs_scores_the_matrix_the_pairs_build():
    X = dense_to_csr(STUMP_X)
    model = train_gbt(X, STUMP_Y, GbtParams(num_rounds=4, max_depth=2))
    rows, cols = X.nonzero()
    # every pair twice, in reverse order: presence, as to_csr reads them
    rows, cols = np.r_[rows, rows][::-1], np.r_[cols, cols][::-1]
    got = predict_gbt_pairs(model, rows, cols, X.shape)
    assert got.tobytes() == predict_gbt_batch(model, X).tobytes()
    # rows without a pair are all-absent rows, the last row included
    empty = predict_gbt_pairs(model, np.array([], int), np.array([], int), (2, 3))
    assert empty.tobytes() == predict_gbt_batch(model, sparse.csr_matrix((2, 3))).tobytes()
    with pytest.raises(ValueError, match="features"):
        predict_gbt_pairs(model, rows, cols, (len(STUMP_X), 4))


def test_every_learner_refuses_a_dense_X():
    X = dense_to_csr(STUMP_X)
    forest = train_gbt(X, STUMP_Y, GbtParams(num_rounds=2, max_depth=1))
    linear = train_l1_logreg(X, STUMP_Y)
    dense = X.toarray()
    for call in (
        lambda: train_gbt(dense, STUMP_Y),
        lambda: train_l1_logreg(dense, STUMP_Y),
        lambda: predict_gbt_batch(forest, dense),
        lambda: predict_logreg(linear, dense),
    ):
        with pytest.raises(ValueError, match="^X must be a scipy sparse matrix, got ndarray$"):
            call()
