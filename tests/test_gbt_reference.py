"""Bit-for-bit agreement of the boosted trees with a frozen reference.

The functions below are the first implementation of tree growth, kept as
the reference: each level builds three sparse (node x row) matrices of
gradients, hessians and ones and multiplies each by X, and the margins are
updated by walking every row through the new tree.  The reference's trees
are nested dicts, the form of a model bundle.  ``sla.learners`` must grow
the same trees (compared through ``to_dict()``) and give the same margins
(compared with ``tobytes()``), and its node-table walk must give the
margins of the reference walk on any forest.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from sla import synth
from sla.baselines import featurize_document
from sla.learners import (
    GbtModel,
    GbtParams,
    _distinct_columns,
    _sigmoid,
    predict_gbt_margin,
    train_gbt,
)
from sla.pipeline import build_line_labels
from sla.textproc import build_vocabulary, tokenize_lines, vectorize

_REF_MIN_GAIN = 1e-12
_REF_PRIOR_EPS = 1e-6


def _ref_leaf_value(g_sum, h_sum, lam):
    denom = h_sum + lam
    if denom <= _REF_MIN_GAIN:
        return 0.0
    return -g_sum / denom


def _ref_grow_tree(X_csr, X_csc, rows, grad, hess, params):
    n_total = X_csr.shape[0]
    lam = params.l2_lambda
    gamma = params.min_split_loss
    nodes = [{}]
    frontier = [(0, rows)]
    col_mark = np.zeros(n_total, dtype=bool)
    indptr, col_indices = X_csc.indptr, X_csc.indices

    for depth in range(params.max_depth + 1):
        if not frontier:
            break
        if depth == params.max_depth:
            for nid, nrows in frontier:
                g, h = grad[nrows].sum(), hess[nrows].sum()
                nodes[nid] = {"value": _ref_leaf_value(g, h, lam)}
            break

        sizes = np.array([len(nrows) for _, nrows in frontier])
        all_rows = np.concatenate([nrows for _, nrows in frontier])
        owner = np.repeat(np.arange(len(frontier)), sizes)
        shape = (len(frontier), n_total)

        def node_sums(values):
            A = sparse.csr_matrix((values, (owner, all_rows)), shape=shape)
            return np.asarray(A.dot(X_csr).todense())

        G1 = node_sums(grad[all_rows])
        H1 = node_sums(hess[all_rows])
        C1 = node_sums(np.ones(len(all_rows)))
        Gt = np.array([grad[nrows].sum() for _, nrows in frontier])
        Ht = np.array([hess[nrows].sum() for _, nrows in frontier])

        G0 = Gt[:, None] - G1
        H0 = Ht[:, None] - H1
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (
                G1 * G1 / np.maximum(H1 + lam, _REF_MIN_GAIN)
                + G0 * G0 / np.maximum(H0 + lam, _REF_MIN_GAIN)
                - (Gt * Gt / np.maximum(Ht + lam, _REF_MIN_GAIN))[:, None]
            ) - gamma
        invalid = (C1 < 1) | (C1 > (sizes[:, None] - 1))
        gain[invalid] = -np.inf
        best_j = np.argmax(gain, axis=1)
        best_gain = gain[np.arange(len(frontier)), best_j]

        next_frontier = []
        for i, (nid, nrows) in enumerate(frontier):
            if len(nrows) < 2 or not best_gain[i] > _REF_MIN_GAIN:
                nodes[nid] = {"value": _ref_leaf_value(Gt[i], Ht[i], lam)}
                continue
            j = int(best_j[i])
            col_rows = col_indices[indptr[j] : indptr[j + 1]]
            col_mark[col_rows] = True
            present = nrows[col_mark[nrows]]
            absent = nrows[~col_mark[nrows]]
            col_mark[col_rows] = False
            lid, rid = len(nodes), len(nodes) + 1
            nodes.extend([{}, {}])
            nodes[nid] = {"feature": j, "left": lid, "right": rid}
            next_frontier.append((lid, absent))
            next_frontier.append((rid, present))
        frontier = next_frontier

    def assemble(nid):
        nd = nodes[nid]
        if "value" in nd:
            return {"value": float(nd["value"])}
        return {"feature": nd["feature"], "left": assemble(nd["left"]),
                "right": assemble(nd["right"])}

    return assemble(0)


def _ref_tree_outputs(root, X_csc):
    n = X_csc.shape[0]
    out = np.zeros(n, dtype=np.float64)
    mark = np.zeros(n, dtype=bool)
    indptr, col_indices = X_csc.indptr, X_csc.indices
    stack = [(root, np.arange(n))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        if "value" in node:
            out[rows] = node["value"]
            continue
        j = node["feature"]
        col_rows = col_indices[indptr[j] : indptr[j + 1]]
        mark[col_rows] = True
        present = rows[mark[rows]]
        absent = rows[~mark[rows]]
        mark[col_rows] = False
        stack.append((node["left"], absent))
        stack.append((node["right"], present))
    return out


def _ref_train_gbt(X_csr, y, params):
    y_arr = np.asarray(y, dtype=np.float64)
    n = X_csr.shape[0]
    prior = min(max(float(y_arr.mean()), _REF_PRIOR_EPS), 1.0 - _REF_PRIOR_EPS)
    base = math.log(prior / (1.0 - prior))
    margins = np.full(n, base, dtype=np.float64)
    X_csc = X_csr.tocsc()
    rng = np.random.default_rng(params.seed)
    subsample_size = max(1, int(round(params.subsample * n)))
    trees = []
    for _ in range(params.num_rounds):
        if params.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=subsample_size, replace=False))
        else:
            rows = np.arange(n)
        p = _sigmoid(margins)
        grad = p - y_arr
        hess = p * (1.0 - p)
        tree = _ref_grow_tree(X_csr, X_csc, rows, grad, hess, params)
        margins += params.learning_rate * _ref_tree_outputs(tree, X_csc)
        trees.append(tree)
    model = {"params": dataclasses.asdict(params), "base_score": base,
             "num_features": X_csr.shape[1], "trees": trees}
    return model, margins


def assert_matches_reference(X, y, params):
    fast = train_gbt(X, y, params)
    ref, ref_margins = _ref_train_gbt(X, y, params)
    assert fast.to_dict() == ref
    # the training margins and the predicted margins are the same sums
    assert predict_gbt_margin(fast, X).tobytes() == ref_margins.tobytes()
    return fast


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def family_a_docs(seed, num_docs=16):
    """Acceptance criterion 1's corpus family A, smaller."""
    return synth.generate_corpus(synth.GenConfig(
        cancer="colon", num_docs=num_docs, lines_per_doc=(30, 38),
        attributes=(
            synth.SynthAttribute("grade", ("grade 1", "grade 2", "grade 3", "grade 4",
                                           "not reported"),
                                 weights=(0.3, 0.3, 0.2, 0.1, 0.1)),
            synth.SynthAttribute("lymphovascular_invasion",
                                 ("present", "absent", "not reported"),
                                 weights=(0.4, 0.5, 0.1)),
        ),
        synoptic_probability=0.8, rare_phrasing_rate=0.5, seed=seed,
    ))


def stage1_problem(seed, ngram_n=2, flip=0.0):
    """The line matrix and highlight labels train_sla fits stage 1 on, with
    a share ``flip`` of the labels flipped.  The clean labels are separable
    by a tree of depth 1 or 2; flipped ones make trees grow to full depth."""
    docs = family_a_docs(seed)
    lines = [tl for d in docs for tl in tokenize_lines(d.report)]
    X = vectorize(lines, build_vocabulary(lines, ngram_n))
    y = np.concatenate([build_line_labels(d, "grade") for d in docs])
    flipped = np.random.default_rng(seed).random(len(y)) < flip
    return X, np.where(flipped, 1.0 - y, y)


def with_planted_duplicates(X, seed):
    """X with planted columns: copies of some of its columns placed before
    their originals and copies placed after them, several empty columns
    and a column of every row.  Returns the matrix and the indices of its
    planted copies and empty columns, none of which is the first of its
    equals."""
    n, d = X.shape
    rng = np.random.default_rng(seed)
    before, after = rng.choice(d, size=(2, max(1, d // 4)))
    empty = sparse.csr_matrix((n, 1))
    parts = [X[:, before], empty, X, empty, sparse.csr_matrix(np.ones((n, 1))), X[:, after],
             empty, X[:, before]]
    planted = sparse.hstack(parts, format="csr")
    offset = len(before) + 1  # where X starts
    tail = offset + d + 2  # where the copies after X start
    later_copies = (
        [offset + j for j in before]  # X's own columns, now behind their copies
        + list(range(tail, tail + len(after)))
        + [offset + d]  # the second empty column
        + [tail + len(after)]  # the third
        + list(range(tail + len(after) + 1, planted.shape[1]))
    )
    return planted, np.array(later_copies)


def tree_depth(node):
    if "value" in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


def doc_boost_problem(seed):
    """One document row per report and one class against the rest, as
    doc-boost trains."""
    docs = family_a_docs(seed, num_docs=40)
    vocab = build_vocabulary([tl for d in docs for tl in tokenize_lines(d.report)], 1)
    X = sparse.vstack([featurize_document(d.report, vocab) for d in docs], format="csr")
    y = np.array([1.0 if d.annotations["grade"].values == ("grade 2",) else 0.0 for d in docs])
    return X, y


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("max_depth", range(1, 8))
def test_stage1_trees_match_reference_at_every_depth(max_depth):
    X, y = stage1_problem(seed=max_depth, flip=0.2)
    params = GbtParams(max_depth=max_depth, num_rounds=12, seed=1)
    model = assert_matches_reference(X, y, params)
    assert max(tree_depth(tree) for tree in model.to_dict()["trees"]) == max_depth


@pytest.mark.parametrize(
    "subsample, l2_lambda, min_split_loss, max_depth",
    [
        (0.5, 1.0, 0.0, 5),
        (0.75, 0.0, 0.0, 7),
        (0.75, 2.0, 0.05, 3),
        (1.0, 0.0, 0.5, 4),
        (0.5, 0.5, 0.1, 6),
    ],
)
def test_stage1_trees_match_reference_across_params(subsample, l2_lambda, min_split_loss,
                                                   max_depth):
    X, y = stage1_problem(seed=11, ngram_n=3, flip=0.2)
    params = GbtParams(learning_rate=0.3, max_depth=max_depth, subsample=subsample,
                       l2_lambda=l2_lambda, min_split_loss=min_split_loss,
                       num_rounds=10, seed=4)
    assert_matches_reference(X, y, params)


@pytest.mark.parametrize("label", [0.0, 1.0])
@pytest.mark.parametrize("subsample", [0.75, 1.0])
def test_constant_labels_match_reference(label, subsample):
    X, _ = stage1_problem(seed=5)
    y = np.full(X.shape[0], label)
    assert_matches_reference(X, y, GbtParams(subsample=subsample, num_rounds=5))


@pytest.mark.parametrize("subsample", [0.75, 1.0])
def test_doc_boost_trees_match_reference(subsample):
    X, y = doc_boost_problem(seed=2)
    assert_matches_reference(X, y, GbtParams(subsample=subsample, num_rounds=20, seed=3))


def test_clean_stage1_labels_match_reference():
    X, y = stage1_problem(seed=3)
    assert_matches_reference(X, y, GbtParams(num_rounds=30, seed=2))


def test_random_small_problems_match_reference():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n, d = int(rng.integers(2, 120)), int(rng.integers(1, 30))
        X = sparse.csr_matrix((rng.random((n, d)) < rng.uniform(0.05, 0.6)).astype(float))
        y = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(float)
        params = GbtParams(
            learning_rate=float(rng.choice([0.1, 0.3, 1.0])),
            max_depth=int(rng.integers(1, 8)),
            min_split_loss=float(rng.choice([0.0, 0.01, 0.5])),
            subsample=float(rng.choice([0.5, 0.75, 1.0])),
            l2_lambda=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            num_rounds=int(rng.integers(1, 12)),
            seed=int(rng.integers(0, 9)),
        )
        assert_matches_reference(X, y, params)


@pytest.mark.parametrize("max_depth", range(1, 8))
@pytest.mark.parametrize("subsample, min_split_loss", [(1.0, 0.0), (0.5, 0.1)])
def test_planted_duplicate_columns_match_reference(max_depth, subsample, min_split_loss):
    X, y = stage1_problem(seed=20 + max_depth, flip=0.2)
    planted, copies = with_planted_duplicates(X, seed=max_depth)
    assert not np.isin(copies, _distinct_columns(planted.tocsc())).any()
    params = GbtParams(max_depth=max_depth, subsample=subsample, min_split_loss=min_split_loss,
                       num_rounds=8, seed=max_depth)
    model = assert_matches_reference(planted, y, params)
    assert max(tree_depth(tree) for tree in model.to_dict()["trees"]) == max_depth


def test_distinct_columns_keeps_the_first_column_of_each_row_set():
    dense = np.array([
        # 0  1  2  3  4  5  6  7
        [0, 1, 1, 0, 1, 1, 0, 1],
        [0, 1, 0, 0, 1, 0, 0, 1],
        [0, 0, 1, 0, 0, 1, 0, 1],
    ])
    X = sparse.csc_matrix(dense.astype(float))
    # 3 and 6 are empty like 0, 4 holds the rows of 1 and 5 those of 2
    assert _distinct_columns(X).tolist() == [0, 1, 2, 7]
    assert _distinct_columns(sparse.csc_matrix((3, 0))).tolist() == []


@settings(max_examples=200, deadline=None)
@given(num_rows=st.integers(0, 5), masks=st.lists(st.integers(0, 31), max_size=20))
@example(num_rows=3, masks=[0, 0, 0])  # every column empty
@example(num_rows=3, masks=[5, 5, 5, 5])  # every column equal
@example(num_rows=3, masks=[1, 2, 3, 4, 5, 6, 7, 0])  # no two columns equal
def test_distinct_columns_match_a_brute_force_search(num_rows, masks):
    """Column j holds row i where bit i of ``masks[j]`` is set; the kept
    columns are the first of each distinct tuple of rows."""
    dense = np.array([[m >> i & 1 for m in masks] for i in range(num_rows)], dtype=np.float64)
    X_csc = sparse.csr_matrix(dense.reshape(num_rows, len(masks))).tocsc()
    rows = [tuple(np.flatnonzero(X_csc[:, j].toarray())) for j in range(len(masks))]
    expect = [j for j in range(len(masks)) if rows[j] not in rows[:j]]
    assert _distinct_columns(X_csc).tolist() == expect


def _ref_margins(model, X_csr, num_trees):
    """The margins of the first ``num_trees`` trees of the model dict
    ``model``, one tree at a time."""
    X_csc = X_csr.tocsc()
    margins = np.full(X_csr.shape[0], model["base_score"], dtype=np.float64)
    for tree in model["trees"][:num_trees]:
        margins += model["params"]["learning_rate"] * _ref_tree_outputs(tree, X_csc)
    return margins


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 7),
    num_trees=st.integers(0, 8),
    num_rows=st.sampled_from((0, 1, 2, 60)),
    num_features=st.integers(1, 40),  # packed patterns of up to five bytes
    learning_rate=st.sampled_from((0.1, 0.3, 1.0)),
)
def test_node_table_margins_equal_the_reference_walk(
    seed, depth, num_trees, num_rows, num_features, learning_rate
):
    rng = np.random.default_rng(seed)

    def grow(level):
        if level == depth or (level > 0 and rng.random() < 0.3):
            return {"value": float(rng.normal())}
        feature = int(rng.integers(num_features))
        return {"feature": feature, "left": grow(level + 1), "right": grow(level + 1)}

    trees = [
        grow(0) if rng.random() < 0.8 else {"value": float(rng.normal())}
        for _ in range(num_trees)
    ]
    payload = {
        "params": dataclasses.asdict(GbtParams(learning_rate=learning_rate)),
        "base_score": float(rng.normal()),
        "num_features": num_features,
        "trees": trees,
    }
    model = GbtModel.from_dict(payload, num_features)
    assert model.to_dict() == payload
    dense = rng.random((num_rows, num_features)) < rng.uniform(0.0, 0.6)
    if num_rows:
        dense[rng.random(num_rows) < 0.4] = dense[0]  # rows that repeat a pattern
    dense[rng.random(num_rows) < 0.2] = False  # rows with no features
    X = sparse.csr_matrix(dense.astype(np.float64))
    for t in range(num_trees + 1):
        got = predict_gbt_margin(dataclasses.replace(model, trees=model.trees[:t]), X)
        assert got.tobytes() == _ref_margins(payload, X, t).tobytes()


def test_round_tripped_model_scores_the_same_bits():
    X, y = stage1_problem(seed=6, flip=0.2)
    model = train_gbt(X, y, GbtParams(max_depth=6, subsample=0.75, num_rounds=20, seed=5))
    margins = predict_gbt_margin(model, X)
    again = GbtModel.from_dict(json.loads(json.dumps(model.to_dict())), model.num_features)
    assert again.to_dict() == model.to_dict()
    # growth and loading number the nodes alike: each tree breadth first
    for name in ("trees", "feature", "left", "right", "value"):
        assert getattr(again, name).tobytes() == getattr(model, name).tobytes()
    assert predict_gbt_margin(again, X).tobytes() == margins.tobytes()
    assert margins.tobytes() == _ref_margins(model.to_dict(), X, len(model.trees)).tobytes()
