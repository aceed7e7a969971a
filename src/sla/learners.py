"""From-scratch supervised learners used by both pipeline stages.

Gradient-boosted trees (binary, logistic loss)
    Trees are grown greedily on second-order statistics.  With gradient
    sum G and hessian sum H at a node, splitting into (GL, HL) / (GR, HR)
    scores

        gain = 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - G^2/(H+lam)) - gamma

    and a leaf takes the Newton value -G/(H+lam).  Features are binary
    presence indicators, so the only candidate split per feature is
    present vs absent.  The model's output is
    sigmoid(base_score + sum_t learning_rate * leaf_t(x)) where base_score
    is the prior log-odds of the training labels.

L1-regularized logistic regression (one-vs-rest multiclass)
    Each binary subproblem minimizes

        (1/C) * ||w||_1  +  sum_i s_i * log(1 + exp(-y_i * (x_i.w + b)))

    with unpenalized intercept b, solved by accelerated proximal gradient
    (soft-thresholding with FISTA momentum, Beck & Teboulle 2009) with a
    backtracking line search.  Momentum restarts on O'Donoghue & Candes'
    (2015) gradient test, a step that would raise the objective is retried
    without momentum, and the solve stops once a plain proximal step
    improves the objective by less than tol.  Sample weights s_i default to
    the balanced scheme n / (n_classes * n_c).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) is exactly exp(-z) where z >= 0 and exp(z) elsewhere, so this
    # equals the two-sided masked formula bit for bit and never overflows.
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


def _as_csr(X) -> sparse.csr_matrix:
    """The scipy sparse ``X`` as CSR; every learner refuses a dense X."""
    if not sparse.issparse(X):
        raise ValueError(f"X must be a scipy sparse matrix, got {type(X).__name__}")
    return X.tocsr()


# X @ v, X.T @ v and X @ M for a CSR X: the kernel that scipy's ``@`` ends in
# (private to scipy; there is no fallback), on the same arrays and so with the
# same bits, without the dispatch around it, which costs more than the kernel
# at the learners' sizes.  A kernel adds into its output: each call's is fresh.


def _matvec(X: sparse.csr_matrix, v: np.ndarray) -> np.ndarray:
    out = np.zeros(X.shape[0])
    _sparsetools.csr_matvec(*X.shape, X.indptr, X.indices, X.data, v, out)
    return out


def _rmatvec(X: sparse.csr_matrix, v: np.ndarray) -> np.ndarray:
    out = np.zeros(X.shape[1])
    _sparsetools.csc_matvec(*X.shape[::-1], X.indptr, X.indices, X.data, v, out)
    return out


def _matmat(X: sparse.csr_matrix, M: np.ndarray) -> np.ndarray:
    out = np.zeros((X.shape[0], M.shape[1]))
    _sparsetools.csr_matvecs(*X.shape, M.shape[1], X.indptr, X.indices, X.data, M.ravel(),
                             out.ravel())
    return out


def balanced_class_weights(labels: Sequence[Hashable]) -> dict[Hashable, float]:
    """Class weight n_total / (n_classes * n_c) for each observed class."""
    counts: dict[Hashable, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    n = len(labels)
    k = len(counts)
    return {lab: n / (k * c) for lab, c in counts.items()}


# ---------------------------------------------------------------------------
# gradient-boosted trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GbtParams:
    learning_rate: float = 0.1
    max_depth: int = 5
    min_split_loss: float = 0.0
    subsample: float = 1.0
    l2_lambda: float = 1.0
    num_rounds: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_split_loss < 0:
            raise ValueError("min_split_loss must be >= 0")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.num_rounds < 0:
            raise ValueError("num_rounds must be >= 0")


# a forest's node table as it is built: lists of the ``GbtModel`` fields
# trees, feature, left, right and value
NodeTable = tuple[list, list, list, list, list]


def add_node(table: NodeTable, root: bool = False) -> int:
    """Append a leaf of value 0 to ``table``, as a tree's root if ``root``,
    and return its node."""
    trees, feature, left, right, value = table
    i = len(feature)
    feature.append(-1)
    left.append(i)
    right.append(i)
    value.append(0.0)
    if root:
        trees.append(i)
    return i


def node_arrays(table: NodeTable) -> tuple[np.ndarray, ...]:
    """The lists of ``table`` as the arrays ``GbtModel`` holds."""
    return (*(np.array(a, dtype=np.int64) for a in table[:4]), np.array(table[4], dtype=float))


@dataclass
class GbtModel:
    """A boosted forest as one node table over binary presence features.
    Node i splits on ``feature[i]``, with ``left[i]`` its absent child and
    ``right[i]`` its present child, or is a leaf of ``value[i]``: feature
    -1, and its own left and right child, so a walk that reaches it stays.
    ``trees`` holds each tree's root node, and each tree's nodes follow its
    root breadth first, so the first t trees are the model
    ``dataclasses.replace(model, trees=model.trees[:t])``.  The table must
    not change after its first scoring."""

    params: GbtParams
    base_score: float
    trees: np.ndarray
    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    num_features: int

    @cached_property
    def _splits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The features the table splits on, ascending; each model feature's
        index among them, or -1; each node's split as that index (0 at a
        leaf); and the levels of the deepest tree."""
        used = np.unique(self.feature[self.feature >= 0])
        column = np.full(self.num_features, -1)
        column[used] = np.arange(len(used))
        depth, level = 0, self.trees[self.feature[self.trees] >= 0]
        while len(level):
            depth += 1
            level = np.concatenate((self.left[level], self.right[level]))
            level = level[self.feature[level] >= 0]
        return used, column, np.searchsorted(used, self.feature), depth


_MIN_GAIN = 1e-12
_PRIOR_EPS = 1e-6


def _grow_tree(
    XT: sparse.csr_matrix,
    columns: np.ndarray,
    rows: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    params: GbtParams,
    out_of_bag: np.ndarray,
    table: NodeTable,
) -> list[tuple[float, np.ndarray]]:
    """Grow one tree level by level on the given row subset, appending its
    nodes to ``table`` breadth first as it splits them.

    ``XT`` holds the ``columns`` of the binary X as CSR rows, each row's
    sample indices ascending; a split on row b of ``XT`` is recorded as
    feature ``columns[b]``.  Split statistics for every (frontier node,
    feature) pair come from one sparse-dense product per level above the
    deepest, whose nodes all become leaves: M holds each frontier node's
    gradients, hessians and ones on its rows, and XT @ M sums them per
    feature.  X is binary and the product adds each cell in ascending row
    order, so every sum has the bits of a per-node sparse product.  The
    ``out_of_bag`` rows take no part in the statistics but follow every
    split: a node holds its rows with the first ``m`` of them in the bag,
    and a split keeps that order.  The returned leaf partition, as (leaf
    value, rows at that leaf), covers both ``rows`` and ``out_of_bag``.
    """
    n_total = XT.shape[1]
    lam = params.l2_lambda
    gamma = params.min_split_loss
    _, feature, left, right, value = table
    leaves: list[tuple[float, np.ndarray]] = []
    # each open node is a leaf of the table until it takes its value or splits
    frontier: list[tuple[int, np.ndarray, int]] = [
        (add_node(table, root=True), np.concatenate((rows, out_of_bag)), len(rows))
    ]
    col_mark = np.zeros(n_total, dtype=bool)
    indptr, col_indices = XT.indptr, XT.indices

    for depth in range(params.max_depth + 1):
        if not frontier:
            break
        F = len(frontier)
        Gt = np.array([grad[nrows[:m]].sum() for _, nrows, m in frontier])
        Ht = np.array([hess[nrows[:m]].sum() for _, nrows, m in frontier])
        best_gain = np.full(F, -np.inf)  # the deepest level's nodes are leaves
        if depth < params.max_depth:
            sizes = np.array([m for _, _, m in frontier])
            all_rows = np.concatenate([nrows[:m] for _, nrows, m in frontier])
            owner = np.repeat(np.arange(F), sizes)
            M = np.zeros((n_total, 3 * F))
            M[all_rows, owner] = grad[all_rows]
            M[all_rows, F + owner] = hess[all_rows]
            M[all_rows, 2 * F + owner] = 1.0
            # each statistic as its own C-contiguous (F x features) block
            G1, H1, C1 = np.ascontiguousarray(_matmat(XT, M).T).reshape(3, F, len(columns))
            del M  # freed before the gain's (F x features) temporaries

            G0 = Gt[:, None] - G1
            H0 = Ht[:, None] - H1
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = 0.5 * (
                    G1 * G1 / np.maximum(H1 + lam, _MIN_GAIN)
                    + G0 * G0 / np.maximum(H0 + lam, _MIN_GAIN)
                    - (Gt * Gt / np.maximum(Ht + lam, _MIN_GAIN))[:, None]
                ) - gamma
            invalid = (C1 < 1) | (C1 > (sizes[:, None] - 1))
            gain[invalid] = -np.inf
            best_j = np.argmax(gain, axis=1)
            best_gain = gain[np.arange(F), best_j]

        next_frontier: list[tuple[int, np.ndarray, int]] = []
        for i, (node, nrows, m) in enumerate(frontier):
            if m < 2 or not best_gain[i] > _MIN_GAIN:
                denom = Ht[i] + lam
                value[node] = 0.0 if denom <= _MIN_GAIN else float(-Gt[i] / denom)
                leaves.append((value[node], nrows))
                continue
            j = best_j[i]
            col_rows = col_indices[indptr[j] : indptr[j + 1]]
            col_mark[col_rows] = True
            present = col_mark[nrows]
            col_mark[col_rows] = False
            m_present = int(np.count_nonzero(present[:m]))
            feature[node], left[node], right[node] = (
                int(columns[j]), add_node(table), add_node(table)
            )
            next_frontier.append((left[node], nrows[~present], m - m_present))
            next_frontier.append((right[node], nrows[present], m_present))
        frontier = next_frontier

    return leaves


def _distinct_columns(X_csc: sparse.csc_matrix) -> np.ndarray:
    """The indices, ascending, of the columns of ``X_csc`` that equal no
    earlier column, row index for row index as stored: a dict keyed by the
    bytes of each column's stored row indices keeps the first column of
    each key."""
    rows, cuts = X_csc.indices.tobytes(), (X_csc.indptr * X_csc.indices.itemsize).tolist()
    first: dict[bytes, int] = {}
    for j in range(X_csc.shape[1]):
        first.setdefault(rows[cuts[j] : cuts[j + 1]], j)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def _binary_csr(X) -> sparse.csr_matrix:
    """X as CSR with every cell stored once, refusing any stored value other
    than 1.0: a cell stored twice holds the sum of its entries, and a
    stored 0.0 would count as a present feature."""
    X_csr = _as_csr(X)
    if not X_csr.has_canonical_format:
        X_csr = X_csr.copy()
        X_csr.sum_duplicates()
    if not np.all(X_csr.data == 1.0):
        raise ValueError("X must be binary: every stored value must be 1.0")
    return X_csr


def train_gbt(X, y, params: GbtParams | None = None) -> GbtModel:
    """Fit a boosted-tree binary classifier on binary (0/1) presence features."""
    params = params or GbtParams()
    X_csr = _as_csr(X)
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.ndim != 1 or X_csr.shape[0] != len(y_arr):
        raise ValueError("X and y must have matching first dimension")
    if not set(np.unique(y_arr)) <= {0.0, 1.0}:
        raise ValueError("labels must be binary 0/1")
    X_csc = _binary_csr(X_csr).tocsc()
    n = X_csr.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")

    prior = min(max(float(y_arr.mean()), _PRIOR_EPS), 1.0 - _PRIOR_EPS)
    base = math.log(prior / (1.0 - prior))
    margins = np.full(n, base, dtype=np.float64)
    rng = np.random.default_rng(params.seed)
    all_rows = np.arange(n)
    subsample_size = max(1, int(round(params.subsample * n)))

    # identical columns score alike, and argmax keeps the earliest of them;
    # tocsc() stores each column's rows sorted, so equal row sets match
    columns = _distinct_columns(X_csc)
    XT = X_csc.T[columns]
    table: NodeTable = [], [], [], [], []
    for _ in range(params.num_rounds):
        rows = all_rows
        if params.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=subsample_size, replace=False))
        bagged = np.zeros(n, dtype=bool)
        bagged[rows] = True
        out_of_bag = np.flatnonzero(~bagged)
        p = _sigmoid(margins)
        grad = p - y_arr
        hess = p * (1.0 - p)
        leaves = _grow_tree(XT, columns, rows, grad, hess, params, out_of_bag, table)
        for value, leaf_rows in leaves:
            margins[leaf_rows] += params.learning_rate * value

    return GbtModel(params, base, *node_arrays(table), X_csr.shape[1])


def predict_gbt_margin(model: GbtModel, X) -> np.ndarray:
    """Raw margins (pre-sigmoid) for a batch.  X must be binary with the
    model's feature count."""
    X_csr = _binary_csr(X)
    row = np.repeat(np.arange(X_csr.shape[0]), np.diff(X_csr.indptr))
    return _forest_margins(model, row, X_csr.indices, X_csr.shape)


def predict_gbt_pairs(model: GbtModel, rows, columns, shape: tuple[int, int]) -> np.ndarray:
    """``predict_gbt_batch`` of ``textproc.to_csr(rows, columns, shape)``,
    without building that matrix."""
    return _sigmoid(_forest_margins(model, rows, columns, shape))


def _forest_margins(model: GbtModel, rows, columns, shape) -> np.ndarray:
    """The margins of the rows of a binary X of ``shape`` given as the
    (row, column) pairs of its ones, which may repeat, in any order.  Rows
    that hold the same pattern of the features the forest splits on share
    one margin, so each distinct pattern walks every tree at once, a level
    at a time, and its leaf steps are summed in tree order.  A pattern's
    margin depends on no other pattern, so the order in which patterns are
    found is free."""
    n, width = shape
    if width != model.num_features:
        raise ValueError(f"X has {width} features, the model {model.num_features}")
    used, column_of, split, depth = model._splits
    # a forest without a split still gets one (absent) feature, so that every
    # row packs into at least one byte; its walk reads none
    n_used = max(len(used), 1)
    present = np.zeros((n, n_used), dtype=bool)
    column = column_of[columns]
    kept = column >= 0
    present[rows[kept], column[kept]] = True
    packed = np.packbits(present, axis=1)
    _, first, inverse = np.unique(
        packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True
    )

    node = np.tile(model.trees, (len(first), 1))
    at = (first * n_used)[:, None]  # where each pattern's row starts in ``present``
    flat = present.ravel()
    for _ in range(depth):
        go_right = flat[at + split[node]]
        node = np.where(go_right, model.right[node], model.left[node])
    step = model.params.learning_rate * model.value[node]
    terms = np.column_stack((np.full(len(first), model.base_score), step))
    return np.cumsum(terms, axis=1)[inverse, -1]


def predict_gbt_batch(model: GbtModel, X) -> np.ndarray:
    """Positive-class probabilities for a batch of feature vectors."""
    return _sigmoid(predict_gbt_margin(model, X))


# ---------------------------------------------------------------------------
# L1 logistic regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinParams:
    l1_strength: float = 1.0  # C; the penalty applied is (1/C) * ||w||_1
    balanced: bool = True
    max_iter: int = 2000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.l1_strength <= 0:
            raise ValueError("l1_strength must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


@dataclass
class LinearModel:
    classes: tuple
    weights: np.ndarray  # (n_classes, n_features)
    intercepts: np.ndarray  # (n_classes,)

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]


def logloss_value_grad(
    w: np.ndarray,
    b: float,
    X: sparse.spmatrix,
    y_pm: np.ndarray,
    sample_weights: np.ndarray,
) -> tuple[float, np.ndarray, float]:
    """Weighted logistic loss (the smooth part of the objective) and its
    gradient in (w, b), for the sparse X.  y_pm is +/-1.  Exposed for
    verification: it runs the solver's products, loss and gradient."""
    X, w = _as_csr(X), np.asarray(w, dtype=np.float64)
    if w.shape != (X.shape[1],):  # the kernel reads w without a check
        raise ValueError(f"w must hold {X.shape[1]} weights, got shape {w.shape}")
    neg_y = -y_pm
    u = neg_y * (_matvec(X, w) + b)
    grad_w, grad_b = _smooth_grad(X, u, sample_weights * neg_y)
    return _smooth_value(u, sample_weights), grad_w, grad_b


def _smooth_value(u: np.ndarray, sample_weights: np.ndarray) -> float:
    """sum_i s_i * log(1 + exp(u_i)), with u = -y * z at margins z."""
    return float(np.dot(sample_weights, np.logaddexp(0.0, u)))


def _smooth_grad(
    X: sparse.csr_matrix, u: np.ndarray, sw_neg_y: np.ndarray
) -> tuple[np.ndarray, float]:
    """Gradient of ``_smooth_value`` in (w, b) at u = -y * (X.w + b), given
    sw_neg_y = s * (-y)."""
    coef = sw_neg_y * _sigmoid(u)
    return _rmatvec(X, coef), float(coef.sum())


def _soft_threshold(v: np.ndarray, thresh: float) -> tuple[np.ndarray, float]:
    """sign(v) * max(|v| - thresh, 0), and its L1 norm summed before the sign."""
    # Not v - clip(v, -t, t): that gives +0.0 where this gives -0.0 (negative
    # v with |v| <= t), and the signed zeros reach the model bundle's JSON.
    out = np.abs(v)
    out -= thresh
    np.maximum(out, 0.0, out=out)
    norm = float(out.sum())
    out *= np.sign(v)
    return out, norm


_NOT_CONVERGED = (
    "L1 logistic regression stopped before converging (max_iter reached or"
    " line-search step underflow); its weights may be inaccurate"
)


def _fit_l1_binary(
    X: sparse.csr_matrix,
    y_pm: np.ndarray,
    sample_weights: np.ndarray,
    lam: float,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, float]:
    """Accelerated proximal gradient (FISTA) with backtracking.  The
    intercept is unpenalized.

    Each step is taken from the extrapolated point y = x + beta * (x - x_prev),
    with Beck & Teboulle's momentum t' = (1 + sqrt(1 + 4 t^2)) / 2 and
    beta = (t - 1) / t'; the intercept and the margins z = X.w + b are
    extrapolated along with w.  The backtracking test is the quadratic upper
    bound on the smooth part at y, and the step grows 1.25x after each
    accepted step.  Momentum resets (t = 1, so the next step is plain) on
    O'Donoghue & Candes' gradient restart test (y - x_new).(x_new - x) > 0.

    Monotone safeguard: a momentum step that raises the objective is
    discarded and retried as a plain step from the current iterate, so the
    objective never increases.  Iteration stops only when a plain step
    improves the objective by less than tol (or fails to descend); a small
    improvement after a momentum step forces a plain step instead.  Stopping
    at ``max_iter`` or on a step-size underflow issues a RuntimeWarning and
    returns the current iterate.  Each point's u = -y * z serves both its
    loss and its gradient, and an accepted point keeps its u for the next
    plain step.

    A column of X with no stored entry has gradient +0.0 and weight +0.0
    throughout; dropping it changes no w, b or z, as X @ dw adds each row's
    entries in stored order and X.T @ coef each column's on its own.  The
    d-length sums (the bound's dots, ||w||_1, the restart dot) drop only
    zeros but may group the rest otherwise, so the solve can change only
    where one of their comparisons lands within rounding of its threshold.
    """
    n, d = X.shape
    neg_y = -y_pm
    sw_neg_y = sample_weights * neg_y
    w = w_prev = np.zeros(d, dtype=np.float64)
    b = b_prev = 0.0
    z = z_prev = np.zeros(n, dtype=np.float64)
    u = neg_y * z

    f = _smooth_value(u, sample_weights)
    obj = f  # ||w||_1 is zero at the start
    step = 1.0
    t = 1.0
    for _ in range(max_iter):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        plain = beta == 0.0
        if plain:
            w_y, b_y, z_y, u_y, f_y = w, b, z, u, f
        else:
            w_y = w + beta * (w - w_prev)
            b_y = b + beta * (b - b_prev)
            z_y = z + beta * (z - z_prev)
            u_y = neg_y * z_y
            f_y = _smooth_value(u_y, sample_weights)
        grad_w, grad_b = _smooth_grad(X, u_y, sw_neg_y)

        while True:
            w_new, norm_new = _soft_threshold(w_y - step * grad_w, step * lam)
            b_new = b_y - step * grad_b
            dw = w_new - w_y
            db = b_new - b_y
            z_new = z_y + _matvec(X, dw) + db
            u_new = neg_y * z_new
            f_new = _smooth_value(u_new, sample_weights)
            bound = (
                f_y
                + float(np.dot(grad_w, dw))
                + grad_b * db
                + (float(np.dot(dw, dw)) + db * db) / (2.0 * step)
            )
            if f_new <= bound + 1e-12:
                break
            step *= 0.5
            if step < 1e-18:
                break
        if step < 1e-18:  # the line search underflowed (accepted steps never do)
            break

        obj_new = f_new + lam * norm_new
        delta = obj - obj_new
        if delta < 0.0:  # the monotone safeguard
            if plain:
                return w, b
            t = 1.0
            continue
        restart = float(np.dot(dw, w_new - w)) + db * (b_new - b) < 0.0
        w_prev, b_prev, z_prev = w, b, z
        w, b, z, u, f, obj = w_new, b_new, z_new, u_new, f_new, obj_new
        step *= 1.25
        if delta < tol and plain:
            return w, b
        t = 1.0 if restart or delta < tol else t_next
    warnings.warn(_NOT_CONVERGED, RuntimeWarning)
    return w, b


def train_l1_logreg(
    X,
    y: Sequence[Hashable],
    params: LinParams | None = None,
) -> LinearModel:
    """One-vs-rest L1 logistic regression over arbitrary hashable labels.

    Classes are sorted; prediction ties resolve to the earliest class.
    """
    params = params or LinParams()
    X_csr = _as_csr(X)
    labels = list(y)
    if X_csr.shape[0] != len(labels):
        raise ValueError("X and y must have matching first dimension")
    if not labels:
        raise ValueError("cannot train on an empty dataset")

    classes = tuple(sorted(set(labels)))
    per_class = balanced_class_weights(labels) if params.balanced else {}
    sw = np.array([per_class.get(lab, 1.0) for lab in labels], dtype=np.float64)

    n, d = X_csr.shape
    weights = np.zeros((len(classes), d), dtype=np.float64)
    intercepts = np.zeros(len(classes), dtype=np.float64)
    if len(classes) == 1:
        return LinearModel(classes=classes, weights=weights, intercepts=intercepts)

    held = np.flatnonzero(np.bincount(X_csr.indices, minlength=d))  # see _fit_l1_binary
    col = np.zeros(d, dtype=X_csr.indices.dtype)
    col[held] = np.arange(len(held))
    X_held = sparse.csr_matrix((X_csr.data, col[X_csr.indices], X_csr.indptr), (n, len(held)))
    lam = 1.0 / params.l1_strength
    label_arr = np.array([classes.index(lab) for lab in labels])
    for k in range(len(classes)):
        y_pm = np.where(label_arr == k, 1.0, -1.0)
        w, intercepts[k] = _fit_l1_binary(X_held, y_pm, sw, lam, params.max_iter, params.tol)
        weights[k, held] = w
    return LinearModel(classes=classes, weights=weights, intercepts=intercepts)


def label_scores(classes: Sequence[Hashable], scores: np.ndarray) -> list[tuple[Hashable, dict]]:
    """Each row of the (rows x classes) ``scores`` as its label, the class
    of the highest score with ties to the earliest class, and its score per
    class."""
    return [
        (classes[int(np.argmax(row))], {c: float(s) for c, s in zip(classes, row)})
        for row in scores
    ]


def predict_logreg(model: LinearModel, X: sparse.spmatrix) -> list[tuple[Hashable, dict]]:
    """``label_scores`` of the per-class sigmoid scores of each row of the
    sparse ``X``.  A row's margins gather the weights of its own columns,
    one row at a time."""
    X = _as_csr(X)
    margins = np.empty((X.shape[0], len(model.classes)))
    for i in range(X.shape[0]):
        row = slice(X.indptr[i], X.indptr[i + 1])
        margins[i] = model.weights[:, X.indices[row]].dot(X.data[row]) + model.intercepts
    return label_scores(model.classes, _sigmoid(margins))
