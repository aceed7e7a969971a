"""The learners' sparse products call scipy's private kernels directly.
They must give the bytes of scipy's ``@`` on every matrix the learners
can meet, and each call must start from zeros: the kernels add into their
output, so a reused buffer would carry one call's sums into the next."""

import numpy as np
import pytest
from scipy import sparse

from sla import learners
from sla.learners import GbtParams, LinParams, train_gbt, train_l1_logreg


def _matrix(rng, n, d, index_dtype, data_dtype):
    """A random n x d CSR with empty rows and empty columns, each row's
    entries stored in reverse column order, with the given dtypes."""
    dense = rng.random((n, d)) < 0.3
    dense[rng.choice(n, size=max(1, n // 4), replace=False)] = False
    dense[:, rng.choice(d, size=max(1, d // 4), replace=False)] = False
    values = np.where(dense, rng.integers(1, 4, size=(n, d)), 0)
    rows = [np.flatnonzero(r)[::-1] for r in dense]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    indices = np.concatenate(rows).astype(index_dtype)
    data = np.concatenate([values[i, r] for i, r in enumerate(rows)]).astype(data_dtype)
    X = sparse.csr_matrix((data, indices, indptr), shape=(n, d))
    X.indices, X.indptr = indices, indptr.astype(index_dtype)  # the constructor may narrow them
    assert X.indices.dtype == index_dtype and X.data.dtype == data_dtype
    assert not X.has_sorted_indices
    return X


def _products(X, v, u, M):
    return {
        "matvec": (learners._matvec(X, v), X @ v),
        "rmatvec": (learners._rmatvec(X, u), X.T @ u),
        "matmat": (learners._matmat(X, M), X @ M),
    }


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("data_dtype", [np.float64, np.float32, np.int64, bool])
def test_each_kernel_helper_gives_the_bytes_of_scipys_product(index_dtype, data_dtype):
    rng = np.random.default_rng(5)
    X = _matrix(rng, 23, 31, index_dtype, data_dtype)
    empty_rows = np.diff(X.indptr) == 0
    empty_columns = np.bincount(X.indices, minlength=X.shape[1]) == 0
    assert empty_rows.any() and empty_columns.any()
    v, u = rng.normal(size=31), rng.normal(size=23)
    other = _matrix(rng, 31, 23, index_dtype, data_dtype)
    for M in (rng.normal(size=(31, 6)), np.asfortranarray(rng.normal(size=(31, 6)))):
        # the other matrix first, then X twice: no call may carry into another
        _products(other, u, v, rng.normal(size=(23, 6)))
        for _ in range(2):
            inputs = v.tobytes(), u.tobytes(), M.tobytes()
            for name, (got, want) in _products(X, v, u, M).items():
                assert got.dtype == np.float64 == want.dtype, name
                assert got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
            assert (v.tobytes(), u.tobytes(), M.tobytes()) == inputs
    assert not np.any(learners._matvec(X, v)[empty_rows])
    assert not np.any(learners._rmatvec(X, u)[empty_columns])


def _problem(seed, n, d, n_classes):
    rng = np.random.default_rng(seed)
    X = sparse.csr_matrix((rng.random((n, d)) < 0.3).astype(np.float64))
    labels = rng.integers(0, n_classes, size=n)
    return X, labels


def test_fits_do_not_depend_on_what_ran_before():
    """Problem A fitted before and after problem B gives the same bytes,
    with either learner.  B has A's shape, so that a buffer kept per shape
    would be reused."""
    (Xa, ya), (Xb, yb) = _problem(1, 40, 25, 3), _problem(2, 40, 25, 2)

    def logreg(X, y):
        model = train_l1_logreg(X, [f"c{k}" for k in y], LinParams(l1_strength=10.0))
        return model.weights.tobytes(), model.intercepts.tobytes()

    def gbt(X, y):
        model = train_gbt(X, (y == 0).astype(float),
                          GbtParams(num_rounds=8, max_depth=3, subsample=0.8))
        return (model.base_score, *(a.tobytes() for a in (
            model.trees, model.feature, model.left, model.right, model.value)))

    for fit in (logreg, gbt):
        first = fit(Xa, ya)
        fit(Xb, yb)
        assert fit(Xa, ya) == first, fit.__name__
