"""Reference routes for KNN answers and votes.

`ref_proba` is the scalar oracle: deliberately dumb and loop-based, one
query at a time, explicit sorting by (distance, training index), explicit
vote table. The production code must match it bit for bit, including
every tie rule; `test_knn` and criterion 9 hold it to that.

`full_matrix_votes` is the full-matrix route. `_votes_for` once took the
whole (b, N) distance block and gathered each query's neighbor distances
from it, after sorting the neighbor indices ascending. The production
route takes the (b, k) neighbor distances gathered once per block, weighs
them by `_weights` and sums them in training-index order, as here, for
one k at a time. `_winners_for`, which `random_search` reads, sums the
same weights in rank order for many k at once and recomputes in index
order every winner that is neither exact nor certified by its rounding
bound. Tests require `_votes_for` to give votes bitwise equal to this
route's, and `_winners_for` the argmax of `_votes_for`'s votes, one
prefix at a time."""

import numpy as np

from artifact.knn import N_CLASSES


def ref_proba(train_x, train_y, query, k, weighting, metric):
    if metric == "euclidean":
        d = np.sqrt(((train_x - query) ** 2).sum(axis=1))
    else:
        d = np.abs(train_x - query).sum(axis=1)
    order = sorted(range(len(train_x)), key=lambda i: (d[i], i))
    # neighbors are chosen by (distance, index) but their votes are
    # accumulated in ascending training index: summation order is part
    # of the bitwise contract
    neigh = sorted(order[:k])
    votes = np.zeros(N_CLASSES)
    if weighting == "distance":
        exact = [i for i in neigh if d[i] == 0.0]
        if exact:
            # an exact feature match decides the vote outright
            for i in exact:
                votes[train_y[i]] += 1.0
            return votes / votes.sum()
        for i in neigh:
            votes[train_y[i]] += 1.0 / d[i]
    else:
        for i in neigh:
            votes[train_y[i]] += 1.0
    return votes / votes.sum()


def ref_predict(train_x, train_y, query, k, weighting, metric):
    return int(np.argmax(ref_proba(train_x, train_y, query, k, weighting, metric)))


def full_matrix_votes(ranked, dist, labels, weighting):
    """Per-class vote mass; accumulation order is ascending training index."""
    sel = np.sort(ranked, axis=1)
    nd = np.take_along_axis(dist, sel, axis=1)
    if weighting == "uniform":
        w = np.ones_like(nd)
    else:
        zero = nd == 0.0
        with np.errstate(divide="ignore"):
            w = 1.0 / nd
        hit = zero.any(axis=1)
        w[hit] = zero[hit].astype(float)
    b, k = sel.shape
    flat = labels[sel] + N_CLASSES * np.arange(b, dtype=np.intp)[:, None]
    return np.bincount(flat.ravel(), weights=w.ravel(),
                       minlength=b * N_CLASSES).reshape(b, N_CLASSES)
