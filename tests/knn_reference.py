"""Full-matrix reference route for KNN votes.

`_votes_for` once took the whole (b, N) distance block and gathered each
query's neighbor distances from it, after sorting the neighbor indices
ascending. The production route takes the (b, k) neighbor distances
gathered once per block. Its uniform tables come from one cumulative
count along the rank axis; its distance-weighted values are summed in
training-index order, as here; `_winners_for`, which `random_search`
reads, sums in rank order and recomputes in index order every winner
its rounding bound does not certify. Tests require `_votes_for` to give
votes bitwise equal to this route's, and `_winners_for` the argmax of
`_votes_for`'s votes.
"""

import numpy as np

from artifact.knn import N_CLASSES


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
