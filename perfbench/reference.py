"""Plain references the benchmark checks the program's outputs against.

They share no batching with the program: the KNN reference answers one
query at a time by an explicit (distance, training index) sort, and the
feature reference solves each steady state with a dense linear solve
instead of the program's SVD null space.
"""

from __future__ import annotations

import numpy as np

N_CLASSES = 4


def knn_proba(train_x, train_y, query, k, weighting, metric):
    """Class probabilities for one query.

    Neighbours are the first k training rows ordered by (distance, index);
    their votes are summed in ascending training index; under distance
    weighting, rows at distance exactly 0 outvote every other row.
    """
    diff = train_x - query
    if metric == "euclidean":
        d = np.sqrt((diff * diff).sum(axis=1))
    else:
        d = np.abs(diff).sum(axis=1)
    order = sorted(range(len(train_x)), key=lambda i: (d[i], i))
    neigh = sorted(order[:k])
    votes = np.zeros(N_CLASSES)
    if weighting == "distance":
        exact = [i for i in neigh if d[i] == 0.0]
        if exact:
            for i in exact:
                votes[train_y[i]] += 1.0
            return votes / votes.sum()
        for i in neigh:
            votes[train_y[i]] += 1.0 / d[i]
    else:
        for i in neigh:
            votes[train_y[i]] += 1.0
    return votes / votes.sum()


def model_proba(model, query):
    """`knn_proba` for a loaded model, in the model's feature space."""
    q = (np.asarray(query, dtype=float) - model.shift) / model.scale
    return knn_proba(model.features, model.labels, q, model.k, model.weighting, model.metric)


def exchange_features(engine, params, variant="consistent"):
    """(c1, c2): net-flux and activity ratios against the zero-coherence baseline.

    The steady state solves L(0) rho = 0 with the dependent first row of
    L(0) replaced by the trace vector, so the populations sum to 1.
    """
    def moments(p):
        gen = engine.build_generator(p, variant)
        a = np.array(gen.l0)
        a[0] = engine.TRACE_VECTOR
        rhs = np.zeros(5)
        rhs[0] = 1.0
        rho = np.linalg.solve(a, rhs)
        emit = gen.emit_rate * rho[2]
        absorb = gen.absorb_rate * rho[3]
        return np.array([emit - absorb, emit + absorb])

    return moments(params) / moments(params.zero_coherence())
