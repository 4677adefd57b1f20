import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from artifact import knn, workers
from artifact.errors import DomainError, ParseError, StateError, ValidationError
from artifact.knn import (
    DISTANCE_METRICS,
    FEATURE_SUBSETS,
    N_CLASSES,
    WEIGHTINGS,
    Hyperparams,
    HyperSpace,
    KnnModel,
    fit,
    fold_splits,
    kfold_accuracy,
    model_from_json,
    model_to_json,
    predict_batch,
    predict_proba_batch,
    random_search,
    single_shot_accuracy,
)
from knn_reference import full_matrix_votes
from model_doc import decode, put, reencode


# --- brute-force reference ---------------------------------------------------
#
# Deliberately dumb and loop-based: one query at a time, explicit sorting
# by (distance, training index), explicit vote table. The production code
# must match this bit for bit, including every tie rule.

def _ref_proba(train_x, train_y, query, k, weighting, metric):
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


def _ref_predict(train_x, train_y, query, k, weighting, metric):
    return int(np.argmax(_ref_proba(train_x, train_y, query, k, weighting, metric)))


def _random_problem(rng, n, q, dups=True):
    train_x = rng.uniform(0.7, 1.1, size=(n, 4)).round(2)  # rounding forces ties
    train_y = rng.integers(0, N_CLASSES, size=n)
    query = rng.uniform(0.7, 1.1, size=(q, 4)).round(2)
    if dups:
        # plant exact matches and duplicated training rows
        query[0] = train_x[0]
        train_x[1] = train_x[0]
        train_y[1] = (train_y[0] + 1) % N_CLASSES
    return train_x, train_y, query


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
@pytest.mark.parametrize("weighting", ["uniform", "distance"])
def test_predictions_match_reference(metric, weighting, rng):
    train_x, train_y, query = _random_problem(rng, 90, 40)
    for k in (1, 3, 7, 90):
        model = fit(train_x, train_y, k=k, weighting=weighting, metric=metric)
        got = predict_batch(model, query)
        want = [_ref_predict(train_x, train_y, q, k, weighting, metric) for q in query]
        assert got.tolist() == want
        proba = predict_proba_batch(model, query)
        ref = np.array([_ref_proba(train_x, train_y, q, k, weighting, metric) for q in query])
        np.testing.assert_array_equal(proba, ref)


def test_probabilities_sum_to_one(rng):
    train_x, train_y, query = _random_problem(rng, 60, 30)
    model = fit(train_x, train_y, k=5, weighting="distance", metric="manhattan")
    proba = predict_proba_batch(model, query)
    assert np.max(np.abs(proba.sum(axis=1) - 1.0)) < 1e-12


def test_hand_checked_distance_votes():
    # neighbors at distances 1, 2, 4 with labels 0, 1, 0 and k=3:
    # votes (1 + 1/4, 1/2, 0, 0) -> proba (5/7, 2/7, 0, 0)
    train_x = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0], [4.0, 0, 0, 0], [9.0, 0, 0, 0]])
    train_y = np.array([0, 1, 0, 2])
    model = fit(train_x, train_y, k=3, weighting="distance", metric="euclidean")
    proba = predict_proba_batch(model, np.zeros((1, 4)))
    np.testing.assert_allclose(proba, [[1.25 / 1.75, 0.5 / 1.75, 0.0, 0.0]], rtol=0, atol=1e-15)
    assert predict_batch(model, np.zeros((1, 4))).tolist() == [0]


def test_uniform_votes_are_fractions():
    train_x = np.diag([1.0, 2.0, 3.0, 4.0])
    train_y = np.array([0, 1, 2, 3])
    model = fit(train_x, train_y, k=4, weighting="uniform", metric="euclidean")
    np.testing.assert_array_equal(predict_proba_batch(model, np.zeros((1, 4))),
                                  [[0.25, 0.25, 0.25, 0.25]])
    # four-way tie resolves to the lowest class label
    assert predict_batch(model, np.zeros((1, 4))).tolist() == [0]


def test_exact_match_wins_outright_under_distance_weighting():
    train_x = np.array([[1.0, 1, 1, 1], [1.0, 1, 1, 1], [1.01, 1, 1, 1], [2.0, 2, 2, 2]])
    train_y = np.array([2, 2, 0, 0])
    q = np.array([[1.0, 1.0, 1.0, 1.0]])
    dist = fit(train_x, train_y, k=3, weighting="distance", metric="euclidean")
    np.testing.assert_array_equal(predict_proba_batch(dist, q), [[0.0, 0.0, 1.0, 0.0]])
    # under uniform weighting the same query is an ordinary 2-vs-1 vote
    unif = fit(train_x, train_y, k=3, weighting="uniform", metric="euclidean")
    assert predict_batch(unif, q).tolist() == [2]


def test_neighbor_ties_break_by_training_index():
    # eight equidistant points, k=4: the four lowest training indices vote
    train_x = np.ones((8, 4))
    train_y = np.array([3, 3, 3, 3, 1, 1, 1, 1])
    model = fit(train_x, train_y, k=4, weighting="uniform", metric="manhattan")
    proba = predict_proba_batch(model, np.full((1, 4), 2.0))
    np.testing.assert_array_equal(proba, [[0.0, 0.0, 0.0, 1.0]])


@pytest.mark.parametrize("k", [1, 2, 29, 30])
def test_ranked_neighbors_match_lexsort(k, rng):
    # integer-valued distances, so ties are everywhere: rows of 3 and of
    # 30 values, whose tie pool at the k-th distance mostly reaches past
    # rank k, and rows built so that the k nearest are every point at or
    # below the k-th distance (ties inside the first k only); at k = n
    # every row is of that kind
    n = 30
    inside = np.hstack([rng.integers(0, 3, (200, k)), 3 + rng.integers(0, 3, (200, n - k))])
    dist = np.vstack([rng.integers(0, 3, (200, n)), rng.integers(0, n, (200, n)),
                      rng.permuted(inside, axis=1)]).astype(float)
    thr = np.sort(dist, axis=1)[:, k - 1:k]
    pools = np.sum(dist <= thr, axis=1)
    assert (k == n or np.any(pools[:400] > k)) and np.all(pools[400:] == k)
    want = np.array([np.lexsort((np.arange(n), row))[:k] for row in dist])
    assert knn._ranked_neighbors(dist, k).tobytes() == want.tobytes()


def test_scale_invariance_is_bitwise(rng):
    train_x, train_y, query = _random_problem(rng, 120, 50, dups=False)
    a = fit(train_x, train_y, k=7, weighting="uniform", metric="euclidean")
    b = fit(train_x * 2.0, train_y, k=7, weighting="uniform", metric="euclidean")
    np.testing.assert_array_equal(predict_batch(a, query), predict_batch(b, query * 2.0))


def test_feature_subsets():
    # mappings drop statistics from the top: f1 keeps all four ratio
    # features, f2 the first three, f3 the first two
    assert FEATURE_SUBSETS["f1"] == (0, 1, 2, 3)
    assert FEATURE_SUBSETS["f2"] == (0, 1, 2)
    assert FEATURE_SUBSETS["f3"] == (0, 1)


def test_feature_subset_projection(rng):
    train_x, train_y, query = _random_problem(rng, 80, 30, dups=False)
    sub = fit(train_x, train_y, k=5, feature_subset=(0, 1))
    full = fit(train_x[:, :2], train_y, k=5)
    np.testing.assert_array_equal(
        predict_batch(sub, query[:, :2]), predict_batch(full, query[:, :2])
    )
    assert sub.feature_subset == (0, 1)
    # queries must arrive already projected to the subset width
    with pytest.raises(DomainError):
        predict_batch(sub, query)


def test_fit_validation(rng):
    x = rng.uniform(size=(10, 4))
    y = rng.integers(0, 4, size=10)
    with pytest.raises(ValidationError):
        fit(x, y, k=0)
    with pytest.raises(ValidationError):
        fit(x, y, k=11)
    with pytest.raises(ValidationError):
        fit(x, y, weighting="gaussian")
    with pytest.raises(ValidationError):
        fit(x, y, metric="cosine")
    with pytest.raises(ValidationError):
        fit(x, np.full(10, 7), k=3)  # label outside the 4 classes
    with pytest.raises(ValidationError):
        fit(x, y, feature_subset=(0, 9))
    with pytest.raises(StateError):
        fit(np.zeros((0, 4)), np.zeros(0, dtype=int), k=1)
    with pytest.raises(DomainError, match=re.escape("features must be an (n, w) array of real numbers")):
        fit(x[:, 0], y)
    with pytest.raises(ValidationError, match="feature subset must not be empty"):
        fit(x, y, feature_subset=())
    # one integer rule (`errors.as_int`): no truncation, no bool, numpy
    # integers stored as the Python int that `model_to_json` writes
    for k in (2.7, True):
        with pytest.raises(DomainError, match="k must be an integer"):
            fit(x, y, k=k)
    assert type(fit(x, y, k=np.int64(3)).k) is int


def test_zscore_affine_invariance(rng):
    train_x, train_y, query = _random_problem(rng, 100, 40, dups=False)
    shift = np.array([10.0, -3.0, 0.5, 100.0])
    scale = np.array([3.0, 0.25, 7.0, 1.0])
    a = fit(train_x, train_y, k=9, zscore=True)
    b = fit(train_x * scale + shift, train_y, k=9, zscore=True)
    np.testing.assert_array_equal(
        predict_batch(a, query), predict_batch(b, query * scale + shift)
    )


def test_single_shot_accuracy():
    train_x = np.diag([1.0, 2.0, 3.0, 4.0])
    train_y = np.array([0, 1, 2, 3])
    model = fit(train_x, train_y, k=1)
    # k=1 reproduces the training labels; disagree on one of four rows
    assert single_shot_accuracy(model, train_x, np.array([0, 1, 2, 2])) == 75.0
    assert single_shot_accuracy(model, train_x, train_y) == 100.0
    # the refusals are the confusion matrix's
    with pytest.raises(DomainError, match=re.escape("true classes must be an (4,) array of integers")):
        single_shot_accuracy(model, train_x, train_y[:3])
    with pytest.raises(DomainError, match="zero samples"):
        single_shot_accuracy(model, np.zeros((0, 4)), np.zeros(0, dtype=int))
    # a label outside the classes is refused, not scored as a miss
    with pytest.raises(DomainError, match=re.escape("true classes must be an (4,) array of integers in [0, 4), "
                                                    "got array([0, 1, 2, 7])")):
        single_shot_accuracy(model, train_x, np.array([0, 1, 2, 7]))


# --- distance kernel and neighbor pairs ----------------------------------------

def _scalar_distances(train_x, query, metric):
    """One pair at a time, columns summed left to right from 0.0."""
    out = np.empty((len(query), len(train_x)))
    for a, q in enumerate(query.tolist()):
        for i, t in enumerate(train_x.tolist()):
            acc = 0.0
            for qj, tj in zip(q, t):
                diff = qj - tj
                acc += diff * diff if metric == "euclidean" else abs(diff)
            out[a, i] = math.sqrt(acc) if metric == "euclidean" else acc
    return out


def _distances(train_x, q, metric, copies=None):
    """`_distance_block` into a fresh buffer; no column copies another by default."""
    copies = tuple(range(train_x.shape[1])) if copies is None else copies
    return knn._distance_block(train_x, q, metric, copies, np.empty((len(q), len(train_x))))


@pytest.mark.parametrize("tile", [None, 1, 200])
@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_distance_block_matches_scalar_loop(metric, tile, rng, monkeypatch):
    if tile is not None:  # one query row per tile, or two with a short last tile
        monkeypatch.setattr(knn, "_TILE_ELEMS", tile)
    train_x, _, query = _random_problem(rng, 90, 41)  # exact-zero and duplicate rows
    train_x[2] = query[1] = 0.0
    for q in (query, query[:1], query[1:2]):
        got = _distances(train_x, q, metric)
        want = _scalar_distances(train_x, q, metric)
        assert got.shape == (len(q), len(train_x))
        assert got.tobytes() == want.tobytes()
    assert _distances(train_x, query, metric)[0, 0] == 0.0


def _copied_problem(rng, layout, n, q):
    """Training and query rows whose columns repeat as `layout` says:
    column j holds a copy of column layout[j]."""
    train_x, train_y, query = _random_problem(rng, n, q)
    return train_x[:, layout], train_y, query[:, layout]


@pytest.mark.parametrize("tile", [None, 1, 200])
@pytest.mark.parametrize("metric", DISTANCE_METRICS)
@pytest.mark.parametrize("layout", [(0, 1, 0, 1), (0, 1, 0)], ids=["f1", "f2"])
def test_copy_aware_distances_match_scalar_loop(layout, metric, tile, rng, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(knn, "_TILE_ELEMS", tile)
    train_x, _, query = _copied_problem(rng, layout, 90, 41)
    copies = fit(train_x, np.zeros(90, dtype=int)).copies
    assert copies == layout
    off = query.copy()
    off[:, 2] = np.nextafter(off[:, 0], np.inf)  # one ulp off the sheet
    mixed = np.vstack([query[:20], off[20:]])
    for q in (query, off, mixed, query[:1], off[:1]):
        got = _distances(train_x, q, metric, copies)
        assert got.tobytes() == _scalar_distances(train_x, q, metric).tobytes()


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_copy_aware_blocks_match_reference(metric, rng, monkeypatch):
    # several blocks, some of whose query columns copy the model's and
    # some not, through the whole neighbor loop; one worker, whose one
    # buffer slot holds the whole 16-row block, runs them in order
    monkeypatch.setattr(workers, "count", lambda: 1)
    monkeypatch.setattr(knn, "_BLOCK_ELEMS", 1)  # 16-row blocks
    monkeypatch.setattr(knn, "_TILE_ELEMS", 200)
    train_x, train_y, query = _copied_problem(rng, (0, 1, 0, 1), 90, 64)
    query[:, [0, 2]] = np.linspace(0.7, 1.1, 64)[:, None]  # c1 order is index order
    query[16:32, 3] = np.nextafter(query[16:32, 1], -np.inf)
    query[40, 2] += 0.01
    model = fit(train_x, train_y, k=7, weighting="distance", metric=metric)
    assert model.copies == (0, 1, 0, 1)
    assert knn._strip_margins(90, 7) == [90]  # too few rows for a narrow strip
    blocks = []
    kernel = knn._distance_block

    def recorded(train, q, *args):
        bits = q.view(np.int64)
        blocks.append((len(q), *(np.array_equal(bits[:, j], bits[:, j - 2]) for j in (2, 3))))
        return kernel(train, q, *args)

    monkeypatch.setattr(knn, "_distance_block", recorded)
    assert not knn._neighbors(model, query)[2].any()  # the one round answers every query
    # four 16-row blocks; each reuses the terms of the columns its queries copy, and only those
    assert blocks == [(16, True, True), (16, True, False), (16, False, True), (16, True, True)]
    proba = predict_proba_batch(model, query)
    for i, q in enumerate(query):
        want = _ref_proba(train_x, train_y, q, 7, "distance", metric)
        assert proba[i].tobytes() == want.tobytes(), i


def test_copy_map_is_bitwise():
    x = np.array([[1.0, 0.0, 1.0, -0.0], [2.0, 3.0, 2.0, 3.0]])
    assert fit(x, [0, 1], k=1).copies == (0, 1, 0, 3)  # -0.0 is not a copy of 0.0
    assert fit(x, [0, 1], k=1, feature_subset=(2, 0)).copies == (0, 0)
    model = fit(x, [0, 1], k=1, feature_subset=(0, 1, 2))
    assert model_from_json(model_to_json(model)).copies == (0, 1, 0)


@pytest.mark.parametrize("n_train", [2_800, 35_000, 50_000])
def test_block_arrays_stay_under_the_allocator_ceiling(n_train):
    # (b, N) float64 distances and intp ranking indices of one block:
    # glibc returns arrays of 32 MiB or more to the kernel when they are
    # freed, so every block would fault its pages in again
    rows = knn._block_rows(n_train)
    assert rows >= 16
    assert rows * n_train * 8 <= 8 * 2**20 < 32 * 2**20


def test_ranking_partitions_a_tile_of_rows_at_a_time(rng, monkeypatch):
    # argpartition's (rows, N) index array is the ranking's largest
    # transient, so it is made a tile of rows at a time; the ranking is
    # still (distance, index) order, ties included
    dist = rng.integers(0, 50, (300, 1000)).astype(float)
    sizes = []
    argpartition = np.argpartition
    monkeypatch.setattr(np, "argpartition", lambda a, *args, **kw: sizes.append(a.size) or argpartition(a, *args, **kw))
    for k in (1, 7, 1000):
        got = knn._ranked_neighbors(dist, k)
        assert got.tolist() == np.argsort(dist, axis=1, kind="stable")[:, :k].tolist()
    assert len(sizes) > 3 and max(sizes) <= knn._TILE_ELEMS


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_votes_from_pairs_match_full_matrix(metric, weighting, rng):
    train_x, train_y, query = _random_problem(rng, 90, 60)
    train_x[5] = query[3]  # a second row sitting on a training point
    # a block whose every query sits on a training point (one on the
    # duplicated pair): under either weighting every row is exact
    on_points = train_x[rng.choice(90, 20, replace=False)]
    on_points[0] = train_x[0]
    straddled = 0
    for block in (query, on_points):
        dist = _distances(train_x, block, metric)
        assert np.sum(dist == 0.0) >= 2
        for k in (1, 4, 9, 30, 90):
            ranked = knn._ranked_neighbors(dist, k)
            kth = np.take_along_axis(dist, ranked[:, -1:], axis=1)
            straddled += int(np.sum((dist <= kth).sum(axis=1) > k))
            nd = np.take_along_axis(dist, ranked, axis=1)
            for j in range(1, k + 1):  # the prefixes random_search scores
                want = full_matrix_votes(ranked[:, :j], dist, train_y, weighting)
                one = knn._votes_for(ranked[:, :j], nd[:, :j], train_y, weighting)
                assert one.tobytes() == want.tobytes(), (k, j)
    assert np.all(knn._weights(_distances(train_x, on_points, metric), weighting)[1])
    assert straddled > 0  # rows whose ties straddle the k-th rank were exercised


def _table(ranked, nd, labels, weighting, ks):
    """(len(ks), b, N_CLASSES): `_votes_for`'s votes of each prefix k in
    `ks` of the ranked neighbors, one prefix at a time."""
    return np.stack([knn._votes_for(ranked[:, :k], nd[:, :k], labels, weighting) for k in ks])


def _winner_problem(rng, case):
    """(train_x, train_y, query) for `_winners_for`: random rows, rows
    rounded to 0.1 (many exact ties of distance-weight sums), or random
    rows with every third query sitting on a training point."""
    train_x = rng.uniform(0.7, 1.1, size=(90, 4))
    train_y = rng.integers(0, N_CLASSES, size=90)
    query = rng.uniform(0.7, 1.1, size=(60, 4))
    if case == "rounded":
        train_x, query = train_x.round(1), query.round(1)
    elif case == "on-point":
        query[::3] = train_x[:20]
    return train_x, train_y, query


@pytest.mark.parametrize("case", ["random", "rounded", "on-point"])
@pytest.mark.parametrize("metric", DISTANCE_METRICS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_winners_match_index_order_argmax(case, metric, weighting, rng):
    train_x, train_y, query = _winner_problem(rng, case)
    dist = _distances(train_x, query, metric)
    k = 40
    ranked = knn._ranked_neighbors(dist, k)
    nd = np.take_along_axis(dist, ranked, axis=1)
    if case == "on-point":
        assert np.sum(nd[:, 0] == 0.0) == 20
    prefixes = range(1, k + 1)
    win, fallbacks = knn._winners_for(ranked, nd, train_y, weighting, prefixes)
    want = np.argmax(_table(ranked, nd, train_y, weighting, prefixes), axis=2)
    assert win.tobytes() == want.tobytes()
    # only distance weights summed in rank order can be uncertain, and
    # exact ties of rounded rows are
    assert (fallbacks > 0) == (weighting == "distance" and case == "rounded"), fallbacks
    some = (k, 1, 7)  # any subset, in any order
    picked, _ = knn._winners_for(ranked, nd, train_y, weighting, some)
    assert picked.tobytes() == want[[j - 1 for j in some]].tobytes()


def test_winners_fall_back_on_an_exact_tie():
    # classes 1 and 0 each carry distance weight 1.0: 1/1 against 1/2 + 1/2
    ranked = np.array([[2, 0, 1]])
    nd = np.array([[1.0, 2.0, 2.0]])
    labels = np.array([0, 0, 1])
    win, fallbacks = knn._winners_for(ranked, nd, labels, "distance", (1, 2, 3))
    assert win[:, 0].tolist() == [1, 1, 0]  # the tie goes to the lower class
    assert fallbacks == 1


@pytest.mark.parametrize("near,far,fallbacks", [
    (1e-310, 1.0, None),  # 1/d overflows to inf: refused on either route
    (1.5e-308, 1.0, 2),   # 1/d above 2**1022: past the certified range
    (2e307, 4e307, 2),    # 1/d near underflow: the check's product could underflow
    (1e307, 4e307, 0),    # top sum 1e-307 lies inside the certified range
    (1.0, 1.0 + 3 * 2.0**-52, 1),  # sums 6u apart at k = 2: inside (4k + 2)u, outside ku
])
def test_winners_fall_back_outside_the_certified_range(near, far, fallbacks):
    ranked = np.array([[1, 0]])
    nd = np.array([[near, far]])
    labels = np.array([1, 0])
    if fallbacks is None:
        for route in (knn._winners_for, _table):
            with pytest.raises(DomainError, match="overflow"):
                route(ranked, nd, labels, "distance", (1, 2))
        return
    win, got = knn._winners_for(ranked, nd, labels, "distance", (1, 2))
    want = np.argmax(_table(ranked, nd, labels, "distance", (1, 2)), axis=2)
    assert win.tolist() == want.tolist() == [[0], [0]]
    assert got == fallbacks


def test_winners_fall_back_where_rank_order_misleads():
    # Class 0's weights 1/39, 1/49, 1/54 sum one ulp higher in rank order
    # than in training-index order, where they stand reversed; class 1's
    # one weight equals the rank-order sum. Rank order ties the two
    # classes (class 0 wins), index order puts class 1 ahead.
    w = 1.0 / np.array([39.0, 49.0, 54.0])
    by_rank = (w[0] + w[1]) + w[2]
    assert (w[2] + w[1]) + w[0] < by_rank and 1.0 / (1.0 / by_rank) == by_rank
    ranked = np.array([[0, 3, 2, 1]])
    nd = np.array([[1.0 / by_rank, 39.0, 49.0, 54.0]])
    labels = np.array([1, 0, 0, 0])
    votes = knn._votes_for(ranked, nd, labels, "distance")[0]
    assert votes[1] > votes[0]
    win, fallbacks = knn._winners_for(ranked, nd, labels, "distance", (1, 2, 3, 4))
    assert win[:, 0].tolist() == [1, 1, 1, 1]
    assert fallbacks == 1


def test_results_do_not_depend_on_block_or_tile_size(rng, monkeypatch):
    train_x, train_y, query = _random_problem(rng, 120, 70)
    models = [fit(train_x, train_y, k=9, weighting=w, metric=m)
              for w in WEIGHTINGS for m in DISTANCE_METRICS]
    want = [predict_proba_batch(m, query) for m in models]
    # every k of both weightings and metrics on tie-heavy rows, whose
    # distance-weighted sums tie often enough to need recomputing
    space = HyperSpace(k_range=tuple(range(1, 31)))
    search = random_search(train_x, train_y, space, n_iter=len(space.combos()))
    assert search.vote_fallbacks > 0
    monkeypatch.setattr(knn, "_BLOCK_ELEMS", 1)  # 16-row blocks
    monkeypatch.setattr(knn, "_TILE_ELEMS", 250)  # 2-row tiles
    for m, w in zip(models, want):
        assert predict_proba_batch(m, query).tobytes() == w.tobytes()
    again = random_search(train_x, train_y, space, n_iter=len(space.combos()))
    assert (again.trials, again.vote_fallbacks) == (search.trials, search.vote_fallbacks)


@pytest.mark.parametrize("train,query", [
    ([0.0, 1.0, 2.0], 1e-310),     # the weight 1/d of a subnormal distance overflows
    ([0.0, 2e-308, 1.0], 1e-308),  # two finite weights whose total overflows
])
def test_distance_weights_past_the_float_range_are_refused(train, query):
    model = fit(np.array(train)[:, None], [0, 1, 1], k=2, weighting="distance",
                metric="manhattan")
    for predict in (predict_proba_batch, predict_batch):
        with pytest.raises(DomainError, match="overflow"):
            predict(model, [[query]])


def test_search_and_kfold_refuse_overflowing_weights_alike():
    # the fold holding the row at 0.0 finds the row at 1e-310 nearest
    x = np.array([[0.0], [1e-310], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1, 2])
    with pytest.raises(DomainError, match="overflow"):
        kfold_accuracy(x, y, k=1, weighting="distance", metric="manhattan")
    space = HyperSpace(k_range=(1,), weightings=("distance",), metrics=("manhattan",))
    with pytest.raises(DomainError, match="overflow"):
        random_search(x, y, space, n_iter=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_non_finite_queries_are_refused(bad, weighting, rng):
    train_x, train_y, query = _random_problem(rng, 90, 10)
    model = fit(train_x, train_y, k=5, weighting=weighting)
    query[3, 1] = bad
    # a finite query the model's scale carries past the float range
    tiny = KnnModel(features=train_x, labels=train_y, k=5, weighting=weighting,
                    metric="euclidean", feature_subset=(0, 1, 2, 3), shift=np.zeros(4),
                    scale=np.array([1.0, 1e-300, 1.0, 1.0]))
    for m, q in ((model, query), (tiny, np.where(np.isfinite(query), query, 1e10))):
        for predict in (predict_batch, predict_proba_batch):
            with pytest.raises(DomainError, match="finite"):
                predict(m, q)


@pytest.mark.parametrize("bad", [[[1.0, 2.0], [3.0]], "ab", [["a", "b"]], [["0.9", "0.1"]],
                                 [[True, False]], [[1j, 2.0]], None, [1.0, 2.0], [[1.0, 2.0, 3.0]],
                                 np.zeros((2, 2, 2))],
                         ids=["ragged", "text", "text-cells", "numeric-text", "bools", "complex", "none",
                              "1-D", "too-wide", "3-D"])
def test_malformed_queries_are_refused(bad):
    # anything that is no (n, 2) float array, with the width and the value named
    model = fit(np.eye(2), [0, 1], k=1)
    brief = " ".join(repr(bad).split())
    for predict in (predict_batch, predict_proba_batch):
        with pytest.raises(DomainError, match=f"^{re.escape(f'queries must be an (n, 2) array of real numbers, got {brief:.80}')}$") as err:
            predict(model, bad)
        assert err.value.exit_code == 2


@pytest.mark.parametrize("features", [np.array(0.5), np.zeros(3)], ids=["0-d", "1-D"])
def test_model_refuses_features_that_are_not_a_matrix(features):
    # the shape is checked before anything takes the features' length
    brief = " ".join(repr(features).split())
    with pytest.raises(DomainError, match=f"^{re.escape(f'features must be an (n, 1) array of real numbers in (-inf, inf), got {brief}')}$"):
        KnnModel(features=features, labels=np.zeros(1, dtype=np.intp), k=1, weighting="uniform",
                 metric="euclidean", feature_subset=(0,), shift=np.zeros(1), scale=np.ones(1))


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_overflowing_features_are_refused(metric):
    # one term squared (euclidean) or four summed (manhattan) past the range
    big = 1e200 if metric == "euclidean" else 0.5e308
    x = np.zeros((6, 4))
    x[::2, 0] = x[::2, 2] = big
    x[1::2, [1, 3]] = -big
    with pytest.raises(DomainError, match="overflow"):
        fit(x, np.arange(6) % N_CLASSES, k=3, metric=metric)
    # zscored, the column's variance overflows: the model would be scaled by inf
    with pytest.raises(ValidationError, match=re.escape("scale must be an (4,) array of real numbers in (-inf, inf)")):
        fit(x * 1e100 if metric == "euclidean" else x, np.arange(6) % N_CLASSES, k=3,
            metric=metric, zscore=True)
    # the terms of the training rows' extremes fit, with room for the margin
    x *= 0.05 if metric == "manhattan" else 1e-50
    assert fit(x, np.arange(6) % N_CLASSES, k=3, metric=metric).copies == (0, 1, 0, 1)


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_overflowing_queries_are_refused(metric, weighting):
    # `far` is within the float range of every row, but not with room for
    # twice its distance (squared, for euclidean); `near` is
    if metric == "euclidean":
        c1, far, near = np.array([1.0, 2.0, -1.0, 3.0]) * 1e150, -1e154, -1e153
    else:
        c1, far, near = np.array([1.0, 2.0, -1.0, 3.0]) * 1e307, -1.2e308, -5e307
    model = fit(np.column_stack([c1, np.ones(4)]), [0, 1, 2, 3], k=1,
                weighting=weighting, metric=metric)
    for predict in (predict_batch, predict_proba_batch):
        for bad in ([[far, 1.0]], [[-far, 1.0]], [[0.0, 1.0], [1.0, far]]):
            with pytest.raises(DomainError, match="overflow"):
                predict(model, bad)
    # a query that fits finds its nearest row, the lowest c1
    assert predict_batch(model, [[near, 1.0]]).tolist() == [2]
    assert predict_proba_batch(model, [[near, 1.0]]).tolist() == [[0.0, 0.0, 1.0, 0.0]]


# --- sorted-strip neighbor search ----------------------------------------------

def _sheet_problem(rng, n, q):
    """Tie-heavy rows on a sheet, c3 == c1 and c4 == c2, with c1 crowding
    toward 1 as in the dataset, duplicated training rows, and queries of
    four kinds: training rows, near the sheet's rows, far from them in
    c2, and off the sheet (c3 != c1 or c4 != c2)."""
    c1 = (1.0 - rng.exponential(0.05, n)).round(3)
    c2 = (c1 + rng.uniform(0.0, 0.1, n)).round(3)
    train_x = np.column_stack([c1, c2, c1, c2])
    train_x[1::9] = train_x[:len(train_x[1::9])]
    train_y = rng.integers(0, N_CLASSES, n)
    base = train_x[rng.integers(0, n, q)]
    kind = np.arange(q) % 4
    shift = rng.uniform(-1.0, 1.0, (q, 4)).round(3)
    query = base.copy()
    query[kind == 1] += (0.01 * shift[kind == 1][:, [0, 1, 0, 1]]).round(3)
    query[kind == 2] += (0.3 * np.abs(shift[kind == 2][:, [2, 1, 2, 1]])).round(3) * [0, 1, 0, 1]
    query[kind == 3] += (0.03 * shift[kind == 3]).round(3)
    return train_x, train_y, query


@pytest.mark.parametrize("zscore", [False, True], ids=["raw", "zscored"])
@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_strip_rounds_equal_brute_force(metric, zscore, rng, monkeypatch):
    train_x, train_y, query = _sheet_problem(rng, 2400, 800)
    model = fit(train_x, train_y, k=3, weighting="distance", metric=metric, zscore=zscore)
    assert model.copies == (0, 1, 0, 1)
    assert knn._strip_margins(2400, 3) == [43, 172, 2400]
    ranked, nd, route = knn._neighbors(model, query)
    proba = predict_proba_batch(model, query)
    # every round answers some queries, the last one at brute force
    assert set(route) == {0, 1, 2}
    monkeypatch.setattr(knn, "_strip_margins", lambda n, k: [n])  # brute force alone
    want_ranked, want_nd, want_route = knn._neighbors(model, query)
    assert not want_route.any()
    assert ranked.tobytes() == want_ranked.tobytes()
    assert nd.tobytes() == want_nd.tobytes()
    assert proba.tobytes() == predict_proba_batch(model, query).tobytes()
    for i in np.flatnonzero(np.arange(len(query)) % 40 == 0):
        want = _ref_proba(model.features, train_y, (query[i] - model.shift) / model.scale,
                          3, "distance", metric)
        assert proba[i].tobytes() == want.tobytes(), i


@pytest.mark.parametrize("n", [90, 2400])
@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_every_query_is_answered_once(n, metric, rng):
    # 90 rows: the full-width round alone; 2,400: two narrow rounds first.
    # A quarter of the queries sit off the sheet, their copies disagreeing.
    train_x, train_y, query = _sheet_problem(rng, n, 800)
    assert (query[:, 0] != query[:, 2]).sum() > 100
    model = fit(train_x, train_y, k=3, metric=metric)
    rounds = len(knn._strip_margins(n, 3))
    assert rounds == (1 if n == 90 else 3)
    ranked, nd, route = knn._neighbors(model, query)
    assert ranked.shape == nd.shape == (len(query), 3) and route.shape == (len(query),)
    assert set(route.tolist()) <= set(range(rounds))  # no row left unfilled (-1)
    # every row holds its own query's neighbors, nearest first
    terms = model.features[ranked] - query[:, None, :]
    want = np.sqrt((terms * terms).sum(axis=2)) if metric == "euclidean" else np.abs(terms).sum(axis=2)
    np.testing.assert_allclose(nd, want, rtol=1e-12)
    assert np.all(np.diff(nd, axis=1) >= 0.0)


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["left", "right"])
def test_strip_bound_reads_the_nearest_row_outside(side, rng):
    # 48 rows, k=1: one round, strips of 4-row bins. The query's strip
    # (rows 16-27 of the c1 order; mirrored, rows 20-31) is all 5 away in
    # c2; the nearest row, 1 away, is the first row outside it, and the
    # next one out is 10 away in c1. A bound read one row too far out
    # certifies a strip row.
    c1 = np.concatenate([np.arange(14.0), [90.0, 99.0], 99.5 + 0.1 * np.arange(4),
                         100.0 + 0.1 * np.arange(8), 200.0 + np.arange(20.0)])
    c2 = np.full(48, 5.0)
    c2[15] = 0.0
    perm = rng.permutation(48)
    train_x = side * np.column_stack([c1, c2])[perm]
    model = fit(train_x, np.arange(48) % N_CLASSES, k=1)
    assert knn._strip_margins(48, 1) == [4, 48]
    query = np.tile(side * np.array([100.0, 0.0]), (500, 1))  # enough to pay for a strip
    ranked, nd, route = knn._neighbors(model, query)
    assert np.all(ranked == np.flatnonzero(perm == 15)) and np.all(nd == 1.0)
    assert np.all(route == 1)  # the strip could not certify: brute force


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_strip_bound_is_at_most_every_row_outside(metric, rng):
    # The contract of `_strip_bound`: per query, no more than the summed
    # terms of the c1 columns (here c1 and its copy c3) of any training
    # row outside the strip [lo, hi) of the c1 order. Off the sheet, c1
    # and c3 of a query can lie on either side of a strip edge, where
    # only the gap clamped at 0 keeps the bound below the rows.
    n, q = 40, 1600
    c1 = np.sort(rng.uniform(0.0, 1.0, n))
    edges = np.concatenate([[-np.inf], c1, [np.inf]])
    query = rng.uniform(-0.2, 1.2, (q, 4))
    lo = rng.integers(0, n, q)
    hi = rng.integers(lo + 1, n + 1)
    bound = knn._strip_bound(query, [0, 2], edges, lo, hi, metric)
    gaps = query[:, [0, 2], None] - c1
    terms = (gaps * gaps if metric == "euclidean" else np.abs(gaps)).sum(axis=1)
    outside = (np.arange(n) < lo[:, None]) | (np.arange(n) >= hi[:, None])
    assert np.all(bound <= np.where(outside, terms, np.inf).min(axis=1))


def _recorded_blocks(monkeypatch) -> list:
    """The distance blocks `_ranked_neighbors` is handed from now on, as copies."""
    blocks = []
    ranker = knn._ranked_neighbors

    def recorded(dist, k):
        blocks.append(dist.copy())
        return ranker(dist, k)

    monkeypatch.setattr(knn, "_ranked_neighbors", recorded)
    return blocks


def _in_a_pool_job(call):
    """call()'s result, called in a job of the pool, where `workers.run` runs inline."""
    got = []
    workers.run([lambda: got.append((workers.nested(), call())), lambda: None])
    assert got[0][0]
    return got[0][1]


@pytest.mark.parametrize("where", ["1 worker", "2 workers", "a pool job"])
@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_runs_of_strips_equal_brute_force(metric, where, rng, monkeypatch):
    # 2,400 rows at k = 3 (12 m <= N): the first round's strips are 129
    # rows wide, and those at either end of the c1 order narrower, so a
    # run that ranks an end strip with full ones pads the end strip's
    # rows with +inf, which must never rank
    train_x, train_y, query = _sheet_problem(rng, 2400, 800)
    model = fit(train_x, train_y, k=3, metric=metric)
    assert knn._strip_margins(2400, 3) == [43, 172, 2400]
    monkeypatch.setattr(workers, "count", lambda: 1 if where == "1 worker" else 2)
    blocks = _recorded_blocks(monkeypatch)
    call = lambda: knn._neighbors(model, query)
    ranked, nd, route = _in_a_pool_job(call) if where == "a pool job" else call()
    padded = [np.isinf(block).any(axis=1) for block in blocks]
    assert any(rows.any() and not rows.all() for rows in padded)
    assert route.min() == 0 and route.max() == 2  # every query routed, by every round
    monkeypatch.setattr(knn, "_strip_margins", lambda n, k: [n])  # brute force alone
    want_ranked, want_nd, want_route = call()
    assert not want_route.any()
    assert ranked.tobytes() == want_ranked.tobytes()
    assert nd.tobytes() == want_nd.tobytes()


@pytest.mark.parametrize("where, parts", [("1 worker", 1), ("2 workers", 2), ("a pool job", 1)])
def test_a_round_of_one_block_is_cut_across_the_workers(where, parts, rng, monkeypatch):
    # 700 queries on training rows answer in the narrow round; 60 more,
    # whose c3 lies 0.05 off their c1, are left to the full-width round.
    # They fit one block, but their 72,000 distances pay for one block per
    # worker, unless the call is itself a job of the pool
    train_x, train_y, _ = _sheet_problem(rng, 1200, 0)
    query = np.vstack([train_x[:700], train_x[:60] + [0.0, 0.0, 0.05, 0.0]])
    model = fit(train_x, train_y, k=3)
    assert knn._strip_margins(1200, 3) == [31, 1200]
    monkeypatch.setattr(workers, "count", lambda: 1 if where == "1 worker" else 2)
    blocks = _recorded_blocks(monkeypatch)
    call = lambda: knn._neighbors(model, query)
    got = _in_a_pool_job(call) if where == "a pool job" else call()
    full = [len(block) for block in blocks if block.shape[1] == 1200]
    assert len(full) == parts and max(full) - min(full) <= 1
    assert np.count_nonzero(got[2] == 1) == sum(full) >= 60
    monkeypatch.setattr(workers, "count", lambda: 1)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in call()]


def test_a_round_has_no_more_blocks_than_queries(rng, monkeypatch):
    # one query, off the sheet so that only the full-width round can
    # answer it, against 20,000 rows: its distances alone would pay for a
    # block per worker, but a block holds at least one query
    train_x, train_y, _ = _sheet_problem(rng, 20_000, 0)
    model = fit(train_x, train_y, k=3)
    monkeypatch.setattr(workers, "count", lambda: 2)
    blocks = _recorded_blocks(monkeypatch)
    route = knn._neighbors(model, train_x[:1] + [0.0, 0.0, 0.5, 0.0])[2]
    assert route.tolist() == [len(knn._strip_margins(20_000, 3)) - 1]
    assert [block.shape for block in blocks] == [(1, 20_000)]


def test_strip_blocks_stay_under_the_allocator_ceiling(rng, monkeypatch):
    train_x, train_y, query = _sheet_problem(rng, 35_000, 4_000)
    model = fit(train_x, train_y, k=50, metric="manhattan")
    shapes = []
    kernel = knn._distance_block

    def recorded(*args):
        shapes.append(args[-1].shape)
        return kernel(*args)

    monkeypatch.setattr(knn, "_distance_block", recorded)
    ranked = []
    ranker = knn._ranked_neighbors
    monkeypatch.setattr(knn, "_ranked_neighbors", lambda dist, k: ranked.append(dist.shape) or ranker(dist, k))
    route = knn._neighbors(model, query)[2]
    assert set(route) == {0, 1, 2}  # strips of both narrow rounds and the full-width one
    # each strip's distances, and the tall block of a run of them
    assert max(b * n for b, n in shapes) * 8 <= 8 * 2**20
    assert max(b * n for b, n in ranked) * 8 <= 8 * 2**20


# --- cross validation ---------------------------------------------------------

def test_fold_partition_properties():
    splits = fold_splits(23, 5, seed=9)
    assert len(splits) == 5
    held = [h for _, h in splits]
    # the held-out folds partition the rows
    flat = np.concatenate(held)
    assert sorted(flat.tolist()) == list(range(23))
    sizes = sorted(len(f) for f in held)
    assert sizes == [4, 4, 5, 5, 5]
    # training rows are the other folds, concatenated in fold order
    for i, (rest, _) in enumerate(splits):
        np.testing.assert_array_equal(rest, np.concatenate(held[:i] + held[i + 1:]))
    again = fold_splits(23, 5, seed=9)
    for (ra, ha), (rb, hb) in zip(splits, again):
        np.testing.assert_array_equal(ra, rb)
        np.testing.assert_array_equal(ha, hb)
    assert not np.array_equal(fold_splits(23, 5, seed=10)[0][1], held[0])
    with pytest.raises(DomainError):
        fold_splits(4, 5, seed=0)
    with pytest.raises(DomainError):
        fold_splits(10, 1, seed=0)


def test_kfold_perfect_on_constant_labels(rng):
    x = rng.uniform(size=(40, 4))
    y = np.full(40, 2)
    assert kfold_accuracy(x, y, k=3) == 100.0


def test_kfold_matches_manual_evaluation(rng):
    x = rng.uniform(size=(30, 2)).round(1)
    y = rng.integers(0, 4, size=30)
    accs = []
    for rest, f in fold_splits(30, 5, seed=4):
        model = fit(x[rest], y[rest], k=3, weighting="distance", metric="manhattan")
        accs.append(single_shot_accuracy(model, x[f], y[f]))
    want = float(np.mean(accs))
    got = kfold_accuracy(x, y, k=3, weighting="distance", metric="manhattan", seed=4)
    assert got == want


# --- hyperparameter search ------------------------------------------------------

def test_hyperspace_enumeration():
    space = HyperSpace(k_range=(1, 2, 3))
    combos = space.combos()
    assert len(combos) == 12
    # k rises slowest, weighting before metric: canonical preference order
    assert combos[0] == Hyperparams(1, "uniform", "euclidean")
    assert combos[1] == Hyperparams(1, "uniform", "manhattan")
    assert combos[2] == Hyperparams(1, "distance", "euclidean")
    assert combos[-1] == Hyperparams(3, "distance", "manhattan")
    assert HyperSpace().k_range == tuple(range(1, 51))  # package default
    for field in ("k_range", "weightings", "metrics"):
        with pytest.raises(ValidationError, match=re.escape(f"{field} must not repeat an entry or be empty, got ()")):
            HyperSpace(**{field: ()})
    with pytest.raises(ValidationError):
        HyperSpace(k_range=(0, 1))
    with pytest.raises(ValidationError):
        HyperSpace(k_range=(True, 2))
    numpy_ks = HyperSpace(k_range=(np.int64(2), np.uint8(3))).k_range
    assert numpy_ks == (2, 3) and all(type(k) is int for k in numpy_ks)


@pytest.mark.parametrize("field,entries", [
    ("k_range", (3, 3)),
    ("k_range", (1, 2, 1)),
    ("weightings", ("uniform", "distance", "uniform")),
    ("metrics", ("manhattan", "manhattan")),
])
def test_hyperspace_rejects_duplicate_entries(field, entries):
    # a repeated entry would make one candidate two trials of the search
    with pytest.raises(ValidationError, match=f"{field} must not repeat"):
        HyperSpace(**{field: entries})


def test_search_exhaustive_equals_grid(rng):
    # The second problem's rounded 4-feature rows tie often, so the shared
    # neighbor tables must reproduce each standalone run's tie resolution
    # for every prefix k.
    # The third searches one metric, so the other's tables are never built.
    for rows, width, k_max, seed, zscore, metrics in ((50, 3, 6, 13, False, DISTANCE_METRICS),
                                                      (240, 4, 15, 5, True, DISTANCE_METRICS),
                                                      (60, 2, 9, 2, False, ("manhattan",))):
        x = rng.uniform(size=(rows, width)).round(1)
        y = rng.integers(0, 4, size=rows)
        space = HyperSpace(k_range=tuple(range(1, k_max + 1)), metrics=metrics)
        n = len(space.combos())
        res = random_search(x, y, space, n_iter=n, seed=seed, zscore=zscore)
        assert len(res.trials) == n
        # rounded features tie distance-weight sums exactly, and those
        # winners are recomputed in training-index order
        assert res.vote_fallbacks > 0
        # every candidate's score must equal the standalone k-fold run
        for hp, score in res.trials:
            accs = [single_shot_accuracy(fit(x[rest], y[rest], k=hp.k, weighting=hp.weighting,
                                             metric=hp.metric, zscore=zscore), x[held], y[held])
                    for rest, held in fold_splits(rows, 5, seed)]
            assert score == float(np.mean(accs)), hp
        best_score = max(s for _, s in res.trials)
        winners = [hp for hp, s in res.trials if s == best_score]
        assert res.best == winners[0]  # first in preference order wins ties
        assert res.best_score == best_score


def test_search_tie_break_on_constant_labels(rng):
    # every combo scores 100, so the canonical order must pick the
    # smallest k with uniform/euclidean
    x = rng.uniform(size=(30, 2))
    y = np.zeros(30, dtype=int)
    res = random_search(x, y, HyperSpace(k_range=(2, 3, 4, 5)), n_iter=16, seed=0)
    assert res.best == Hyperparams(2, "uniform", "euclidean")
    assert res.best_score == 100.0


def test_search_clips_oversized_budget(rng):
    x = rng.uniform(size=(25, 2))
    y = rng.integers(0, 4, size=25)
    space = HyperSpace(k_range=(1, 2))  # 8 combos
    with pytest.warns(UserWarning):
        res = random_search(x, y, space, n_iter=100, seed=1)
    assert len(res.trials) == 8


def test_search_subsample_is_deterministic(rng):
    x = rng.uniform(size=(40, 2)).round(1)
    y = rng.integers(0, 4, size=40)
    space = HyperSpace(k_range=tuple(range(1, 21)))
    a = random_search(x, y, space, n_iter=10, seed=3)
    b = random_search(x, y, space, n_iter=10, seed=3)
    assert a == b
    assert len(a.trials) == 10


def test_search_drops_infeasible_k(rng):
    # fold training sets hold 8 samples; candidates with k > 8 are skipped
    x = rng.uniform(size=(10, 2))
    y = rng.integers(0, 4, size=10)
    space = HyperSpace(k_range=(9, 10))
    with pytest.raises(DomainError):
        random_search(x, y, space, n_iter=8, seed=0)


# --- serialization ---------------------------------------------------------------

def test_model_round_trip(rng):
    train_x, train_y, query = _random_problem(rng, 70, 25)
    model = fit(train_x, train_y, k=6, weighting="distance", metric="manhattan",
                feature_subset=(0, 2), zscore=True)
    text = model_to_json(model)
    back = model_from_json(text)
    proj = query[:, [0, 2]]
    np.testing.assert_array_equal(
        predict_proba_batch(model, proj), predict_proba_batch(back, proj)
    )
    assert back.k == 6 and back.weighting == "distance"
    assert json.loads(text)["schema"] == "knn-model/2"


# -0.0, subnormals, the smallest normal and +-1e300 besides arbitrary floats
_EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])


@settings(max_examples=80, deadline=None)
@given(mapping=st.sampled_from(sorted(FEATURE_SUBSETS)), zscore=st.booleans(),
       weighting=st.sampled_from(WEIGHTINGS), data=st.data())
def test_model_file_round_trip_is_bitwise(mapping, zscore, weighting, data):
    n = data.draw(st.integers(1, 12))
    # +-1e300 manhattan distances stay finite; z-scoring them overflows,
    # so zscored models draw within +-1e100
    big = 1e100 if zscore else 1e300
    x = data.draw(arrays(float, (n, 4), elements=st.one_of(
        _EDGE_VALUES.filter(lambda v: abs(v) <= big), st.floats(-big, big))))
    y = data.draw(arrays(np.intp, n, elements=st.integers(0, N_CLASSES - 1)))
    model = fit(x, y, k=data.draw(st.integers(1, n)), weighting=weighting, metric="manhattan",
                feature_subset=FEATURE_SUBSETS[mapping], zscore=zscore)
    back = model_from_json(model_to_json(model))
    for name in ("features", "labels", "shift", "scale"):
        want, got = getattr(model, name), getattr(back, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert back.copies == model.copies
    assert (back.k, back.weighting, back.metric, back.feature_subset) == \
           (model.k, model.weighting, model.metric, model.feature_subset)


def test_model_from_json_rejects_garbage():
    with pytest.raises(ValidationError, match="malformed model document"):
        model_from_json("{not json")
    with pytest.raises(ValidationError, match="expected schema 'knn-model/2', got 'other/9'"):
        model_from_json(json.dumps({"schema": "other/9"}))
    with pytest.raises(ValidationError, match="missing field"):
        model_from_json(json.dumps({"schema": "knn-model/2"}))
    doc = json.loads(model_to_json(fit(np.eye(3), [0, 1, 2], k=2)))

    def refused(edit, match, error=ValidationError):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(error, match=match):
            model_from_json(json.dumps(bad))

    # k is a JSON integer: a fraction or a bool is refused, not truncated
    for k in (2.7, True, "2", 2.0):
        refused(lambda d: d.__setitem__("k", k), re.escape(f"k must be an integer in [1, 4), got {k!r}"))
    # every array has the one dtype the schema fixes; nothing is cast
    for name, want in (("labels", "|i1"), ("features", "<f8"), ("shift", "<f8"), ("scale", "<f8")):
        for dtype in ("<f8", "<i8", "|i1", "|b1", "<f4", ">f8", "<U3"):
            if dtype != want:
                refused(lambda d: reencode(d, name, lambda a: a, dtype),
                        re.escape(f"{name} dtype must be {want!r}, got {dtype!r}"))
        refused(lambda d: d[name].__setitem__("dtype", ["<f8"]), f"{name} dtype must be")
        # a JSON list, as knn-model/1 held it, is not an array object
        refused(lambda d: d.__setitem__(name, decode(d, name).tolist()),
                f"model {name} must be a JSON object", ParseError)
        for shape in ([-1], [True, 3], [1.5], "3", None, [[3]]):
            refused(lambda d: d[name].__setitem__("shape", shape),
                    re.escape(f"{name} shape must be an (n,) array of integers >= 0, got {shape!r}"))
        for data in (3, None, True, ["AAAA"]):
            refused(lambda d: d[name].__setitem__("data", data), f"{name} data must be a base64 string")
        # stray characters, whitespace included, and bad padding
        for data in ("AA!A", "AA AA", "AAAA\n", "AAA", "AA=A", "A===", "\u00e9AAA"):
            refused(lambda d: d[name].__setitem__("data", data), f"{name} data is not base64")
        # data that is base64 but does not fill the declared shape
        refused(lambda d: d[name].__setitem__("data", d[name]["data"][:-4]), f"{name} data holds")
        refused(lambda d: d[name].__setitem__("data", d[name]["data"] + "AAAAAAAAAAA="),
                f"{name} data holds")
        for key in ("dtype", "shape", "data"):
            refused(lambda d: d[name].pop(key), f"missing field '{key}'")
        refused(lambda d: d[name].__setitem__("strides", [8]), f"unknown model {name} key 'strides'",
                ParseError)
    # labels within the int8 range but outside the classes
    for bad in (4, 127, -1, -128):
        refused(lambda d: reencode(d, "labels", put(1, bad)),
                re.escape("labels must be an (3,) array of integers in [0, 4), got array([") + r" ?0, " + str(bad))
    # a declared shape that numpy cannot make: past intp, or within it but too big
    refused(lambda d: d["features"].update(shape=[0, 2**70], data=""),
            re.escape(f"features shape must be an (n,) array of integers >= 0, got [0, {2**70}]"))
    refused(lambda d: d["features"].update(shape=[0, 2**62], data=""),
            "malformed model document: array is too big")
    # a 0-d feature "matrix" (shape [], 8 bytes) is refused by its shape, before its length is read
    refused(lambda d: reencode(d, "features", lambda a: a[0, 0]),
            re.escape("features must be an (n, 3) array of real numbers in (-inf, inf), got array("))
    refused(lambda d: d.__setitem__("extra", 1), "unknown model document key 'extra'", ParseError)
