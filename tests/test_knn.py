import json
import math

import numpy as np
import pytest

from artifact import knn
from artifact.errors import DomainError, StateError, ValidationError
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
    with pytest.raises(DomainError):
        single_shot_accuracy(model, train_x, train_y[:3])
    with pytest.raises(DomainError):
        single_shot_accuracy(model, np.zeros((0, 4)), np.zeros(0, dtype=int))


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
    # some not, through the whole neighbor loop
    monkeypatch.setattr(knn, "_BLOCK_ELEMS", 1)  # 16-row blocks
    monkeypatch.setattr(knn, "_TILE_ELEMS", 200)
    train_x, train_y, query = _copied_problem(rng, (0, 1, 0, 1), 90, 64)
    query[16:32, 3] = np.nextafter(query[16:32, 1], -np.inf)
    query[40, 2] += 0.01
    model = fit(train_x, train_y, k=7, weighting="distance", metric=metric)
    assert model.copies == (0, 1, 0, 1)
    assert knn._strip_margins(90, 7) == []  # too few rows for a strip: brute-force blocks
    blocks = [(rows.tolist(), route) for rows, _, _, route in knn._neighbors(model, query)]
    assert blocks == [(list(range(lo, lo + 16)), 0) for lo in (0, 16, 32, 48)]
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


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_votes_from_pairs_match_full_matrix(metric, weighting, rng):
    train_x, train_y, query = _random_problem(rng, 90, 60)
    train_x[5] = query[3]  # a second row sitting on a training point
    dist = _distances(train_x, query, metric)
    assert np.sum(dist == 0.0) >= 2
    straddled = 0
    for k in (1, 4, 9, 30, 90):
        ranked = knn._ranked_neighbors(dist, k)
        kth = np.take_along_axis(dist, ranked[:, -1:], axis=1)
        straddled += int(np.sum((dist <= kth).sum(axis=1) > k))
        nd = np.take_along_axis(dist, ranked, axis=1)
        prefixes = range(1, k + 1)  # the prefixes random_search scores
        table = knn._votes_for(ranked, nd, train_y, weighting, prefixes)
        assert table.shape == (k, len(query), N_CLASSES)
        for j in prefixes:
            want = full_matrix_votes(ranked[:, :j], dist, train_y, weighting)
            assert table[j - 1].tobytes() == want.tobytes(), (k, j)
            one = knn._votes_for(ranked[:, :j], nd[:, :j], train_y, weighting, (j,))
            assert one[0].tobytes() == want.tobytes(), (k, j)
        some = (k, 1) if k > 1 else (1,)  # any subset, in any order
        picked = knn._votes_for(ranked, nd, train_y, weighting, some)
        assert picked.tobytes() == table[[j - 1 for j in some]].tobytes()
    assert straddled > 0  # rows whose ties straddle the k-th rank were exercised


def test_results_do_not_depend_on_block_or_tile_size(rng, monkeypatch):
    train_x, train_y, query = _random_problem(rng, 120, 70)
    models = [fit(train_x, train_y, k=9, weighting=w, metric=m)
              for w in WEIGHTINGS for m in DISTANCE_METRICS]
    want = [predict_proba_batch(m, query) for m in models]
    monkeypatch.setattr(knn, "_BLOCK_ELEMS", 1)  # 16-row blocks
    monkeypatch.setattr(knn, "_TILE_ELEMS", 250)  # 2-row tiles
    for m, w in zip(models, want):
        assert predict_proba_batch(m, query).tobytes() == w.tobytes()


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


def _routes(model, query):
    """Ranked neighbors, their distances and the route of every query."""
    ranked = np.empty((len(query), model.k), dtype=np.intp)
    nd = np.empty((len(query), model.k))
    route = np.empty(len(query), dtype=int)
    for rows, r, d, via in knn._neighbors(model, query):
        ranked[rows], nd[rows], route[rows] = r, d, via
    return ranked, nd, route


@pytest.mark.parametrize("zscore", [False, True], ids=["raw", "zscored"])
@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_strip_rounds_equal_brute_force(metric, zscore, rng, monkeypatch):
    train_x, train_y, query = _sheet_problem(rng, 2400, 800)
    model = fit(train_x, train_y, k=3, weighting="distance", metric=metric, zscore=zscore)
    assert model.copies == (0, 1, 0, 1)
    rounds = len(knn._strip_margins(2400, 3))
    assert rounds == 2
    ranked, nd, route = _routes(model, query)
    proba = predict_proba_batch(model, query)
    # every round answers some queries, and some fall back to brute force
    assert set(np.bincount(route, minlength=rounds + 1).nonzero()[0]) == {0, 1, 2}
    monkeypatch.setattr(knn, "_strip_margins", lambda n, k: [])
    want_ranked, want_nd, want_route = _routes(model, query)
    assert not want_route.any()
    assert ranked.tobytes() == want_ranked.tobytes()
    assert nd.tobytes() == want_nd.tobytes()
    assert proba.tobytes() == predict_proba_batch(model, query).tobytes()
    for i in np.flatnonzero(np.arange(len(query)) % 40 == 0):
        want = _ref_proba(model.features, train_y, (query[i] - model.shift) / model.scale,
                          3, "distance", metric)
        assert proba[i].tobytes() == want.tobytes(), i


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
    assert knn._strip_margins(48, 1) == [4]
    query = np.tile(side * np.array([100.0, 0.0]), (500, 1))  # enough to pay for a strip
    ranked, nd, route = _routes(model, query)
    assert np.all(ranked == np.flatnonzero(perm == 15)) and np.all(nd == 1.0)
    assert np.all(route == 1)  # the strip could not certify: brute force


def test_strip_blocks_stay_under_the_allocator_ceiling(rng, monkeypatch):
    train_x, train_y, query = _sheet_problem(rng, 35_000, 4_000)
    model = fit(train_x, train_y, k=50, metric="manhattan")
    shapes = []
    kernel = knn._distance_block

    def recorded(*args):
        shapes.append(args[-1].shape)
        return kernel(*args)

    monkeypatch.setattr(knn, "_distance_block", recorded)
    route = _routes(model, query)[2]
    assert set(route) == {0, 1, 2}  # strips of both rounds and the full-width fallback
    assert max(b * n for b, n in shapes) * 8 <= 8 * 2**20


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
    with pytest.raises(ValidationError):
        HyperSpace(k_range=())
    with pytest.raises(ValidationError):
        HyperSpace(k_range=(0, 1))


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
    for rows, width, k_max, seed, zscore in ((50, 3, 6, 13, False), (240, 4, 15, 5, True)):
        x = rng.uniform(size=(rows, width)).round(1)
        y = rng.integers(0, 4, size=rows)
        space = HyperSpace(k_range=tuple(range(1, k_max + 1)))
        n = len(space.combos())
        res = random_search(x, y, space, n_iter=n, seed=seed, zscore=zscore)
        assert len(res.trials) == n
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
    assert json.loads(text)["schema"] == "knn-model/1"


def test_model_from_json_rejects_garbage():
    with pytest.raises(ValidationError):
        model_from_json("{not json")
    with pytest.raises(ValidationError):
        model_from_json(json.dumps({"schema": "other/9"}))
    with pytest.raises(ValidationError):
        model_from_json(json.dumps({"schema": "knn-model/1"}))  # fields missing
    # k is a JSON integer: a fraction or a bool is refused, not truncated
    doc = json.loads(model_to_json(fit(np.eye(3), [0, 1, 2], k=2)))
    for k in (2.7, True, "2", 2.0):
        with pytest.raises(ValidationError, match="k must be a JSON integer"):
            model_from_json(json.dumps({**doc, "k": k}))
    # labels likewise: a fraction, bool or string is refused, not truncated
    for bad in (0.5, True, "1", 1.0):
        with pytest.raises(ValidationError, match="labels must be a list of JSON integers"):
            model_from_json(json.dumps({**doc, "labels": [0, bad, 2]}))
    with pytest.raises(ValidationError, match="labels must be a list of JSON integers"):
        model_from_json(json.dumps({**doc, "labels": 1}))
    # an integer beyond the platform's index type is malformed, not a crash
    with pytest.raises(ValidationError, match="malformed model document"):
        model_from_json(json.dumps({**doc, "labels": [0, 2**70, 2]}))
    # features, shift and scale are JSON numbers: strings and bools are
    # refused, not coerced to floats
    features = doc["features"]
    for bad in ("0.5", True, None, [0.5]):
        with pytest.raises(ValidationError, match="features must hold JSON numbers"):
            model_from_json(json.dumps({**doc, "features": [features[0], [bad, *features[1][1:]], features[2]]}))
        for name in ("shift", "scale"):
            with pytest.raises(ValidationError, match=f"{name} must hold JSON numbers"):
                model_from_json(json.dumps({**doc, name: [bad, *doc[name][1:]]}))
    for name in ("features", "shift", "scale"):
        with pytest.raises(ValidationError, match=f"{name} must be a JSON list"):
            model_from_json(json.dumps({**doc, name: "1.0"}))
    # integers are JSON numbers too
    assert model_from_json(json.dumps({**doc, "scale": [1, 1, 1]})).scale.tolist() == [1.0] * 3
