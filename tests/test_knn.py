import json

import numpy as np
import pytest

from artifact.errors import DomainError, StateError, ValidationError
from artifact.knn import (
    DISTANCE_METRICS,
    FEATURE_SUBSETS,
    N_CLASSES,
    Hyperparams,
    HyperSpace,
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
    assert len(combos) == len(space) == 12
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


def test_search_exhaustive_equals_grid(rng):
    x = rng.uniform(size=(50, 3)).round(1)
    y = rng.integers(0, 4, size=50)
    space = HyperSpace(k_range=tuple(range(1, 7)))
    n = len(space)
    res = random_search(x, y, space, n_iter=n, seed=13)
    assert len(res.trials) == n
    # every candidate's score must equal the standalone k-fold run
    for hp, score in res.trials:
        direct = kfold_accuracy(x, y, k=hp.k, weighting=hp.weighting,
                                metric=hp.metric, seed=13)
        assert score == direct, hp
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
