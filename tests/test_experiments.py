import json

import numpy as np
import pytest

from artifact import experiments
from artifact.errors import DomainError, InfeasibleConstraintError, ValidationError
from artifact.experiments import (
    DEFAULT_SCENARIO_RANGES,
    PAIR_RELATIONS,
    ScenarioSpec,
    evaluate_untuned,
    run_pipeline,
    run_scenario,
    run_size_sweep,
    sample_scenario_features,
    scenario_suite,
    sweep_csv,
    sweep_gnuplot,
)
from artifact.data import DEFAULT_RANGES, ParamRanges, generate
from artifact.knn import FEATURE_SUBSETS, fit, kfold_accuracy
from artifact.tree import fit_tree, predict_tree


# --- scenario specs -----------------------------------------------------------

def test_spec_round_trip():
    spec = ScenarioSpec(pair12="greater", pair34="less", n=50, seed=3)
    back = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
    assert back == spec


def test_spec_validation():
    with pytest.raises(ValidationError):
        ScenarioSpec(pair12="bigger")
    with pytest.raises(ValidationError):
        ScenarioSpec(pair12="equal", pair34="nope")
    with pytest.raises(ValidationError):
        ScenarioSpec(pair12="equal", n=0)
    with pytest.raises(ValidationError):
        ScenarioSpec(pair12="equal", ranges=((1.0, 0.5),) * 4)
    with pytest.raises(ValidationError):
        ScenarioSpec.from_dict({"pair12": "equal", "extra": 1})
    with pytest.raises(ValidationError):
        ScenarioSpec.from_dict({"pair34": "equal"})
    with pytest.raises(ValidationError):
        ScenarioSpec.from_json("{broken")
    # malformed documents: each is rejected by name instead of failing later
    bad = [
        ({"ranges": [[float("nan"), float("nan")]] * 4}, "ranges"),
        ({"ranges": [[0.8, float("inf")]] * 4}, "ranges"),
        ({"ranges": [1, 2, 3, 4]}, "ranges"),
        ({"ranges": [[0.8, "1.0"]] * 4}, "ranges"),
        ({"n": "5"}, "n must"),
        ({"n": 2.5}, "n must"),
        ({"n": True}, "n must"),
        ({"seed": -1}, "seed must"),
        ({"seed": 1.5}, "seed must"),
    ]
    for fields, match in bad:
        with pytest.raises(ValidationError, match=match):
            ScenarioSpec.from_dict({"pair12": "equal", **fields})
    with pytest.raises(ValidationError, match="must be a JSON object"):
        ScenarioSpec.from_json("[1]")
    with pytest.raises(ValidationError, match="malformed scenario: repeated key 'pair12'"):
        ScenarioSpec.from_json('{"pair12": "equal", "n": 5, "pair12": "less"}')
    # numpy integers count as integers, as in `generate`, and are stored
    # as the Python ints that `to_dict` serializes
    spec = ScenarioSpec(pair12="equal", n=np.int64(5), seed=np.uint8(2))
    assert type(spec.n) is int and type(spec.seed) is int
    assert json.loads(json.dumps(spec.to_dict()))["n"] == 5
    # JSON lists become tuples, so a parsed spec equals the constructed one
    spec = ScenarioSpec.from_dict({"pair12": "equal", "ranges": [list(r) for r in DEFAULT_SCENARIO_RANGES]})
    assert spec == ScenarioSpec(pair12="equal")


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("interval, ok", [
    ([0.2, 0.8], True), ((0.2, 0.8), True), ([0, 1], True), ((0, 0.5), True), ([0.5, 0.5], True),
    ([True, 1], False), ((0, True), False), ([False, 1.0], False),
    ([_NAN, 0.5], False), ((0.2, _NAN), False), ([-_INF, 0.5], False), ([0.2, _INF], False),
    ([0.8, 0.2], False), ((1, 0), False),
    ([0.5], False), ((0.1, 0.2, 0.3), False), ([], False),
    (["0.2", "0.8"], False), ([0.2, "0.8"], False), ("ab", False), ("0.2", False),
    (0.5, False), (None, False), ({"lo": 0.2, "hi": 0.8}, False),
])
def test_param_ranges_and_scenario_share_the_interval_rule(interval, ok):
    """The sampling ranges of a config and the feature ranges of a scenario
    accept and refuse the same [lo, hi] values; all tried lie in [0, 1],
    inside the p_h sampling bounds, so only the interval rule decides."""
    ranges = dict(DEFAULT_RANGES.to_dict(), p_h=interval)
    scenario = {"pair12": "equal", "ranges": [interval, *DEFAULT_SCENARIO_RANGES[1:]]}
    if ok:
        assert ParamRanges.from_dict(ranges).p_h == tuple(interval)
        assert ScenarioSpec.from_dict(scenario).ranges[0] == tuple(interval)
        return
    with pytest.raises(DomainError, match="range p_h must be a finite"):
        ParamRanges.from_dict(ranges)
    with pytest.raises(DomainError, match="range p_h must be a finite"):
        ParamRanges(p_h=interval)
    with pytest.raises(ValidationError, match="ranges must be 4 ordered finite intervals"):
        ScenarioSpec.from_dict(scenario)


# --- constrained sampling --------------------------------------------------------

def test_equal_constraint_duplicates_exactly():
    spec = ScenarioSpec(pair12="equal", n=500, seed=1)
    x = sample_scenario_features(spec, 2)
    assert x.shape == (500, 2)
    np.testing.assert_array_equal(x[:, 0], x[:, 1])
    lo, hi = DEFAULT_SCENARIO_RANGES[0]
    assert x[:, 0].min() >= lo and x[:, 0].max() <= hi


def test_strict_inequalities_hold_everywhere():
    gt = sample_scenario_features(ScenarioSpec(pair12="greater", n=400, seed=2), 2)
    assert np.all(gt[:, 0] > gt[:, 1])
    lt = sample_scenario_features(ScenarioSpec(pair12="less", n=400, seed=2), 2)
    assert np.all(lt[:, 0] < lt[:, 1])


def test_pair34_constraint():
    spec = ScenarioSpec(pair12="equal", pair34="greater", n=300, seed=5)
    x = sample_scenario_features(spec, 4)
    assert x.shape == (300, 4)
    np.testing.assert_array_equal(x[:, 0], x[:, 1])
    assert np.all(x[:, 2] > x[:, 3])
    # the duplicated second column inherits the FIRST column's interval
    for j in (0, 2, 3):
        lo, hi = DEFAULT_SCENARIO_RANGES[j]
        assert x[:, j].min() >= lo and x[:, j].max() <= hi


def test_width_rules():
    spec = ScenarioSpec(pair12="equal", pair34="less")
    with pytest.raises(DomainError):
        sample_scenario_features(spec, 2)  # pair34 needs all four features
    with pytest.raises(DomainError):
        sample_scenario_features(ScenarioSpec(pair12="equal"), 5)
    x = sample_scenario_features(ScenarioSpec(pair12="equal", n=20, seed=0), 3)
    assert x.shape == (20, 3)


def test_sampling_is_deterministic():
    spec = ScenarioSpec(pair12="less", n=100, seed=9)
    a = sample_scenario_features(spec, 2)
    b = sample_scenario_features(spec, 2)
    np.testing.assert_array_equal(a, b)


def test_infeasible_constraint_aborts():
    # zero-width intervals make a strict inequality impossible
    ranges = ((0.9, 0.9), (0.9, 0.9), (0.76, 1.0), (0.76, 1.0))
    spec = ScenarioSpec(pair12="greater", n=10, ranges=ranges, seed=0)
    with pytest.raises(InfeasibleConstraintError):
        sample_scenario_features(spec, 2)


def test_rejection_cap_refuses_only_a_low_acceptance_rate(monkeypatch):
    # past the cap, a relation accepted half the time keeps drawing, and
    # draws what an uncapped run draws
    spec = ScenarioSpec(pair12="greater", n=5000, ranges=((0.8, 1.0),) * 4, seed=4)
    uncapped = sample_scenario_features(spec, 2)
    monkeypatch.setattr(experiments, "_REJECTION_CAP", 4096)
    np.testing.assert_array_equal(sample_scenario_features(spec, 2), uncapped)
    infeasible = ScenarioSpec(pair12="greater", n=10, ranges=((0.9, 0.9),) * 2 + ((0.8, 1.0),) * 2)
    with pytest.raises(InfeasibleConstraintError, match="rate 0.00% after 4096 attempts"):
        sample_scenario_features(infeasible, 2)


# --- scenario runs ----------------------------------------------------------------

def test_run_scenario_counts_unit_probability(rng):
    # a k=1 model answers every query with probability exactly 1, so the
    # unit counts must add up to n
    x = rng.uniform(0.76, 1.01, size=(200, 2))
    y = rng.integers(0, 4, size=200)
    model = fit(x, y, k=1)
    res = run_scenario(model, ScenarioSpec(pair12="equal", n=150, seed=4))
    assert sum(res.unit_counts) == 150
    assert res.winner == int(np.argmax(res.unit_counts))
    assert len(res.mean_proba) == 4
    assert sum(res.mean_proba) == pytest.approx(1.0, abs=1e-9)


def test_run_scenario_unit_count_is_strict(rng):
    # with k=3 and uniform votes a 2/3 majority is not a unit answer
    x = np.array([[0.9, 0.9], [0.9, 0.9], [0.9, 0.9], [1.0, 1.0]])
    y = np.array([2, 2, 1, 1])
    model = fit(x, y, k=3, weighting="uniform")
    res = run_scenario(model, ScenarioSpec(pair12="equal", n=50, seed=1))
    assert res.unit_counts == (0, 0, 0, 0)


def test_scenario_suite_shapes():
    f1 = scenario_suite("f1", n=10, seed=100)
    assert len(f1) == 9
    assert [s.pair12 for s in f1] == [p for p in PAIR_RELATIONS for _ in range(3)]
    assert all(s.pair34 in PAIR_RELATIONS for s in f1)
    assert [s.seed for s in f1] == list(range(100, 109))
    assert scenario_suite("f1", n=np.int64(10), seed=np.int64(100)) == f1

    for mapping in ("f2", "f3"):
        suite = scenario_suite(mapping, n=10)
        assert len(suite) == 3
        assert all(s.pair34 == "absent" for s in suite)
    with pytest.raises(DomainError):
        scenario_suite("f9")


# --- pipeline ----------------------------------------------------------------------

def test_run_pipeline_smoke(small_dataset):
    res = run_pipeline("f3", small_dataset, seed=2, n_iter=6)
    assert res.model.feature_subset == FEATURE_SUBSETS["f3"]
    assert res.model.k == res.search.best.k
    assert 25.0 <= res.val_accuracy <= 100.0
    assert res.chi.sum() == np.count_nonzero(~small_dataset.in_train)
    # accuracy recomputed from the confusion matrix must agree exactly
    assert res.val_accuracy == np.trace(res.chi) / res.chi.sum() * 100.0


def test_run_pipeline_rejects_unknown_mapping(small_dataset):
    with pytest.raises(DomainError):
        run_pipeline("f7", small_dataset)


def test_untuned_evaluation(small_dataset):
    acc = evaluate_untuned("f1", small_dataset)
    assert 25.0 <= acc <= 100.0
    # defaults are k=5 uniform euclidean; spot-check against a direct fit
    from artifact.knn import single_shot_accuracy

    x_train, y_train = small_dataset.train
    x_val, y_val = small_dataset.validation
    subset = FEATURE_SUBSETS["f1"]
    model = fit(x_train, y_train, k=5, feature_subset=subset)
    assert acc == single_shot_accuracy(model, x_val[:, subset], y_val)


# --- size sweep ----------------------------------------------------------------------

def _tree_kfold_reference(features, labels, folds, seed):
    """Tree baseline over the seeded shuffle folds, one explicit fold at a time."""
    parts = np.array_split(np.random.default_rng(seed).permutation(len(labels)), folds)
    accs = []
    for i, held in enumerate(parts):
        rest = np.concatenate([p for j, p in enumerate(parts) if j != i])
        root = fit_tree(features[rest], labels[rest])
        accs.append(float(np.mean(predict_tree(root, features[held]) == labels[held]) * 100.0))
    return float(np.mean(accs))


def test_size_sweep(tmp_path):
    rows = run_size_sweep([60, 120], mapping="f3", seed=11, folds=3)
    assert [r["n"] for r in rows] == [60, 120]
    for r in rows:
        assert 0.0 <= r["knn_accuracy"] <= 100.0
        assert 0.0 <= r["tree_accuracy"] <= 100.0
        x, y = generate(r["n"], seed=11).train
        x = x[:, FEATURE_SUBSETS["f3"]]
        assert r["knn_accuracy"] == kfold_accuracy(x, y, folds=3, seed=11)
        assert r["tree_accuracy"] == _tree_kfold_reference(x, y, 3, 11)

    csv = sweep_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "n,knn_accuracy,tree_accuracy"
    assert len(lines) == 3
    dat = sweep_gnuplot(rows)
    assert dat.splitlines()[0].startswith("#")

    again = run_size_sweep([60, 120], mapping="f3", seed=11, folds=3)
    assert sweep_csv(again) == csv


def test_size_sweep_validation():
    with pytest.raises(DomainError):
        run_size_sweep([100, 100])
    with pytest.raises(DomainError):
        run_size_sweep([])
    with pytest.raises(DomainError):
        run_size_sweep([50], mapping="f8")
