"""The one integer rule, `errors.as_int`, at every count, seed and index
argument, the one real-number rule, `errors.as_real`, at every real
argument, the one range rule, `data.as_range`, at every [lo, hi] range,
the one label rule, `data.as_labels`, at every array of class labels,
and the one name rule, `errors.as_name`, at every choice of a name."""

import json
import math
import re

import numpy as np
import pytest

from artifact.cli import _CONFIG, main
from artifact.data import Dataset, ParamRanges, generate, write_csv
from artifact.engine import GENERATOR_VARIANTS, EngineParams, build_generator
from artifact.errors import DomainError
from artifact.experiments import (DEFAULT_SCENARIO_RANGES, PAIR_RELATIONS, ScenarioSpec,
                                  run_size_sweep, scenario_suite)
from artifact.knn import (DISTANCE_METRICS, FEATURE_SUBSETS, WEIGHTINGS, HyperSpace, KnnModel,
                          fit, fold_splits, kfold_accuracy, model_to_json, random_search)
from artifact.metrics import confusion_matrix
from artifact.trajectories import build_jump_process, check_run, simulate
from artifact.tree import fit_tree

X = np.random.default_rng(0).random((40, 4))
Y = np.arange(40) % 4
SPACE = HyperSpace(k_range=(1, 2, 3))
PROC = build_jump_process(build_generator(EngineParams()))
MODEL = dict(features=X, labels=Y, k=3, weighting="uniform", metric="euclidean",
             feature_subset=(0, 1, 2, 3), shift=np.zeros(4), scale=np.ones(4))

# (argument as the message names it, lo, hi or None, a valid value, call):
# `call(v)` passes v as that argument, every other argument valid, and
# returns the result or what the argument became.
ARGUMENTS = {
    "generate-seed": ("seed", 0, None, 7, lambda v: generate(20, seed=v).meta["seed"]),
    "generate-n": ("n", 1, 2**32, 20, lambda v: generate(v, seed=1).meta["n"]),
    "simulate-seed": ("seed", 0, None, 7, lambda v: simulate(PROC, 10.0, 4, v)),
    "simulate-n_traj": ("n_traj", 3, None, 4, lambda v: simulate(PROC, 10.0, v, 1)),
    "check_run-n_traj": ("n_traj", 3, None, 4, lambda v: check_run(10.0, v)),
    "HyperSpace-k_range": ("k_range entry", 1, None, 3, lambda v: HyperSpace(k_range=(v,)).k_range),
    "KnnModel-k": ("k", 1, 41, 3, lambda v: KnnModel(**{**MODEL, "k": v}).k),
    "KnnModel-feature_subset": ("feature_subset entry", 0, None, 2,
                                lambda v: KnnModel(**{**MODEL, "feature_subset": (0, 1, v, 3)}).feature_subset),
    "fit-feature_subset": ("feature_subset entry", 0, 4, 2,
                           lambda v: fit(X, Y, feature_subset=(0, v)).feature_subset),
    "random_search-n_iter": ("n_iter", 1, None, 3, lambda v: random_search(X, Y, SPACE, n_iter=v)),
    "random_search-seed": ("seed", 0, None, 3, lambda v: random_search(X, Y, SPACE, n_iter=2, seed=v)),
    "random_search-folds": ("folds", 2, None, 3, lambda v: random_search(X, Y, SPACE, n_iter=2, folds=v)),
    "fold_splits-folds": ("folds", 2, None, 3, lambda v: fold_splits(40, v, 0)),
    "fold_splits-seed": ("seed", 0, None, 3, lambda v: fold_splits(40, 3, v)),
    "ScenarioSpec-n": ("n", 1, None, 5, lambda v: ScenarioSpec("equal", n=v).n),
    "ScenarioSpec-seed": ("seed", 0, None, 5, lambda v: ScenarioSpec("equal", seed=v).seed),
    "run_size_sweep-sizes": ("sizes entry", 1, None, 60,
                             lambda v: run_size_sweep([v], mapping="f3")[0]["n"]),
    "config-folds": ("config key 'folds'", 2, None, 3, _CONFIG["folds"][1]),
}

# (argument as the message names it, its interval, a valid value, call),
# with `call` as in ARGUMENTS.
REALS = {
    **{f"EngineParams-{name}": (name, span, valid, lambda v, name=name: EngineParams(**{name: v}))
       for name, span, valid in (
           ("t_c", "(0, inf)", 0.7), ("t_h", "(0, inf)", 3.9), ("t_l", "(0, inf)", 2.5),
           ("p_c", "[0, 1]", 0.3), ("p_h", "[0, 1]", 0.6), ("e1", "(-inf, inf)", 0.25),
           ("e_a", "(-inf, inf)", 3.5), ("e_b", "(-inf, inf)", 1.5), ("g", "(0, inf)", 0.5),
           ("r", "(0, inf)", 0.2), ("tau", "[0, inf)", 0.05))},
    "generate-train_frac": ("train_frac", "(0, 1)", 0.5,
                            lambda v: generate(20, seed=1, train_frac=v).meta["train_frac"]),
    "check_run-t_final": ("t_final", "(0, inf)", 10.0, lambda v: check_run(v, 4)),
    "simulate-t_final": ("t_final", "(0, inf)", 10.0, lambda v: simulate(PROC, v, 4, 1)),
    "config-train_frac": ("config key 'train_frac'", "(0, 1)", 0.5, _CONFIG["train_frac"][1]),
}

# (range as the message names it, its interval, a valid (lo, hi), call):
# `call(v)` passes v as that range, every other argument valid, and
# returns what the range became.
RANGES = {
    **{f"{route}-{name}": (name, span, valid, lambda v, name=name, make=make: getattr(make({name: v}), name))
       for name, span, valid in (
           ("t_c", "[0.4, 2.5]", (0.5, 1.5)), ("t_h", "[3.0, 4.5]", (3.5, 4.0)),
           ("t_l", "[1.0, 7.0]", (2.0, 5.0)), ("p_c", "[0, 1]", (0.1, 0.2)), ("p_h", "[0, 1]", (0.25, 0.75)))
       for route, make in (("ParamRanges", lambda kw: ParamRanges(**kw)), ("config", _CONFIG["ranges"][1]))},
    "ScenarioSpec-c1": ("c1", "(-inf, inf)", (-2.0, 3.5),
                        lambda v: ScenarioSpec("equal", ranges=(v, *DEFAULT_SCENARIO_RANGES[1:])).ranges[0]),
    "scenario-c1": ("c1", "(-inf, inf)", (-2.0, 3.5), lambda v: ScenarioSpec.from_dict(
        {"pair12": "equal", "ranges": [v, *DEFAULT_SCENARIO_RANGES[1:]]}).ranges[0]),
}

# (labels as the message names them, their count or None, call), with
# `call` as in ARGUMENTS.
LABELS = {
    "KnnModel": ("labels", 40, lambda v: KnnModel(**{**MODEL, "labels": v}).labels),
    "fit": ("labels", 40, lambda v: fit(X, v, k=3).labels),
    "kfold_accuracy": ("labels", 40, lambda v: kfold_accuracy(X, v, k=3)),
    "random_search": ("labels", 40, lambda v: random_search(X, v, SPACE, n_iter=2).trials),
    "confusion_matrix-predicted": ("predicted classes", None, lambda v: confusion_matrix(v, Y)),
    "confusion_matrix-true": ("true classes", 40, lambda v: confusion_matrix(Y, v)),
    "fit_tree": ("labels", 40, lambda v: fit_tree(X, v)),
}

# (argument as the message names it, its names, a valid name, call), with
# `call` as in ARGUMENTS.
NAMES = {
    "build_generator-variant": ("variant", GENERATOR_VARIANTS, "legacy-conserving",
                                lambda v: build_generator(EngineParams(), v).emit_rate),
    "ScenarioSpec-pair12": ("pair12", PAIR_RELATIONS, "less", lambda v: ScenarioSpec(v).pair12),
    "ScenarioSpec-pair34": ("pair34", PAIR_RELATIONS + ("absent",), "less",
                            lambda v: ScenarioSpec("equal", v).pair34),
    "scenario_suite-mapping": ("mapping", tuple(FEATURE_SUBSETS), "f2", lambda v: len(scenario_suite(v, n=5))),
    "HyperSpace-weightings": ("weightings entry", WEIGHTINGS, "distance",
                              lambda v: HyperSpace(weightings=(v,)).weightings),
    "HyperSpace-metrics": ("metrics entry", DISTANCE_METRICS, "manhattan",
                           lambda v: HyperSpace(metrics=(v,)).metrics),
    "KnnModel-weighting": ("weighting", WEIGHTINGS, "distance",
                           lambda v: KnnModel(**{**MODEL, "weighting": v}).weighting),
    "KnnModel-metric": ("metric", DISTANCE_METRICS, "manhattan",
                        lambda v: KnnModel(**{**MODEL, "metric": v}).metric),
}


def _ends(span):
    """((end, closed), (end, closed)) of an interval written like "(0, 1]"."""
    lo, hi = span[1:-1].split(", ")
    return (float(lo), span[0] == "["), (float(hi), span[-1] == "]")


def _refused_real(what, span, call, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(f'{what} must be a real number in {span}, got {bad!r:.80}')}$") as err:
        call(bad)
    assert err.value.exit_code == 2


def _refusals():
    for name, (what, lo, hi, _, call) in ARGUMENTS.items():
        for bad in (2.5, True, None, "3", lo - 1) + (() if hi is None else (hi,)):
            yield pytest.param(what, lo, hi, call, bad, id=f"{name}-{bad!r}")


@pytest.mark.parametrize("what, lo, hi, call, bad", _refusals())
def test_refused_with_one_message(what, lo, hi, call, bad):
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    with pytest.raises(DomainError, match=f"^{re.escape(f'{what} must be an integer {span}, got {bad!r}')}$") as err:
        call(bad)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("call, valid", [pytest.param(v[4], v[3], id=k) for k, v in ARGUMENTS.items()])
def test_numpy_integer_is_a_python_int(call, valid):
    # equal reprs: the same result, with a Python int wherever the
    # argument is stored (a numpy integer would print as np.int64(...))
    assert repr(call(np.int64(valid))) == repr(call(valid))


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1", "oracle-check"], "--seed must be an integer >= 0, got -1"),
    (["oracle-check", "--draws", "0"], "--draws must be an integer >= 1, got 0"),
], ids=["seed", "draws"])
def test_cli_counts_refused_with_one_message(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# --- one case per reproducer of a fractional, boolean or negative count ---

def test_kfold_accuracy_refuses_fractional_folds():
    with pytest.raises(DomainError, match=re.escape("folds must be an integer >= 2, got 2.5")):
        kfold_accuracy(X, Y, folds=2.5)


def test_fit_refuses_fractional_and_boolean_columns():
    with pytest.raises(DomainError, match=re.escape("feature_subset entry must be an integer in [0, 4), got 1.9")):
        fit(X, Y, k=3, feature_subset=(1.9, True))
    with pytest.raises(DomainError, match=re.escape("feature_subset entry must be an integer in [0, 4), got True")):
        fit(X, Y, k=3, feature_subset=(1, True))


def test_run_size_sweep_refuses_fractional_sizes():
    with pytest.raises(DomainError, match=re.escape("sizes entry must be an integer >= 1, got 200.7")):
        run_size_sweep([200.7, 400.2])


def test_knn_model_refuses_boolean_k():
    with pytest.raises(DomainError, match=re.escape("k must be an integer in [1, 41), got True")):
        KnnModel(**{**MODEL, "k": True})


def test_random_search_and_fold_splits_refuse_a_negative_seed():
    with pytest.raises(DomainError, match=re.escape("seed must be an integer >= 0, got -1")):
        random_search(X, Y, SPACE, n_iter=2, seed=-1)
    with pytest.raises(DomainError, match=re.escape("seed must be an integer >= 0, got -1")):
        fold_splits(40, 5, -1)


def test_random_search_refuses_fractional_n_iter():
    with pytest.raises(DomainError, match=re.escape("n_iter must be an integer >= 1, got 2.5")):
        random_search(X, Y, SPACE, n_iter=2.5)


# --- real-number arguments ----------------------------------------------------

@pytest.mark.parametrize("bad", ["0.5", None, True, [0.5]])
def test_real_arguments_refuse_non_numbers(bad):
    for what, span, _, call in REALS.values():
        _refused_real(what, span, call, bad)


def _real_refusals():
    """NaN, both infinities, an int past the float range, each excluded
    end, and the float just past each included end."""
    for name, (what, span, _, call) in REALS.items():
        outside = {math.nan, -math.inf, math.inf, 10**400}
        for (end, closed), away in zip(_ends(span), (-math.inf, math.inf)):
            outside.add(float(np.nextafter(end, away)) if closed else end)
        for bad in sorted(outside, key=repr):
            yield pytest.param(what, span, call, bad, id=f"{name}-{bad!r:.12}")


@pytest.mark.parametrize("what, span, call, bad", _real_refusals())
def test_real_refused_outside_its_interval(what, span, call, bad):
    _refused_real(what, span, call, bad)


@pytest.mark.parametrize("call, valid, span", [pytest.param(v[3], v[2], v[1], id=k) for k, v in REALS.items()])
def test_numpy_real_is_a_python_float(call, valid, span):
    assert repr(call(np.float64(valid))) == repr(call(valid))
    for end, closed in _ends(span):
        if closed:
            call(np.float32(end))  # an included end is accepted


def test_real_arguments_take_numpy_floats(tmp_path):
    ds = generate(20, seed=1, train_frac=np.float32(0.5))
    assert type(ds.meta["train_frac"]) is float and ds.in_train.sum() == 10
    write_csv(ds, tmp_path / "d.csv")  # the sidecar holds it as a JSON number
    assert simulate(PROC, np.float32(10.0), 4, 1) == simulate(PROC, 10.0, 4, 1)


# --- [lo, hi] ranges ----------------------------------------------------------

def _refused_range(what, span, call, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(f'range {what} must be a [lo, hi] pair of real numbers in {span} with lo <= hi, got {bad!r:.80}')}$") as err:
        call(bad)
    assert err.value.exit_code == 2


def _range_refusals():
    """A bool, a str, None, NaN or an infinity at either end, a reversed
    pair, one or three ends, and values that are no pair at all."""
    for name, (what, span, (lo, hi), call) in RANGES.items():
        bads = [(True, hi), (lo, False), ("0.5", hi), (lo, None), (math.nan, hi), (lo, math.nan),
                (-math.inf, hi), (lo, math.inf), (hi, lo), [hi, lo], (lo,), (lo, hi, hi), [],
                None, "ab", 0.5, {"lo": lo, "hi": hi}]
        for i, bad in enumerate(bads):
            yield pytest.param(what, span, call, bad, id=f"{name}-{i}")


@pytest.mark.parametrize("what, span, call, bad", _range_refusals())
def test_range_refused_with_one_message(what, span, call, bad):
    _refused_range(what, span, call, bad)


@pytest.mark.parametrize("call, valid", [pytest.param(v[3], v[2], id=k) for k, v in RANGES.items()])
def test_range_is_a_pair_of_python_floats(call, valid):
    lo, hi = valid
    for given in ((lo, hi), [lo, hi], (np.float64(lo), np.float64(hi)), (lo, np.float32(hi)), (hi, hi)):
        got = call(given)
        assert type(got) is tuple and all(type(end) is float for end in got)
        assert got == tuple(float(end) for end in given)


@pytest.mark.parametrize("name", ["t_c", "t_h", "t_l", "p_c", "p_h"])
def test_range_stops_at_its_sampling_bound(name):
    what, span, (lo, hi), call = RANGES[f"ParamRanges-{name}"]
    (low, _), (high, _) = _ends(span)
    assert call((low, hi)) == (low, hi) and call((lo, high)) == (lo, high)
    for bad in ((float(np.nextafter(low, -math.inf)), hi), (lo, float(np.nextafter(high, math.inf)))):
        _refused_range(what, span, call, bad)


def test_integer_range_ends_echo_as_floats(tmp_path):
    ds = generate(20, ParamRanges(t_l=(2, 5)), seed=1)
    write_csv(ds, tmp_path / "d.csv")
    assert json.loads((tmp_path / "d.meta.json").read_text())["ranges"]["t_l"] == [2.0, 5.0]
    spec = ScenarioSpec("equal", ranges=((0, 1),) * 4)
    assert json.dumps(spec.to_dict()["ranges"]) == json.dumps([[0.0, 1.0]] * 4)


def test_scenario_needs_four_ranges():
    for bad in (DEFAULT_SCENARIO_RANGES[:3], None, "abcd"):
        with pytest.raises(DomainError, match=f"^{re.escape(f'ranges must be 4 [lo, hi] pairs, got {bad!r}')}$"):
            ScenarioSpec("equal", ranges=bad)


def test_scenario_refuses_a_range_wider_than_the_float_range():
    # both ends are finite, but a draw lo + (hi - lo) u would overflow
    for i in range(4):
        ranges = [list(r) for r in DEFAULT_SCENARIO_RANGES]
        ranges[i] = [-1e308, 1e308]
        message = f"range c{i + 1} must be narrower than the float range, got [-1e+308, 1e+308]"
        for make in (lambda: ScenarioSpec("equal", n=5, ranges=ranges),
                     lambda: ScenarioSpec.from_dict({"pair12": "equal", "n": 5, "ranges": ranges})):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                make()
    assert ScenarioSpec("equal", ranges=((-0.8e308, 0.8e308),) * 4).ranges[0] == (-0.8e308, 0.8e308)


# --- class labels ---------------------------------------------------------------

def _label_refusals():
    """Floats (integral ones too), bools, a 4, a -1, a wrong length, 2-D
    labels and strings."""
    bads = {"fractions": Y + 0.5, "integral-floats": Y.astype(float), "float-list": [0.5] * 40,
            "bools": Y % 2 == 0, "bool-list": [True, False] * 20, "four": np.where(Y == 3, 4, Y),
            "minus-one": np.where(Y == 0, -1, Y), "short": Y[:-1], "2-D": Y[:, None],
            "strings": Y.astype(str), "string-list": ["0", "1"] * 20, "ragged": [[0, 1], [2]] * 20}
    for name, (what, n, call) in LABELS.items():
        for key, bad in bads.items():
            if n is not None or key != "short":  # predicted classes take their count from nothing
                yield pytest.param(what, n, call, bad, id=f"{name}-{key}")


@pytest.mark.parametrize("what, n, call, bad", _label_refusals())
def test_labels_refused_with_one_message(what, n, call, bad):
    count = "" if n is None else f"{n} "
    brief = " ".join(repr(bad).split())
    message = f"{what} must be a 1-D array of {count}integers in [0, 4), got {brief:.80}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        call(bad)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("call", [v[2] for v in LABELS.values()], ids=list(LABELS))
def test_integer_labels_of_any_width_are_accepted(call):
    want = repr(call(Y.tolist()))
    for dtype in (np.int8, np.int64, np.uint8):
        # equal reprs: a stored label array is intp whatever came in
        assert repr(call(Y.astype(dtype))) == want



@pytest.mark.parametrize("make", [lambda y: y + 0.7, lambda y: y % 2 == 0], ids=["fractions", "bools"])
def test_dataset_refuses_labels_that_are_no_integers(make):
    # fractional labels were truncated to the originals, so the rows passed
    ds = generate(20, seed=1)
    bad = make(ds.labels)
    brief = " ".join(repr(bad).split())
    message = f"labels must be a 1-D array of integers in [0, 4), got {brief:.80}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        Dataset(ds.features, bad, ds.params, ds.in_train, ds.meta)
    assert err.value.exit_code == 2

# --- names ----------------------------------------------------------------------

def _name_refusals():
    """A wrong name, a case variant of a valid one, and non-strings."""
    for key, (what, names, valid, call) in NAMES.items():
        for bad in ("bogus", valid.upper(), valid.title(), 1, None, True, [valid], (valid,)):
            yield pytest.param(what, names, call, bad, id=f"{key}-{bad!r}")


@pytest.mark.parametrize("what, names, call, bad", _name_refusals())
def test_name_refused_with_one_message(what, names, call, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(f'{what} must be one of {names}, got {bad!r}')}$") as err:
        call(bad)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("names, valid, call", [pytest.param(*v[1:], id=k) for k, v in NAMES.items()])
def test_every_name_is_accepted(names, valid, call):
    for name in names:
        call(name)
    assert repr(call(np.str_(valid))) == repr(call(valid))


@pytest.mark.parametrize("field, value, message", [
    ("weighting", "gaussian", "weighting must be one of ('uniform', 'distance'), got 'gaussian'"),
    ("metric", "Euclidean", "metric must be one of ('euclidean', 'manhattan'), got 'Euclidean'"),
    ("pair12", "Equal", "pair12 must be one of ('equal', 'greater', 'less'), got 'Equal'"),
    ("pair34", 3, "pair34 must be one of ('equal', 'greater', 'less', 'absent'), got 3"),
])
def test_cli_names_refused_with_one_message(tmp_path, capsys, field, value, message):
    model = json.loads(model_to_json(KnnModel(**MODEL)))
    scenario = {"pair12": "equal", "pair34": "less", "n": 5}
    (model if field in model else scenario)[field] = value
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    assert main(["--out", str(tmp_path), "apply", "--model", str(tmp_path / "model.json"),
                 "--scenario", str(tmp_path / "scenario.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
