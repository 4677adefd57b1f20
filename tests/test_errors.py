"""The one integer rule, `errors.as_int`, at every count, seed and index
argument, the one real-number rule, `errors.as_real`, at every real
argument, the one range rule, `data.as_range`, at every [lo, hi] range,
the one array rule, `errors.as_reals`, at every array of real numbers
(entry by entry the real-number rule where it takes an interval), its integer twin, `errors.as_ints`, at every array of integers (class
labels through `data.as_labels`, a confusion matrix, a k range, a
feature subset, sweep sizes, a model array's shape), the one flag rule,
`errors.as_flag`, at every on/off setting, and the one name rule,
`errors.as_name`, at every choice of a name."""

import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from artifact.cli import _CONFIG, main
from artifact.counting import cumulants, exchange_moment_ratios_batch, steady_states
from artifact.data import Dataset, ParamRanges, generate, write_csv
from artifact.engine import (GENERATOR_VARIANTS, EngineParams, TwistedGenerator, bose_occupations,
                             build_generator, build_generators)
from artifact.errors import DomainError, ParseError, as_real, as_reals
from artifact.experiments import (DEFAULT_SCENARIO_RANGES, PAIR_RELATIONS, ScenarioSpec,
                                  run_size_sweep, scenario_suite)
from artifact.fdcheck import fd_cumulants
from artifact.knn import (DISTANCE_METRICS, FEATURE_SUBSETS, WEIGHTINGS, HyperSpace, KnnModel,
                          fit, fold_splits, kfold_accuracy, model_to_json, predict_proba_batch,
                          random_search)
from artifact.metrics import accuracy, class_metrics, confusion_matrix
from artifact.trajectories import JumpProcess, build_jump_process, check_run, simulate
from artifact.tree import fit_tree, predict_tree

X = np.random.default_rng(0).random((40, 4))
Y = np.arange(40) % 4
SPACE = HyperSpace(k_range=(1, 2, 3))
GEN = build_generator(EngineParams())
PROC = build_jump_process(GEN)
# a cavity cold enough that its absorption rate is 0.0
COLD_CAVITY = build_generator(EngineParams(t_l=1e-3))
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
    "KnnModel-k": ("k", 1, 41, 3, lambda v: KnnModel(**{**MODEL, "k": v}).k),
    "random_search-n_iter": ("n_iter", 1, None, 3, lambda v: random_search(X, Y, SPACE, n_iter=v)),
    "random_search-seed": ("seed", 0, None, 3, lambda v: random_search(X, Y, SPACE, n_iter=2, seed=v)),
    "random_search-folds": ("folds", 2, None, 3, lambda v: random_search(X, Y, SPACE, n_iter=2, folds=v)),
    "fold_splits-folds": ("folds", 2, None, 3, lambda v: fold_splits(40, v, 0)),
    "fold_splits-seed": ("seed", 0, None, 3, lambda v: fold_splits(40, 3, v)),
    "ScenarioSpec-n": ("n", 1, 2**32, 5, lambda v: ScenarioSpec("equal", n=v).n),
    "ScenarioSpec-seed": ("seed", 0, None, 5, lambda v: ScenarioSpec("equal", seed=v).seed),
    "config-folds": ("config key 'folds'", 2, None, 3, _CONFIG["folds"][1]),
}

# (array as the message names it, lo, hi or None, a valid list, call),
# with `call` as in ARGUMENTS: the arrays of integers that are kept as a
# tuple or list of Python ints.
INTEGERS = {
    "HyperSpace-k_range": ("k_range", 1, None, [1, 3], lambda v: HyperSpace(k_range=v).k_range),
    "KnnModel-feature_subset": ("feature_subset", 0, None, [0, 1, 2, 3],
                                lambda v: KnnModel(**{**MODEL, "feature_subset": v}).feature_subset),
    "fit-feature_subset": ("feature_subset", 0, 4, [0, 2], lambda v: fit(X, Y, feature_subset=v).feature_subset),
    "run_size_sweep-sizes": ("sizes", 1, None, [60],
                             lambda v: [row["n"] for row in run_size_sweep(v, mapping="f3")]),
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

# Valid arrays of the array table: float64, C-ordered and integral, so
# that their int, float32, list and Fortran-ordered forms hold the same numbers.
X_INT = np.random.default_rng(1).integers(0, 10, (40, 4)).astype(float)
KNN = fit(X_INT, Y, k=3, weighting="distance")
TREE = fit_tree(X_INT, Y)
RATES = 1.0 - np.eye(4)
VARIED_ROWS = np.array([[1.0, 4.0, 2.0, 0.0, 1.0], [2.0, 3.0, 5.0, 1.0, 0.0]])
# two L(0) of integer rates, each with the uniform populations as its one null vector
L0_STACK = np.array([[[-1, 1, 0, 0, 0], [1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -1, 0],
                      [0, 0, 0, 0, -1]],
                     [[-1, 0, 0, 1, 0], [1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, -1, 0],
                      [0, 0, 0, 0, -2]]], dtype=float)
ROWS = dict(features=np.arange(16.0).reshape(4, 4) + 1.0, labels=np.array([0, 3, 0, 3]),
            params=np.array([[1.0, 4.0, 2.0, 0.0, 0.0], [1.0, 4.0, 2.0, 1.0, 1.0]] * 2),
            in_train=np.array([True, False, True, False]))

# (array as the message names it, its shape as the message prints it, the
# interval of its entries or None, a valid value, call), with `call` as in
# ARGUMENTS. The confusion matrix is an array of integers: its message
# names "integers >= 0".
ARRAYS = {
    "fit-features": ("features", "(n, w)", "(-inf, inf)", X_INT, lambda v: fit(v, Y, k=3, zscore=True)),
    "KnnModel-features": ("features", "(n, 4)", "(-inf, inf)", X_INT,
                          lambda v: predict_proba_batch(KnnModel(**{**MODEL, "features": v}), X_INT[:6])),
    "KnnModel-shift": ("shift", "(4,)", "(-inf, inf)", np.array([1.0, 0.0, 2.0, 0.0]),
                       lambda v: predict_proba_batch(KnnModel(**{**MODEL, "shift": v}), X_INT[:6])),
    "KnnModel-scale": ("scale", "(4,)", "(-inf, inf)", np.array([1.0, 2.0, 1.0, 4.0]),
                       lambda v: predict_proba_batch(KnnModel(**{**MODEL, "scale": v}), X_INT[:6])),
    "predict-queries": ("queries", "(n, 4)", None, X_INT[:6], lambda v: predict_proba_batch(KNN, v)),
    "kfold_accuracy-features": ("features", "(n, w)", "(-inf, inf)", X_INT, lambda v: kfold_accuracy(v, Y, k=3)),
    "random_search-features": ("features", "(n, w)", "(-inf, inf)", X_INT,
                               lambda v: random_search(v, Y, SPACE, n_iter=4)),
    "fit_tree-features": ("features", "(n, w)", "(-inf, inf)", X_INT, lambda v: fit_tree(v, Y)),
    "predict_tree-features": ("features", "(n, w)", "(-inf, inf)", X_INT, lambda v: predict_tree(TREE, v)),
    "build_generators-varied": ("varied", "(n, 5)", None, VARIED_ROWS, build_generators),
    "exchange_moment_ratios_batch-varied": ("varied", "(n, 5)", None, VARIED_ROWS, exchange_moment_ratios_batch),
    "steady_states-l0": ("l0", "(n, 5, 5)", "(-inf, inf)", L0_STACK, steady_states),
    "TwistedGenerator-l0": ("l0", "(5, 5)", "(-inf, inf)", L0_STACK[0],
                            lambda v: cumulants(TwistedGenerator(v, 1.0, 1.0))),
    "bose_occupations-temperatures": ("temperatures", "(n,)", None, np.array([1.0, 2.0, 4.0]),
                                      lambda v: bose_occupations(1.0, v)),
    "simulate-initial": ("initial", "(4,)", "[0, inf)", np.array([1.0, 0.0, 0.0, 0.0]),
                         lambda v: simulate(PROC, 10.0, 4, 1, initial=v)),
    "JumpProcess-rates": ("rates", "(4, 4)", "[0, inf)", RATES,
                          lambda v: simulate(JumpProcess(v, PROC.count_weights), 10.0, 4, 1)),
    "JumpProcess-count_weights": ("count_weights", "(4, 4)", None, np.array(PROC.count_weights),
                                  lambda v: simulate(JumpProcess(RATES, v), 10.0, 4, 1)),
    "Dataset-features": ("features", "(4, 4)", None, ROWS["features"],
                         lambda v: Dataset(**{**ROWS, "features": v}).features),
    "Dataset-params": ("params", "(4, 5)", None, ROWS["params"], lambda v: Dataset(**{**ROWS, "params": v}).params),
    "confusion-matrix": ("confusion matrix", "(4, 4)", None,
                         np.array([[5, 1, 0, 0], [2, 7, 1, 0], [0, 0, 3, 2], [1, 0, 0, 8]]), class_metrics),
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


def _span(lo, hi):
    return f">= {lo}" if hi is None else f"in [{lo}, {hi})"


def _integers_message(what, lo, hi, bad):
    return f"{what} must be an (n,) array of integers {_span(lo, hi)}, got {' '.join(repr(bad).split()):.80}"


def _last_entry(call, valid):
    """`call` of an INTEGERS row with its argument's last entry given."""
    return lambda v: call([*valid[:-1], v])


def _refusals():
    """A fraction, a bool, None, text, lo - 1 and hi: as the argument, or as
    the last entry of a valid integer array."""
    for name, (what, lo, hi, _, call) in ARGUMENTS.items():
        for bad in (2.5, True, None, "3", lo - 1) + (() if hi is None else (hi,)):
            message = f"{what} must be an integer {_span(lo, hi)}, got {bad!r}"
            yield pytest.param(message, call, bad, id=f"{name}-{bad!r}")
    for name, (what, lo, hi, valid, call) in INTEGERS.items():
        for bad in (2.5, True, None, "3", lo - 1) + (() if hi is None else (hi,)):
            message = _integers_message(what, lo, hi, [*valid[:-1], bad])
            yield pytest.param(message, _last_entry(call, valid), bad, id=f"{name}-{bad!r}")


@pytest.mark.parametrize("message, call, bad", _refusals())
def test_refused_with_one_message(message, call, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        call(bad)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("call, valid", [pytest.param(v[4], v[3], id=k) for k, v in ARGUMENTS.items()]
                         + [pytest.param(_last_entry(v[4], v[3]), v[3][-1], id=k) for k, v in INTEGERS.items()])
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
    with pytest.raises(DomainError, match=re.escape("feature_subset must be an (n,) array of integers in [0, 4), got (1.9, True)")):
        fit(X, Y, k=3, feature_subset=(1.9, True))
    with pytest.raises(DomainError, match=re.escape("feature_subset must be an (n,) array of integers in [0, 4), got (1, True)")):
        fit(X, Y, k=3, feature_subset=(1, True))


def test_run_size_sweep_refuses_fractional_sizes():
    with pytest.raises(DomainError, match=re.escape("sizes must be an (n,) array of integers >= 1, got [200.7, 400.2]")):
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


# --- arrays of integers --------------------------------------------------------

def _integer_array_refusals():
    """Values that are no sequence of integers (its entries are refused in
    `test_refused_with_one_message`): a bare integer, a dict, a set, a
    generator, text, one dimension more, a float array and a bool array."""
    for name, (what, lo, hi, valid, call) in INTEGERS.items():
        wholes = {"scalar": valid[0], "dict": dict.fromkeys(valid, 0), "set": set(valid),
                  "generator": (v for v in valid), "text": "".join(map(str, valid)), "2-D": [valid],
                  "float-array": np.array(valid, dtype=float), "bool-array": np.array(valid) > 0}
        for key, bad in wholes.items():
            yield pytest.param(_integers_message(what, lo, hi, bad), call, bad, id=f"{name}-{key}")


@pytest.mark.parametrize("message, call, bad", _integer_array_refusals())
def test_integer_arrays_refused_with_one_message(message, call, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        call(bad)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("call, valid", [pytest.param(v[4], v[3], id=k) for k, v in INTEGERS.items()])
def test_integer_array_forms_give_python_ints(call, valid):
    # equal reprs: the same Python ints (a numpy integer would print as
    # np.int64(...)), whichever form the integers come in
    want = repr(call(valid))
    assert all(type(v) is int for v in call(valid))
    for given in (tuple(valid), np.array(valid, dtype=np.int32), np.asfortranarray(valid),
                  np.array(valid, dtype=np.uint8), [np.int64(v) for v in valid]):
        assert repr(call(given)) == want


@pytest.mark.parametrize("call, message", [
    (lambda: HyperSpace(k_range=5), "k_range must be an (n,) array of integers >= 1, got 5"),
    (lambda: fit(X, Y, feature_subset=3), "feature_subset must be an (n,) array of integers in [0, 4), got 3"),
    (lambda: KnnModel(**{**MODEL, "feature_subset": 5}),
     "feature_subset must be an (n,) array of integers >= 0, got 5"),
    (lambda: run_size_sweep(5), "sizes must be an (n,) array of integers >= 1, got 5"),
    (lambda: HyperSpace(k_range={3: 0}), "k_range must be an (n,) array of integers >= 1, got {3: 0}"),
    (lambda: fit(X, Y, feature_subset={0: 1, 1: 1}),
     "feature_subset must be an (n,) array of integers in [0, 4), got {0: 1, 1: 1}"),
    (lambda: run_size_sweep({300: 0}), "sizes must be an (n,) array of integers >= 1, got {300: 0}"),
], ids=["k_range-int", "fit-subset-int", "KnnModel-subset-int", "sizes-int", "k_range-dict",
        "fit-subset-dict", "sizes-dict"])
def test_probed_integer_array_defects_exit_2(call, message):
    # a bare integer raised a raw TypeError, and a dict was read as its keys,
    # before the integer-array rule
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        call()
    assert err.value.exit_code == 2


# --- flags ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", ["no", 1, 0, None, [True]])
def test_zscore_is_a_flag(bad):
    # a truthy "no" or 1 z-scored and a falsy 0 or None did not, with no refusal
    message = f"zscore must be true or false, got {bad!r}"
    for call in (lambda: fit(X, Y, k=3, zscore=bad), lambda: random_search(X, Y, SPACE, n_iter=2, zscore=bad)):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
            call()
        assert err.value.exit_code == 2


def test_zscore_takes_numpy_bools():
    for flag in (True, False):
        assert fit(X, Y, zscore=np.bool_(flag)).shift.tobytes() == fit(X, Y, zscore=flag).shift.tobytes()


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
    """Floats (integral ones too), bools (also among integers), a 4, a -1, a
    wrong length, 2-D labels and strings."""
    bads = {"fractions": Y + 0.5, "integral-floats": Y.astype(float), "float-list": [0.5] * 40,
            "bools": Y % 2 == 0, "bool-list": [True, False] * 20, "four": np.where(Y == 3, 4, Y),
            "minus-one": np.where(Y == 0, -1, Y), "short": Y[:-1], "2-D": Y[:, None],
            "strings": Y.astype(str), "string-list": ["0", "1"] * 20, "ragged": [[0, 1], [2]] * 20,
            "bool-in-list": [True, 1, 2, 3] * 10}
    for name, (what, n, call) in LABELS.items():
        for key, bad in bads.items():
            if n is not None or key != "short":  # predicted classes take their count from nothing
                yield pytest.param(what, n, call, bad, id=f"{name}-{key}")


@pytest.mark.parametrize("what, n, call, bad", _label_refusals())
def test_labels_refused_with_one_message(what, n, call, bad):
    brief = " ".join(repr(bad).split())
    message = f"{what} must be an ({'n' if n is None else n},) array of integers in [0, 4), got {brief:.80}"
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
    message = f"labels must be an (n,) array of integers, got {brief:.80}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        Dataset(ds.features, bad, ds.params, ds.in_train, ds.meta)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("meta", [[1], None, "fixed", 3])
def test_dataset_refuses_a_meta_that_is_no_object(meta):
    # each raised a raw AttributeError from the row check
    ds = generate(20, seed=1)
    with pytest.raises(ParseError, match=f"^{re.escape(f'meta must be a JSON object, got {meta!r}')}$") as err:
        Dataset(ds.features, ds.labels, ds.params, ds.in_train, meta)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("make", [
    lambda n: ["x"] * n, lambda n: [0.5] * n, lambda n: [2] * n, lambda n: [None] * n,
    lambda n: np.ones((n, 1), dtype=bool), lambda n: [True] + [1] * (n - 1),
], ids=["strings", "fractions", "integers", "nones", "2-D", "bool-among-integers"])
def test_dataset_refuses_a_split_column_that_is_no_bools(make):
    # each of these was once read as bools by numpy's cast, with no refusal
    ds = generate(6, seed=3)
    bad = make(6)
    message = f"in_train must be an (6,) array of bools, got {' '.join(repr(bad).split()):.80}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        Dataset(ds.features, ds.labels, ds.params, bad, ds.meta)
    assert err.value.exit_code == 2


def test_dataset_takes_a_split_column_of_bools():
    ds = generate(6, seed=3)
    for split in (ds.in_train.tolist(), ds.in_train.copy(), [bool(b) for b in ds.in_train]):
        back = Dataset(ds.features, ds.labels, ds.params, split, ds.meta)
        assert back.in_train.dtype == bool and back.in_train.tolist() == ds.in_train.tolist()

# --- arrays of real numbers -----------------------------------------------------

def _refused_array(what, dims, span, call, bad):
    kind = "integers >= 0" if what == "confusion matrix" else "real numbers"
    kind += "" if span is None else f" in {span}"
    message = f"{what} must be an {dims} array of {kind}, got {' '.join(repr(bad).split()):.80}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        call(bad)
    assert err.value.exit_code == 2


def _array_refusals():
    """Text, bools (also among numbers), complex numbers, ragged nestings, one
    dimension more and one fewer, and one entry more and one fewer along each
    fixed length; the confusion matrix also refuses floats, integral ones too.
    An array with an interval refuses a first entry of NaN, at each excluded
    end, or just past each included end."""
    for name, (what, dims, span, valid, call) in ARRAYS.items():
        rows = valid.tolist()
        bads = {"numeric-text": [["0.9", "0.1"]], "text-cells": valid.astype(str), "text": "ab",
                "bools": valid != 0, "bool-list": [[True, False]], "complex": valid + 1j,
                "ragged": [[1, 2], [3]], "more-dims": valid[None],
                "fewer-dims": valid.ravel() if valid.ndim > 1 else valid[0]}
        if valid.ndim > 1:
            bads["ragged-rows"] = rows[:-1] + [rows[-1][:-1]]
            bads["bool-in-list"] = [[True, *rows[0][1:]], *rows[1:]]
        else:
            bads["bool-in-list"] = [True, *rows[1:]]
        for axis, length in enumerate(dims.strip("(,)").split(", ")):
            if length.isdigit():
                bads[f"longer-{axis}"] = np.concatenate([valid, valid.take([0], axis=axis)], axis=axis)
                bads[f"shorter-{axis}"] = np.delete(valid, -1, axis=axis)
        if valid.dtype != float:
            bads.update({"integral-floats": valid.astype(float), "float32": valid.astype(np.float32)})
        if span is not None:
            outside = [math.nan] + [float(np.nextafter(end, away)) if closed else end
                                    for (end, closed), away in zip(_ends(span), (-math.inf, math.inf))]
            for entry in outside:
                bads[f"entry-{entry!r}"] = bad = valid.copy()
                bad.flat[0] = entry
        for key, bad in bads.items():
            yield pytest.param(what, dims, span, call, bad, id=f"{name}-{key}")


@pytest.mark.parametrize("what, dims, span, call, bad", _array_refusals())
def test_array_refused_with_one_message(what, dims, span, call, bad):
    _refused_array(what, dims, span, call, bad)


def _bits(result):
    """`result` with every array as (dtype, shape, bytes) and every other
    value as its repr, so that == compares bit for bit."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (tuple, list)):
        return [_bits(r) for r in result]
    return repr(result)


@pytest.mark.parametrize("valid, call", [pytest.param(v[3], v[4], id=k) for k, v in ARRAYS.items()])
def test_array_forms_give_the_same_bits(valid, call):
    # integers, float32 (reals) or narrow integers (the confusion matrix),
    # nested lists and Fortran order give the C-ordered result bit for bit
    want = _bits(call(valid))
    numbers = (np.int64, np.float32) if valid.dtype == float else (np.int8, np.int32, np.uint16)
    for given in (*(valid.astype(t) for t in numbers), valid.tolist(), np.asfortranarray(valid)):
        assert _bits(call(given)) == want


# every interval that a module of the package writes for `as_real` or `as_reals`
SPANS = sorted(set(re.findall(r'"([\[(][-\w.]+, [-\w.]+[\])])"', "".join(
    path.read_text() for path in Path(as_reals.__code__.co_filename).parent.glob("*.py")))))


# ±0.0, both infinities, NaN, and the subnormal, normal and integer extremes
FLOAT_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.min,
               -sys.float_info.min, sys.float_info.max, -sys.float_info.max)
INT_EDGES = (0, 1, -1, 2**53 + 1, 2**63 - 1, -2**63)


def _entries(dtype, span):
    """Entries of `dtype`: an edge value or an end of `span` or its neighbour,
    one inside `span`, or any at all."""
    lo, hi = (float(e) for e in span[1:-1].split(", "))
    if dtype is np.float64:
        ends = [float(np.nextafter(end, to)) for end in (lo, hi) for to in (-math.inf, end, math.inf)]
        return st.one_of(st.sampled_from(FLOAT_EDGES + tuple(ends)), st.floats(lo, hi, allow_nan=False),
                         st.floats())
    ends = [r(end) + d for end in (lo, hi) if math.isfinite(end) for r in (math.floor, math.ceil) for d in (-1, 0, 1)]
    lo, hi = max(-2**63, math.ceil(max(lo, -1e19))), min(2**63 - 1, math.floor(min(hi, 1e19)))
    return st.one_of(st.sampled_from(INT_EDGES + tuple(ends)), st.integers(lo, hi),
                     st.integers(-2**63, 2**63 - 1))


@seed(35)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_array_rule_is_the_real_rule_entry_by_entry(data):
    # as_reals accepts an array in an interval exactly when as_real accepts
    # each entry, and then gives the same floats bit for bit
    span = data.draw(st.sampled_from(SPANS))
    dtype = data.draw(st.sampled_from([np.float64, np.int64]))
    arr = data.draw(arrays(dtype, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=2),
                           elements=_entries(dtype, span)))
    try:
        want = np.array([as_real(e, "x", span) for e in arr.flat], dtype=float).reshape(arr.shape)
    except DomainError:
        with pytest.raises(DomainError, match=re.escape(f"array of real numbers in {span}, got")):
            as_reals(arr, "x", arr.shape, span)
    else:
        assert as_reals(arr, "x", arr.shape, span).tobytes() == want.tobytes()


def test_float64_arrays_are_not_copied():
    # whatever their layout: a copy would cost a model file's features twice over
    for arr in (X, np.asfortranarray(X), X[::3], X.T, np.frombuffer(X.tobytes()).reshape(X.shape)):
        assert as_reals(arr, "features", ("n", "w")) is arr
    assert as_reals(X[:, 0], "initial", (40,)) is not X  # a view, returned as itself
    assert as_reals([1, 2], "initial", (2,)).dtype == float


@pytest.mark.parametrize("call, what, dims, span, bad", [
    pytest.param(lambda v: fit(v, [0, 1], k=1), "features", "(n, w)", "(-inf, inf)", [[1.0, 2.0], [3.0]],
                 id="ragged-fit"),
    pytest.param(lambda v: random_search(v, Y, SPACE, n_iter=2), "features", "(n, w)", "(-inf, inf)",
                 [[0.5] * 4] * 39 + [[0.5]], id="ragged-random_search"),
    pytest.param(lambda v: fit(v, Y, k=3), "features", "(n, w)", "(-inf, inf)", X + 1j, id="complex-fit"),
    pytest.param(lambda v: predict_proba_batch(KnnModel(**{**MODEL, "features": v}), X[:2]),
                 "features", "(n, 4)", "(-inf, inf)", X > 0.5, id="bool-KnnModel"),
    pytest.param(build_generators, "varied", "(n, 5)", None, np.ones((2, 3)), id="width-3-build_generators"),
    pytest.param(build_generators, "varied", "(n, 5)", None, [[True, 3.5, 2.0, 0.0, 0.5]], id="bool-t_c"),
    pytest.param(build_generators, "varied", "(n, 5)", None, VARIED_ROWS.ravel(), id="flat-build_generators"),
    pytest.param(exchange_moment_ratios_batch, "varied", "(n, 5)", None, VARIED_ROWS.ravel(),
                 id="flat-exchange_moment_ratios_batch"),
    pytest.param(lambda v: simulate(PROC, 10.0, 4, 1, initial=v), "initial", "(4,)", "[0, inf)",
                 [True, False, False, False], id="bool-initial"),
    pytest.param(lambda v: simulate(PROC, 10.0, 4, 1, initial=v), "initial", "(4,)", "[0, inf)",
                 ["0.25"] * 4, id="text-initial"),
    pytest.param(lambda v: predict_tree(TREE, v), "features", "(n, w)", "(-inf, inf)", X_INT[0],
                 id="row-predict_tree"),
    pytest.param(steady_states, "l0", "(n, 5, 5)", "(-inf, inf)", np.zeros((2, 4, 4)),
                 id="4x4-steady_states"),
    pytest.param(steady_states, "l0", "(n, 5, 5)", "(-inf, inf)", [[1]], id="1x1-steady_states"),
    pytest.param(accuracy, "confusion matrix", "(4, 4)", None, [[1, 2], [3]], id="ragged-accuracy"),
    pytest.param(accuracy, "confusion matrix", "(4, 4)", None,
                 np.ones((4, 4), dtype=int).astype(str), id="text-accuracy"),
    pytest.param(lambda v: fd_cumulants(replace(GEN, l0=v)), "l0", "(5, 5)", "(-inf, inf)", np.eye(4),
                 id="4x4-fd_cumulants"),
    pytest.param(lambda v: build_jump_process(replace(GEN, l0=v)), "l0", "(5, 5)", "(-inf, inf)", np.eye(4),
                 id="4x4-build_jump_process"),
])
def test_probed_array_defects_exit_2(call, what, dims, span, bad):
    # each crashed with a raw numpy or Python error, or was read as
    # something else, before the array rule
    _refused_array(what, dims, span, call, bad)


@pytest.mark.parametrize("call, message, bad", [
    pytest.param(steady_states, "l0 must be an (n, 5, 5) array of real numbers in (-inf, inf)",
                 np.full((2, 5, 5), math.nan), id="nan-steady_states"),
    pytest.param(steady_states, "l0 must be an (n, 5, 5) array of real numbers in (-inf, inf)",
                 np.where(L0_STACK == -2, -math.inf, L0_STACK), id="inf-steady_states"),
    pytest.param(lambda v: fit_tree(v, Y), "features must be an (n, w) array of real numbers in (-inf, inf)",
                 np.full((40, 4), math.nan), id="nan-fit_tree"),
    pytest.param(lambda v: predict_tree(TREE, v), "features must be an (n, w) array of real numbers in (-inf, inf)",
                 [[math.nan, math.inf, 1.0, 1.0]], id="nan-inf-predict_tree"),
    pytest.param(lambda v: random_search(v, Y, SPACE, n_iter=2),
                 "features must be an (n, w) array of real numbers in (-inf, inf)",
                 np.where(np.arange(X.size).reshape(X.shape) == 45, math.nan, X), id="held-out-nan-random_search"),
    pytest.param(lambda v: kfold_accuracy(v, Y, k=3),
                 "features must be an (n, w) array of real numbers in (-inf, inf)",
                 np.where(np.arange(X.size).reshape(X.shape) == 45, math.nan, X), id="held-out-nan-kfold_accuracy"),
])
def test_non_finite_arrays_exit_2(call, message, bad):
    # the stacks gave null space failures or numpy's LinAlgError, the tree
    # fitted a leaf on NaN features and answered a NaN row, and a NaN in
    # row 11, which the first fold holds out, was named as the queries'
    message = f"{message}, got {' '.join(repr(bad).split()):.80}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        call(bad)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: cumulants(replace(GEN, emit_rate=math.nan)),
                 "emit_rate must be a real number in [0, inf), got nan", id="nan-cumulants"),
    pytest.param(lambda: fd_cumulants(replace(GEN, emit_rate=math.nan)),
                 "emit_rate must be a real number in [0, inf), got nan", id="nan-fd_cumulants"),
    pytest.param(lambda: cumulants(replace(GEN, absorb_rate="0.5")),
                 "absorb_rate must be a real number in [0, inf), got '0.5'", id="text-cumulants"),
    pytest.param(lambda: cumulants(replace(GEN, emit_rate=-1.0)),
                 "emit_rate must be a real number in [0, inf), got -1.0", id="negative-cumulants"),
    pytest.param(lambda: fd_cumulants(replace(GEN, emit_rate=-1.0)),
                 "emit_rate must be a real number in [0, inf), got -1.0", id="negative-fd_cumulants"),
    pytest.param(lambda: cumulants(replace(GEN, emit_rate=2 * GEN.emit_rate)),
                 f"emit_rate must equal l0[3, 2] bit for bit, got {2 * GEN.emit_rate!r} and {GEN.emit_rate!r}",
                 id="doubled-cumulants"),
    pytest.param(lambda: cumulants(replace(COLD_CAVITY, absorb_rate=-0.0)),
                 "absorb_rate must equal l0[2, 3] bit for bit, got -0.0 and 0.0", id="negative-zero-cumulants"),
])
def test_probed_generator_defects_exit_2(call, message):
    # a rate that is NaN, text or negative, or that is not L(0)'s entry on
    # its edge, gave NaN cumulants, a raw numpy or Python error, or numbers
    # on which the perturbative and the finite-difference routes disagree
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        call()
    assert err.value.exit_code == 2


def test_generator_l0_forms_give_the_same_fd_bits():
    # a nested list raised a raw AttributeError in the finite-difference oracle
    assert fd_cumulants(replace(GEN, l0=GEN.l0.tolist())).tobytes() == fd_cumulants(GEN).tobytes()


# --- names ----------------------------------------------------------------------

def _name_refusals():
    """A wrong name, a case variant of a valid one, and non-strings; an
    entry of a sequence of names that is no string makes it no array of
    names (`call` puts the entry in a 1-tuple)."""
    for key, (what, names, valid, call) in NAMES.items():
        for bad in ("bogus", valid.upper(), valid.title(), 1, None, True, [valid], (valid,)):
            message = f"{what} must be one of {names}, got {bad!r}"
            if what.endswith(" entry") and not isinstance(bad, str):
                message = f"{what.removesuffix(' entry')} must be a 1-D array of names, got {(bad,)!r}"
            yield pytest.param(message, call, bad, id=f"{key}-{bad!r}")


@pytest.mark.parametrize("message, call, bad", _name_refusals())
def test_name_refused_with_one_message(message, call, bad):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as err:
        call(bad)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("field, bad", [("weightings", 5), ("weightings", {"uniform": 1}),
                                        ("metrics", "euclidean"), ("metrics", {"euclidean"})],
                         ids=["int", "dict", "one-name", "set"])
def test_hyperspace_names_are_a_sequence(field, bad):
    # an int raised a raw TypeError, a dict or set was read as its keys, and
    # one name was read per character
    with pytest.raises(DomainError, match=f"^{re.escape(f'{field} must be a 1-D array of names, got {bad!r}')}$") as err:
        HyperSpace(**{field: bad})
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
