"""The one integer rule, `errors.as_int`, at every count, seed and index
argument, and the one real-number rule, `errors.as_real`, at every real
argument."""

import math
import re

import numpy as np
import pytest

from artifact.cli import _CONFIG, main
from artifact.data import generate, write_csv
from artifact.engine import EngineParams
from artifact.errors import DomainError
from artifact.experiments import ScenarioSpec, run_size_sweep
from artifact.knn import (HyperSpace, KnnModel, fit, fold_splits, kfold_accuracy,
                          random_search)
from artifact.trajectories import build_jump_process, check_run, simulate

X = np.random.default_rng(0).random((40, 4))
Y = np.arange(40) % 4
SPACE = HyperSpace(k_range=(1, 2, 3))
PROC = build_jump_process(EngineParams())
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
