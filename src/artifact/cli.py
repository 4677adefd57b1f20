"""Command-line front end.

Global flags come before the subcommand:

    artifact --seed 42 --out results gen-data --n 50000

Exit codes: 0 success, 2 validation/configuration problem, 3 numerical
quality failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import DEFAULT_RANGES, ParamRanges, generate, read_csv, write_csv
from .engine import EngineParams
from .errors import ArtifactError, ValidationError
from .experiments import ScenarioSpec, run_scenario, run_size_sweep, sweep_csv, sweep_gnuplot
from .knn import (FEATURE_SUBSETS, HyperSpace, fit, model_from_json, model_to_json,
                  predict_batch, random_search, single_shot_accuracy)
from .metrics import accuracy, confusion_matrix, render_class_metrics, render_confusion
from .trajectories import compare_with_analytic


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}")

_MAPPINGS = tuple(sorted(FEATURE_SUBSETS))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="artifact",
        description="Coherence-class inference for a four-level thermal engine.",
    )
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--config", type=Path, help="JSON file with option overrides")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a labeled dataset CSV")
    g.add_argument("--n", type=int, default=50_000)
    g.add_argument("--name", default="dataset", help="basename for the CSV")

    t = sub.add_parser("train", help="fit a model at fixed hyperparameters")
    t.add_argument("--data", type=Path, required=True)
    t.add_argument("--mapping", choices=_MAPPINGS, required=True)
    t.add_argument("--k", type=int, default=5)
    t.add_argument("--weighting", choices=("uniform", "distance"), default="uniform")
    t.add_argument("--metric", choices=("euclidean", "manhattan"), default="euclidean")

    u = sub.add_parser("tune", help="randomized hyperparameter search")
    u.add_argument("--data", type=Path, required=True)
    u.add_argument("--mapping", choices=_MAPPINGS, required=True)
    u.add_argument("--n-iter", type=int, default=10)
    u.add_argument("--folds", type=int, default=5)

    e = sub.add_parser("evaluate", help="score a saved model on a dataset's validation split")
    e.add_argument("--model", type=Path, required=True)
    e.add_argument("--data", type=Path, required=True)

    a = sub.add_parser("apply", help="run a constrained scenario against a saved model")
    a.add_argument("--model", type=Path, required=True)
    a.add_argument("--scenario", type=Path, required=True, help="ScenarioSpec JSON")

    s = sub.add_parser("sweep", help="accuracy vs dataset size")
    s.add_argument("--mapping", choices=_MAPPINGS, default="f1")
    s.add_argument("--sizes", default="5000,10000,20000,35000,50000",
                   help="comma-separated ascending sizes")

    o = sub.add_parser("oracle-check", help="stochastic-vs-analytic comparison table")
    o.add_argument("--draws", type=int, default=5)
    o.add_argument("--t-final", type=float, default=1e5)
    o.add_argument("--n-traj", type=int, default=200)

    return p


_CONFIG_KEYS = ("ranges", "train_frac", "zscore", "space", "folds")
_SPACE_KEYS = ("k_range", "weightings", "metrics")

# JSON type of each scalar config value; bools are not numbers here.
_CONFIG_TYPES = {"train_frac": ((int, float), "a number"),
                 "zscore": ((bool,), "true or false"),
                 "folds": ((int,), "an integer")}


def _reject_unknown(doc: dict, known: tuple, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValidationError(f"unknown {where} key {unknown[0]!r}; expected one of {known}")


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    _reject_unknown(doc, _CONFIG_KEYS, "config")
    for key, (types, what) in _CONFIG_TYPES.items():
        if key in doc and type(doc[key]) not in types:
            raise ValidationError(f"config key {key!r} must be {what}, got {doc[key]!r}")
    return doc


def _config_ranges(cfg: dict) -> ParamRanges:
    if "ranges" in cfg:
        return ParamRanges.from_dict(cfg["ranges"])
    return DEFAULT_RANGES


def _cmd_gen_data(args, cfg) -> int:
    ds = generate(args.n, ranges=_config_ranges(cfg), seed=args.seed,
                  train_frac=cfg.get("train_frac", 0.70))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.name}.csv"
    write_csv(ds, path)
    counts = np.bincount(ds.labels, minlength=4)
    print(f"wrote {len(ds)} samples to {path}")
    print(f"class counts: {counts.tolist()}, redraws: {ds.meta['redraws']}")
    return 0


def _cmd_train(args, cfg) -> int:
    ds = read_csv(args.data)
    subset = FEATURE_SUBSETS[args.mapping]
    x_train, y_train = ds.train
    x_val, y_val = ds.validation
    model = fit(x_train, y_train, k=args.k, weighting=args.weighting,
                metric=args.metric, feature_subset=subset,
                zscore=cfg.get("zscore", False))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"model-{args.mapping}.json"
    path.write_text(model_to_json(model) + "\n")
    print(f"mapping {args.mapping}: k={args.k}, {args.weighting}, {args.metric}")
    print(f"train accuracy: {single_shot_accuracy(model, x_train[:, subset], y_train):.4f}")
    print(f"validation accuracy: {single_shot_accuracy(model, x_val[:, subset], y_val):.4f}")
    print(f"wrote {path}")
    return 0


def _space_from_config(cfg: dict) -> HyperSpace:
    doc = cfg.get("space")
    if not doc:
        return HyperSpace()
    if not isinstance(doc, dict):
        raise ValidationError("config key 'space' must be a JSON object")
    _reject_unknown(doc, _SPACE_KEYS, "space")
    kwargs = {}
    for key in _SPACE_KEYS:
        if key in doc:
            if type(doc[key]) is not list:
                raise ValidationError(f"space key {key!r} must be a JSON list, got {doc[key]!r}")
            kwargs[key] = tuple(doc[key])
    return HyperSpace(**kwargs)


def _cmd_tune(args, cfg) -> int:
    ds = read_csv(args.data)
    subset = FEATURE_SUBSETS[args.mapping]
    x_train, y_train = ds.train
    res = random_search(x_train[:, subset], y_train, space=_space_from_config(cfg),
                        n_iter=args.n_iter, seed=args.seed, folds=args.folds,
                        zscore=cfg.get("zscore", False))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"tuning-{args.mapping}.json"
    path.write_text(json.dumps({
        "mapping": args.mapping,
        "best": res.best._asdict(),
        "best_score": res.best_score,
        "trials": [{"params": hp._asdict(), "score": sc} for hp, sc in res.trials],
    }, indent=2) + "\n")
    hp = res.best
    print(f"best: k={hp.k}, weighting={hp.weighting}, metric={hp.metric} "
          f"(cv accuracy {res.best_score:.4f})")
    print(f"wrote {path}")
    return 0


def _cmd_evaluate(args, cfg) -> int:
    model = model_from_json(_read_text(args.model, "model"))
    ds = read_csv(args.data)
    x_val, y_val = ds.validation
    if max(model.feature_subset) >= x_val.shape[1]:
        raise ValidationError(f"model feature subset {model.feature_subset} exceeds the "
                              f"dataset's {x_val.shape[1]} features")
    preds = predict_batch(model, x_val[:, model.feature_subset])
    chi = confusion_matrix(preds, y_val)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "confusion.txt").write_text(render_confusion(chi) + "\n")
    (args.out / "class-metrics.csv").write_text(render_class_metrics(chi))
    print(f"validation accuracy: {accuracy(chi):.4f}")
    print(render_confusion(chi))
    print()
    print(render_class_metrics(chi), end="")
    print(f"wrote {args.out / 'confusion.txt'} and {args.out / 'class-metrics.csv'}")
    return 0


def _cmd_apply(args, cfg) -> int:
    model = model_from_json(_read_text(args.model, "model"))
    spec = ScenarioSpec.from_json(_read_text(args.scenario, "scenario"))
    res = run_scenario(model, spec)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "scenario-result.json"
    path.write_text(json.dumps({
        "spec": spec.to_dict(),
        "unit_counts": list(res.unit_counts),
        "mean_proba": list(res.mean_proba),
        "winner": res.winner,
    }, indent=2) + "\n")
    print(f"constraints: pair12={spec.pair12}, pair34={spec.pair34}, n={spec.n}")
    print(f"unit-probability counts per class: {list(res.unit_counts)}")
    print(f"mean predicted probability per class: "
          + ", ".join(f"{v:.4f}" for v in res.mean_proba))
    print(f"winner: class {res.winner}")
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args, cfg) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ValidationError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    rows = run_size_sweep(sizes, mapping=args.mapping, seed=args.seed,
                          ranges=_config_ranges(cfg), folds=cfg.get("folds", 5))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "sweep.csv").write_text(sweep_csv(rows))
    (args.out / "sweep.dat").write_text(sweep_gnuplot(rows))
    print(sweep_csv(rows), end="")
    print(f"wrote {args.out / 'sweep.csv'} and {args.out / 'sweep.dat'}")
    return 0


def _cmd_oracle_check(args, cfg) -> int:
    rng = np.random.default_rng(args.seed)
    print(f"{'t_c':>6} {'t_h':>6} {'t_l':>6} | {'analytic':>10} {'empirical mean':>22} {'z':>5} "
          f"| {'analytic':>10} {'empirical var':>22} {'z':>5}")
    worst = 0.0
    for _ in range(args.draws):
        params = EngineParams(
            t_c=rng.uniform(0.4, 2.5), t_h=rng.uniform(3.0, 4.5),
            t_l=rng.uniform(1.0, 7.0),
        )
        row = compare_with_analytic(params, args.t_final, args.n_traj, args.seed)
        st = row["stats"]
        worst = max(worst, row["z_mean"], row["z_var"])
        print(f"{params.t_c:6.3f} {params.t_h:6.3f} {params.t_l:6.3f} "
              f"| {row['analytic_mean']:10.6f} {st.mean_rate:13.6f} +- {st.mean_se:8.6f} {row['z_mean']:5.2f} "
              f"| {row['analytic_var']:10.6f} {st.var_rate:13.6f} +- {st.var_se:8.6f} {row['z_var']:5.2f}")
    print(f"worst |z| = {worst:.2f} over {args.draws} draws "
          f"(t_final={args.t_final:g}, n_traj={args.n_traj})")
    return 0


_DISPATCH = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "tune": _cmd_tune,
    "evaluate": _cmd_evaluate,
    "apply": _cmd_apply,
    "sweep": _cmd_sweep,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _DISPATCH[args.command](args, cfg)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
