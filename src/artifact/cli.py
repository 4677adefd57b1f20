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
from .data import DEFAULT_RANGES, N_CLASSES, Dataset, ParamRanges, generate, read_csv, write_csv
from .engine import EngineParams
from .errors import ArtifactError, ValidationError, json_object, read_text
from .experiments import ScenarioSpec, run_scenario, run_size_sweep, sweep_csv, sweep_gnuplot
from .knn import (DISTANCE_METRICS, FEATURE_SUBSETS, WEIGHTINGS, HyperSpace, fit, model_from_json,
                  model_to_json, predict_batch, random_search, single_shot_accuracy)
from .metrics import accuracy, confusion_matrix, render_class_metrics, render_confusion
from .trajectories import check_run, compare_with_analytic


def _write(out: Path, name: str, content) -> Path:
    """Write `content`, text or a Dataset (CSV plus sidecar), to `out/name`,
    creating `out`; a write that fails exits 2."""
    path = out / name
    try:
        out.mkdir(parents=True, exist_ok=True)
        if isinstance(content, Dataset):
            write_csv(content, path)
        else:
            path.write_text(content)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")
    return path


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
    t.add_argument("--weighting", choices=WEIGHTINGS, default="uniform")
    t.add_argument("--metric", choices=DISTANCE_METRICS, default="euclidean")

    u = sub.add_parser("tune", help="randomized hyperparameter search")
    u.add_argument("--data", type=Path, required=True)
    u.add_argument("--mapping", choices=_MAPPINGS, required=True)
    u.add_argument("--n-iter", type=int, default=10)

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


# parsing leaves the parser as it was, so every call in a process shares one
_PARSER = build_parser()


def _scalar(key: str, types: tuple, what: str, rule: str = "", holds=lambda v: True):
    """Parser of a scalar config value: its JSON type (bools are not
    numbers here), then the rule its value must meet."""
    def parse(value):
        if type(value) not in types:
            raise ValidationError(f"config key {key!r} must be {what}, got {value!r}")
        if not holds(value):
            raise ValidationError(f"config key {key!r} must be {rule}, got {value!r}")
        return value
    return parse


def _space(doc) -> HyperSpace:
    for key, value in json_object(doc, "space", ("k_range", "weightings", "metrics")).items():
        if type(value) is not list:
            raise ValidationError(f"space key {key!r} must be a JSON list, got {value!r}")
    return HyperSpace(**{key: tuple(value) for key, value in doc.items()})


# Every config key: its setting when the config leaves it out, and the
# parser from the JSON value to the checked setting.
_CONFIG = {
    "ranges": (DEFAULT_RANGES, ParamRanges.from_dict),
    "train_frac": (0.70, _scalar("train_frac", (int, float), "a number",
                                 "in (0, 1)", lambda v: 0.0 < v < 1.0)),
    "zscore": (False, _scalar("zscore", (bool,), "true or false")),
    "space": (HyperSpace(), _space),
    "folds": (5, _scalar("folds", (int,), "an integer", ">= 2", lambda v: v >= 2)),
}


def _load_config(path: Path | None) -> dict:
    """The setting of every config key, read from `path` or defaulted;
    a malformed value exits 2 whichever command runs."""
    doc = {} if path is None else json_object(read_text(path, "config"), "config",
                                              tuple(_CONFIG), text=True)
    return {key: parse(doc[key]) if key in doc else default
            for key, (default, parse) in _CONFIG.items()}


def _cmd_gen_data(args, cfg) -> int:
    if args.name in ("", ".", "..") or Path(args.name).name != args.name:
        raise ValidationError(f"cannot write {args.out / args.name}.csv: --name must be "
                              f"a plain file name inside --out, got {args.name!r}")
    ds = generate(args.n, ranges=cfg["ranges"], seed=args.seed, train_frac=cfg["train_frac"])
    path = _write(args.out, f"{args.name}.csv", ds)
    counts = np.bincount(ds.labels, minlength=N_CLASSES)
    print(f"wrote {len(ds)} samples to {path}")
    print(f"class counts: {counts.tolist()}, redraws: {ds.meta['redraws']}")
    return 0


def _cmd_train(args, cfg) -> int:
    ds = read_csv(args.data)
    subset = FEATURE_SUBSETS[args.mapping]
    x_train, y_train = ds.train
    x_val, y_val = ds.validation
    model = fit(x_train, y_train, k=args.k, weighting=args.weighting,
                metric=args.metric, feature_subset=subset, zscore=cfg["zscore"])
    path = _write(args.out, f"model-{args.mapping}.json", model_to_json(model) + "\n")
    print(f"mapping {args.mapping}: k={args.k}, {args.weighting}, {args.metric}")
    print(f"train accuracy: {single_shot_accuracy(model, x_train[:, subset], y_train):.4f}")
    print(f"validation accuracy: {single_shot_accuracy(model, x_val[:, subset], y_val):.4f}")
    print(f"wrote {path}")
    return 0


def _cmd_tune(args, cfg) -> int:
    ds = read_csv(args.data)
    subset = FEATURE_SUBSETS[args.mapping]
    x_train, y_train = ds.train
    res = random_search(x_train[:, subset], y_train, space=cfg["space"], n_iter=args.n_iter,
                        seed=args.seed, folds=cfg["folds"], zscore=cfg["zscore"])
    path = _write(args.out, f"tuning-{args.mapping}.json", json.dumps({
        "mapping": args.mapping,
        "best": res.best._asdict(),
        "best_score": res.best_score,
        "trials": [{"params": hp._asdict(), "score": sc} for hp, sc in res.trials],
        "vote_fallbacks": res.vote_fallbacks,
    }, indent=2) + "\n")
    hp = res.best
    print(f"best: k={hp.k}, weighting={hp.weighting}, metric={hp.metric} "
          f"(cv accuracy {res.best_score:.4f})")
    print(f"wrote {path}")
    return 0


def _cmd_evaluate(args, cfg) -> int:
    model = model_from_json(read_text(args.model, "model"))
    ds = read_csv(args.data)
    x_val, y_val = ds.validation
    if max(model.feature_subset) >= x_val.shape[1]:
        raise ValidationError(f"model feature subset {model.feature_subset} exceeds the "
                              f"dataset's {x_val.shape[1]} features")
    preds = predict_batch(model, x_val[:, model.feature_subset])
    chi = confusion_matrix(preds, y_val)
    confusion = _write(args.out, "confusion.txt", render_confusion(chi) + "\n")
    metrics = _write(args.out, "class-metrics.csv", render_class_metrics(chi))
    print(f"validation accuracy: {accuracy(chi):.4f}")
    print(render_confusion(chi))
    print()
    print(render_class_metrics(chi), end="")
    print(f"wrote {confusion} and {metrics}")
    return 0


def _cmd_apply(args, cfg) -> int:
    model = model_from_json(read_text(args.model, "model"))
    spec = ScenarioSpec.from_json(read_text(args.scenario, "scenario"))
    res = run_scenario(model, spec)
    path = _write(args.out, "scenario-result.json", json.dumps({
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
                          ranges=cfg["ranges"], folds=cfg["folds"])
    csv = _write(args.out, "sweep.csv", sweep_csv(rows))
    dat = _write(args.out, "sweep.dat", sweep_gnuplot(rows))
    print(sweep_csv(rows), end="")
    print(f"wrote {csv} and {dat}")
    return 0


def _cmd_oracle_check(args, cfg) -> int:
    if args.draws < 1:
        raise ValidationError(f"--draws must be >= 1, got {args.draws}")
    check_run(args.t_final, args.n_traj)
    rng = np.random.default_rng(args.seed)
    print(f"{'t_c':>6} {'t_h':>6} {'t_l':>6} | {'analytic':>10} {'empirical mean':>22} {'z':>5} "
          f"| {'analytic':>10} {'empirical var':>22} {'z':>5}")
    worst = 0.0
    r = DEFAULT_RANGES
    for _ in range(args.draws):
        params = EngineParams(t_c=rng.uniform(*r.t_c), t_h=rng.uniform(*r.t_h),
                              t_l=rng.uniform(*r.t_l))
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
    args = _PARSER.parse_args(argv)
    try:
        if args.seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        return _DISPATCH[args.command](args, _load_config(args.config))
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
