"""End-to-end orchestration: tuning pipelines, constrained-scenario
application runs, and the dataset-size sweep.

Scenario feature vectors are synthetic draws inside fixed per-feature
intervals, not physically generated statistics; a constrained quadruple
need not be realizable by any engine configuration. That is the point
of the application study: the classifier answers for inputs stated as
relations between observables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DEFAULT_RANGES, Dataset, ParamRanges, as_range, generate
from .errors import (DomainError, InfeasibleConstraintError, ValidationError, as_int, as_name,
                     json_object)
from .knn import (FEATURE_SUBSETS, KnnModel, SearchResult, fit, fold_splits,
                  kfold_accuracy, predict_proba_batch, random_search,
                  single_shot_accuracy, predict_batch)
from .metrics import accuracy, confusion_matrix
from .tree import fit_tree, predict_tree

PAIR_RELATIONS = ("equal", "greater", "less")
DEFAULT_SCENARIO_RANGES = ((0.76, 1.001), (0.80, 1.01), (0.76, 1.002), (0.76, 1.001))

_REJECTION_CAP = 1_000_000
_REJECTION_BATCH = 4096
_WIDTHS = sorted({len(s) for s in FEATURE_SUBSETS.values()})


@dataclass(frozen=True)
class ScenarioSpec:
    """Constraint study input: relations imposed on feature pairs.

    `pair12` relates the first two features, `pair34` the last two
    ("absent" for mappings that do not see them, or to leave the pair
    unconstrained).
    """

    pair12: str
    pair34: str = "absent"
    n: int = 1000
    ranges: tuple = DEFAULT_SCENARIO_RANGES
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "pair12", as_name(self.pair12, "pair12", PAIR_RELATIONS))
        object.__setattr__(self, "pair34", as_name(self.pair34, "pair34", PAIR_RELATIONS + ("absent",)))
        object.__setattr__(self, "n", as_int(self.n, "n", 1))
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0))
        if type(self.ranges) not in (list, tuple) or len(self.ranges) != 4:
            raise DomainError(f"ranges must be 4 [lo, hi] pairs, got {self.ranges!r:.80}")
        object.__setattr__(self, "ranges", tuple(as_range(r, f"c{i}", "(-inf, inf)")
                                                 for i, r in enumerate(self.ranges, start=1)))

    def to_dict(self) -> dict:
        return {"pair12": self.pair12, "pair34": self.pair34, "n": self.n,
                "ranges": [list(r) for r in self.ranges], "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        doc = json_object(doc, "scenario", ("pair12", "pair34", "n", "ranges", "seed"))
        if "pair12" not in doc:
            raise ValidationError("scenario needs at least 'pair12'")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json_object(text, "scenario", text=True))


@dataclass(frozen=True)
class ScenarioResult:
    unit_counts: tuple   # per class: queries answered with probability exactly 1
    mean_proba: tuple
    winner: int


def _uniform(rng, interval, n):
    lo, hi = interval
    return lo + (hi - lo) * rng.random(n)


def _draw_pair(rng, first, second, relation, n):
    """n pairs from the two intervals under the relation.

    equal: the second coordinate copies the first (continuous equality
    has measure zero, so equality is realized by construction).
    greater/less: joint rejection until the strict inequality holds;
    once _REJECTION_CAP attempts are spent, a relation that accepted
    fewer than 1% of them is infeasible.
    """
    if relation == "equal":
        a = _uniform(rng, first, n)
        return a, a.copy()
    keep_a = []
    keep_b = []
    accepted = 0
    attempts = 0
    while accepted < n:
        if attempts >= _REJECTION_CAP and accepted < 0.01 * attempts:
            rate = accepted / attempts
            raise InfeasibleConstraintError(
                f"{relation!r} constraint acceptance rate {rate:.2%} after {attempts} attempts"
            )
        a = _uniform(rng, first, _REJECTION_BATCH)
        b = _uniform(rng, second, _REJECTION_BATCH)
        mask = a > b if relation == "greater" else a < b
        keep_a.append(a[mask])
        keep_b.append(b[mask])
        accepted += int(mask.sum())
        attempts += _REJECTION_BATCH
    return np.concatenate(keep_a)[:n], np.concatenate(keep_b)[:n]


def sample_scenario_features(spec: ScenarioSpec, width: int) -> np.ndarray:
    """Synthetic feature block of the given width under the constraints."""
    if width not in _WIDTHS:
        raise DomainError(f"feature width must be {', '.join(map(str, _WIDTHS[:-1]))} "
                          f"or {_WIDTHS[-1]}, got {width}")
    if width < 4 and spec.pair34 != "absent":
        raise DomainError(
            f"pair34={spec.pair34!r} needs 4 features, model sees {width}"
        )
    rng = np.random.default_rng(spec.seed)
    c1, c2 = _draw_pair(rng, spec.ranges[0], spec.ranges[1], spec.pair12, spec.n)
    if spec.pair34 != "absent":
        rest = _draw_pair(rng, spec.ranges[2], spec.ranges[3], spec.pair34, spec.n)
    else:
        rest = [_uniform(rng, r, spec.n) for r in spec.ranges[2:width]]
    return np.column_stack([c1, c2, *rest])


def run_scenario(model: KnnModel, spec: ScenarioSpec) -> ScenarioResult:
    """Query the model over constrained synthetic inputs and tally the
    queries answered with unit probability per class."""
    x = sample_scenario_features(spec, model.features.shape[1])
    proba = predict_proba_batch(model, x)
    unit = proba == 1.0
    counts = unit.sum(axis=0)
    return ScenarioResult(
        unit_counts=tuple(int(c) for c in counts),
        mean_proba=tuple(float(v) for v in proba.mean(axis=0)),
        winner=int(np.argmax(counts)),
    )


def _subset(mapping: str) -> tuple:
    return FEATURE_SUBSETS[as_name(mapping, "mapping", FEATURE_SUBSETS)]


def scenario_suite(mapping: str, n: int = 1000, seed: int = 0) -> list:
    """The standard constraint grid: 9 cases for the 4-feature mapping
    (3 relations on each pair), 3 for the narrower ones."""
    specs = []
    pair34_choices = PAIR_RELATIONS if len(_subset(mapping)) == 4 else ("absent",)
    case = 0
    for p12 in PAIR_RELATIONS:
        for p34 in pair34_choices:
            specs.append(ScenarioSpec(pair12=p12, pair34=p34, n=n, seed=seed + case))
            case += 1
    return specs


@dataclass(frozen=True)
class PipelineResult:
    search: SearchResult
    model: KnnModel
    val_accuracy: float
    chi: np.ndarray


def run_pipeline(mapping: str, dataset: Dataset, seed: int = 0,
                 n_iter: int = 60) -> PipelineResult:
    """Tune on the training split over the full search space with 5 folds,
    refit on raw features, evaluate on the validation split."""
    subset = _subset(mapping)
    x_train, y_train = dataset.train
    x_val, y_val = dataset.validation
    search = random_search(x_train[:, subset], y_train, n_iter=n_iter, seed=seed)
    hp = search.best
    model = fit(x_train, y_train, k=hp.k, weighting=hp.weighting, metric=hp.metric,
                feature_subset=subset)
    chi = confusion_matrix(predict_batch(model, x_val[:, subset]), y_val)
    return PipelineResult(search=search, model=model, val_accuracy=accuracy(chi), chi=chi)


def evaluate_untuned(mapping: str, dataset: Dataset) -> float:
    """Validation accuracy at `fit`'s defaults: k=5, uniform, euclidean."""
    subset = _subset(mapping)
    x_train, y_train = dataset.train
    x_val, y_val = dataset.validation
    model = fit(x_train, y_train, feature_subset=subset)
    return single_shot_accuracy(model, x_val[:, subset], y_val)


def run_size_sweep(sizes, mapping: str = "f1", seed: int = 0,
                   ranges: ParamRanges = DEFAULT_RANGES, folds: int = 5) -> list:
    """Default-hyperparameter k-fold accuracy at each dataset size,
    with the tree baseline on the same folds."""
    sizes = [as_int(s, "sizes entry", 1) for s in sizes]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError(f"sizes must be non-empty and strictly ascending, got {sizes}")
    subset = _subset(mapping)
    rows = []
    for n in sizes:
        # Same generation seed at every size: per-sample substreams make
        # smaller datasets prefixes of larger ones, isolating the size effect.
        ds = generate(n, ranges=ranges, seed=seed)
        x_train, y_train = ds.train
        x = x_train[:, subset]
        tree_accs = [accuracy(confusion_matrix(predict_tree(fit_tree(x[rest], y_train[rest]), x[held]),
                                               y_train[held]))
                     for rest, held in fold_splits(len(x), folds, seed)]
        rows.append({
            "n": n,
            "knn_accuracy": kfold_accuracy(x, y_train, folds=folds, seed=seed),
            "tree_accuracy": float(np.mean(tree_accs)),
        })
    return rows


def sweep_csv(rows) -> str:
    lines = ["n,knn_accuracy,tree_accuracy"]
    for r in rows:
        lines.append(f"{r['n']},{r['knn_accuracy']:.6f},{r['tree_accuracy']:.6f}")
    return "\n".join(lines) + "\n"


def sweep_gnuplot(rows) -> str:
    return "# " + sweep_csv(rows).replace(",", " ")
