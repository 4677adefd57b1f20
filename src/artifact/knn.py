"""From-scratch k-nearest-neighbor classification over 4 classes.

Exactness is the design driver: every query's neighbor set is the first
k training points ordered lexicographically by (distance, training
index), votes are accumulated in ascending training-index order, and
distances are summed feature-by-feature in column order. Any
straightforward scalar reimplementation of those rules reproduces this
module's predictions bit for bit, which is what the reference-oracle
tests demand.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, StateError, ValidationError

N_CLASSES = 4
WEIGHTINGS = ("uniform", "distance")
DISTANCE_METRICS = ("euclidean", "manhattan")

# Feature-subset mappings: columns of the (c1, c2, c3, c4) matrix each
# classifier sees. Cheaper mappings drop the highest-order statistics.
FEATURE_SUBSETS = {
    "f1": (0, 1, 2, 3),
    "f2": (0, 1, 2),
    "f3": (0, 1),
}

MODEL_SCHEMA = "knn-model/1"

# Query rows per distance block; keeps the (block, N) temporaries around
# tens of MB for N up to 50k.
_BLOCK_ELEMS = 4_194_304


class Hyperparams(NamedTuple):
    k: int
    weighting: str
    metric: str


@dataclass(frozen=True)
class HyperSpace:
    k_range: tuple = tuple(range(1, 51))
    weightings: tuple = WEIGHTINGS
    metrics: tuple = DISTANCE_METRICS

    def __post_init__(self):
        if not self.k_range or any(type(k) is not int or k < 1 for k in self.k_range):
            raise ValidationError(f"k_range must be non-empty positive integers, got {self.k_range}")
        if not self.weightings or any(w not in WEIGHTINGS for w in self.weightings):
            raise ValidationError(f"weightings must be drawn from {WEIGHTINGS}")
        if not self.metrics or any(m not in DISTANCE_METRICS for m in self.metrics):
            raise ValidationError(f"metrics must be drawn from {DISTANCE_METRICS}")

    def combos(self) -> list:
        """All combinations, in tie-preference order: ties in score are
        broken toward lower k, then uniform, then euclidean."""
        return [Hyperparams(k, w, m)
                for k in self.k_range for w in self.weightings for m in self.metrics]

    def __len__(self) -> int:
        return len(self.k_range) * len(self.weightings) * len(self.metrics)


@dataclass(frozen=True)
class KnnModel:
    features: np.ndarray
    labels: np.ndarray
    k: int
    weighting: str
    metric: str
    feature_subset: tuple
    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        n = len(self.features)
        if n == 0:
            raise StateError("model has no training points")
        if not 1 <= self.k <= n:
            raise ValidationError(f"k must lie in [1, {n}], got {self.k}")
        if self.weighting not in WEIGHTINGS:
            raise ValidationError(f"weighting must be one of {WEIGHTINGS}")
        if self.metric not in DISTANCE_METRICS:
            raise ValidationError(f"metric must be one of {DISTANCE_METRICS}")
        if not self.feature_subset or any(type(j) is not int or j < 0 for j in self.feature_subset):
            raise ValidationError(f"feature subset must be non-negative integers, got {self.feature_subset}")
        if self.features.ndim != 2 or self.features.shape[1] != len(self.feature_subset):
            raise ValidationError("feature matrix width must match the feature subset")
        if self.labels.shape != (n,):
            raise ValidationError("labels must be one per training row")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= N_CLASSES):
            raise ValidationError(f"labels must lie in [0, {N_CLASSES})")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("training features must be finite")
        width = len(self.feature_subset)
        if self.shift.shape != (width,) or self.scale.shape != (width,):
            raise ValidationError(f"shift and scale must hold {width} entries, got "
                                  f"{self.shift.shape} and {self.scale.shape}")
        if not (np.all(np.isfinite(self.shift)) and np.all(np.isfinite(self.scale))
                and np.all(self.scale != 0.0)):
            raise ValidationError("shift and scale must be finite and scale nonzero")
        for arr in (self.features, self.labels, self.shift, self.scale):
            arr.setflags(write=False)

    @property
    def n_train(self) -> int:
        return self.features.shape[0]


def fit(features, labels, k: int = 5, weighting: str = "uniform",
        metric: str = "euclidean", feature_subset=None, zscore: bool = False) -> KnnModel:
    """Store the (transformed) training set; KNN has no other fitting.

    `feature_subset` selects columns of `features`; None keeps all.
    `zscore` standardizes columns (constant columns are left unscaled).
    """
    features = np.ascontiguousarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    if features.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {features.shape}")
    if feature_subset is None:
        feature_subset = tuple(range(features.shape[1]))
    feature_subset = tuple(int(j) for j in feature_subset)
    if any(j < 0 or j >= features.shape[1] for j in feature_subset) or not feature_subset:
        raise ValidationError(f"feature subset {feature_subset} out of bounds")
    sub = np.ascontiguousarray(features[:, feature_subset])
    if zscore:
        shift = sub.mean(axis=0)
        scale = sub.std(axis=0)
        scale[scale == 0.0] = 1.0
        sub = (sub - shift) / scale
    else:
        shift = np.zeros(sub.shape[1])
        scale = np.ones(sub.shape[1])
    return KnnModel(features=sub, labels=labels, k=int(k), weighting=weighting,
                    metric=metric, feature_subset=feature_subset,
                    shift=shift, scale=scale)


def _distance_block(train: np.ndarray, queries: np.ndarray, metric: str) -> np.ndarray:
    # Feature-sequential accumulation: the rounding of every distance is
    # pinned by this column order.
    out = np.zeros((queries.shape[0], train.shape[0]))
    if metric == "euclidean":
        for j in range(train.shape[1]):
            diff = queries[:, j, None] - train[None, :, j]
            out += diff * diff
        np.sqrt(out, out=out)
    else:
        for j in range(train.shape[1]):
            out += np.abs(queries[:, j, None] - train[None, :, j])
    return out


def _ranked_neighbors(dist: np.ndarray, k: int) -> np.ndarray:
    """First k training indices per query, by (distance, index) lex order."""
    n = dist.shape[1]
    if k > n:
        raise ValidationError(f"k={k} exceeds training size {n}")
    part = np.argpartition(dist, k - 1, axis=1)
    thr = np.take_along_axis(dist, part[:, k - 1:k], axis=1)  # k-th distance, (b, 1)
    counts = (dist <= thr).sum(axis=1)
    cand = np.sort(part[:, :k], axis=1)
    d_cand = np.take_along_axis(dist, cand, axis=1)
    order = np.argsort(d_cand, axis=1, kind="stable")
    ranked = np.take_along_axis(cand, order, axis=1)
    # Rows with distance ties straddling the k-th rank: argpartition's
    # pick among the tied points is arbitrary, so redo those by the rule.
    for r in np.nonzero(counts != k)[0]:
        pool = np.nonzero(dist[r] <= thr[r])[0]
        ranked[r] = pool[np.argsort(dist[r, pool], kind="stable")][:k]
    return ranked


def _votes_for(ranked: np.ndarray, dist: np.ndarray, labels: np.ndarray,
               weighting: str) -> np.ndarray:
    """Per-class vote mass; accumulation order is ascending training index."""
    sel = np.sort(ranked, axis=1)
    nd = np.take_along_axis(dist, sel, axis=1)
    if weighting == "uniform":
        w = np.ones_like(nd)
    else:
        zero = nd == 0.0
        with np.errstate(divide="ignore"):
            w = 1.0 / nd
        hit = zero.any(axis=1)
        # A query sitting on training points: those points outvote
        # everything (finite weights cannot compete with an exact match).
        w[hit] = zero[hit].astype(float)
    b, k = sel.shape
    flat = labels[sel] + N_CLASSES * np.arange(b, dtype=np.intp)[:, None]
    return np.bincount(flat.ravel(), weights=w.ravel(),
                       minlength=b * N_CLASSES).reshape(b, N_CLASSES)


def _query_blocks(model: KnnModel, queries: np.ndarray):
    q = np.ascontiguousarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != model.features.shape[1]:
        raise DomainError(
            f"queries must be (n, {model.features.shape[1]}), got {q.shape}"
        )
    q = (q - model.shift) / model.scale
    step = max(16, _BLOCK_ELEMS // max(model.n_train, 1))
    for lo in range(0, q.shape[0], step):
        yield _distance_block(model.features, q[lo:lo + step], model.metric)


def _votes(model: KnnModel, queries) -> np.ndarray:
    """(n, N_CLASSES) vote mass per query, computed block by block."""
    out = [_votes_for(_ranked_neighbors(dist, model.k), dist, model.labels, model.weighting)
           for dist in _query_blocks(model, queries)]
    return np.vstack(out) if out else np.zeros((0, N_CLASSES))


def predict_proba_batch(model: KnnModel, queries) -> np.ndarray:
    votes = _votes(model, queries)
    return votes / votes.sum(axis=1, keepdims=True)


def predict_batch(model: KnnModel, queries) -> np.ndarray:
    # argmax of the raw votes, not of the probabilities: normalising can
    # turn a 1-ulp vote gap into a tie. argmax ties -> lowest class.
    return np.argmax(_votes(model, queries), axis=1)


def single_shot_accuracy(model: KnnModel, features, labels) -> float:
    """Percentage of exact label matches on an evaluation set."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    if features.shape[0] != labels.shape[0]:
        raise DomainError(
            f"{features.shape[0]} feature rows vs {labels.shape[0]} labels"
        )
    if labels.shape[0] == 0:
        raise DomainError("evaluation set is empty")
    return float(np.mean(predict_batch(model, features) == labels) * 100.0)


def fold_splits(n: int, folds: int, seed: int) -> list:
    """(training rows, held-out rows) per fold of a seeded shuffle of n rows. Training
    rows are the other folds in fold order, which index tie-breaks depend on."""
    if folds < 2:
        raise DomainError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise DomainError(f"cannot split {n} samples into {folds} folds")
    parts = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    return [(np.concatenate(parts[:i] + parts[i + 1:]), held)
            for i, held in enumerate(parts)]


def kfold_accuracy(features, labels, k: int = 5, weighting: str = "uniform",
                   metric: str = "euclidean", folds: int = 5, seed: int = 0,
                   zscore: bool = False) -> float:
    """Mean single-shot accuracy over seeded contiguous shuffle folds."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    accs = []
    for rest, held in fold_splits(features.shape[0], folds, seed):
        model = fit(features[rest], labels[rest], k=k, weighting=weighting,
                    metric=metric, zscore=zscore)
        accs.append(single_shot_accuracy(model, features[held], labels[held]))
    return float(np.mean(accs))


def model_to_json(model: KnnModel) -> str:
    """Serialize the full model; KNN is instance-based, so the whole
    training matrix travels with the hyperparameters."""
    doc = {
        "schema": MODEL_SCHEMA,
        "k": model.k,
        "weighting": model.weighting,
        "metric": model.metric,
        "feature_subset": list(model.feature_subset),
        "shift": model.shift.tolist(),
        "scale": model.scale.tolist(),
        "features": model.features.tolist(),
        "labels": model.labels.tolist(),
    }
    return json.dumps(doc)


def model_from_json(text: str) -> KnnModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model document is not valid JSON: {exc}")
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != MODEL_SCHEMA:
        raise ValidationError(f"expected schema {MODEL_SCHEMA!r}, got {schema!r}")
    try:
        return KnnModel(
            features=np.array(doc["features"], dtype=float),
            labels=np.array(doc["labels"], dtype=np.intp),
            k=int(doc["k"]),
            weighting=doc["weighting"],
            metric=doc["metric"],
            feature_subset=tuple(doc["feature_subset"]),
            shift=np.array(doc["shift"], dtype=float),
            scale=np.array(doc["scale"], dtype=float),
        )
    except KeyError as exc:
        raise ValidationError(f"model document missing field {exc}")
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"malformed model document: {exc}")


@dataclass(frozen=True)
class SearchResult:
    best: Hyperparams
    best_score: float
    trials: tuple  # (Hyperparams, score) in tie-preference order


def random_search(features, labels, space: HyperSpace = HyperSpace(),
                  n_iter: int = 10, seed: int = 0, folds: int = 5,
                  zscore: bool = False) -> SearchResult:
    """Score a without-replacement sample of the space by k-fold accuracy.

    Every candidate is scored with the same seeded folds, so the result
    equals an exhaustive grid restricted to the sampled combinations.
    Neighbor tables are shared across candidates per (metric, fold):
    the ranked-neighbor prefix of length k reproduces exactly what a
    standalone kfold_accuracy call computes.
    """
    if n_iter < 1:
        raise DomainError(f"n_iter must be >= 1, got {n_iter}")
    combos = space.combos()
    if n_iter > len(combos):
        warnings.warn(
            f"n_iter={n_iter} exceeds the {len(combos)}-combination space; clipping"
        )
        n_iter = len(combos)
    picks = np.random.default_rng(seed).choice(len(combos), size=n_iter, replace=False)
    chosen = sorted(int(i) for i in picks)  # tie-preference order
    candidates = [combos[i] for i in chosen]

    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    splits = fold_splits(features.shape[0], folds, seed)
    min_train = min(len(rest) for rest, _ in splits)
    scorable = [hp for hp in candidates if hp.k <= min_train]
    if not scorable:
        raise DomainError("every sampled k exceeds the smallest training fold")

    fold_correct = {hp: np.zeros(len(splits)) for hp in scorable}
    for i, (rest, held) in enumerate(splits):
        y_held = labels[held]
        for metric in DISTANCE_METRICS:
            group = [hp for hp in scorable if hp.metric == metric]
            if not group:
                continue
            kk = max(hp.k for hp in group)
            model = fit(features[rest], labels[rest], k=kk, metric=metric, zscore=zscore)
            off = 0
            for dist in _query_blocks(model, features[held]):
                ranked = _ranked_neighbors(dist, kk)
                y_blk = y_held[off:off + dist.shape[0]]
                for hp in group:
                    votes = _votes_for(ranked[:, :hp.k], dist, model.labels, hp.weighting)
                    fold_correct[hp][i] += np.sum(np.argmax(votes, axis=1) == y_blk)
                off += dist.shape[0]

    sizes = np.array([len(held) for _, held in splits], dtype=float)
    trials = tuple(
        (hp, float(np.mean(fold_correct[hp] / sizes * 100.0))) for hp in scorable
    )
    best, best_score = max(trials, key=lambda t: t[1])  # first maximum: preference order
    return SearchResult(best=best, best_score=best_score, trials=trials)
