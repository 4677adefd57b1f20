"""From-scratch k-nearest-neighbor classification over 4 classes.

Exactness is the design driver: every query's neighbor set is the first
k training points ordered lexicographically by (distance, training
index), votes are accumulated in ascending training-index order, and
distances are summed feature-by-feature in column order. Any
straightforward scalar reimplementation of those rules reproduces this
module's predictions bit for bit, which is what the reference-oracle
tests demand.

Queries are ranked against a sorted strip of the training rows, not
all of them. The training rows are ordered by column 0 (c1); queries
are binned by their place in that order, and each bin is ranked against
the rows of its own bin and the one on each side, taken in training
index order so that ties still break by (distance, index). A query's
answer stands only if every row outside the strip is certified farther
than its k-th neighbor. Such a row's c1 lies beyond the strip's edge,
and every query column that the model reads as a copy of column 0 is at
least its own gap to that edge away from it; the spread of the query's
other copy groups adds to that. A distance is a sum of non-negative
rounded terms, monotone in each of them, and the certificate keeps a
1e-9 relative margin besides, so a certified answer is the brute-force
one bit for bit. Uncertified queries retry in strips four times wider.
The last round's one strip is every training row: brute force is that
round, with no row outside to bound, so it answers every query left.
Training rows and queries must keep every distance within half the
float range, so that distances and bounds alike stay finite.

Blocks hold at most `_BLOCK_ELEMS` distances, filled into one buffer
that every block of a call reuses. Each block's distance matrix is read
only to rank neighbors; votes are cast from the (b, k) neighbor (index,
distance) pairs gathered once from it, as one table holding the votes
of every neighbor-count prefix asked for.

A model records which of its columns are bitwise copies of an earlier
column (every dataset row has c3 == c1 and c4 == c2). When a block's
query columns repeat the same way, each distinct per-column term is
computed once and added again where its copies stand, so every distance
keeps the column-order rounding.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
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

# Elements per distance block: the (block, N) distance matrix and the
# ranking's (block, N) index array take at most 8 MiB each. At 32 MiB
# glibc maps such an array fresh for every block and unmaps it when it is
# freed, so every block faults all of its pages in again.
_BLOCK_ELEMS = 1_048_576
# Elements per row tile inside `_distance_block`: its (tile, N) float
# buffers, the distances and one or two scratch terms, take 1-1.5 MB
# together and stay in a per-core L2 cache.
_TILE_ELEMS = 65_536
# A strip answers a query only if every row outside it is farther than the
# query's k-th neighbor by this factor.
_CERTIFY = 1.0 + 1e-9
# Distance pairs a strip must spare its queries, against ranking them on
# every training row, to pay for the fixed cost of one more block: about
# 0.1 ms, or the time of some 10k pairs with their ranking.
_STRIP_PAIRS = 16_384


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
        for name in ("k_range", "weightings", "metrics"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ValidationError(f"{name} must not repeat an entry, got {entries}")

    def combos(self) -> list:
        """All combinations, in tie-preference order: ties in score are
        broken toward lower k, then uniform, then euclidean."""
        return [Hyperparams(k, w, m)
                for k in self.k_range for w in self.weightings for m in self.metrics]


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
    # copies[j]: the first column bitwise equal to column j (j itself if none)
    copies: tuple = field(init=False, repr=False, compare=False)

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
        if not _fits_float_range(np.ascontiguousarray(self.features.T), self.features[:0],
                                 self.metric):
            raise DomainError("training features span so wide a range that their distances overflow")
        width = len(self.feature_subset)
        if self.shift.shape != (width,) or self.scale.shape != (width,):
            raise ValidationError(f"shift and scale must hold {width} entries, got "
                                  f"{self.shift.shape} and {self.scale.shape}")
        if not (np.all(np.isfinite(self.shift)) and np.all(np.isfinite(self.scale))
                and np.all(self.scale != 0.0)):
            raise ValidationError("shift and scale must be finite and scale nonzero")
        for arr in (self.features, self.labels, self.shift, self.scale):
            arr.setflags(write=False)
        object.__setattr__(self, "copies", _copy_map(self.features))


def _copy_map(x: np.ndarray) -> tuple:
    """Per column of `x`, the first column holding the same bits."""
    bits = x.view(np.int64)
    return tuple(next(i for i in range(j + 1) if np.array_equal(bits[:, i], bits[:, j]))
                 for j in range(x.shape[1]))


def _fits_float_range(cols: np.ndarray, q: np.ndarray, metric: str) -> bool:
    """Whether every distance between two training rows, or from a row of
    `q` to a training row, stays under half the float range, so that it
    and the strip bounds, also times `_CERTIFY`, are finite. `cols` holds
    the training columns as rows. A column's term is at most the square
    (euclidean) or the size of its farthest gap to the training extremes.
    The sum is taken in Python floats, which round a result past the
    range to inf without a warning."""
    # reduced along contiguous columns: along axis 0 of a (n, 4) array
    # numpy takes about ten times as long
    q = np.ascontiguousarray(q.T)
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    q_lo = np.minimum(lo, q.min(axis=1, initial=np.inf))
    q_hi = np.maximum(hi, q.max(axis=1, initial=-np.inf))
    total = 0.0
    for a, b, c, d in zip(lo.tolist(), hi.tolist(), q_lo.tolist(), q_hi.tolist()):
        far = max(d - a, b - c)
        total += far * far if metric == "euclidean" else far
    return math.isfinite(2.0 * total)


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
        # columns whose sums pass the float range give a shift or scale
        # that is not finite, which the model refuses
        with np.errstate(over="ignore", invalid="ignore"):
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


def _distance_block(train: np.ndarray, queries: np.ndarray, metric: str,
                    copies: tuple, out: np.ndarray) -> np.ndarray:
    # Feature-sequential accumulation: the rounding of every distance is
    # pinned by this column order. Column 0 lands in `out` directly, as
    # 0 + x == x for the non-negative terms. Query rows go in tiles so the
    # tile's slice of `out` and the scratch terms stay in cache across
    # the columns. A column that copies an earlier one in both `train`
    # (the model's `copies`) and this block's queries reuses that
    # column's term, which then keeps a buffer of its own. `out` is
    # filled and returned.
    width = train.shape[1]
    src = list(range(width))
    bits = queries.view(np.int64)
    for j, i in enumerate(copies):
        if i != j and np.array_equal(bits[:, i], bits[:, j]):
            src[j] = i
    cols = np.ascontiguousarray(train.T)
    step = max(1, _TILE_ELEMS // max(train.shape[0], 1))
    shape = (min(step, queries.shape[0]), train.shape[0])
    kept = {i: np.empty(shape) for j, i in enumerate(src) if i != j}
    # one scratch term serves every later column computed but not reused
    scratch = any(src[j] == j and j not in kept for j in range(1, width))
    term = np.empty(shape) if scratch else None
    for lo in range(0, queries.shape[0], step):
        acc = out[lo:lo + step]
        n = acc.shape[0]
        for j, i in enumerate(src):
            if i == j:
                dst = kept[j][:n] if j in kept else term[:n] if j else acc
                np.subtract(queries[lo:lo + step, j, None], cols[j], out=dst)
                if metric == "euclidean":
                    np.multiply(dst, dst, out=dst)
                else:
                    np.abs(dst, out=dst)
            else:
                dst = kept[i][:n]
            if not j:
                first = dst
            elif j == 1:
                np.add(first, dst, out=acc)
            else:
                np.add(acc, dst, out=acc)
        if metric == "euclidean":
            np.sqrt(acc, out=acc)
    return out


def _ranked_neighbors(dist: np.ndarray, k: int) -> np.ndarray:
    """First k training indices per query, by (distance, index) lex order."""
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


def _votes_for(ranked: np.ndarray, nd: np.ndarray, labels: np.ndarray,
               weighting: str, ks) -> np.ndarray:
    """(len(ks), b, N_CLASSES) vote mass of the first k of the (b, kk)
    ranked neighbor indices, for each k in `ks`; `nd` holds their
    distances, ascending along each row.

    Accumulation order is ascending training index: the pairs are sorted
    by index once, and each prefix masks the pairs ranked at or beyond k
    to a weight of +0.0, which leaves every sum unchanged.
    """
    b, kk = ranked.shape
    order = np.argsort(ranked, axis=1)  # pair ranks, in training-index order
    rows = N_CLASSES * np.arange(b, dtype=np.intp)[:, None]
    flat = (labels[np.take_along_axis(ranked, order, axis=1)] + rows).ravel()
    if weighting == "uniform":
        # Unit votes sum to exact integers in any order.
        w = np.ones((b, kk))
    else:
        nd = np.take_along_axis(nd, order, axis=1)
        zero = nd == 0.0
        with np.errstate(divide="ignore"):
            w = 1.0 / nd
        # A query sitting on training points: those points outvote
        # everything (finite weights cannot compete with an exact match).
        # They rank first, so they are in every prefix.
        hit = zero.any(axis=1)
        w[hit] = zero[hit]
    out = np.empty((len(ks), b, N_CLASSES))
    for t, k in enumerate(ks):
        out[t] = np.bincount(flat, weights=np.where(order < k, w, 0.0).ravel(),
                             minlength=b * N_CLASSES).reshape(b, N_CLASSES)
    return out


def _block_rows(n_train: int) -> int:
    """Query rows per distance block against `n_train` training rows."""
    return max(16, _BLOCK_ELEMS // n_train)


def _strip_margins(n_train: int, k: int) -> list:
    """Margins, in training rows, of the strip rounds: half of sqrt(N k)
    first, four times wider each later round while a strip (three
    margins) holds at most a quarter of the training rows, and N last,
    whose one strip holds every training row. On a sheet of N rows, the
    k nearest to a query spread over about sqrt(N k) / 2 rows of the c1
    order on either side of it."""
    margins = []
    m = math.isqrt(n_train * k) // 2 + 1
    while 12 * m <= n_train:
        margins.append(m)
        m *= 4
    return margins + [n_train]


def _strip_bound(q: np.ndarray, near: list, edges: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, metric: str) -> np.ndarray:
    """Per query, a lower bound on the summed terms (squared for
    euclidean) of the columns in `near`, over the training rows outside
    its strip: positions [lo, hi) of the ascending c1 order, which
    `edges` holds padded with -inf in front and +inf behind.

    Such a row's c1 is at most edges[lo] or at least edges[hi + 1], and
    each column in `near` is measured against that c1, so its term is at
    least that of the query's own gap to the edge.
    """
    q = q[:, near]
    sides = []
    for gap in (q - edges[lo, None], edges[hi + 1, None] - q):
        np.maximum(gap, 0.0, out=gap)
        sides.append((gap * gap if metric == "euclidean" else gap).sum(axis=1))
    return np.minimum(*sides)


def _copy_spreads(q: np.ndarray, copies: tuple, metric: str) -> tuple:
    """Per query, lower bounds on the summed terms (squared for euclidean)
    of column 0's copy group and of the other copy groups, for every
    training row. A group's columns hold one value per training row, so
    a query whose copies of it disagree sits at least their spread away:
    |a - x| + |b - x| >= |a - b| and (a - x)^2 + (b - x)^2 >= (a - b)^2 / 2.
    """
    terms = {}
    for i in sorted(set(copies)):
        spread = np.ptp(q[:, [j for j, c in enumerate(copies) if c == i]], axis=1)
        terms[i] = spread * spread / 2.0 if metric == "euclidean" else spread
    return terms.pop(0), sum(terms.values(), np.zeros(len(q)))


def _neighbors(model: KnnModel, queries):
    """(rows, ranked, nd, route) per block of queries: the positions of
    the block's queries, their (b, k) ranked neighbor indices and
    distances, and the index of the strip round that answered them.

    Queries go in ascending order of column 0 (c1). Round r bins them by
    their position in the training rows' c1 order, in bins of margin
    m_r rows, and ranks each bin against the training rows of its own
    bin and the one on each side, re-sorted by training index so that
    ranking ties still break by (distance, training index). A query is
    answered only if every row outside that strip is certified farther
    than its k-th neighbor by `_strip_bound`, which makes the answer the
    brute-force one, ties included. A round skips the queries whose
    copies disagree by more than its strip can reach past, since no row
    is that near, and the strips holding too few queries to pay for a
    block. The last round's margin is N: its one strip is every training
    row, with nothing outside to bound, so it takes and answers every
    query left.
    """
    q = np.ascontiguousarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != model.features.shape[1]:
        raise DomainError(
            f"queries must be (n, {model.features.shape[1]}), got {q.shape}"
        )
    with np.errstate(over="ignore"):
        q = (q - model.shift) / model.scale
    if not np.all(np.isfinite(q)):
        raise DomainError("queries must be finite, also once shifted and scaled by the model")
    x, k, metric, copies = model.features, model.k, model.metric, model.copies
    # Strips are gathered by column, several times faster than by rows of
    # a few floats, and `_distance_block` reads columns anyway.
    cols = np.ascontiguousarray(x.T)
    if not _fits_float_range(cols, q, metric):
        raise DomainError("queries lie so far from the training rows that their distances overflow")
    n = len(x)
    step = _block_rows(n)
    # One distance buffer for every block: freeing it after each block
    # lets glibc trim the heap, and the next block faults it in again.
    buf = np.empty(min(step, len(q)) * n)
    # Any order by c1 serves: a strip is re-sorted by training index, and
    # its bound reads c1 values only, so ties need no stable sort.
    order = np.argsort(cols[0])
    edges = np.concatenate([[-np.inf], cols[0, order], [np.inf]])
    near = [j for j, i in enumerate(copies) if i == 0]
    own, other = _copy_spreads(q, copies, metric)
    pending = np.argsort(q[:, 0])
    at = np.searchsorted(edges[1:-1], q[pending, 0])  # pending queries' places in the c1 order
    for route, m in enumerate(_strip_margins(n, k)):
        strip = at // m
        lo, hi = np.maximum(0, (strip - 1) * m), np.minimum(n, (strip + 2) * m)
        reach = _strip_bound(q[pending], near, edges, lo, hi, metric)
        # No row is nearer than the copy spreads: a strip that reaches no
        # farther than they do cannot certify its query.
        tried = np.flatnonzero(reach > own[pending] * _CERTIFY)
        bound = reach[tried] + other[pending[tried]]
        if metric == "euclidean":
            np.sqrt(bound, out=bound)
        answered = np.zeros(len(pending), dtype=bool)
        held = []  # answers not yet yielded: one yield per `step` queries, not per strip
        # first try of each strip, a row range: lo and hi never fall, so lo + hi rises there
        starts = np.flatnonzero(np.diff(lo[tried] + hi[tried], prepend=-1))
        for a, b in zip(starts, [*starts[1:], len(tried)]):
            first = tried[a]
            width = hi[first] - lo[first]
            if width < n and (b - a) * (n - width) < _STRIP_PAIRS:
                continue  # too few queries to pay for a block of their own
            idx = np.sort(order[lo[first]:hi[first]])  # the strip, in training order
            strip_x = np.take(cols, idx, axis=1).T
            cap = step * n // width
            for c in range(a, b, cap):
                sel = slice(c, min(c + cap, b))
                rows = pending[tried[sel]]
                dist = _distance_block(strip_x, q[rows], metric, copies,
                                       buf[:rows.size * width].reshape(rows.size, width))
                ranked = _ranked_neighbors(dist, k)
                nd = np.take_along_axis(dist, ranked, axis=1)
                done = bound[sel] > nd[:, -1] * _CERTIFY
                answered[tried[sel][done]] = True
                held.append((rows[done], idx[ranked[done]], nd[done]))
                if sum(len(h[0]) for h in held) >= step:
                    yield (*map(np.concatenate, zip(*held)), route)
                    held = []
        if held:
            yield (*map(np.concatenate, zip(*held)), route)
        pending, at = pending[~answered], at[~answered]


def _votes(model: KnnModel, queries) -> np.ndarray:
    """(n, N_CLASSES) vote mass per query, computed block by block."""
    parts = [(rows, _votes_for(ranked, nd, model.labels, model.weighting, (model.k,))[0])
             for rows, ranked, nd, _ in _neighbors(model, queries)]
    out = np.empty((len(queries), N_CLASSES))
    for rows, votes in parts:
        out[rows] = votes
    return out


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
                   metric: str = "euclidean", folds: int = 5, seed: int = 0) -> float:
    """Mean single-shot accuracy over seeded contiguous shuffle folds."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    accs = []
    for rest, held in fold_splits(features.shape[0], folds, seed):
        model = fit(features[rest], labels[rest], k=k, weighting=weighting, metric=metric)
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


def _json_numbers(values, name: str) -> np.ndarray:
    """`values` as a float array if it is a JSON list of numbers, or of
    lists of numbers; strings and bools are refused, not coerced."""
    if type(values) is not list:
        raise ValidationError(f"{name} must be a JSON list")
    kinds = set(map(type, values))
    if kinds == {list}:
        kinds = set(map(type, itertools.chain.from_iterable(values)))
    if not kinds <= {int, float}:
        raise ValidationError(f"{name} must hold JSON numbers, got {sorted(k.__name__ for k in kinds)}")
    return np.array(values, dtype=float)


def model_from_json(text: str) -> KnnModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model document is not valid JSON: {exc}")
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != MODEL_SCHEMA:
        raise ValidationError(f"expected schema {MODEL_SCHEMA!r}, got {schema!r}")
    try:
        k, labels = doc["k"], doc["labels"]
        if type(k) is not int:
            raise ValidationError(f"k must be a JSON integer, got {k!r}")
        if type(labels) is not list or any(type(v) is not int for v in labels):
            raise ValidationError("labels must be a list of JSON integers")
        return KnnModel(
            features=_json_numbers(doc["features"], "features"),
            labels=np.array(labels, dtype=np.intp),
            k=k,
            weighting=doc["weighting"],
            metric=doc["metric"],
            feature_subset=tuple(doc["feature_subset"]),
            shift=_json_numbers(doc["shift"], "shift"),
            scale=_json_numbers(doc["scale"], "scale"),
        )
    except KeyError as exc:
        raise ValidationError(f"model document missing field {exc}")
    except (ValueError, TypeError, OverflowError) as exc:
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
    Neighbor tables are shared across candidates per (metric, fold), and
    each block casts one vote table per weighting for all of its
    candidates' k: the ranked-neighbor prefix of length k reproduces
    exactly what a standalone kfold_accuracy call computes.
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
            ks_of = {w: sorted(hp.k for hp in group if hp.weighting == w) for w in WEIGHTINGS}
            kk = max(hp.k for hp in group)
            model = fit(features[rest], labels[rest], k=kk, metric=metric, zscore=zscore)
            for rows, ranked, nd, _ in _neighbors(model, features[held]):
                y_blk = y_held[rows]
                for weighting, ks in ks_of.items():
                    if not ks:
                        continue
                    table = _votes_for(ranked[:, :ks[-1]], nd[:, :ks[-1]], model.labels,
                                       weighting, ks)
                    correct = np.sum(np.argmax(table, axis=2) == y_blk, axis=1)
                    for k, c in zip(ks, correct):
                        fold_correct[Hyperparams(k, weighting, metric)][i] += c

    sizes = np.array([len(held) for _, held in splits], dtype=float)
    trials = tuple(
        (hp, float(np.mean(fold_correct[hp] / sizes * 100.0))) for hp in scorable
    )
    best, best_score = max(trials, key=lambda t: t[1])  # first maximum: preference order
    return SearchResult(best=best, best_score=best_score, trials=trials)
