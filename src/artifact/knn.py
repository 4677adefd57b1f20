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

A strip round ranks its strips in runs: consecutive strips whose
distances fill their own rows of one tall block, as wide as the run's
widest strip, ranked by one call. A narrower strip's extra columns hold
+inf, which never ranks: a strip of a narrow round holds at least m >= 3k
rows, as 12 m <= N and m >= sqrt(N k) / 2 give m^2 >= 3 m k. A round so
takes a few numpy calls long enough for the pool's threads to overlap,
not a dozen short ones per strip, which hand the interpreter lock back
and forth. A strip that fills a run alone, and the full-width round, are
runs of one.

The blocks of a strip round run as jobs on the worker pool (`workers`).
The blocks running at once hold at most `_BLOCK_ELEMS` distances, in one
buffer per round with a slot per running block; a run holds at most
`_RUN_ELEMS`. A strip too large for a worker's share is cut by its
queries into blocks of even size, and so is a round too small to give
every worker a block, into parts that each pay for a block of their own.
`random_search` runs its (fold, metric) tables as jobs instead; a table's
`_neighbors` then runs its blocks inline, at the same size, in one slot,
so the tables in flight hold no more distances than one call's blocks.
Each block's distance matrix is read only to rank neighbors: its answered
queries' (b, k) neighbor indices and distances go into their own rows of
one table, (ranked, nd, route) in query order, which `_neighbors`
returns, so the worker count changes no bit of it. Votes are cast from
that table, weighted by the one rule `_weights`. Each question has one
route. The vote values of one k (`predict_proba_batch`, `predict_batch`)
are summed in training-index order. The winners of many k at once
(`random_search`, which reads only the argmax) come from one rank-order
cumulative sum; a winner is kept where the sums are exact or a proven
rounding bound certifies it, and recomputed in index order otherwise.

A model records which of its columns are bitwise copies of an earlier
column (every dataset row has c3 == c1 and c4 == c2). When a block's
query columns repeat the same way, each distinct per-column term is
computed once and added again where its copies stand, so every distance
keeps the column-order rounding.
"""

from __future__ import annotations

import base64
import json
import math
import queue
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import workers
from .data import N_CLASSES, as_labels
from .errors import (DomainError, StateError, ValidationError, array_of, as_flag, as_int, as_ints,
                     as_name, as_reals, json_object)
from .metrics import accuracy, confusion_matrix, percent_correct

WEIGHTINGS = ("uniform", "distance")
DISTANCE_METRICS = ("euclidean", "manhattan")

# Feature-subset mappings: columns of the (c1, c2, c3, c4) matrix each
# classifier sees. Cheaper mappings drop the highest-order statistics.
FEATURE_SUBSETS = {
    "f1": (0, 1, 2, 3),
    "f2": (0, 1, 2),
    "f3": (0, 1),
}

MODEL_SCHEMA = "knn-model/2"
# The arrays of a model file, each stored as {"dtype", "shape", "data"}:
# base64 of the array's bytes in the one dtype the schema fixes for it.
_MODEL_ARRAYS = {"features": "<f8", "labels": "|i1", "shift": "<f8", "scale": "<f8"}

# Distances the blocks running at once hold at most, over all workers:
# their (block, N) distance matrices and their rankings' (block, N) index
# arrays take at most 8 MiB each. At 32 MiB
# glibc maps such an array fresh for every block and unmaps it when it is
# freed, so every block faults all of its pages in again.
_BLOCK_ELEMS = 1_048_576
# Elements per row tile inside `_distance_block`: its (tile, N) float
# buffers, the distances and one or two scratch terms, take 1-1.5 MB
# together and stay in a per-core L2 cache.
_TILE_ELEMS = 65_536
# Distances of a run of several strips at most: its tall block takes
# 1 MiB, and its ranking's argpartition, made a tile of rows at a time,
# 512 KiB, no more than a full-width block of a few dozen queries holds.
# Half as much overlaps the pool's threads less; twice as much ranks a
# little faster but adds its 1 MiB per thread to the peak resident size
# (CHANGES.md has the measurements).
_RUN_ELEMS = 131_072
# A strip answers a query only if every row outside it is farther than the
# query's k-th neighbor by this factor.
_CERTIFY = 1.0 + 1e-9
# Distance pairs a strip must spare its queries, against ranking them on
# every training row, to pay for the fixed cost of one more block: about
# 0.1 ms, or the time of some 10k pairs with their ranking. A round is cut
# to give each worker a block only into parts of at least this many pairs.
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
        object.__setattr__(self, "k_range", tuple(as_ints(self.k_range, "k_range", ("n",), 1).tolist()))
        for name, names in (("weightings", WEIGHTINGS), ("metrics", DISTANCE_METRICS)):
            value = getattr(self, name)
            if (entries := array_of(value, "U")) is None or entries.ndim != 1:
                raise DomainError(f"{name} must be a 1-D array of names, got {value!r:.80}")
            object.__setattr__(self, name, tuple(as_name(v, f"{name} entry", names) for v in value))
        for name in ("k_range", "weightings", "metrics"):
            entries = getattr(self, name)
            if not entries or len(set(entries)) != len(entries):
                raise ValidationError(f"{name} must not repeat an entry or be empty, got {entries}")

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
        object.__setattr__(self, "feature_subset",
                           tuple(as_ints(self.feature_subset, "feature_subset", ("n",), 0).tolist()))
        if not self.feature_subset:
            raise ValidationError("feature subset must not be empty")
        width = len(self.feature_subset)
        for name, shape in (("features", ("n", width)), ("shift", (width,)), ("scale", (width,))):
            object.__setattr__(self, name, as_reals(getattr(self, name), name, shape, "(-inf, inf)"))
        n = len(self.features)
        if n == 0:
            raise StateError("model has no training points")
        object.__setattr__(self, "k", as_int(self.k, "k", 1, n + 1))
        object.__setattr__(self, "weighting", as_name(self.weighting, "weighting", WEIGHTINGS))
        object.__setattr__(self, "metric", as_name(self.metric, "metric", DISTANCE_METRICS))
        object.__setattr__(self, "labels", as_labels(self.labels, "labels", n))
        if not _fits_float_range(np.ascontiguousarray(self.features.T), self.features[:0],
                                 self.metric):
            raise DomainError("training features span so wide a range that their distances overflow")
        if not np.all(self.scale != 0.0):
            raise ValidationError("scale must be nonzero")
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
    features = as_reals(features, "features", ("n", "w"), "(-inf, inf)")
    width = features.shape[1]
    feature_subset = tuple(as_ints(range(width) if feature_subset is None else feature_subset,
                                   "feature_subset", ("n",), 0, width).tolist())
    sub = np.ascontiguousarray(features[:, feature_subset])
    if as_flag(zscore, "zscore"):
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
    return KnnModel(features=sub, labels=labels, k=k, weighting=weighting,
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
    b, n = dist.shape
    # argpartition at k where a row has a (k + 1)-th entry: its first k are
    # still the k nearest, and the next one tells whether ties straddle the
    # k-th rank. The (b, N) index array is made a tile of rows at a time, as
    # in `_distance_block`, and only each row's first k + 1 are kept.
    kth = min(k, n - 1)
    part = np.empty((b, kth + 1), dtype=np.intp)
    step = max(1, _TILE_ELEMS // n)
    for lo in range(0, b, step):
        part[lo:lo + step] = np.argpartition(dist[lo:lo + step], kth, axis=1)[:, :kth + 1]
    cand = np.sort(part[:, :k], axis=1)
    d_cand = np.take_along_axis(dist, cand, axis=1)
    thr = d_cand.max(axis=1)  # the k-th distance
    order = np.argsort(d_cand, axis=1)
    # Equal distances among the candidates rank by index, the order `cand`
    # holds them in, which only a stable sort keeps; other rows sort alike.
    near = np.take_along_axis(d_cand, order, axis=1)
    tied = np.flatnonzero((near[:, 1:] == near[:, :-1]).any(axis=1))
    order[tied] = np.argsort(d_cand[tied], axis=1, kind="stable")
    ranked = np.take_along_axis(cand, order, axis=1)
    # Rows with distance ties straddling the k-th rank: argpartition's
    # pick among the tied points is arbitrary. Every point nearer than the
    # k-th distance is a candidate and ranks first already; the rest of
    # the row is the lowest-index points at that distance.
    if kth == k:
        for r in np.flatnonzero(np.take_along_axis(dist, part[:, k:], axis=1)[:, 0] == thr):
            a = np.count_nonzero(d_cand[r] < thr[r])
            ranked[r, a:] = np.flatnonzero(dist[r] == thr[r])[:k - a]
    return ranked


def _weights(nd: np.ndarray, weighting: str) -> tuple:
    """(weights, exact) of the (b, kk) neighbor distances `nd`, where
    `exact` marks the rows whose class sums are exact in any order.

    Uniform: ones, and every row is exact. Distance: 1/d, except on a
    row where the query sits on training points. Those points outvote
    everything (finite weights cannot compete with an exact match), so
    the row weighs them 1 and the rest 0, and is exact. They rank first,
    so they are in every prefix. A row with no such point is refused if
    its weights' total passes the float range, as a subnormal distance's
    weight alone can: its votes would be inf or NaN.
    """
    if weighting == "uniform":
        # int32 counts: a count is at most kk, far below 2**31
        return np.ones(nd.shape, dtype=np.int32), np.ones(len(nd), dtype=bool)
    zero = nd == 0.0
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / nd
        exact = zero.any(axis=1)
        w[exact] = zero[exact]
        total = w.sum(axis=1)
    if not np.all(np.isfinite(total)):
        raise DomainError("a query lies so near training points that its distance weights overflow")
    return w, exact


def _votes_for(ranked: np.ndarray, nd: np.ndarray, labels: np.ndarray,
               weighting: str) -> np.ndarray:
    """(b, N_CLASSES) vote mass of the (b, k) ranked neighbor indices;
    `nd` holds their distances, ascending along each row. The `_weights`
    are added in ascending training index, the order the values are
    defined by: the pairs are sorted by index once and summed by one
    weighted `bincount`. When every row is exact (unit or 0/1 weights)
    any order gives the same sums, and the pairs stay in rank order.
    """
    w, exact = _weights(nd, weighting)
    b = len(ranked)
    if not exact.all():
        order = np.argsort(ranked, axis=1)  # pair ranks, in training-index order
        ranked = np.take_along_axis(ranked, order, axis=1)
        w = np.take_along_axis(w, order, axis=1)
    rows = N_CLASSES * np.arange(b, dtype=np.intp)[:, None]
    return np.bincount((labels[ranked] + rows).ravel(), weights=w.ravel(),
                       minlength=b * N_CLASSES).reshape(b, N_CLASSES)


# Unit roundoff of float64, and the range of a top class's rank-order
# sum inside which `_winners_for` certifies its argmax.
_UNIT_ROUNDOFF = 2.0 ** -53
_CERTIFIED_SUMS = (2.0 ** -1020, 2.0 ** 1022)


def _winners_for(ranked: np.ndarray, nd: np.ndarray, labels: np.ndarray,
                 weighting: str, ks) -> tuple:
    """((len(ks), b) winning classes, fallbacks): for each k in `ks`, the
    argmax of `_votes_for`'s votes of the first k of the (b, kk) ranked
    neighbors, which is all `random_search` reads, and the number of
    (k, row) pairs recomputed by `_votes_for` itself.

    The `_weights` are summed per class in rank order by one cumulative
    sum along the rank axis, R_c per class c, which holds every prefix
    at once. Rows that `_weights` marks exact sum to the same counts in
    any order, so their argmax is certain. On any other row the top
    class a of R is kept where fl(R_a * c_k) > R_c for every c != a, with
    c_k = 1 - (4k + 2)u an exact float and u = 2**-53. Every other
    (k, row) pair falls back to `_votes_for` on those rows only, in
    training-index order, ties to the lowest class included.

    Proof that a kept winner is the index-order argmax. Both orders add
    the same float weights fl(1/d) >= 0; adding a +0.0 is exact, so each
    class sum is a recursive sum of its n <= k nonzero weights, whose
    first term enters exactly. For non-negative terms in any order,
    |fl(s) - s| <= g s with g = m u / (1 - m u), m = k - 1 >= n - 1
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, section 4.2), because each addition obeys
    fl(x + y) = (x + y)(1 + e), |e| <= u. Subnormal terms do not break
    that model: both addends are multiples of 2**-1074, so a sum below
    2**-1022 is one too and is exact (e = 0); only overflow breaks it.
    With S_c the exact sum and I_c the index-order one,
        I_c <= S_c (1 + g) <= R_c (1 + g) / (1 - g) = R_c / (1 - 2mu),
        I_a >= S_a (1 - g) >= R_a (1 - g) / (1 + g) = R_a (1 - 2mu),
    so R_a (1 - 2mu)^2 > R_c for all c != a gives I_a > I_c, a strict
    lead, and the index-order argmax is a. The check evaluates
    fl(R_a c_k), which is at most R_a c_k (1 + u) <= R_a (1 - (4k + 1)u)
    <= R_a (1 - 4mu) <= R_a (1 - 2mu)^2 when the product is a normal
    float. R_a >= 2**-1020 keeps it normal (c_k >= 1/2 for k < 2**50); a
    smaller R_a could underflow the product, so that pair falls back. So
    does R_a > 2**1022, which a weight near the float range gives (one
    that passes it is refused by `_weights`): below it, every partial
    sum of either order stays under R_a / (1 - 2mu), far from overflow,
    and the model above holds for every addition.
    """
    w, exact = _weights(nd, weighting)
    b, kk = ranked.shape
    sums = np.zeros((kk, b, N_CLASSES), dtype=w.dtype)
    slots = N_CLASSES * np.arange(kk * b, dtype=np.intp).reshape(kk, b).T
    sums.reshape(-1)[slots + labels[ranked]] = w
    # the cumulative sum over ranks, one rank at a time: np.cumsum along
    # the rank axis adds in the same order but takes about three times as long
    for j in range(1, kk):
        np.add(sums[j - 1], sums[j], out=sums[j])
    ks = np.asarray(ks)
    sums = sums[ks - 1]
    win = np.argmax(sums, axis=2)
    # the largest and second-largest class sums, one class at a time
    top = runner = np.zeros(sums.shape[:2])
    for c in range(N_CLASSES):
        runner = np.maximum(runner, np.minimum(top, sums[..., c]))
        top = np.maximum(top, sums[..., c])
    lead = top * (1.0 - (4 * ks + 2) * _UNIT_ROUNDOFF)[:, None]
    lo, hi = _CERTIFIED_SUMS
    sure = exact | ((lead > runner) & (top >= lo) & (top <= hi))
    for t in np.flatnonzero(~sure.all(axis=1)):
        redo, k = np.flatnonzero(~sure[t]), ks[t]
        votes = _votes_for(ranked[redo, :k], nd[redo, :k], labels, weighting)
        win[t, redo] = np.argmax(votes, axis=1)
    return win, int(np.count_nonzero(~sure))


def _block_rows(n_train: int) -> int:
    """Query rows that the blocks running at once hold together, against
    `n_train` training rows."""
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


def _tall(run: list) -> int:
    """Distances of a run's tall block: its queries times its widest strip."""
    return sum(rows.size for rows, _, _ in run) * max(idx.size for _, _, idx in run)


def _runs(strips: list, share: int, even: int, cap: int) -> list:
    """The blocks of a strip round, each a run: a list of consecutive
    `strips`, each (queries, their bounds, training rows). A strip is
    first cut by its queries into as few even parts as hold at most
    `share` distances each and `even` at most, rounded up to whole
    queries, and never into more parts than it has queries; a part joins
    the run before it while the run's tall block holds at most `cap`
    distances."""
    runs = []
    for rows, bound, idx in strips:
        parts = max(-(-rows.size // max(1, share // idx.size)), -(-rows.size * idx.size // even))
        for part in workers.spans(rows.size, min(parts, rows.size)):
            piece = (rows[part], bound[part], idx)
            if runs and _tall(runs[-1] + [piece]) <= cap:
                runs[-1].append(piece)
            else:
                runs.append([piece])
    return runs


def _neighbors(model: KnnModel, queries) -> tuple:
    """(ranked, nd, route), one row per query in query order: its (n, k)
    ranked neighbor indices and their distances, and the index of the
    strip round that answered it. The three arrays are allocated once and
    filled block by block.

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

    A round's strips are ranked in runs (`_runs`): each strip's distances
    come from one `_distance_block` call on its own training rows, into
    its rows of the run's tall block, whose columns past a narrower strip
    hold +inf; one `_ranked_neighbors` call ranks the block, and each
    query is certified by its own bound. A narrow round's strips hold at
    least 3k rows (see the module docstring), so +inf never ranks. The
    blocks run as jobs on the worker pool. A strip too large for a
    worker's share of `_BLOCK_ELEMS` is cut by its queries into blocks of
    even size, and so is a round that would leave a worker idle, into
    parts of at least `_STRIP_PAIRS` pairs. Each job writes only its
    own rows of the table. Called inside a job of the pool, the blocks
    keep a worker's share but run inline, in one buffer slot.
    """
    x, k, metric, copies = model.features, model.k, model.metric, model.copies
    q = as_reals(queries, "queries", ("n", x.shape[1]))
    with np.errstate(over="ignore"):
        q = (q - model.shift) / model.scale
    if not np.all(np.isfinite(q)):
        raise DomainError("queries must be finite, also once shifted and scaled by the model")
    # Strips are gathered by column, several times faster than by rows of
    # a few floats, and `_distance_block` reads columns anyway.
    cols = np.ascontiguousarray(x.T)
    if not _fits_float_range(cols, q, metric):
        raise DomainError("queries lie so far from the training rows that their distances overflow")
    n = len(x)
    n_workers = workers.count()
    # Distances of one worker's block at most: the blocks running at once
    # hold no more than `_block_rows` rows together.
    share = -(-_block_rows(n) // n_workers) * n
    lanes = 1 if workers.nested() else n_workers
    ranked_of, nd_of = np.empty((len(q), k), dtype=np.intp), np.empty((len(q), k))
    route_of = np.full(len(q), -1)  # -1: no round has answered the query

    def rank(slots, run, route):
        # One job: the queries of each strip of `run` against its training
        # rows, in the strip's own rows of one tall block of a buffer taken
        # from `slots`, +inf past a narrower strip's last column; the block
        # ranked at once, and the answers each query's bound certifies entered.
        rows, bounds, strips = zip(*run)
        sizes = [r.size for r in rows]
        width = max(idx.size for idx in strips)
        buf = slots.get()
        dist = buf[:sum(sizes) * width].reshape(-1, width)
        top = 0  # the strip's first row in the block
        for r, idx in zip(rows, strips):
            strip_x = cols.T if idx.size == n else np.take(cols, idx, axis=1).T
            block = dist[top:top + r.size]
            _distance_block(strip_x, q[r], metric, copies, block[:, :idx.size])
            block[:, idx.size:] = np.inf
            top += r.size
        ranked = _ranked_neighbors(dist, k)
        nd = buf[ranked + width * np.arange(len(dist))[:, None]]
        slots.put(buf)
        done = np.concatenate(bounds) > nd[:, -1] * _CERTIFY
        # a row's rank positions index its strip's training rows; with every
        # strip's laid end to end, they move by the strips before its own
        ranked += np.repeat(np.cumsum([0, *(idx.size for idx in strips[:-1])]), sizes)[:, None]
        rows = np.concatenate(rows)[done]
        ranked_of[rows] = np.concatenate(strips)[ranked[done]]
        nd_of[rows], route_of[rows] = nd[done], route

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
        strips = []  # its queries, their bounds, and its training rows in training order
        # first try of each strip, a row range: lo and hi never fall, so lo + hi rises there
        starts = np.flatnonzero(np.diff(lo[tried] + hi[tried], prepend=-1))
        for a, b in zip(starts, [*starts[1:], len(tried)]):
            first = tried[a]
            width = hi[first] - lo[first]
            if width < n and (b - a) * (n - width) < _STRIP_PAIRS:
                continue  # too few queries to pay for a block of their own
            idx = np.sort(order[lo[first]:hi[first]]) if width < n else np.arange(n)
            strips.append((pending[tried[a:b]], bound[a:b], idx))
        # A block holds at most a worker's share of distances, and no more
        # than an even part of the round per lane, unless that part would
        # hold fewer than `_STRIP_PAIRS`.
        even = max(_STRIP_PAIRS, -(-sum(r.size * i.size for r, _, i in strips) // lanes))
        runs = _runs(strips, share, even, min(_RUN_ELEMS, share, even))
        # One distance buffer for the round's blocks, a slot per block running
        # at once, as large as the largest: freeing it after each block would
        # let glibc trim the heap, and the next block would fault it in again.
        slots = queue.SimpleQueue()
        for part in np.empty((min(lanes, len(runs)), max(map(_tall, runs), default=0))):
            slots.put(part)
        workers.run(partial(rank, slots, run, route) for run in runs)
        left = route_of[pending] < 0
        pending, at = pending[left], at[left]
    return ranked_of, nd_of, route_of


def _votes(model: KnnModel, queries) -> np.ndarray:
    """(n, N_CLASSES) vote mass per query, from the one neighbor table."""
    return _votes_for(*_neighbors(model, queries)[:2], model.labels, model.weighting)


def predict_proba_batch(model: KnnModel, queries) -> np.ndarray:
    votes = _votes(model, queries)
    return votes / votes.sum(axis=1, keepdims=True)


def predict_batch(model: KnnModel, queries) -> np.ndarray:
    # argmax of the raw votes, not of the probabilities: normalising can
    # turn a 1-ulp vote gap into a tie. argmax ties -> lowest class.
    return np.argmax(_votes(model, queries), axis=1)


def single_shot_accuracy(model: KnnModel, features, labels) -> float:
    """Percentage of exact label matches on an evaluation set."""
    return accuracy(confusion_matrix(predict_batch(model, features), labels))


def fold_splits(n: int, folds: int, seed: int) -> list:
    """(training rows, held-out rows) per fold of a seeded shuffle of n rows. Training
    rows are the other folds in fold order, which index tie-breaks depend on."""
    folds, seed = as_int(folds, "folds", 2), as_int(seed, "seed", 0)
    if n < folds:
        raise DomainError(f"cannot split {n} samples into {folds} folds")
    parts = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    return [(np.concatenate(parts[:i] + parts[i + 1:]), held)
            for i, held in enumerate(parts)]


def kfold_accuracy(features, labels, k: int = 5, weighting: str = "uniform",
                   metric: str = "euclidean", folds: int = 5, seed: int = 0) -> float:
    """Mean single-shot accuracy over seeded contiguous shuffle folds."""
    features = as_reals(features, "features", ("n", "w"), "(-inf, inf)")
    labels = as_labels(labels, "labels", len(features))
    accs = []
    for rest, held in fold_splits(features.shape[0], folds, seed):
        model = fit(features[rest], labels[rest], k=k, weighting=weighting, metric=metric)
        accs.append(single_shot_accuracy(model, features[held], labels[held]))
    return float(np.mean(accs))


def model_to_json(model: KnnModel) -> str:
    """Serialize the full model; KNN is instance-based, so the whole
    training matrix travels with the hyperparameters."""
    doc = {"schema": MODEL_SCHEMA, "k": model.k, "weighting": model.weighting,
           "metric": model.metric, "feature_subset": list(model.feature_subset)}
    for name, dtype in _MODEL_ARRAYS.items():
        arr = np.ascontiguousarray(getattr(model, name), dtype=dtype)
        doc[name] = {"dtype": dtype, "shape": list(arr.shape),
                     "data": base64.b64encode(arr.tobytes()).decode("ascii")}
    return json.dumps(doc)


def _model_array(doc: dict, name: str) -> np.ndarray:
    """The array `name` of a model document, in the dtype the schema fixes."""
    want = _MODEL_ARRAYS[name]
    arr = json_object(doc[name], f"model {name}", ("dtype", "shape", "data"))
    dtype, shape, data = arr["dtype"], arr["shape"], arr["data"]
    if dtype != want:
        raise ValidationError(f"{name} dtype must be {want!r}, got {dtype!r:.80}")
    shape = as_ints(shape, f"{name} shape", ("n",), 0).tolist()
    if type(data) is not str:
        raise ValidationError(f"{name} data must be a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise ValidationError(f"{name} data is not base64: {exc}")
    size = math.prod(shape) * np.dtype(want).itemsize
    if len(raw) != size:
        raise ValidationError(f"{name} data holds {len(raw)} bytes, shape {shape} needs {size}")
    return np.frombuffer(raw, want).reshape(shape)


def model_from_json(text: str) -> KnnModel:
    doc = json_object(text, "model document", ("schema", "k", "weighting", "metric",
                                               "feature_subset", *_MODEL_ARRAYS), text=True)
    schema = doc.get("schema")
    if schema != MODEL_SCHEMA:
        raise ValidationError(f"expected schema {MODEL_SCHEMA!r}, got {schema!r:.80}; "
                              f"re-run train to write a {MODEL_SCHEMA} model")
    try:
        return KnnModel(
            features=_model_array(doc, "features"),
            labels=_model_array(doc, "labels"),
            k=doc["k"],
            weighting=doc["weighting"],
            metric=doc["metric"],
            feature_subset=doc["feature_subset"],
            shift=_model_array(doc, "shift"),
            scale=_model_array(doc, "scale"),
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
    # distance-weighted (k, row) pairs whose winner `_winners_for`
    # recomputed in training-index order, over every fold and metric
    vote_fallbacks: int


def random_search(features, labels, space: HyperSpace = HyperSpace(),
                  n_iter: int = 10, seed: int = 0, folds: int = 5,
                  zscore: bool = False) -> SearchResult:
    """Score a without-replacement sample of the space by k-fold accuracy.

    Every candidate is scored with the same seeded folds, so the result
    equals an exhaustive grid restricted to the sampled combinations.
    One neighbor table per (fold, metric) serves every candidate, and
    `_winners_for` finds the winners of all of a weighting's k on it at
    once: the ranked-neighbor prefix of length k reproduces exactly what
    a standalone kfold_accuracy call computes. The tables are jobs of the
    worker pool, each writing only its own scores and fallback count, so
    the result and the exception raised, the earliest table's, are the
    serial loop's.
    The winners come from one rank-order cumulative sum of the weights;
    the (k, row) pairs whose sums are neither exact nor certified by its
    rounding bound are recomputed in training-index order, as
    `predict_batch` sums, and counted in `vote_fallbacks`.
    """
    n_iter = as_int(n_iter, "n_iter", 1)
    features = as_reals(features, "features", ("n", "w"), "(-inf, inf)")
    labels = as_labels(labels, "labels", len(features))
    splits = fold_splits(features.shape[0], folds, seed)  # checks folds and seed before any draw
    combos = space.combos()
    if n_iter > len(combos):
        warnings.warn(
            f"n_iter={n_iter} exceeds the {len(combos)}-combination space; clipping"
        )
        n_iter = len(combos)
    picks = np.random.default_rng(seed).choice(len(combos), size=n_iter, replace=False)
    chosen = sorted(int(i) for i in picks)  # tie-preference order
    candidates = [combos[i] for i in chosen]
    min_train = min(len(rest) for rest, _ in splits)
    scorable = [hp for hp in candidates if hp.k <= min_train]
    if not scorable:
        raise DomainError("every sampled k exceeds the smallest training fold")

    fold_correct = {hp: np.zeros(len(splits)) for hp in scorable}
    fallbacks = {}  # per (fold, metric) table

    def score(i, metric, group):
        # One table: fold i's neighbours by `metric`, scored for every k of
        # `group`. It writes only its own entries of fold_correct and fallbacks.
        rest, held = splits[i]
        model = fit(features[rest], labels[rest], k=max(hp.k for hp in group), metric=metric,
                    zscore=zscore)
        ranked, nd, _ = _neighbors(model, features[held])
        redone = 0
        for weighting in WEIGHTINGS:
            ks = sorted(hp.k for hp in group if hp.weighting == weighting)
            if ks:
                win, fell = _winners_for(ranked[:, :ks[-1]], nd[:, :ks[-1]], model.labels,
                                         weighting, ks)
                redone += fell
                for k, c in zip(ks, np.sum(win == labels[held], axis=1)):
                    fold_correct[Hyperparams(k, weighting, metric)][i] = c
        fallbacks[i, metric] = redone

    groups = {metric: [hp for hp in scorable if hp.metric == metric] for metric in DISTANCE_METRICS}
    # one job per table, in the serial loop's order
    workers.run(partial(score, i, metric, group)
                for i in range(len(splits)) for metric, group in groups.items() if group)

    sizes = np.array([len(held) for _, held in splits], dtype=float)
    trials = tuple(
        (hp, float(np.mean(percent_correct(fold_correct[hp], sizes)))) for hp in scorable
    )
    best, best_score = max(trials, key=lambda t: t[1])  # first maximum: preference order
    return SearchResult(best=best, best_score=best_score, trials=trials,
                        vote_fallbacks=sum(fallbacks.values()))
