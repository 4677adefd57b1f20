"""Labeled dataset generation and CSV persistence.

Each sample is one random engine configuration: the features are the
four baseline-normalized exchange statistics, the label is the quartile
interval of the hot-bath coherence strength. A dataset is held as column
arrays. Generation is deterministic in (seed, ranges, n), with per-sample
RNG substreams so the draws do not depend on evaluation order. The
substreams are numpy's (PCG64 seeded by `SeedSequence` children), whose
output numpy keeps fixed across versions; they are computed for all
samples at once as integer array arithmetic rather than one `Generator`
object per sample.
"""

from __future__ import annotations

import json
import math
import operator
from contextlib import suppress
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .counting import exchange_moment_ratios_batch
from .engine import SPANS, VARIED, EngineParams, in_box
from .errors import (DomainError, GenerationQualityError, ParseError, ValidationError,
                     as_flags, as_int, as_ints, as_real, as_reals, json_object, read_text)

CSV_HEADER = "c1,c2,c3,c4,label,t_c,t_h,t_l,p_c,p_h,split"

# The EngineParams fields a dataset holds fixed: the keys of its sidecar's "fixed" object.
_FIXED = tuple(name for name in SPANS if name not in VARIED)

# Hard sampling bounds, as `errors.as_real` intervals; custom ranges must stay inside them.
_BOUNDS = {"t_c": "[0.4, 2.5]", "t_h": "[3.0, 4.5]", "t_l": "[1.0, 7.0]", "p_c": "[0, 1]", "p_h": "[0, 1]"}

_MAX_REDRAWS_FRACTION = 0.10

# Rows per stacked solve: bounds its temporaries to a few MB at any n.
_BATCH_ROWS = 4096


def as_range(value, what: str, span: str) -> tuple:
    """`value`, the range `what`, as a pair of Python floats: a list or tuple
    of two reals lo <= hi, each read by `errors.as_real` inside the interval
    `span`; anything else is a DomainError."""
    if type(value) in (list, tuple) and len(value) == 2:
        with suppress(DomainError):
            lo, hi = (as_real(v, what, span) for v in value)
            if lo <= hi:
                return lo, hi
    raise DomainError(f"range {what} must be a [lo, hi] pair of real numbers in {span} "
                      f"with lo <= hi, got {value!r:.80}")


@dataclass(frozen=True)
class ParamRanges:
    """Per-dimension closed sampling intervals for the varied parameters.

    The cold-coherence default stops at 0.3: beyond that the normalized
    features drift outside the narrow window the classifiers are built
    for, while the label variable p_h must cover all four quartiles.
    """

    t_c: tuple = (0.4, 2.5)
    t_h: tuple = (3.0, 4.5)
    t_l: tuple = (1.0, 7.0)
    p_c: tuple = (0.0, 0.3)
    p_h: tuple = (0.0, 1.0)

    def __post_init__(self):
        for name, span in _BOUNDS.items():
            object.__setattr__(self, name, as_range(getattr(self, name), name, span))

    def to_dict(self) -> dict:
        return {k: list(getattr(self, k)) for k in _BOUNDS}

    @classmethod
    def from_dict(cls, doc: dict) -> "ParamRanges":
        return cls(**json_object(doc, "ranges", _BOUNDS))


DEFAULT_RANGES = ParamRanges()

_CLASS_EDGES = (0.25, 0.50, 0.75)
N_CLASSES = len(_CLASS_EDGES) + 1


def as_labels(value, what: str, n: int | None = None) -> np.ndarray:
    """`value`, the class labels `what`, as an intp array: `errors.as_ints`
    in [0, N_CLASSES), `n` of them unless `n` is None."""
    return as_ints(value, what, ("n" if n is None else n,), 0, N_CLASSES)


def _labels_of(p_h):
    """Quartile class of hot-bath coherence strengths in [0, 1].

    Intervals are closed below and open above, except the last which
    absorbs the endpoint 1.0.
    """
    return np.searchsorted(_CLASS_EDGES, p_h, side="right")


def _check_row(features: tuple, label: int, varied: list, fixed: EngineParams) -> None:
    """Raise the validation error of one row, checks in row order."""
    params = replace(fixed, **dict(zip(VARIED, varied)))
    if not all(math.isfinite(c) for c in features):
        raise ValidationError(f"features must be 4 finite values, got {features}")
    if label != _labels_of(params.p_h):
        raise ValidationError(f"label {label} inconsistent with p_h={params.p_h}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled samples as write-protected columns.

    `features` is (n, 4), `labels` (n,), `params` (n, 5) with the varied
    engine parameters in VARIED order, `in_train` (n,) bools, true for the
    rows of the training split; a column of another shape or kind is a
    DomainError. `meta["fixed"]` holds the other constants of every row's EngineParams.
    """

    features: np.ndarray
    labels: np.ndarray
    params: np.ndarray
    in_train: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # unbounded: a label outside the classes is left to its row check
        labels = as_ints(self.labels, "labels", ("n",))
        n = len(labels)
        for name, col in (("in_train", as_flags(self.in_train, "in_train", (n,))), ("labels", labels),
                          ("features", as_reals(self.features, "features", (n, 4))),
                          ("params", as_reals(self.params, "params", (n, 5)))):
            object.__setattr__(self, name, col)
        self._check_rows()

    def _check_rows(self):
        """The sidecar's `fixed` constants, read once before any row as one
        EngineParams of `_FIXED` keys; then vectorized row checks, where the
        first bad row raises its scalar error, tagged with its index as `row`."""
        meta = json_object(self.meta, "meta")
        fixed = EngineParams(**json_object(meta.get("fixed", {}), "fixed", _FIXED))
        good = (np.isfinite(self.features).all(axis=1) & in_box(self.params)
                & (self.labels == _labels_of(self.params[:, 4])))
        for i in np.flatnonzero(~good).tolist():
            try:
                _check_row(tuple(self.features[i].tolist()), int(self.labels[i]),
                           self.params[i].tolist(), fixed)
            except ValidationError as exc:
                exc.row = i
                raise

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def train(self):
        return self.features[self.in_train], self.labels[self.in_train]

    @property
    def validation(self):
        return self.features[~self.in_train], self.labels[~self.in_train]


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier in 64-bit halves
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 2549297995355413924, 4865540595714422341


def _hash(value, const, mult):
    """SeedSequence's hashmix of a word or uint32 array: (value, next constant)."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - _MIX_R * y) & _M32
    return r ^ r >> 16


def _step(hi, lo, inc_hi, inc_lo):
    """One step of the 128-bit LCG on uint64 halves; the high product of
    lo and the multiplier's low half is built from 32-bit pieces."""
    a0, a1, b0, b1 = lo & _M32, lo >> 32, _PCG_LO & _M32, _PCG_LO >> 32
    u = a1 * b0 + (a0 * b0 >> 32)
    v = a0 * b1 + (u & _M32)
    hi = a1 * b1 + (u >> 32) + (v >> 32) + lo * _PCG_HI + hi * _PCG_LO
    lo = lo * _PCG_LO
    new_lo = lo + inc_lo
    return hi + inc_hi + (new_lo < lo), new_lo


class _Substreams:
    """The streams of `default_rng(c)` for the children c of
    `SeedSequence(seed).spawn(n)`, held as uint64 arrays.

    Child i mixes its entropy (the seed's 32-bit words, padded to 4, then
    the spawn key i) into a 4-word pool by SeedSequence's hash mix, and
    `generate_state(4, uint64)` seeds PCG64 (O'Neill's 128-bit LCG with
    XSL-RR output, HMC-CS-2014-0905) through `srandom`. NumPy freezes both
    under its stream-compatibility policy (NEP 19), so the draws equal
    numpy's bit for bit. Only the spawn key differs per child: the seed's
    words are mixed once in Python ints, the key as uint32 arrays.
    """

    def __init__(self, seed: int, n: int):
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        words += [0] * (4 - len(words))
        pool, const = [], _INIT_A
        for w in words[:4]:
            v, const = _hash(w, const, _MULT_A)
            pool.append(v)
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    v, const = _hash(pool[src], const, _MULT_A)
                    pool[dst] = _mix(pool[dst], v)
        for w in words[4:] + [np.arange(n, dtype=np.uint32)]:
            for dst in range(4):
                v, const = _hash(w, const, _MULT_A)
                pool[dst] = _mix(pool[dst], v)
        halves, const = [], _INIT_B
        for j in range(8):
            v, const = _hash(pool[j % 4], const, _MULT_B)
            halves.append(v.astype(np.uint64))
        s_hi, s_lo, q_hi, q_lo = (halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2))
        inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
        lo = inc_lo + s_lo
        hi, lo = _step(inc_hi + s_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
        self.state = np.stack([hi, lo, inc_hi, inc_lo])

    def random(self, rows, count: int) -> np.ndarray:
        """(len(rows), count): the next `count` uniforms of each of the
        distinct `rows`, as `Generator.random` gives them."""
        hi, lo, inc_hi, inc_lo = self.state[:, rows]
        out = np.empty((len(hi), count))
        for j in range(count):
            hi, lo = _step(hi, lo, inc_hi, inc_lo)
            x, r = hi ^ lo, hi >> 58
            out[:, j] = ((x >> r | x << (64 - r & 63)) >> 11) * 2.0 ** -53
        self.state[:2, rows] = hi, lo
        return out


def generate(n: int, ranges: ParamRanges = DEFAULT_RANGES, seed: int = 0,
             train_frac: float = 0.70) -> Dataset:
    """Draw n labeled samples i.i.d. uniformly over `ranges`.

    Sample i draws from the stream of child i of `SeedSequence(seed)`,
    and the split from child n, so a dataset is a prefix of a larger one
    at the same seed. The sample streams are computed together as arrays
    (`_Substreams`), equal bit for bit to `default_rng` on each child.
    All first attempts are evaluated together, as stacked solves of up
    to _BATCH_ROWS rows. Degenerate draws (vanishing baseline statistics
    or failed solves) are redrawn from the same per-sample substream, in
    further rounds; more than 10% redraws overall signals pathological
    ranges and aborts.
    """
    seed = as_int(seed, "seed", 0)
    n = as_int(n, "n", 1, 2**32)
    train_frac = as_real(train_frac, "train_frac", "(0, 1)")
    n_train = int(round(n * train_frac))
    if not 0 < n_train < n:
        raise DomainError(f"train_frac={train_frac} of n={n} leaves an empty "
                          f"{'training' if n_train == 0 else 'validation'} split")

    streams = _Substreams(seed, n)
    lo = np.array([getattr(ranges, k)[0] for k in VARIED])
    width = np.array([getattr(ranges, k)[1] for k in VARIED]) - lo

    def draw(rows):
        return lo + width * streams.random(rows, 5)

    pending = np.arange(n)
    params = draw(pending)
    features = np.empty((n, 4))
    redraws = 0
    budget = max(10, int(_MAX_REDRAWS_FRACTION * n))
    fixed = EngineParams()
    while pending.size:
        failed = []
        for start in range(0, pending.size, _BATCH_ROWS):
            rows = pending[start:start + _BATCH_ROWS]
            features[rows], failures = exchange_moment_ratios_batch(params[rows], fixed)
            failed += rows[sorted(failures)].tolist()
        redraws += len(failed)
        if redraws > budget:
            raise GenerationQualityError(
                f"more than {budget} degenerate draws for n={n}; ranges look pathological"
            )
        pending = np.array(failed, dtype=np.intp)
        params[pending] = draw(pending)

    perm = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,))).permutation(n)
    in_train = np.zeros(n, dtype=bool)
    in_train[perm[:n_train]] = True

    meta = {
        "schema": "dataset-meta/1",
        "seed": seed,
        "n": n,
        "ranges": ranges.to_dict(),
        "fixed": {k: v for k, v in asdict(fixed).items() if k not in VARIED},
        "variant": "consistent",  # the one layout datasets are generated with
        "train_frac": train_frac,
        "redraws": redraws,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    return Dataset(features, _labels_of(params[:, 4]), params, in_train, meta)


# One CSV row: four features, label, the VARIED parameters, split tag.
_ROW = ",".join(["{:.17g}"] * 4 + ["{}"] + ["{:.17g}"] * 5 + ["{}"])


def meta_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def write_csv(ds: Dataset, path) -> None:
    """Write samples as CSV plus a `<name>.meta.json` sidecar.

    The CSV bytes are a pure function of the dataset content; anything
    run-dependent (timestamp, redraw count) lives only in the sidecar.
    """
    path = Path(path)
    rows = zip(ds.features.tolist(), ds.labels.tolist(), ds.params.tolist(),
               np.where(ds.in_train, "train", "val").tolist())
    lines = [CSV_HEADER] + [_ROW.format(*f, y, *p, s) for f, y, p, s in rows]
    try:
        path.write_text("\n".join(lines) + "\n")
        meta_path(path).write_text(json.dumps(ds.meta, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _column(texts: list, convert, dtype, linenos: list) -> np.ndarray:
    """`texts` converted cell by cell by `convert` into a `dtype` array; the
    first cell refused raises a ParseError naming its line."""
    cells = iter(texts)
    try:
        return np.fromiter(map(convert, cells), dtype, len(texts))
    except (ValueError, OverflowError) as exc:  # the refused cell is the last one taken
        raise ParseError(str(exc), line=linenos[len(texts) - operator.length_hint(cells) - 1])


def _columns(rows: list, linenos: list) -> tuple:
    """(features, labels, params, in_train) of CSV lines, the i-th on line
    `linenos[i]`: the one definition of a valid line. Every line has 11
    cells, converted column by column in the order of a line: c1-c4 by
    `float()`, the label by `int()` into intp, the VARIED parameters by
    `float()`, then the split tag, 'train' or 'val'. A ParseError names the
    first refused cell of the first column to refuse one: the fault its line
    alone raises, though an earlier line may hold one of a later column."""
    bad = next((i for i, raw in enumerate(rows) if raw.count(",") != 10), None)
    if bad is not None:
        raise ParseError(f"expected 11 columns, got {rows[bad].count(',') + 1}", line=linenos[bad])
    cells = ",".join(rows).split(",") if rows else []
    texts = [cells[j::11] for j in range(10)]
    cols = []
    for j, text in enumerate(texts):
        # a float column spelled cell for cell like an earlier float column
        # converts to the same floats: in generated data c3 copies c1 and c4 c2
        i = texts.index(text)
        cols.append(_column(text, int, np.intp, linenos) if j == 4 else cols[i] if 4 != i < j
                    else _column(text, float, float, linenos))
    tags = cells[10::11]
    if not {"train", "val"}.issuperset(tags):
        bad = next(i for i, tag in enumerate(tags) if tag not in ("train", "val"))
        raise ParseError(f"split tag must be 'train' or 'val', got {tags[bad]!r}", line=linenos[bad])
    return (np.stack(cols[:4], axis=1), cols[4], np.stack(cols[5:], axis=1),
            np.fromiter(map("train".__eq__, tags), bool, len(rows)))


def read_csv(path) -> Dataset:
    r"""Inverse of write_csv; also reloads the sidecar when present.

    The non-blank lines are converted by `_columns`, one pass per column,
    and then validated; the accepted cells are those of `float()` and
    `int()`. Lines end at a newline only (`\n`, and `\r\n` or `\r`, which
    reading the text turns into one): a form feed, `\x85` or another break
    of `str.splitlines` stays in its cell, for the cell's rule to judge, so
    line numbers count the file's newlines. A bad file is narrowed to the
    lines before the one `_columns` names, until `_columns` accepts them
    (at most one more call per column, as each names a fault of a later
    column): those lines enter the columns, and the earliest bad line is
    reported, a validation error before a parse error on a later line. A
    bad `fixed` constant of the sidecar is reported as the sidecar's.
    """
    lines = read_text(path, "dataset").split("\n")
    if lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", line=1)

    side = meta_path(path)
    meta = json_object(read_text(side, "sidecar"), f"sidecar {side}", text=True) if side.exists() else {}

    linenos = [lineno for lineno, raw in enumerate(lines[1:], start=2) if raw.strip()]
    rows, columns, error = [lines[lineno - 1] for lineno in linenos], None, None
    while columns is None:
        try:
            columns = _columns(rows, linenos)
        except ParseError as exc:
            rows, error = rows[:linenos.index(exc.line)], exc
    try:
        ds = Dataset(*columns, meta)
    except ValidationError as exc:
        if not hasattr(exc, "row"):
            raise ParseError(f"sidecar {side}: {exc}")
        raise ParseError(str(exc), line=linenos[exc.row])
    if error is not None:
        raise error
    return ds
