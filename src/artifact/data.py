"""Labeled dataset generation and CSV persistence.

Each sample is one random engine configuration: the features are the
four baseline-normalized exchange statistics, the label is the quartile
interval of the hot-bath coherence strength. A dataset is held as column
arrays. Generation is deterministic in (seed, ranges, n), with per-sample
RNG substreams so the draws do not depend on evaluation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .counting import exchange_moment_ratios_batch
from .engine import VARIED, EngineParams
from .errors import DomainError, GenerationQualityError, ParseError, ValidationError

CSV_HEADER = "c1,c2,c3,c4,label,t_c,t_h,t_l,p_c,p_h,split"

# Hard sampling bounds; custom ranges must stay inside them.
_BOUNDS = {
    "t_c": (0.4, 2.5),
    "t_h": (3.0, 4.5),
    "t_l": (1.0, 7.0),
    "p_c": (0.0, 1.0),
    "p_h": (0.0, 1.0),
}

_MAX_REDRAWS_FRACTION = 0.10

# Rows per stacked solve: bounds its temporaries to a few MB at any n.
_BATCH_ROWS = 4096


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
        for name, outer in _BOUNDS.items():
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise DomainError(f"range {name}=({lo}, {hi}) is not a valid interval")
            if lo < outer[0] - 1e-12 or hi > outer[1] + 1e-12:
                raise DomainError(f"range {name}=({lo}, {hi}) outside sampling bounds {outer}")

    def to_dict(self) -> dict:
        return {k: list(getattr(self, k)) for k in _BOUNDS}

    @classmethod
    def from_dict(cls, doc: dict) -> "ParamRanges":
        if type(doc) is not dict:
            raise DomainError(f"ranges must be a JSON object, got {doc!r}")
        unknown = set(doc) - set(_BOUNDS)
        if unknown:
            raise DomainError(f"unknown range keys: {sorted(unknown)}")
        for name, v in doc.items():
            if type(v) not in (list, tuple) or len(v) != 2 or any(type(x) not in (int, float) for x in v):
                raise DomainError(f"range {name} must be a list of two numbers, got {v!r}")
        return cls(**{k: tuple(v) for k, v in doc.items()})


DEFAULT_RANGES = ParamRanges()

_CLASS_EDGES = (0.25, 0.50, 0.75)


def label_of(p_h: float) -> int:
    """Quartile class of the hot-bath coherence strength.

    Intervals are closed below and open above, except the last which
    absorbs the endpoint 1.0.
    """
    if not 0.0 <= p_h <= 1.0:
        raise DomainError(f"p_h must lie in [0, 1], got {p_h}")
    return int(_labels_of(p_h))


def _labels_of(p_h):
    """label_of over p_h values inside [0, 1]."""
    return np.searchsorted(_CLASS_EDGES, p_h, side="right")


def _check_row(features: tuple, label: int, varied: list, fixed: dict) -> None:
    """Raise the validation error of one row, checks in row order."""
    try:
        params = EngineParams(**dict(zip(VARIED, varied)), **fixed)
    except TypeError as exc:  # malformed sidecar constants
        raise ValidationError(str(exc))
    if not all(math.isfinite(c) for c in features):
        raise ValidationError(f"features must be 4 finite values, got {features}")
    if label != label_of(params.p_h):
        raise ValidationError(f"label {label} inconsistent with p_h={params.p_h}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled samples as write-protected columns.

    `features` is (n, 4), `labels` (n,), `params` (n, 5) with the varied
    engine parameters in VARIED order, `in_train` (n,) true for the rows
    of the training split; `meta["fixed"]` holds the other constants of
    every row's EngineParams.
    """

    features: np.ndarray
    labels: np.ndarray
    params: np.ndarray
    in_train: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, dtype in (("features", float), ("labels", np.intp), ("params", float),
                            ("in_train", bool)):
            col = np.asarray(getattr(self, name), dtype=dtype)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        n = len(self.labels)
        shapes = (self.features.shape, self.labels.shape, self.params.shape, self.in_train.shape)
        if shapes != ((n, 4), (n,), (n, 5), (n,)):
            raise ValidationError(f"columns must be (n, 4), (n,), (n, 5) and (n,), got {shapes}")
        self._check_rows()

    def _check_rows(self):
        """Vectorized row checks; the first bad row raises its scalar error,
        tagged with the row index as `row`. Row 0 always takes the scalar
        check, which validates the sidecar's fixed constants once."""
        t, p = self.params[:, :3], self.params[:, 3:]
        good = (np.isfinite(self.features).all(axis=1) & np.isfinite(t).all(axis=1)
                & (t > 0.0).all(axis=1)
                & ((p >= 0.0) & (p <= 1.0)).all(axis=1)
                & (self.labels == _labels_of(self.params[:, 4])))
        good[:1] = False
        for i in np.flatnonzero(~good).tolist():
            try:
                _check_row(tuple(self.features[i].tolist()), int(self.labels[i]),
                           self.params[i].tolist(), self.meta.get("fixed", {}))
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


def generate(n: int, ranges: ParamRanges = DEFAULT_RANGES, seed: int = 0,
             train_frac: float = 0.70) -> Dataset:
    """Draw n labeled samples i.i.d. uniformly over `ranges`.

    All first attempts are evaluated together, as stacked solves of up
    to _BATCH_ROWS rows. Degenerate draws (vanishing baseline statistics
    or failed solves) are redrawn from the same per-sample substream, in
    further rounds; more than 10% redraws overall signals pathological
    ranges and aborts.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0.0 < train_frac < 1.0:
        raise DomainError(f"train_frac must be in (0, 1), got {train_frac}")

    children = np.random.SeedSequence(seed).spawn(n + 1)
    streams = [np.random.default_rng(c) for c in children[:n]]
    lo = np.array([getattr(ranges, k)[0] for k in VARIED])
    width = np.array([getattr(ranges, k)[1] for k in VARIED]) - lo

    def draw(rows):
        return lo + width * np.array([streams[i].random(5) for i in rows]).reshape(-1, 5)

    params = draw(range(n))
    features = np.empty((n, 4))
    pending = np.arange(n)
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
        params[pending] = draw(failed)

    perm = np.random.default_rng(children[n]).permutation(n)
    in_train = np.zeros(n, dtype=bool)
    in_train[perm[:int(round(n * train_frac))]] = True

    meta = {
        "schema": "dataset-meta/1",
        "seed": int(seed),
        "n": int(n),
        "ranges": ranges.to_dict(),
        "fixed": {k: v for k, v in fixed.to_dict().items() if k not in VARIED},
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
    path.write_text("\n".join(lines) + "\n")
    meta_path(path).write_text(json.dumps(ds.meta, indent=2, sort_keys=True) + "\n")


def _parse_line(raw: str, lineno: int) -> tuple:
    """(features, label, varied parameters, is_train) of one CSV line."""
    cells = raw.split(",")
    if len(cells) != 11:
        raise ParseError(f"expected 11 columns, got {len(cells)}", line=lineno)
    try:
        row = ([float(c) for c in cells[:4]], int(cells[4]), [float(c) for c in cells[5:10]])
        np.intp(row[1])  # the label column holds intp
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc), line=lineno)
    if cells[10] not in ("train", "val"):
        raise ParseError(f"split tag must be 'train' or 'val', got {cells[10]!r}", line=lineno)
    return row + (cells[10] == "train",)


def read_csv(path) -> Dataset:
    """Inverse of write_csv; also reloads the sidecar when present.

    Lines are parsed into columns up to the first malformed one, then the
    columns are validated; the earliest bad line is reported.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", line=1)

    side = meta_path(path)
    meta = {}
    if side.exists():
        try:
            meta = json.loads(side.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed sidecar {side}: {exc}")

    rows, linenos, error = [], [], None
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip():
            try:
                rows.append(_parse_line(raw, lineno))
            except ParseError as exc:
                error = exc
                break
            linenos.append(lineno)
    features, labels, params, in_train = zip(*rows) if rows else ((),) * 4
    try:
        ds = Dataset(np.reshape(features, (-1, 4)), np.array(labels, dtype=np.intp),
                     np.reshape(params, (-1, 5)), np.array(in_train, dtype=bool), meta)
    except ValidationError as exc:
        raise ParseError(str(exc), line=linenos[exc.row])
    if error is not None:
        raise error
    return ds
