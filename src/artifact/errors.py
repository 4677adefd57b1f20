"""Exception taxonomy shared by every module.

Two families matter to the CLI: configuration/validation problems exit
with code 2, numerical-quality problems with code 3. Everything else is
a plain bug and propagates.

Every outside file and JSON document enters through `read_text` and
`json_object`, so one rule decides which of them exit 2.

Every count, seed and index argument goes through `as_int`, the one
integer rule: an int or numpy integer, never a bool, inside [lo, hi),
returned as a Python int. Anything else exits 2 with one message form,
"<argument> must be an integer in [lo, hi), got <value>" (or
"... an integer >= lo, ..." where no upper bound applies). Every real
argument goes through `as_real`, the twin rule: an int, float or numpy
real, never a bool or NaN, inside an interval written like "(0, inf)" or
"[0, 1]" (which `in_interval` also applies to arrays), returned as a
Python float; else "<argument> must be a real number in <interval>, got <value>".
A [lo, hi] range is read end by end through `as_real` by `data.as_range`.
Every argument that names one of a fixed set of choices (a generator
variant, a scenario relation, a mapping, a weighting, a metric) goes
through `as_name`: a string among the names, else "<argument> must be one
of <names>, got <value>". Every real array goes through `as_reals`: ints or
floats, never bools, text or complex, shaped like ("n", 4) (a name matches any
length), each in an interval like "(-inf, inf)" when one is given; else
"<argument> must be an (n, 4) array of real numbers in (-inf, inf), got <value>".
Every integer array goes through `as_ints`, its twin: integers, never bools, floats,
text or objects, shaped alike, each in [lo, hi), as intp; else "<argument> must be an
(n,) array of integers in [lo, hi), got <value>". Every flag goes through `as_flag`.
"""

import functools
import json
import math
import operator
from pathlib import Path

import numpy as np


class ArtifactError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(ArtifactError):
    """Bad inputs: out-of-range parameters, malformed configs or files."""

    exit_code = 2


class DomainError(ValidationError):
    """An argument violates a documented precondition."""


class ParseError(ValidationError):
    """Malformed persisted artifact. Carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file `path`, a `what` to the user; a file
    that cannot be read or decoded is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}")


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def json_object(doc, what: str, known=None, text: bool = False) -> dict:
    """`doc` checked to be a JSON object whose keys are all in `known`
    (when given); a `what` to the user. With `text`, `doc` is the text
    of a JSON document, parsed first: any object in it that repeats a
    key is refused."""
    if text:
        try:
            doc = json.loads(doc, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"malformed {what}: {exc}")
    if type(doc) is not dict:
        raise ParseError(f"{what} must be a JSON object, got {doc!r:.80}")
    unknown = sorted(set(doc) - set(known)) if known is not None else ()
    if unknown:
        raise ParseError(f"unknown {what} key {unknown[0]!r}; expected one of {tuple(known)}")
    return doc


def as_int(value, what: str, lo: int, hi: int | None = None) -> int:
    """`value`, the argument `what`, as a Python int: an int or numpy
    integer, never a bool, in [lo, hi) (no upper bound when `hi` is None);
    anything else is a DomainError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if lo <= int(value) and (hi is None or int(value) < hi):
            return int(value)
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    raise DomainError(f"{what} must be an integer {span}, got {value!r:.80}")


@functools.cache
def _ends(span: str) -> tuple:
    """(lo, its test, hi, its test) of an interval written like "(0, inf)"."""
    lo, hi = span[1:-1].split(", ")
    return (float(lo), operator.ge if span[0] == "[" else operator.gt,
            float(hi), operator.le if span[-1] == "]" else operator.lt)


def in_interval(x, span: str):
    """Whether `x`, a float or elementwise an array, lies in the interval
    `span`; NaN lies in none."""
    lo, above, hi, below = _ends(span)
    return above(x, lo) & below(x, hi)


def as_real(value, what: str, span: str) -> float:
    """`value`, the argument `what`, as a Python float: an int, float or
    numpy real, never a bool, in the interval `span` (see `in_interval`);
    anything else is a DomainError."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            x = math.nan
        if in_interval(x, span):
            return x
    raise DomainError(f"{what} must be a real number in {span}, got {value!r:.80}")


def as_name(value, what: str, names) -> str:
    """`value`, the argument `what`, as a Python str: a string among `names`;
    anything else is a DomainError."""
    if isinstance(value, str) and value in names:
        return str(value)
    raise DomainError(f"{what} must be one of {tuple(names)}, got {value!r:.80}")


def as_flag(value, what: str) -> bool:
    """`value`, the flag `what`, as a Python bool: a bool or numpy bool; else a DomainError."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise DomainError(f"{what} must be true or false, got {value!r:.80}")


def array_of(value, kinds: str):
    """`value` as an array whose dtype kind is in `kinds` ("iu": integers, never bools; "b": bools;
    "U": text), or None. A listing of no entries is an empty array of the first kind."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting is no array
        return None
    if arr.size == 0 and not isinstance(value, np.ndarray):
        return arr.astype(bool if kinds == "b" else kinds[0])
    if arr.dtype.kind not in kinds:
        return None
    # numpy reads a bool among listed numbers as 0 or 1
    numbers = arr.dtype.kind != "b" and not isinstance(value, np.ndarray)
    listed = np.asarray(value, dtype=object).flat if numbers else ()
    return None if any(type(c) in (bool, np.bool_) for c in listed) else arr


def _array(value, what: str, shape: tuple, kinds: str, entries: str, test=None) -> np.ndarray:
    """`value`, the array argument `what`, as `array_of(value, kinds)` whose shape matches
    `shape`, a name matching any length, and which passes `test`; else a DomainError."""
    arr = array_of(value, kinds)
    if arr is not None and arr.ndim == len(shape) \
            and all(type(want) is str or want == got for want, got in zip(shape, arr.shape)) \
            and (test is None or test(arr)):
        return arr
    dims = str(shape).replace("'", "")  # ("n", 4) as (n, 4)
    raise DomainError(f"{what} must be an {dims} array of {entries}, "
                      f"got {' '.join(repr(value).split()):.80}")


def as_reals(value, what: str, shape: tuple, span: str | None = None) -> np.ndarray:
    """`value`, the array argument `what`, as float64 (a float64 array is not copied): integers
    or floats whose shape matches `shape`, a name matching any length, each in the interval
    `span` (see `in_interval`; unbounded where None); else a DomainError."""
    entries = "real numbers" if span is None else f"real numbers in {span}"
    test = None if span is None else lambda arr: np.all(in_interval(arr.astype(float, copy=False), span))
    return _array(value, what, shape, "iuf", entries, test).astype(float, copy=False)


def as_ints(value, what: str, shape: tuple, lo: int | None = None, hi: int | None = None) -> np.ndarray:
    """`value`, the array argument `what`, as intp: integers, never bools, whose shape matches
    `shape` as in `as_reals`, each in [lo, hi) (unbounded where None); else a DomainError."""
    intp = np.iinfo(np.intp)  # an unbounded end is intp's own, which every entry must fit
    low, high = intp.min if lo is None else lo, intp.max if hi is None else hi - 1
    span = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi})"
    return _array(value, what, shape, "iu", f"integers{span}",
                  lambda arr: np.all((arr >= low) & (arr <= high))).astype(np.intp, copy=False)


class StateError(ValidationError):
    """Operation on an object whose state cannot support it (e.g. empty model)."""


class NumericalError(ArtifactError):
    """Numerical-quality failures: the math did not cooperate."""

    exit_code = 3


class SingularityError(NumericalError):
    """Null space is not one-dimensional where it must be."""


class BranchAmbiguityError(NumericalError):
    """Eigenvalue branch tracking lost spectral isolation; shrink lambda."""


class ConditioningError(NumericalError):
    """A constrained solve is too ill-conditioned to trust."""


class DegenerateSampleError(NumericalError):
    """A zero-coherence baseline moment vanished; the sample is unusable."""


class GenerationQualityError(NumericalError):
    """Degenerate-sample rate too high; the requested ranges are pathological."""


class AbsorbingStateError(NumericalError):
    """A jump process reached a state with zero total escape rate."""


class InfeasibleConstraintError(NumericalError):
    """Scenario rejection sampling accepted less than 1% of attempts."""
