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
of <names>, got <value>".
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
