"""Exception taxonomy shared by every module.

Two families matter to the CLI: configuration/validation problems exit
with code 2, numerical-quality problems with code 3. Everything else is
a plain bug and propagates.

Every outside file and JSON document enters through `read_text` and
`json_object`, so one rule decides which of them exit 2.
`is_int` is the one rule for which arguments count as integers.
"""

import json
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


def is_int(value) -> bool:
    """The one integer rule for counts and seeds: an int or numpy integer,
    never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
