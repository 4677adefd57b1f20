"""Confusion matrix and per-class evaluation metrics.

Convention pinned throughout: rows index the PREDICTED class, columns
the true class. The precision/recall formulas below follow the source
convention of this project (precision normalizes the true-class column,
recall the predicted-class row); with rows-predicted this is the
transpose of what most ML libraries call precision and recall, so the
functions are documented by formula, not by folklore name.

A metric whose denominator vanishes is NaN, never a silent zero.
"""

from __future__ import annotations

import numpy as np

from .data import N_CLASSES
from .errors import DomainError, ValidationError


def confusion_matrix(predicted, true) -> np.ndarray:
    """chi[m, n] counts samples predicted m whose true class is n."""
    predicted = np.asarray(predicted, dtype=np.intp)
    true = np.asarray(true, dtype=np.intp)
    if predicted.shape != true.shape or predicted.ndim != 1:
        raise DomainError(
            f"prediction/label shapes differ: {predicted.shape} vs {true.shape}"
        )
    if predicted.size == 0:
        raise DomainError("cannot build a confusion matrix from zero samples")
    for name, arr in (("predicted", predicted), ("true", true)):
        if arr.min() < 0 or arr.max() >= N_CLASSES:
            raise DomainError(f"{name} classes must lie in [0, {N_CLASSES})")
    chi = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(chi, (predicted, true), 1)
    return chi


def _check(chi) -> np.ndarray:
    chi = np.asarray(chi)
    if chi.shape != (N_CLASSES, N_CLASSES):
        raise ValidationError(f"confusion matrix must be {N_CLASSES}x{N_CLASSES}, got {chi.shape}")
    if np.any(chi < 0) or not np.issubdtype(chi.dtype, np.integer):
        raise ValidationError("confusion matrix entries must be non-negative integers")
    return chi


def percent_correct(correct, total):
    """correct / total in percent, elementwise: every accuracy's one rounding."""
    return correct / total * 100.0


def accuracy(chi) -> float:
    """Diagonal mass over total mass, as a percentage."""
    chi = _check(chi)
    total = int(chi.sum())
    if total == 0:
        raise DomainError("confusion matrix is empty")
    return percent_correct(int(np.trace(chi)), total)


def _ratio(num, den) -> np.ndarray:
    """num / den per class, NaN where den vanishes."""
    return np.divide(num, den, out=np.full(N_CLASSES, np.nan), where=den != 0)


def class_metrics(chi) -> np.ndarray:
    """(N_CLASSES, 4) array of per-class precision, recall, F and MCC.

    Row k is class k. Precision p_k is the diagonal over the column sum
    and recall R_k the diagonal over the row sum; F is their harmonic
    mean and MCC the one-vs-rest Matthews correlation, both as
    percentages. For MCC, tp is the diagonal entry, fp the rest of the
    column, fn the rest of the row and tn everything outside row k and
    column k.
    """
    chi = _check(chi)
    diag = np.diag(chi)
    col = chi.sum(axis=0)
    row = chi.sum(axis=1)
    tp = diag.astype(float)
    p = _ratio(tp, col)
    r = _ratio(tp, row)
    f = _ratio(2.0 * p * r, p + r) * 100.0
    fp = (col - diag).astype(float)
    fn = (row - diag).astype(float)
    tn = (chi.sum() - col - row + diag).astype(float)
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    phi = _ratio(tp * tn - fp * fn, np.sqrt(denom_sq)) * 100.0
    return np.column_stack([p, r, f, phi])


def render_confusion(chi) -> str:
    """Plain-text grid, predicted classes down the side."""
    chi = _check(chi)
    width = max(5, len(str(int(chi.max()))) + 1)
    head = "pred\\true" + "".join(f"{n:>{width}}" for n in range(N_CLASSES))
    lines = [head]
    for m in range(N_CLASSES):
        lines.append(f"{m:>9}" + "".join(f"{int(chi[m, n]):>{width}}" for n in range(N_CLASSES)))
    return "\n".join(lines)


def render_class_metrics(chi) -> str:
    lines = ["class,precision,recall,f_score,mcc"]
    for k, row in enumerate(class_metrics(chi)):
        # format() spells every NaN "nan"
        lines.append(",".join([str(k), *(format(v, ".6f") for v in row)]))
    return "\n".join(lines) + "\n"
