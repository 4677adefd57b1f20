"""Confusion matrix and per-class evaluation metrics.

Convention pinned throughout: rows index the PREDICTED class, columns
the true class. The precision/recall formulas below follow the source
convention of this project (precision normalizes the true-class column,
recall the predicted-class row); with rows-predicted this is the
transpose of what most ML libraries call precision and recall, so the
functions are documented by formula, not by folklore name.

Metrics with a vanishing denominator are reported as undefined
(value NaN, defined False), never as silent zeros.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError
from .knn import N_CLASSES


class MetricValue(NamedTuple):
    value: float
    defined: bool

    @classmethod
    def undefined(cls) -> "MetricValue":
        return cls(float("nan"), False)


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


def accuracy(chi) -> float:
    """Diagonal mass over total mass, as a percentage."""
    chi = _check(chi)
    total = int(chi.sum())
    if total == 0:
        raise DomainError("confusion matrix is empty")
    return float(np.trace(chi)) / total * 100.0


def precision_recall(chi, k: int) -> tuple:
    """(p_k, R_k): diagonal over column sum, diagonal over row sum."""
    chi = _check(chi)
    col = int(chi[:, k].sum())
    row = int(chi[k, :].sum())
    d = float(chi[k, k])
    p = MetricValue(d / col, True) if col > 0 else MetricValue.undefined()
    r = MetricValue(d / row, True) if row > 0 else MetricValue.undefined()
    return p, r


def f_score(chi, k: int) -> MetricValue:
    """Harmonic mean of p_k and R_k, as a percentage."""
    p, r = precision_recall(chi, k)
    if not (p.defined and r.defined) or p.value + r.value == 0.0:
        return MetricValue.undefined()
    return MetricValue(2.0 * p.value * r.value / (p.value + r.value) * 100.0, True)


def mcc(chi, k: int) -> MetricValue:
    """One-vs-rest Matthews correlation for class k, as a percentage.

    tp is the diagonal entry; fp the rest of the column, fn the rest of
    the row, tn everything outside row k and column k.
    """
    chi = _check(chi)
    tp = float(chi[k, k])
    fp = float(chi[:, k].sum() - chi[k, k])
    fn = float(chi[k, :].sum() - chi[k, k])
    tn = float(chi.sum() - chi[:, k].sum() - chi[k, :].sum() + chi[k, k])
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0.0:
        return MetricValue.undefined()
    return MetricValue((tp * tn - fp * fn) / np.sqrt(denom_sq) * 100.0, True)


class ClassMetrics(NamedTuple):
    label: int
    precision: MetricValue
    recall: MetricValue
    f: MetricValue
    phi: MetricValue


def class_metrics(chi) -> list:
    chi = _check(chi)
    rows = []
    for k in range(N_CLASSES):
        p, r = precision_recall(chi, k)
        rows.append(ClassMetrics(k, p, r, f_score(chi, k), mcc(chi, k)))
    return rows


def render_confusion(chi) -> str:
    """Plain-text grid, predicted classes down the side."""
    chi = _check(chi)
    width = max(5, len(str(int(chi.max()))) + 1)
    head = "pred\\true" + "".join(f"{n:>{width}}" for n in range(N_CLASSES))
    lines = [head]
    for m in range(N_CLASSES):
        lines.append(f"{m:>9}" + "".join(f"{int(chi[m, n]):>{width}}" for n in range(N_CLASSES)))
    return "\n".join(lines)


def _cell(v: MetricValue) -> str:
    return format(v.value, ".6f") if v.defined else "nan"


def render_class_metrics(chi) -> str:
    lines = ["class,precision,recall,f_score,mcc"]
    for row in class_metrics(chi):
        lines.append(",".join([str(row.label), _cell(row.precision), _cell(row.recall),
                               _cell(row.f), _cell(row.phi)]))
    return "\n".join(lines) + "\n"
