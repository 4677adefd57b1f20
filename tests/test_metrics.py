import numpy as np
import pytest

from artifact.errors import DomainError, ValidationError
from artifact.metrics import (
    MetricValue,
    accuracy,
    class_metrics,
    confusion_matrix,
    f_score,
    mcc,
    precision_recall,
    render_class_metrics,
    render_confusion,
)
from artifact.knn import fit, predict_batch, single_shot_accuracy


def test_confusion_layout():
    # chi[m, n] counts samples predicted m with true class n
    pred = np.array([0, 0, 1, 2, 2, 3])
    true = np.array([0, 1, 1, 2, 3, 3])
    chi = confusion_matrix(pred, true)
    assert chi[0, 0] == 1 and chi[0, 1] == 1
    assert chi[1, 1] == 1
    assert chi[2, 2] == 1 and chi[2, 3] == 1
    assert chi[3, 3] == 1
    assert chi.sum() == 6


def test_confusion_validation():
    with pytest.raises(DomainError):
        confusion_matrix(np.array([0, 1]), np.array([0]))
    with pytest.raises(DomainError):
        confusion_matrix(np.array([]), np.array([]))
    with pytest.raises(DomainError):
        confusion_matrix(np.array([0, 4]), np.array([0, 1]))
    with pytest.raises(ValidationError):
        accuracy(np.zeros((3, 3), dtype=int))
    with pytest.raises(ValidationError):
        accuracy(np.full((4, 4), 0.5))  # non-integer entries


def test_accuracy_worked_example():
    pred = np.array([0, 1, 2, 3] * 3)
    true = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 2])
    chi = confusion_matrix(pred, true)
    assert accuracy(chi) == pytest.approx(11 / 12 * 100.0)


def test_accuracy_equals_single_shot(rng):
    # the matrix route and the direct percentage must agree exactly
    x = rng.uniform(size=(80, 3)).round(1)
    y = rng.integers(0, 4, size=80)
    q = rng.uniform(size=(40, 3)).round(1)
    yq = rng.integers(0, 4, size=40)
    model = fit(x, y, k=3)
    pred = predict_batch(model, q)
    assert accuracy(confusion_matrix(pred, yq)) == single_shot_accuracy(model, q, yq)


def test_precision_recall_formula():
    chi = np.array([
        [5, 1, 0, 0],
        [2, 7, 1, 0],
        [0, 0, 3, 2],
        [1, 0, 0, 8],
    ])
    p0, r0 = precision_recall(chi, 0)
    assert p0 == MetricValue(5 / 8, True)   # diagonal over column sum
    assert r0 == MetricValue(5 / 6, True)   # diagonal over row sum
    p2, r2 = precision_recall(chi, 2)
    assert p2.value == pytest.approx(3 / 4)
    assert r2.value == pytest.approx(3 / 5)


def test_f_score_harmonic_mean():
    chi = np.array([
        [5, 1, 0, 0],
        [2, 7, 1, 0],
        [0, 0, 3, 2],
        [1, 0, 0, 8],
    ])
    p, r = precision_recall(chi, 0)
    want = 2 * p.value * r.value / (p.value + r.value) * 100.0
    got = f_score(chi, 0)
    assert got.defined and got.value == pytest.approx(want)


def test_perfect_and_absent_classes():
    chi = np.zeros((4, 4), dtype=int)
    chi[0, 0] = 10
    chi[1, 1] = 5
    # classes 2, 3 never appear: no column, no row
    assert accuracy(chi) == 100.0
    p, r = precision_recall(chi, 2)
    assert not p.defined and not r.defined
    assert not f_score(chi, 2).defined
    assert not mcc(chi, 2).defined
    assert f_score(chi, 0).value == pytest.approx(100.0)
    # a perfect one-vs-rest split has unit correlation
    assert mcc(chi, 0).value == pytest.approx(100.0)


def test_mcc_formula():
    chi = np.array([
        [8, 2, 0, 1],
        [1, 9, 2, 0],
        [0, 1, 7, 1],
        [1, 0, 1, 6],
    ])
    k = 1
    tp = 9.0
    fp = 2 + 1 + 0.0          # rest of column 1
    fn = 1 + 2 + 0.0          # rest of row 1
    tn = chi.sum() - chi[:, 1].sum() - chi[1, :].sum() + tp
    want = (tp * tn - fp * fn) / np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)) * 100
    got = mcc(chi, k)
    assert got.defined and got.value == pytest.approx(want, rel=1e-12)


def test_mcc_sign():
    # systematic anti-correlation on class 0 must come out negative
    chi = np.zeros((4, 4), dtype=int)
    chi[0, 1] = 10  # predict 0 whenever true is 1
    chi[1, 0] = 10
    chi[2, 2] = 10
    chi[3, 3] = 10
    assert mcc(chi, 0).value < 0


def test_mcc_vanishes_under_permutation_null(rng):
    # labels shuffled independently of predictions: |phi| collapses
    pred = rng.integers(0, 4, size=10000)
    true = rng.permutation(pred)
    chi = confusion_matrix(pred, true)
    for k in range(4):
        v = mcc(chi, k)
        assert v.defined and abs(v.value) < 5.0


def test_class_metrics_table():
    chi = np.array([
        [5, 1, 0, 0],
        [2, 7, 1, 0],
        [0, 0, 3, 2],
        [1, 0, 0, 8],
    ])
    rows = class_metrics(chi)
    assert [r.label for r in rows] == [0, 1, 2, 3]
    assert rows[0].precision == precision_recall(chi, 0)[0]
    assert rows[3].phi == mcc(chi, 3)


def test_renderers():
    chi = confusion_matrix(np.array([0, 1, 1, 3]), np.array([0, 1, 2, 3]))
    grid = render_confusion(chi)
    lines = grid.splitlines()
    assert lines[0].startswith("pred\\true")
    assert len(lines) == 5

    text = render_class_metrics(chi)
    assert text.splitlines()[0] == "class,precision,recall,f_score,mcc"
    assert "nan" in text  # class 2 never predicted -> undefined cells
