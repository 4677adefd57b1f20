import numpy as np
import pytest

from artifact.errors import DomainError, ValidationError
from artifact.metrics import (
    accuracy,
    class_metrics,
    confusion_matrix,
    render_class_metrics,
    render_confusion,
)
from artifact.knn import fit, predict_batch, single_shot_accuracy

import loop_reference

P, R, F, MCC = range(4)  # columns of class_metrics


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
    with pytest.raises(DomainError, match="empty"):
        accuracy(np.zeros((4, 4), dtype=int))


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
    m = class_metrics(chi)
    assert m[0, P] == 5 / 8   # diagonal over column sum
    assert m[0, R] == 5 / 6   # diagonal over row sum
    assert m[2, P] == pytest.approx(3 / 4)
    assert m[2, R] == pytest.approx(3 / 5)


def test_f_score_harmonic_mean():
    chi = np.array([
        [5, 1, 0, 0],
        [2, 7, 1, 0],
        [0, 0, 3, 2],
        [1, 0, 0, 8],
    ])
    p, r, got = class_metrics(chi)[0, :3]
    want = 2 * p * r / (p + r) * 100.0
    assert got == pytest.approx(want)


def test_perfect_and_absent_classes():
    chi = np.zeros((4, 4), dtype=int)
    chi[0, 0] = 10
    chi[1, 1] = 5
    # classes 2, 3 never appear: no column, no row
    assert accuracy(chi) == 100.0
    m = class_metrics(chi)
    assert np.isnan(m[2:]).all()  # no column, no row: every metric undefined
    assert m[0, F] == pytest.approx(100.0)
    # a perfect one-vs-rest split has unit correlation
    assert m[0, MCC] == pytest.approx(100.0)


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
    assert class_metrics(chi)[k, MCC] == pytest.approx(want, rel=1e-12)


def test_mcc_sign():
    # systematic anti-correlation on class 0 must come out negative
    chi = np.zeros((4, 4), dtype=int)
    chi[0, 1] = 10  # predict 0 whenever true is 1
    chi[1, 0] = 10
    chi[2, 2] = 10
    chi[3, 3] = 10
    assert class_metrics(chi)[0, MCC] < 0


def test_mcc_vanishes_under_permutation_null(rng):
    # labels shuffled independently of predictions: |phi| collapses
    pred = rng.integers(0, 4, size=10000)
    true = rng.permutation(pred)
    chi = confusion_matrix(pred, true)
    phi = class_metrics(chi)[:, MCC]
    assert np.all(np.abs(phi) < 5.0)  # NaN would fail here too


def test_class_metrics_table():
    chi = np.array([
        [5, 1, 0, 0],
        [2, 7, 1, 0],
        [0, 0, 3, 2],
        [1, 0, 0, 8],
    ])
    m = class_metrics(chi)
    assert m.shape == (4, 4) and m.dtype == float
    # row k is class k: column 3 sums to 10, row 3 to 9
    assert m[3, P] == 8 / 10 and m[3, R] == 8 / 9
    with pytest.raises(ValidationError):
        class_metrics(chi[:3, :3])
    with pytest.raises(ValidationError):
        render_class_metrics(-chi)


def test_renderers():
    chi = confusion_matrix(np.array([0, 1, 1, 3]), np.array([0, 1, 2, 3]))
    grid = render_confusion(chi)
    lines = grid.splitlines()
    assert lines[0].startswith("pred\\true")
    assert len(lines) == 5

    text = render_class_metrics(chi)
    assert text.splitlines()[0] == "class,precision,recall,f_score,mcc"
    assert "nan" in text  # class 2 never predicted -> undefined cells


def _edge_matrices():
    absent = np.zeros((4, 4), dtype=np.int64)
    absent[0, 0], absent[1, 1], absent[0, 1] = 10, 5, 2    # classes 2, 3 absent
    crossed = np.zeros((4, 4), dtype=np.int64)
    crossed[0, 1], crossed[1, 0], crossed[2, 2] = 3, 2, 4  # p = R = 0 for classes 0, 1
    one_row = np.zeros((4, 4), dtype=np.int64)
    one_row[0] = [3, 2, 1, 1]  # everything predicted 0: tn + fp = 0 for class 0
    one_cell = np.zeros((4, 4), dtype=np.int64)
    one_cell[3, 3] = 1
    return [absent, crossed, one_row, one_cell, np.zeros((4, 4), dtype=np.int64)]


def _random_matrices(rng, count):
    for _ in range(count):
        chi = rng.integers(0, rng.choice([2, 6, 1000]), size=(4, 4))
        chi[rng.random(4) < 0.3] = 0     # empty rows
        chi[:, rng.random(4) < 0.3] = 0  # empty columns
        if rng.random() < 0.3:
            np.fill_diagonal(chi, 0)
        yield chi


def test_class_metrics_match_scalar_reference(rng):
    # every cell, NaN ones included, against the per-class scalar formulas
    for chi in [*_edge_matrices(), *_random_matrices(rng, 2000)]:
        got = class_metrics(chi)
        for k, cells in enumerate(loop_reference.class_metrics(chi)):
            for j, (value, defined) in enumerate(cells):
                if defined:
                    assert got[k, j].tobytes() == np.float64(value).tobytes(), (chi, k, j)
                else:
                    assert np.isnan(got[k, j]), (chi, k, j)
        assert render_class_metrics(chi) == loop_reference.render_class_metrics(chi)


def test_edge_matrices_leave_the_documented_cells_undefined():
    _, crossed, one_row, _, empty = _edge_matrices()
    m = class_metrics(crossed)
    assert (m[:2, P] == 0).all() and (m[:2, R] == 0).all() and np.isnan(m[:2, F]).all()
    m = class_metrics(one_row)
    assert m[0, P] == 1.0 and m[0, R] == 3 / 7 and np.isnan(m[0, MCC])
    assert np.isnan(class_metrics(empty)).all()
