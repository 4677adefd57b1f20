"""Minimal Gini decision tree, the comparison baseline for the sweep.

Deliberately small: axis-aligned midpoint splits, depth-capped, fully
deterministic (ties toward the lower feature index, lower threshold,
lower class). Exists to show the neighbor model holding its rank
against a tree on the same features, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import N_CLASSES, as_labels
from .errors import DomainError, as_reals

MAX_DEPTH = 8


@dataclass(frozen=True)
class TreeNode:
    prediction: int
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini_best_split(x: np.ndarray, y: np.ndarray):
    """Best (impurity, feature, threshold) over all midpoint splits."""
    n = y.size
    best = None
    onehot = np.zeros((n, N_CLASSES))
    onehot[np.arange(n), y] = 1.0
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        cum = np.cumsum(onehot[order], axis=0)
        total = cum[-1]
        cut = np.nonzero(xs[1:] > xs[:-1])[0]  # split after position i
        if cut.size == 0:
            continue
        n_l = (cut + 1).astype(float)
        n_r = n - n_l
        left = cum[cut]
        right = total - left
        g_l = 1.0 - ((left / n_l[:, None]) ** 2).sum(axis=1)
        g_r = 1.0 - ((right / n_r[:, None]) ** 2).sum(axis=1)
        w = (n_l * g_l + n_r * g_r) / n
        i = int(np.argmin(w))  # first minimum: lowest threshold wins ties
        cand = (float(w[i]), j, float((xs[cut[i]] + xs[cut[i] + 1]) / 2.0))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _majority(y: np.ndarray) -> int:
    return int(np.argmax(np.bincount(y, minlength=N_CLASSES)))


def _grow(x: np.ndarray, y: np.ndarray, depth: int) -> TreeNode:
    if depth >= MAX_DEPTH or np.all(y == y[0]):
        return TreeNode(prediction=_majority(y))
    found = _gini_best_split(x, y)
    if found is None:
        return TreeNode(prediction=_majority(y))
    _, j, thr = found
    mask = x[:, j] <= thr
    # The midpoint of two adjacent floats can round up to the larger one,
    # which sends every row left and leaves the right child empty.
    if mask.all():
        return TreeNode(prediction=_majority(y))
    return TreeNode(
        prediction=_majority(y), feature=j, threshold=thr,
        left=_grow(x[mask], y[mask], depth + 1),
        right=_grow(x[~mask], y[~mask], depth + 1),
    )


def fit_tree(features, labels) -> TreeNode:
    x = as_reals(features, "features", ("n", "w"), "(-inf, inf)")
    if not len(x):
        raise DomainError("features must hold at least one row")
    return _grow(x, as_labels(labels, "labels", len(x)), 0)


def predict_tree(root: TreeNode, features) -> np.ndarray:
    x = as_reals(features, "features", ("n", "w"), "(-inf, inf)")
    out = np.empty(x.shape[0], dtype=np.intp)
    # Iterative partition walk: route index sets down the tree.
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.prediction
            continue
        mask = x[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out
