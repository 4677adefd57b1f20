import numpy as np
import pytest

from artifact.errors import DomainError
from artifact.tree import MAX_DEPTH, fit_tree, predict_tree


def test_single_split_recovers_threshold():
    x = np.array([[0.1], [0.2], [0.3], [0.8], [0.9], [1.0]])
    y = np.array([0, 0, 0, 3, 3, 3])
    tree = fit_tree(x, y)
    assert not tree.is_leaf and tree.left.is_leaf and tree.right.is_leaf
    assert tree.feature == 0
    assert tree.threshold == pytest.approx(0.55)  # midpoint of 0.3 and 0.8
    np.testing.assert_array_equal(predict_tree(tree, x), y)


def test_constant_labels_give_single_leaf():
    x = np.random.default_rng(0).uniform(size=(20, 3))
    tree = fit_tree(x, np.full(20, 1))
    assert tree.is_leaf and tree.prediction == 1


def test_unsplittable_features_give_majority_leaf():
    x = np.ones((5, 2))
    y = np.array([0, 0, 2, 2, 2])
    tree = fit_tree(x, y)
    assert tree.is_leaf and tree.prediction == 2


def test_majority_tie_prefers_lower_class():
    x = np.ones((4, 1))
    y = np.array([3, 1, 3, 1])
    assert fit_tree(x, y).prediction == 1


def test_deep_tree_overfits_unique_points(rng):
    x = rng.uniform(size=(60, 4))  # almost surely unique rows
    y = rng.integers(0, 4, size=60)
    tree = fit_tree(x, y)
    np.testing.assert_array_equal(predict_tree(tree, x), y)


def test_depth_limit_respected():
    # alternating labels on a line need about log2(1000) ~ 10 levels
    x = np.arange(1000, dtype=float).reshape(-1, 1)
    y = np.arange(1000) % 2
    tree = fit_tree(x, y)

    def depth(node):
        return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

    assert depth(tree) == MAX_DEPTH


def test_split_never_leaves_a_child_empty():
    # the midpoint of 1+eps and 1+2eps rounds to 1+2eps, so `x <= threshold`
    # holds for both rows; the node must stay a leaf instead of splitting
    eps = np.finfo(float).eps
    x = np.array([[1.0 + eps], [1.0 + 2 * eps]])
    assert (x[0, 0] + x[1, 0]) / 2.0 == x[1, 0]
    tree = fit_tree(x, np.array([1, 3]))
    assert tree.is_leaf and tree.prediction == 1


def test_determinism(rng):
    x = rng.uniform(size=(50, 3)).round(1)
    y = rng.integers(0, 4, size=50)
    a = fit_tree(x, y)
    b = fit_tree(x, y)
    assert a == b


def test_validation():
    with pytest.raises(DomainError):
        fit_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(DomainError):
        fit_tree(np.ones((4, 2)), np.array([0, 1, 2]))
    with pytest.raises(DomainError):
        fit_tree(np.ones(4), np.array([0, 1, 2, 3]))
