"""From-scratch decision tree: splitting, tie-breaking, memorization, I/O."""

from __future__ import annotations

import numpy as np
import pytest

from _builders import fit_tree, leaf_label
from _reference_split import impurity, split_gain
from rakelgen.errors import ValidationError
from rakelgen.tree import (
    TreeConfig,
    descend,
    stack_trees,
    tree_from_dict,
    tree_stats,
    tree_to_dict,
)

XOR_X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
XOR_Y = [0, 1, 1, 0]


def _random_consistent_data(seed: int, n: int = 24, d: int = 4):
    """Random features with duplicate rows removed, random labels."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(0, 10, size=(n, d)), 2)
    X = np.unique(X, axis=0)
    y = rng.integers(0, 3, size=len(X))
    return X, y


class TestImpurity:
    def test_pure_is_zero(self):
        assert impurity([1, 1, 1]) == 0.0
        assert impurity([0], "entropy") == 0.0

    def test_balanced_gini(self):
        assert impurity([0, 0, 1, 1]) == pytest.approx(0.5)

    def test_balanced_entropy(self):
        assert impurity([0, 0, 1, 1], "entropy") == pytest.approx(1.0)

    def test_unknown_criterion(self):
        # the config refuses it, so no impurity is ever computed for it
        with pytest.raises(ValidationError, match="split_criterion must be one of"):
            TreeConfig(split_criterion="mse")

    def test_clean_split_gain(self):
        # Parent [0, 0, 1, 1] has gini 0.5; both children are pure.
        assert split_gain([0, 0], [1, 1]) == pytest.approx(0.5)

    def test_useless_split_gain_zero(self):
        assert split_gain([0, 1], [0, 1]) == pytest.approx(0.0)


class TestTraining:
    def test_constant_labels_single_leaf(self):
        tree = fit_tree([[1.0], [2.0], [3.0]], [7, 7, 7])
        assert tree.feature.tolist() == [-1]
        assert tree.label.tolist() == [7]
        stats = tree_stats(tree)
        assert stats == {"nodes": 1, "leaves": 1, "depth": 0}

    def test_xor_memorized(self):
        tree = fit_tree(XOR_X, XOR_Y)
        for x, y in zip(XOR_X, XOR_Y):
            assert leaf_label(tree, x) == y
        stats = tree_stats(tree)
        internal = stats["nodes"] - stats["leaves"]
        assert internal >= 3
        assert stats["depth"] >= 2
        assert leaf_label(tree, [0.0, 1.0]) == 1
        assert leaf_label(tree, [1.0, 1.0]) == 0

    def test_xor_with_entropy(self):
        tree = fit_tree(XOR_X, XOR_Y, TreeConfig(split_criterion="entropy"))
        assert [leaf_label(tree, x) for x in XOR_X] == XOR_Y

    @pytest.mark.parametrize("seed", range(12))
    def test_memorizes_consistent_data(self, seed):
        X, y = _random_consistent_data(seed)
        tree = fit_tree(X, y)
        predictions = [leaf_label(tree, row) for row in X]
        assert predictions == list(y)

    def test_left_branch_takes_equal_values(self):
        # Split threshold is a midpoint; values at or below it go left.
        tree = fit_tree([[0.0], [2.0]], [0, 1])
        assert tree.feature[0] >= 0  # the root is a split
        assert tree.threshold[0] == pytest.approx(1.0)
        assert leaf_label(tree, [1.0]) == 0
        assert leaf_label(tree, [1.0 + 1e-9]) == 1

    def test_feature_tie_breaks_to_lowest_index(self):
        # Both columns separate the classes perfectly; column 0 must win.
        X = [[0.0, 0.0], [1.0, 1.0]]
        tree = fit_tree(X, [0, 1])
        assert tree.feature[0] == 0

    def test_threshold_tie_breaks_to_lowest(self):
        # Candidates 0.5 and 1.5 give equal gain on y = (0, 1, 0).
        tree = fit_tree([[0.0], [1.0], [2.0]], [0, 1, 0])
        assert tree.feature[0] >= 0
        assert tree.threshold[0] == pytest.approx(0.5)

    def test_tied_leaf_takes_smallest_label(self):
        # Identical rows with conflicting labels cannot be separated.
        tree = fit_tree([[1.0], [1.0]], [4, 2])
        assert tree.feature.tolist() == [-1]
        assert tree.label.tolist() == [2]

    def test_majority_leaf_label(self):
        tree = fit_tree([[1.0], [1.0], [1.0]], [5, 5, 9])
        assert tree.feature.tolist() == [-1]
        assert tree.label.tolist() == [5]

    def test_deterministic_without_seed_variation(self):
        X, y = _random_consistent_data(99)
        first = tree_to_dict(fit_tree(X, y))
        second = tree_to_dict(fit_tree(X, y))
        assert first == second

    def test_monotone_transform_preserves_predictions(self):
        X, y = _random_consistent_data(3)
        test_points = np.round(
            np.random.default_rng(17).uniform(0, 10, size=(50, X.shape[1])), 2
        )
        tree = fit_tree(X, y)
        baseline = [leaf_label(tree, row) for row in test_points]

        def warp(values: np.ndarray) -> np.ndarray:
            out = values.copy()
            out[:, 0] = out[:, 0] ** 3
            return out

        warped_tree = fit_tree(warp(X), y)
        warped = [leaf_label(warped_tree, row) for row in warp(test_points)]
        assert warped == baseline


class TestConstraints:
    def test_max_depth_limits_growth(self):
        X, y = _random_consistent_data(1, n=40)
        tree = fit_tree(X, y, TreeConfig(max_depth=2))
        assert tree_stats(tree)["depth"] <= 2

    def test_min_samples_leaf_respected(self):
        X, y = _random_consistent_data(2, n=40)
        tree = fit_tree(X, y, TreeConfig(min_samples_leaf=5))
        leaves = descend(stack_trees([tree]), X)[:, 0]
        leaf_sizes = np.bincount(leaves)[tree.feature == -1]
        assert leaf_sizes.sum() == len(y)
        assert (leaf_sizes >= 5).all()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TreeConfig(max_depth=0)
        with pytest.raises(ValidationError):
            TreeConfig(min_samples_leaf=0)
        with pytest.raises(ValidationError):
            TreeConfig(split_criterion="twoing")

    def test_training_input_validation(self):
        with pytest.raises(ValidationError):
            fit_tree([], [])
        with pytest.raises(ValidationError):
            fit_tree([[1.0], [2.0]], [0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            fit_tree([[1.0], [bad], [2.0]], [0, 1, 0])

    def test_predict_wrong_width(self):
        tree = fit_tree([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        with pytest.raises(ValidationError):
            leaf_label(tree, [1.0])


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        X, y = _random_consistent_data(11)
        config = TreeConfig(max_depth=4, split_criterion="entropy")
        tree = fit_tree(X, y, config)
        data = tree_to_dict(tree)
        restored = tree_from_dict(data, data["n_features"], max(y) + 1)
        assert tree_to_dict(restored) == data
        for row in X:
            assert leaf_label(restored, row) == leaf_label(tree, row)

    def test_round_trip_is_json_safe(self):
        import json

        tree = fit_tree(XOR_X, XOR_Y)
        data = json.loads(json.dumps(tree_to_dict(tree)))
        restored = tree_from_dict(data, data["n_features"], 2)
        assert [leaf_label(restored, x) for x in XOR_X] == XOR_Y

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("feature", "abc", 'tree \'feature\' must be an array, got "abc"'),
            ("label", 7, "tree 'label' must be an array, got 7"),
            ("threshold", {}, "tree 'threshold' must be an array, got an object"),
        ],
        ids=[  # stable case names, apart from the message wording
            "feature-abc-tree 'feature' must be a list of integers",
            "label-7-tree 'label' must be a list of integers",
            "threshold-value2-tree 'threshold' must be a list of numbers",
        ],
    )
    def test_node_array_must_be_a_list(self, field, value, message):
        data = tree_to_dict(fit_tree(XOR_X, XOR_Y))
        data[field] = value
        with pytest.raises(ValidationError) as caught:
            tree_from_dict(data, data["n_features"], 2)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("left", 2**70, "tree 'left' holds a number out of range"),
            ("threshold", 10**400, f"tree 'threshold'[0] must be a number, got {10**400}"),
        ],
        ids=["left", "threshold"],
    )
    def test_node_entry_out_of_range(self, field, value, message):
        data = tree_to_dict(fit_tree(XOR_X, XOR_Y))
        data[field][0] = value
        with pytest.raises(ValidationError) as caught:
            tree_from_dict(data, data["n_features"], 2)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("feature", 2, "'feature' 2 is out of range"),
            ("feature", -1, "'feature' -1 is out of range"),
            ("threshold", float("nan"), "'threshold' nan is not finite"),
            ("threshold", float("inf"), "'threshold' inf is not finite"),
        ],
    )
    def test_corrupt_split_rejected(self, field, value, message):
        data = tree_to_dict(fit_tree(XOR_X, XOR_Y))
        assert data["left"][0] == 1 and data["feature"][1] >= 0  # root's left child is a split
        data[field][1] = value
        with pytest.raises(ValidationError, match=message):
            tree_from_dict(data, data["n_features"], 2)
