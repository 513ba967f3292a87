"""Reference tree growth: the recursive `_grow` that the explicit-stack one replaced.

It builds nested nodes one call per level, as the original learner did, and
`flatten` numbers them in preorder into the node arrays of
`rakelgen.tree.tree_to_dict`. It calls the production `_best_split`, so the
differential tests that use it check growth alone: node order, child links,
stopping rules, leaf labels and counts.
"""

from __future__ import annotations

import numpy as np

from rakelgen.tree import TreeConfig, _best_split


def reference_grow(X, y, cfg: TreeConfig = TreeConfig()) -> dict:
    """Node arrays of the tree grown on (X, y), as lists keyed like ``tree_to_dict``."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    classes, codes = np.unique(np.asarray(y, dtype=int), return_inverse=True)
    root = _grow(X, codes, classes, 0, cfg)
    return {"n_features": X.shape[1]} | flatten(root)


def _grow(X, codes, classes, depth, cfg):
    n = len(codes)
    counts = np.bincount(codes, minlength=len(classes))
    leaf = {"label": int(classes[int(np.argmax(counts))]), "count": n}
    if counts.max() == n:
        return leaf
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        return leaf
    if n < 2 * cfg.min_samples_leaf:
        return leaf
    best = _best_split(X, codes, len(classes), cfg)
    if best is None:
        return leaf
    feature, threshold = best
    mask = X[:, feature] <= threshold
    return leaf | {
        "feature": feature,
        "threshold": threshold,
        "left": _grow(X[mask], codes[mask], classes, depth + 1, cfg),
        "right": _grow(X[~mask], codes[~mask], classes, depth + 1, cfg),
    }


def flatten(root: dict) -> dict:
    """Preorder node arrays of a nested tree: a node, its left subtree, then its right."""
    arrays = {name: [] for name in ("feature", "threshold", "left", "right", "label", "count")}

    def visit(node) -> int:
        index = len(arrays["label"])
        arrays["label"].append(node["label"])
        arrays["count"].append(node["count"])
        arrays["feature"].append(node.get("feature", -1))
        arrays["threshold"].append(node.get("threshold", 0.0))
        arrays["left"].append(-1)
        arrays["right"].append(-1)
        if "left" in node:
            arrays["left"][index] = visit(node["left"])
            arrays["right"][index] = visit(node["right"])
        return index

    visit(root)
    return arrays
