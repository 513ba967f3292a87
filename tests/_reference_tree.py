"""Reference tree growth: one node at a time, recursively, as the original learner grew.

It builds nested nodes one call per level and `flatten` numbers them in
preorder into the node arrays of `rakelgen.tree.tree_to_dict`. Each node's cut
comes from a per-node splitter of `_reference_split` (by default
`node_best_split`, which sorts the node's own columns), so the differential
tests that use it check all of `rakelgen.tree.train_trees`: the shared presort
and its partition down the nodes, split search over blocks of nodes, node
order, child links, stopping rules and node labels.
"""

from __future__ import annotations

import numpy as np

from _reference_split import node_best_split
from rakelgen.tree import TreeConfig


def reference_grow(X, y, cfg: TreeConfig = TreeConfig(), best_split=node_best_split) -> dict:
    """Node arrays of the tree grown on (X, y) with ``best_split`` at each node,
    as lists keyed like ``tree_to_dict``."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    classes, codes = np.unique(np.asarray(y, dtype=int), return_inverse=True)
    root = _grow(X, codes, classes, 0, cfg, best_split)
    return {"n_features": X.shape[1]} | flatten(root)


def _grow(X, codes, classes, depth, cfg, best_split):
    n = len(codes)
    counts = np.bincount(codes, minlength=len(classes))
    leaf = {"label": int(classes[int(np.argmax(counts))])}
    if counts.max() == n:
        return leaf
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        return leaf
    if n < 2 * cfg.min_samples_leaf:
        return leaf
    best = best_split(X, codes, len(classes), cfg)
    if best is None:
        return leaf
    feature, threshold = best
    mask = X[:, feature] <= threshold
    return leaf | {
        "feature": feature,
        "threshold": threshold,
        "left": _grow(X[mask], codes[mask], classes, depth + 1, cfg, best_split),
        "right": _grow(X[~mask], codes[~mask], classes, depth + 1, cfg, best_split),
    }


def flatten(root: dict) -> dict:
    """Preorder node arrays of a nested tree: a node, its left subtree, then its right."""
    arrays = {name: [] for name in ("feature", "threshold", "left", "right", "label")}

    def visit(node) -> int:
        index = len(arrays["label"])
        arrays["label"].append(node["label"])
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


def record_fits(monkeypatch) -> list:
    """Record each tree that ``rakelgen.mlc`` grows, from now on, as
    ``(X, y, cfg, tree)``: the feature columns and labels it was grown on."""
    from rakelgen import mlc

    fits = []
    train_trees = mlc.train_trees

    def recording(X, ys, cfg=TreeConfig(), widths=None, n_jobs=1):
        trees = train_trees(X, ys, cfg, widths, n_jobs)
        X = np.asarray(X, dtype=float)
        widths = [X.shape[1]] * len(trees) if widths is None else list(widths)
        fits.extend((X[:, :w], y, cfg, t) for y, w, t in zip(ys, widths, trees))
        return trees

    monkeypatch.setattr(mlc, "train_trees", recording)
    return fits
