"""Reference split search: the dense one-hot implementation `tree._best_split` replaced.

It scores every cut from an (n, d, C) cumulative class-count array, so its time
and memory grow with the class count. It stays here as the oracle that the
differential tests compare the production splitter against, tie choices
included. ``impurity`` and ``split_gain`` score one label multiset and one
split by hand, for tests of the impurity formulas.
"""

from __future__ import annotations

import numpy as np

from rakelgen.tree import TreeConfig, _impurity_from_counts


def impurity(labels, criterion: str = "gini") -> float:
    """Gini or entropy impurity of a label multiset."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    return float(_impurity_from_counts(counts[None, :], criterion)[0])


def split_gain(left_labels, right_labels, criterion: str = "gini") -> float:
    """Impurity decrease of splitting the pooled labels into the two given halves."""
    left = np.asarray(left_labels)
    right = np.asarray(right_labels)
    parent = np.concatenate([left, right])
    n = parent.size
    weighted = (
        left.size * impurity(left, criterion) + right.size * impurity(right, criterion)
    ) / n
    return impurity(parent, criterion) - weighted


def reference_best_split(X: np.ndarray, codes: np.ndarray, n_classes: int, cfg: TreeConfig):
    """Best (feature, threshold) over all candidates, or None when no valid cut exists."""
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = codes[order]  # (n, d)

    onehot = np.zeros((n, d, n_classes))
    onehot[np.arange(n)[:, None], np.arange(d)[None, :], ys] = 1.0
    cum = np.cumsum(onehot, axis=0)

    left = cum[:-1]  # counts left of a cut between sorted rows i and i+1
    right = cum[-1][None, :, :] - left
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left

    weighted = (
        n_left * _impurity_from_counts(left, cfg.split_criterion)
        + n_right * _impurity_from_counts(right, cfg.split_criterion)
    ) / n

    total_counts = np.bincount(codes, minlength=n_classes)
    parent = float(_impurity_from_counts(total_counts[None, :], cfg.split_criterion)[0])
    gains = parent - weighted  # (n-1, d)

    valid = xs[:-1] != xs[1:]
    msl = cfg.min_samples_leaf
    if msl > 1:
        valid = valid & (n_left >= msl) & (n_right >= msl)
    gains = np.where(valid, gains, -np.inf)

    # feature-major flattening: the first maximum has the lowest feature index,
    # then the lowest threshold
    flat = gains.T.ravel()
    pos = int(np.argmax(flat))
    if flat[pos] == -np.inf:
        return None
    feature, cut = divmod(pos, n - 1)
    lo, hi = xs[cut, feature], xs[cut + 1, feature]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint collapsed onto the upper value
        threshold = lo
    return feature, float(threshold)
