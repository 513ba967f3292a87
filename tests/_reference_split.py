"""Reference split search: one node at a time, in two forms.

``node_best_split`` is the per-node splitter that ``rakelgen.tree`` used before
it grew trees in blocks of nodes: it argsorts the node's columns, ranks cuts
from prefix sums and re-scores the near-tied ones from class counts with the
production ``_left_counts``. ``reference_best_split`` is the dense one-hot
search that one replaced: it scores every cut from an (n, d, C) cumulative
class-count array, so its time and memory grow with the class count, and it
shares only ``_impurity_from_counts`` with the production code. Both stay
here as oracles: the
differential tests compare them with each other, tie choices included, and
grow whole trees with them (``_reference_tree.reference_grow``) to compare
with ``rakelgen.tree.train_trees``. ``impurity`` and ``split_gain`` score one
label multiset and one split by hand, for tests of the impurity formulas.
``mask_sides`` is the stage-2 scorer of distinct-class nodes that
``rakelgen.tree._distinct_sides`` replaced: it sums each side's (k, C) class
terms, built from 0/1 class masks, with numpy itself, so it is the oracle for
the plan-ordered sums that replaced it.
"""

from __future__ import annotations

import numpy as np

from rakelgen.tree import (
    _CHUNK_CELLS, TreeConfig, _impurity, _impurity_from_counts, _left_counts, _terms,
)


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


def mask_sides(block, rows, cuts, n_classes: int, criterion: str):
    """Impurities of the left and right sides of the cut after cell cuts[k] of
    block row rows[k], for rows of distinct-class nodes with C = n_classes,
    from 0/1 masks of the classes on each side, with no counts.

    pos[k, c] is the place of class c in the sorted row of cut k, or m (the
    row length) when the node has no row of class c; class c lies left of the
    cut when pos <= cut, and right when cut < pos < m. A count of 0 has the
    term 0, and a side of t rows gives a count of 1 the term of p = 1 / t,
    exactly as ``_impurity_from_counts`` computes both; x * 1 and x * 0 are
    exact, and a -0.0 term for an absent class cannot change a sum that has a
    nonzero term (entropy terms are 0 only for t = 1, and then all are +0.0).
    """
    m = block.rows.shape[1]
    dtype = np.min_scalar_type(m)
    new = np.ones(rows.size, dtype=bool)  # cuts come in row order
    new[1:] = rows[1:] != rows[:-1]
    own = block.cls[rows[new]]
    pos = np.full((len(own), n_classes + 1), m, dtype=dtype)
    # padding cells hold a code of at least C and land in the spare last column
    pos[np.arange(len(own))[:, None], np.minimum(own, n_classes)] = np.arange(m, dtype=dtype)
    pos = pos[np.cumsum(new) - 1, :n_classes]
    left = pos <= cuts.astype(dtype)[:, None]
    right = pos < m
    right ^= left  # every class on the left is present
    nl = cuts + 1.0
    nr = block.sizes[block.node[rows]] - nl
    return mask_impurity(left, nl, criterion), mask_impurity(right, nr, criterion)


def mask_impurity(mask: np.ndarray, sizes: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of sides of ``sizes`` rows that hold each class set in the
    rows of the 0/1 ``mask`` once."""
    terms = mask.astype(float)
    terms *= _terms(1.0 / sizes, criterion)[:, None]
    return _impurity(terms.sum(axis=-1), criterion)


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


def node_best_split(X: np.ndarray, codes: np.ndarray, n_classes: int, cfg: TreeConfig):
    """Best (feature, threshold) over all candidates, or None when no valid cut exists.

    Stage 1 ranks every cut in O(n*d), with no class axis, by a key that grows
    with the impurity decrease and is built from prefix statistics of each
    sorted column. Stage 2 scores the cuts whose key lies within float error of
    the best with the dense count formula (``_impurity_from_counts``); that
    formula's rounding decides among exactly tied gains, and the first maximum
    in feature-major order wins.
    """
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = codes[order]  # (n, d) class codes in each column's sorted order
    totals = np.bincount(codes, minlength=n_classes)

    # occ[r, j]: rows above r in column j of the same class as row r; a stable
    # sort of the column's codes lists each class's rows in order from its
    # start offset
    by_class = np.argsort(ys, axis=0, kind="stable")
    starts = np.cumsum(totals) - totals
    occ = np.empty_like(ys)
    np.put_along_axis(
        occ,
        by_class,
        np.arange(n)[:, None] - starts[np.take_along_axis(ys, by_class, axis=0)],
        axis=0,
    )
    rest = totals[ys] - occ  # rows at or below r of the same class

    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    if cfg.split_criterion == "gini":
        # n * (1 - weighted Gini) = sum L_c^2 / n_l + sum R_c^2 / n_r; a row of
        # class c moving left adds 2 L_c + 1 to sum L^2 and 1 - 2 R_c to sum R^2
        sum_l2 = np.cumsum(2 * occ + 1, axis=0)[:-1]
        sum_r2 = totals @ totals + np.cumsum(1 - 2 * rest, axis=0)[:-1]
        key = sum_l2 / n_left + sum_r2 / n_right
    else:
        # -n * weighted entropy = sum L_c log L_c + sum R_c log R_c
        #                         - n_l log n_l - n_r log n_r
        size = np.arange(n + 1, dtype=float)
        xlogx = size * np.log2(np.maximum(size, 1.0))
        steps = xlogx[occ + 1] - xlogx[occ] + xlogx[rest - 1] - xlogx[rest]
        key = (
            xlogx[totals].sum()
            + np.cumsum(steps, axis=0)[:-1]
            - xlogx[n_left]
            - xlogx[n_right]
        )

    valid = xs[:-1] != xs[1:]
    msl = cfg.min_samples_leaf
    if msl > 1:
        valid = valid & (n_left >= msl) & (n_right >= msl)
    key = np.where(valid, key, -np.inf)
    top = key.max(initial=-np.inf)
    if top == -np.inf:
        return None

    # Window width. Keys are n times the gain plus a per-node constant. With
    # u = 2^-53 and L = log2(n) + 2, the dense formula's gain is off by less
    # than 2 (C + 6) L u (a rounded p = c / t, its square or log, a C-term sum,
    # then a few operations on values below L), which is below 2 n (C + 6) L u
    # in key units. The key is off by less than 2 n u for Gini (exact integer
    # sums, two divisions and an add) and by less than 16 n^2 L u for entropy
    # (table entries below n log2 n, and a running sum of n steps each below
    # 2 L). The cut the dense formula ranks first therefore trails the top key
    # by less than twice their sum, 2^-48 n (n + C + 6) L; the window is 2^10
    # times wider.
    tol = 2.0**-38 * n * (n + n_classes + 6) * (np.log2(n) + 2)
    feats, cuts = np.nonzero(key.T >= top - tol)  # feature-major order

    parent = float(_impurity_from_counts(totals[None, :], cfg.split_criterion)[0])
    left_sizes = np.arange(1, n, dtype=float)
    step = max(1, _CHUNK_CELLS // max(n, n_classes))
    best_gain, best = -np.inf, 0
    for head in range(0, len(feats), step):
        f, c = feats[head : head + step], cuts[head : head + step]
        left = _left_counts(ys, f, c, n_classes)
        nl = left_sizes[c]
        weighted = (
            nl * _impurity_from_counts(left, cfg.split_criterion)
            + (n - nl) * _impurity_from_counts(totals - left, cfg.split_criterion)
        ) / n
        gains = parent - weighted
        pos = int(np.argmax(gains))
        if gains[pos] > best_gain:
            best_gain, best = gains[pos], head + pos
    feature, cut = int(feats[best]), int(cuts[best])
    lo, hi = xs[cut, feature], xs[cut + 1, feature]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint collapsed onto the upper value
        threshold = lo
    return feature, float(threshold)
