"""From-scratch CART-style binary decision trees.

Greedy top-down induction: at each node every (feature, midpoint-threshold)
candidate is scored by impurity decrease, vectorized across all features at
once. Cuts are ranked from per-column prefix statistics with no class axis;
only cuts within float error of the best are scored again from class counts,
in chunks of bounded size (see ``_best_split``).

Training is fully deterministic. Among cuts whose gains are equal as floats,
the lowest feature index wins, then the lowest threshold. Gains that are equal
in exact arithmetic are not always equal as floats: each is computed from a
sum of squared (Gini) or log-weighted (entropy) class proportions, so among
exactly tied cuts the rounding of that sum can decide. In the label-powerset
tree of the 50-student synthetic cohort (seed 0), 1 of 49 splits takes a
higher threshold than an exactly tied one on the same feature.

An impure node is split even when the best achievable decrease is zero (the
classic XOR situation), so an unlimited-depth tree memorizes any consistent
training set; nodes whose feature columns are all constant become majority
leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

CRITERIA = ("gini", "entropy")


@dataclass(frozen=True)
class TreeConfig:
    """Hyperparameters for tree induction."""

    max_depth: int | None = None
    min_samples_leaf: int = 1
    split_criterion: str = "gini"

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1 or None")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")
        if self.split_criterion not in CRITERIA:
            raise ValidationError(f"split_criterion must be one of {CRITERIA}")


#: Node arrays of a tree, in the order ``tree_to_dict`` writes them.
NODE_ARRAYS = ("feature", "threshold", "left", "right", "label", "count")


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """A binary tree as parallel read-only arrays indexed by node, in preorder.

    Node 0 is the root. A split node i sends a row with ``x[feature[i]] <=
    threshold[i]`` to ``left[i]`` and every other row to ``right[i]``; a
    child's index is always greater than its parent's. A leaf has ``feature``,
    ``left`` and ``right`` -1 and ``threshold`` 0. ``label`` is the majority
    class of the training rows reaching a node (ties to the smallest class) and
    ``count`` their number.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    count: np.ndarray
    n_features: int

    def __post_init__(self):
        for name in NODE_ARRAYS:
            dtype = float if name == "threshold" else np.int64
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def _impurity_from_counts(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity from class-count rows; counts has shape (..., n_classes)."""
    if criterion not in CRITERIA:
        raise ValidationError(
            f"split_criterion must be one of {CRITERIA}, got {criterion!r}"
        )
    totals = counts.sum(axis=-1, keepdims=True)
    totals = np.maximum(totals, 1)
    p = counts / totals
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    logp = np.log2(np.where(p > 0, p, 1.0))
    return -(p * logp).sum(axis=-1)


# Stage 2 re-scores near-tied cuts in chunks of at most this many cells, where
# a chunk of k cuts holds (k, C) class counts and gathers up to k * n rows.
_CHUNK_CELLS = 1 << 15


def _left_counts(
    ys: np.ndarray, feats: np.ndarray, cuts: np.ndarray, n_classes: int
) -> np.ndarray:
    """Class counts of rows 0..cuts[m] of sorted column feats[m], as a (k, C) array.

    The cuts come in feature-major order, so each one adds only the rows since
    the previous cut in its column to a running count.
    """
    k = len(feats)
    first = np.ones(k, dtype=bool)  # first cut of its column in this batch
    first[1:] = feats[1:] != feats[:-1]
    start = np.where(first, 0, np.concatenate(([0], cuts[:-1] + 1)))
    lengths = cuts + 1 - start
    seg = np.repeat(np.arange(k), lengths)
    rows = np.arange(seg.size) - np.repeat(np.cumsum(lengths) - lengths - start, lengths)
    added = np.bincount(
        seg * n_classes + ys[rows, feats[seg]], minlength=k * n_classes
    ).reshape(k, n_classes)
    counts = np.cumsum(added, axis=0)
    # restart the running count at each column's first cut
    heads = np.flatnonzero(first)
    before = counts[heads] - added[heads]
    return counts - np.repeat(before, np.diff(np.append(heads, k)), axis=0)


def _best_split(X: np.ndarray, codes: np.ndarray, n_classes: int, cfg: TreeConfig):
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


def _grow(X: np.ndarray, codes: np.ndarray, classes: np.ndarray, cfg: TreeConfig) -> dict:
    """Node arrays of the tree grown on (X, codes), built in preorder from an
    explicit stack, so the depth of the tree is not bounded by Python's."""
    nodes: dict[str, list] = {name: [] for name in NODE_ARRAYS}
    # (rows, depth, parent, side): the left child is pushed last, so it is
    # taken first and a subtree's nodes are numbered before its right sibling
    pending = [(np.arange(len(codes)), 0, -1, "")]
    while pending:
        rows, depth, parent, side = pending.pop()
        node = len(nodes["label"])
        if parent >= 0:
            nodes[side][parent] = node
        sub = codes[rows]
        counts = np.bincount(sub, minlength=len(classes))
        # argmax returns the first maximum; classes are sorted, so ties go to
        # the smallest class label
        nodes["label"].append(int(classes[int(np.argmax(counts))]))
        nodes["count"].append(len(rows))
        best = None
        if (
            counts.max() < len(rows)
            and (cfg.max_depth is None or depth < cfg.max_depth)
            and len(rows) >= 2 * cfg.min_samples_leaf
        ):
            best = _best_split(X[rows], sub, len(classes), cfg)
        feature, threshold = (-1, 0.0) if best is None else best
        nodes["feature"].append(feature)
        nodes["threshold"].append(threshold)
        nodes["left"].append(-1)
        nodes["right"].append(-1)
        if best is not None:
            go_left = X[rows, feature] <= threshold
            pending.append((rows[~go_left], depth + 1, node, "right"))
            pending.append((rows[go_left], depth + 1, node, "left"))
    return nodes


def train_tree(X, y, config: TreeConfig = TreeConfig()) -> DecisionTree:
    """Induce a tree from feature rows X and integer class labels y."""
    y = np.asarray(y, dtype=int)
    if y.size == 0:
        raise ValidationError("empty training set")
    try:
        X = np.asarray(X, dtype=float)
    except ValueError:
        raise ValidationError("inconsistent feature vector lengths") from None
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValidationError(f"feature rows {X.shape} do not match {y.size} labels")
    if not np.isfinite(X).all():
        raise ValidationError("feature matrix has non-finite values")
    classes, codes = np.unique(y, return_inverse=True)
    return DecisionTree(**_grow(X, codes, classes, config), n_features=X.shape[1])


@dataclass(frozen=True, eq=False)
class TreeStack:
    """The node arrays of several trees end to end, child indices shifted to
    match; tree t starts at node ``roots[t]``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    roots: np.ndarray
    n_features: int


def stack_trees(trees) -> TreeStack:
    """One ``TreeStack`` of trees that share a feature width."""
    widths = {tree.n_features for tree in trees}
    if len(widths) != 1:
        raise ValidationError(f"cannot stack trees of feature widths {sorted(widths)}")
    sizes = [len(tree.label) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)

    def joined(name):
        return np.concatenate([getattr(tree, name) for tree in trees])

    left, right = joined("left"), joined("right")
    split = left >= 0
    return TreeStack(
        feature=joined("feature"),
        threshold=joined("threshold"),
        left=np.where(split, left + offset, -1),
        right=np.where(split, right + offset, -1),
        label=joined("label"),
        roots=roots,
        n_features=widths.pop(),
    )


def descend(stack: TreeStack, X) -> np.ndarray:
    """Leaf reached by each row of X in each tree of the stack, as an (n, trees)
    array of node indices into the stack.

    All (row, tree) pairs move down one level per step, and a pair leaves the
    working set when it reaches a leaf, so a step costs the pairs still
    descending and the number of steps is the depth of the deepest path taken.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != stack.n_features:
        raise ValidationError(
            f"feature rows {X.shape} do not match the tree's {stack.n_features} features"
        )
    n, n_trees = len(X), len(stack.roots)
    node = np.tile(stack.roots, n)  # pair p is row p // n_trees, tree p % n_trees
    live = np.flatnonzero(stack.feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = X[live // n_trees, stack.feature[at]] <= stack.threshold[at]
        node[live] = np.where(go_left, stack.left[at], stack.right[at])
        live = live[stack.feature[node[live]] >= 0]
    return node.reshape(n, n_trees)


def predict_rows(tree: DecisionTree, X) -> np.ndarray:
    """Leaf labels of the rows of X, as an int array: ``descend`` of one tree."""
    stack = stack_trees([tree])
    return stack.label[descend(stack, X)[:, 0]]


def predict_tree(tree: DecisionTree, x) -> int:
    """Deterministic root-to-leaf descent; returns the leaf's majority label."""
    return int(predict_rows(tree, np.asarray(x, dtype=float).reshape(1, -1))[0])


def tree_stats(tree: DecisionTree) -> dict:
    """Node/leaf counts and depth, for training summaries."""
    left, right = tree.left.tolist(), tree.right.tolist()
    depth = [0] * len(left)
    for node, child in enumerate(left):  # parents come before their children
        if child >= 0:
            depth[child] = depth[right[node]] = depth[node] + 1
    return {"nodes": len(left), "leaves": left.count(-1), "depth": max(depth)}


def tree_to_dict(tree: DecisionTree) -> dict:
    return {"n_features": tree.n_features} | {
        name: getattr(tree, name).tolist() for name in NODE_ARRAYS
    }


def _reject_first(bad: np.ndarray, message) -> None:
    """Raise ``message(node)`` for the first node flagged in ``bad``."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        raise ValidationError(message(int(flagged[0])))


def tree_from_dict(data: dict) -> DecisionTree:
    """Rebuild a tree from ``tree_to_dict`` output, checking that its arrays
    form one tree, so a descent ends at a leaf after at most ``n_nodes`` steps
    and never indexes outside the arrays or the feature row."""
    n_features = int(data["n_features"])
    tree = DecisionTree(**{name: data[name] for name in NODE_ARRAYS}, n_features=n_features)
    n_nodes = tree.label.size
    shapes = {name: getattr(tree, name).shape for name in NODE_ARRAYS}
    if n_nodes == 0 or set(shapes.values()) != {(n_nodes,)}:
        raise ValidationError(f"tree node arrays must be non-empty lists of one length: {shapes}")
    for name in ("feature", "left", "right", "label", "count"):
        # the int64 conversion truncates 1.5 to 1
        if not np.array_equal(getattr(tree, name), np.array(data[name], dtype=float)):
            raise ValidationError(f"tree '{name}' must hold integers")
    feature, left, right = tree.feature, tree.left, tree.right
    split = left != -1
    _reject_first(
        split & ((feature < 0) | (feature >= n_features)),
        lambda i: f"tree node {i} split 'feature' {feature[i]} is out of range "
        f"for {n_features} features",
    )
    _reject_first(
        ~split & ((feature != -1) | (right != -1)),
        lambda i: f"tree node {i} has 'left' -1, so its 'feature' and 'right' must be -1",
    )
    _reject_first(
        ~np.isfinite(tree.threshold),
        lambda i: f"tree node {i} 'threshold' {tree.threshold[i]} is not finite",
    )
    for side, child in (("left", left), ("right", right)):
        _reject_first(
            split & ((child <= np.arange(n_nodes)) | (child >= n_nodes)),
            lambda i: f"tree node {i} '{side}' {child[i]} must lie between the "
            f"node's index and {n_nodes}",
        )
    # children lie after their parents, so the root is no node's child
    parents = np.bincount(np.concatenate([left[split], right[split]]), minlength=n_nodes)
    _reject_first(
        parents[1:] != 1,
        lambda i: f"tree node {i + 1} is the child of {parents[i + 1]} nodes, not 1",
    )
    return tree
