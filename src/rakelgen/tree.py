"""From-scratch CART-style binary decision trees.

Greedy top-down induction: at each node every (feature, midpoint-threshold)
candidate is scored by impurity decrease. ``train_trees`` grows many trees on
one feature matrix together (``train_tree`` is its one-tree case):

* **One presort.** X is argsorted once per call, column by column. Each node
  carries its rows in every column's sorted order, and a child takes a stable
  partition of its parent's, so no node sorts X again (as CART and SLIQ do,
  Mehta, Agrawal & Rissanen 1996).
* **Blocks of nodes.** Split search takes pending nodes from any of the
  call's trees in blocks of bounded size and ranks the cuts of all of them in
  one pass: each (node, feature) column is one row of a padded array, and
  prefix sums run along the rows. Stage 1 ranks every cut by a key built from
  those prefix sums, with no class axis; stage 2 scores the cuts within float
  error of a node's best key again from class counts, per class count C and
  in chunks of bounded size.

The trees are identical to those grown one node at a time, each node sorting
its own rows (``tests/_reference_tree.py``), for three reasons. A node's rows
stay in increasing row order, so filtering the global stable order to them
gives the node's own stable argsort, ties included. Gini's stage-1 sums are
integers, exact in any order, and entropy's float running sum is taken along
each node's own column alone, so every key is the same float. Stage 2 scores
each node's cuts with the same dense formula on (k, C) counts of that node's
C, unpadded, so every gain rounds the same way.

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
NODE_ARRAYS = ("feature", "threshold", "left", "right", "label")


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Binary trees as parallel read-only arrays indexed by node, in preorder.

    A split node i sends a row with ``x[feature[i]] <= threshold[i]`` to
    ``left[i]`` and every other row to ``right[i]``; a child's index is always
    greater than its parent's. A leaf has ``feature``, ``left`` and ``right``
    -1 and ``threshold`` 0. ``label`` is the majority class of the training
    rows reaching a node (ties to the smallest class). A trained tree is one
    tree rooted at node 0; ``stack_trees`` joins several end to end, and tree
    t then starts at node ``roots[t]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    n_features: int
    roots: np.ndarray = (0,)

    def __post_init__(self):
        for name in (*NODE_ARRAYS, "roots"):
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


# Split search takes pending nodes in blocks of at most this many cells. A node
# of n rows and w features is w sorted columns of n cells, and a block lays the
# columns of its nodes out as the rows of one array, padded to its largest node.
_BLOCK_CELLS = 24_576
# A wave of split search starts new trees while its pending nodes hold fewer
# than this many blocks of cells: more keeps blocks fuller and is faster, fewer
# holds less at once (on the 50-student 10-fold evaluate, 4, 8 and 16 took
# 3.85, 3.78 and 3.63 s at a peak RSS of 39.2, 39.9 and 40.6 MB).
_WAVE_BLOCKS = 16
# Stage 2 re-scores near-tied cuts in chunks of at most this many cells, where
# a chunk of k cuts holds (k, C) class counts and gathers up to k * n rows.
_CHUNK_CELLS = 1 << 15


def _class_ranks(block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """(occ, same): occ[r, q] counts the cells before cell q in row r of the
    same class as cell q, and same[r, q] all of that class in row r.

    Row r is column ``feat[r]`` of node ``node[r]``, so it holds that node's
    class counts ``counts[node[r]]``, padding counted as the last class. A
    stable sort of all cells by class lists each class's cells in row order;
    a cell's place there, less the cells of lower classes and those of its
    class in earlier rows, is its rank within its row.
    """
    cls, counts = block.cls, block.counts
    occ = np.empty(cls.size, dtype=np.intp)
    occ[np.argsort(cls.ravel(), kind="stable")] = np.arange(cls.size)
    occ = occ.reshape(cls.shape)
    per_node = counts * block.widths[:, None]
    lower = np.cumsum(per_node.sum(axis=0)) - per_node.sum(axis=0)
    earlier = np.cumsum(per_node, axis=0) - per_node
    at = (block.node * counts.shape[1])[:, None] + cls
    same = counts.ravel().take(at)
    occ -= (lower + earlier).ravel().take(at)
    occ -= np.multiply(same, block.feat[:, None], out=at)
    return occ, same


def _cut_keys(block: _Block, criterion: str, xlogx: np.ndarray) -> np.ndarray:
    """Stage 1: the key of the cut after cell q of row r, for q < m - 1, as a
    float array. Within a node, keys grow with the cut's impurity decrease.

    Each key comes from exact prefix sums along its row, as the per-node
    search computed it, so it is equal to the bit. Gini's sums are integers,
    so their running total is exact whatever the order; entropy's are floats,
    so each row's cumulative sum runs along that row alone.
    """
    counts, node = block.counts, block.node
    occ, same = _class_ranks(block)
    m = occ.shape[1]
    n_left = np.arange(1, m)
    n_right = (m - counts[:, -1])[node][:, None] - n_left  # padding is the last class
    with np.errstate(divide="ignore", invalid="ignore"):
        if criterion == "gini":
            # n * (1 - weighted Gini) = sum L_c^2 / n_l + sum R_c^2 / n_r; a row
            # of class c moving left adds 2 L_c + 1 to sum L^2 and 1 - 2 R_c to
            # sum R^2, which starts at sum T^2 (computed in place of occ, same)
            step_l = occ
            step_l *= 2
            step_l += 1
            step_r = same
            step_r *= -2
            step_r += step_l
            step_r[:, 0] += (counts[:, :-1] ** 2).sum(axis=1)[node]
            key = np.cumsum(step_l, axis=1, out=step_l)[:, :-1] / n_left
            key += np.cumsum(step_r, axis=1, out=step_r)[:, :-1] / n_right
            return key
        # -n * weighted entropy = sum L_c log L_c + sum R_c log R_c
        #                         - n_l log n_l - n_r log n_r
        rest = same - occ
        steps = xlogx[occ + 1] - xlogx[occ] + xlogx[rest - 1] - xlogx[rest]
        # each node's sum over its own C classes, as the per-node search summed it
        totals = np.array(
            [xlogx[row[:c]].sum() for row, c in zip(counts, block.n_classes.tolist())]
        )
        key = np.cumsum(steps, axis=1)[:, :-1]
        key += totals[node][:, None]
        key -= xlogx[n_left]
        key -= xlogx[np.maximum(n_right, 0)]
        return key


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


@dataclass(slots=True)
class _Pending:
    """A node that may split: its index in its tree, its depth and class
    counts, and ``cells``, a (width, n) array whose row j lists the node's
    rows sorted by (x[j], row)."""

    node: int
    tree: int
    depth: int
    cells: np.ndarray
    counts: np.ndarray


class _Block:
    """Pending nodes laid out for split search.

    Row r of ``rows`` is column ``feat[r]`` of node ``node[r]``: the node's
    rows sorted by that feature, then padding up to the block's largest node.
    ``cls`` holds their class codes, and ``counts`` each node's class counts
    with the padding counted as the last class.
    """

    def __init__(self, forest: _Forest, items: list[_Pending]):
        stride, pad = forest.XT.shape[1], forest.pad
        self.items = items
        self.widths = np.array([len(item.cells) for item in items])
        self.sizes = np.array([item.cells.shape[1] for item in items])
        trees = np.array([item.tree for item in items])
        self.n_classes = forest.n_classes[trees]
        m = int(self.sizes.max())
        self.first = np.cumsum(self.widths) - self.widths  # each node's first row
        self.rows = np.full((int(self.widths.sum()), m), stride - 1, dtype=np.int32)
        for item, r in zip(items, self.first.tolist()):
            self.rows[r : r + len(item.cells), : item.cells.shape[1]] = item.cells
        self.node = np.repeat(np.arange(len(items)), self.widths)
        self.feat = np.arange(len(self.node)) - self.first[self.node]
        self.cls = forest.codes.ravel().take(self.rows + (trees * stride)[self.node][:, None])
        self.counts = np.zeros((len(items), pad + 1), dtype=np.int64)
        self.counts[:, :pad] = [item.counts for item in items]
        self.counts[:, pad] = m - self.sizes


class _Forest:
    """The trees of one ``train_trees`` call, grown together.

    ``XT`` is X transposed with a NaN column appended, and ``codes`` holds each
    tree's class codes, in the smallest unsigned dtype, with the padding class
    C (the largest class count) appended. A block's padding cells point at
    that last column, so they rank after every real cell, add nothing to a
    real cell's prefix sums and go to neither child.
    """

    def __init__(self, XT, order, encoded, widths, cfg: TreeConfig):
        self.XT, self.order, self.widths, self.cfg = XT, order, widths, cfg
        self.classes = [classes for classes, _ in encoded]
        self.n_classes = np.array([len(classes) for classes in self.classes])
        self.pad = int(self.n_classes.max())
        n = order.shape[1]
        self.codes = np.full((len(encoded), n + 1), self.pad, dtype=np.min_scalar_type(self.pad))
        for t, (_, codes) in enumerate(encoded):
            self.codes[t, :n] = codes
        size = np.arange(n + 1, dtype=float)
        self.xlogx = size * np.log2(np.maximum(size, 1.0))
        self.nodes = [{name: [] for name in NODE_ARRAYS} for _ in encoded]  # per tree

    def grow(self) -> list[DecisionTree]:
        """Split pending nodes wave by wave, each wave largest first, in blocks
        of at most ``_BLOCK_CELLS`` cells; a node larger than that is a block.

        A wave starts new trees while it holds fewer than ``_WAVE_BLOCKS``
        blocks of cells, so blocks stay full while the cells held at once stay
        bounded.
        """
        n = self.order.shape[1]
        waiting = list(range(len(self.codes)))[::-1]
        pending: list[_Pending] = []
        while pending or waiting:
            held = sum(item.cells.size for item in pending)
            while waiting and held < _WAVE_BLOCKS * _BLOCK_CELLS:
                t = waiting.pop()
                counts = np.bincount(self.codes[t, :n], minlength=self.pad)
                top = int(np.argmax(counts))
                cells = self.order[: self.widths[t]]
                self._add(t, 0, cells, counts, top, int(counts[top]), pending)
                held += cells.size
            # largest last, and taken from the end, so that a node's cells are
            # freed once it is split
            wave, pending = sorted(pending, key=lambda p: p.cells.shape[1]), []
            while wave:
                block = [wave.pop()]
                m, width = block[0].cells.shape[1], len(block[0].cells)
                while wave and m * (width + len(wave[-1].cells)) <= _BLOCK_CELLS:
                    block.append(wave.pop())
                    width += len(block[-1].cells)
                self._split(block, pending)
        return [self._tree(t) for t in range(len(self.codes))]

    def _add(self, tree, depth, cells, counts, top, top_count, pending) -> int:
        """Record a leaf of tree ``tree`` whose majority class code is ``top``
        (the first maximum of ``counts``, so ties go to the smallest class),
        and queue it for split search if it may split."""
        nodes = self.nodes[tree]
        node = len(nodes["label"])
        n = cells.shape[1]
        for name in ("feature", "left", "right"):
            nodes[name].append(-1)
        nodes["threshold"].append(0.0)
        nodes["label"].append(int(self.classes[tree][top]))
        cfg = self.cfg
        if (
            top_count < n
            and (cfg.max_depth is None or depth < cfg.max_depth)
            and n >= 2 * cfg.min_samples_leaf
            and len(cells)
        ):
            pending.append(_Pending(node, tree, depth, cells, counts))
        return node

    def _tree(self, tree: int) -> DecisionTree:
        """Tree ``tree`` with its nodes numbered in preorder."""
        nodes = self.nodes[tree]
        left, right = nodes["left"], nodes["right"]
        order, stack = [], [0]
        while stack:
            node = stack.pop()
            order.append(node)
            if left[node] >= 0:
                stack += (right[node], left[node])
        index = {node: i for i, node in enumerate(order)}
        arrays = {name: [nodes[name][node] for node in order] for name in NODE_ARRAYS}
        for name in ("left", "right"):
            arrays[name] = [index.get(child, -1) for child in arrays[name]]
        return DecisionTree(**arrays, n_features=self.widths[tree])

    def _split(self, items: list[_Pending], pending: list[_Pending]) -> None:
        """Find the best cut of every node in the block and split the nodes
        that have one; their children join ``pending``."""
        block = _Block(self, items)
        cut_row, cut = self._window(block)
        if cut.size:
            self._partition(block, *self._best_cuts(block, cut_row, cut), pending)

    def _window(self, block: _Block) -> tuple[np.ndarray, np.ndarray]:
        """Stage 1: the cuts whose key lies within float error of their node's
        best, as (row, cut) arrays in node, feature, cut order. A cut must
        separate two values, so none lies in padding."""
        cfg, rows, node, sizes = self.cfg, block.rows, block.node, block.sizes
        m = rows.shape[1]
        xs = self.XT.ravel().take(rows + (block.feat * self.XT.shape[1])[:, None])
        valid = xs[:, :-1] < xs[:, 1:]  # rows are sorted; NaN padding compares false
        del xs  # freed before the keys are built
        msl = cfg.min_samples_leaf
        if msl > 1:
            n_left = np.arange(1, m)
            valid &= (n_left >= msl) & (sizes[node][:, None] - n_left >= msl)
        key = np.where(valid, _cut_keys(block, cfg.split_criterion, self.xlogx), -np.inf)
        top = np.maximum.reduceat(key.max(axis=1), block.first)
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
        n_classes = block.n_classes
        tol = 2.0**-38 * sizes * (sizes + n_classes + 6) * (np.log2(sizes) + 2)
        floor = np.where(top > -np.inf, top - tol, np.inf)
        return np.divmod(np.flatnonzero(key >= floor[node][:, None]), m - 1)

    def _best_cuts(self, block: _Block, cut_row, cut):
        """Stage 2: (node, feature, threshold) of each node's best cut. A node
        with two or more cuts in its window scores them by the dense gain, per
        class count C, and its first maximum wins."""
        cfg, counts, sizes, n_classes = self.cfg, block.counts, block.sizes, block.n_classes
        m = block.rows.shape[1]
        cut_node = block.node[cut_row]
        gains = np.zeros(cut.size)  # a window of one cut needs no score: it wins
        score = np.flatnonzero((np.bincount(cut_node) > 1)[cut_node])
        for c in np.flatnonzero(np.bincount(n_classes[cut_node[score]])).tolist():
            parent = _impurity_from_counts(counts[:, :c], cfg.split_criterion)
            pick = score[n_classes[cut_node[score]] == c]
            step = max(1, _CHUNK_CELLS // max(m, c))
            for head in range(0, pick.size, step):
                at = pick[head : head + step]
                owner = cut_node[at]
                left = _left_counts(block.cls.T, cut_row[at], cut[at], c)
                right = counts[owner, :c]
                right -= left
                nl, n = cut[at] + 1.0, sizes[owner].astype(float)
                weighted = (
                    nl * _impurity_from_counts(left, cfg.split_criterion)
                    + (n - nl) * _impurity_from_counts(right, cfg.split_criterion)
                ) / n
                gains[at] = parent[owner] - weighted
        starts = np.flatnonzero(np.concatenate(([True], cut_node[1:] != cut_node[:-1])))
        best = np.maximum.reduceat(gains, starts)
        hit = np.flatnonzero(gains == np.repeat(best, np.diff(np.append(starts, cut.size))))
        win = hit[np.concatenate(([True], cut_node[hit[1:]] != cut_node[hit[:-1]]))]
        r, q = cut_row[win], cut[win]
        feature = block.feat[r]
        x, at = self.XT.ravel(), feature * self.XT.shape[1]
        lo, hi = x[at + block.rows[r, q]], x[at + block.rows[r, q + 1]]
        threshold = (lo + hi) / 2.0
        threshold = np.where(threshold >= hi, lo, threshold)  # midpoint collapsed onto hi
        return cut_node[win], feature, threshold

    def _partition(self, block: _Block, split, feature, threshold, pending) -> None:
        """Give each split node its cut and two children; a child's rows in
        each column are a stable partition of its parent's by the cut."""
        C, stride, items = self.pad, self.XT.shape[1], block.items
        for b, f, t in zip(split.tolist(), feature.tolist(), threshold.tolist()):
            nodes = self.nodes[items[b].tree]
            nodes["feature"][items[b].node] = f
            nodes["threshold"][items[b].node] = t
        w = block.widths[split]
        keep = np.zeros(len(items), dtype=bool)
        keep[split] = True
        sub = block.rows[keep[block.node]]
        x = self.XT.ravel().take(sub + np.repeat(feature * stride, w)[:, None])
        bound = np.repeat(threshold, w)[:, None]
        heads = np.cumsum(w) - w  # each split node's first row in sub
        head_codes = (np.arange(split.size) * C)[:, None] + block.cls[block.first[split]]
        for side, goes in (("left", x <= bound), ("right", x > bound)):  # NaN padding: neither
            counts = np.bincount(head_codes[goes[heads]], minlength=split.size * C).reshape(-1, C)
            sizes = goes[heads].sum(axis=1)
            tops = counts.argmax(axis=1)
            kept = np.compress(goes.ravel(), sub.ravel())  # row-major, so stable per row
            ends = np.cumsum(w * sizes)
            for i, (b, end, size, top) in enumerate(
                zip(split.tolist(), ends.tolist(), sizes.tolist(), tops.tolist())
            ):
                item = items[b]
                # a copy, so that a pending child holds no sibling's cells
                cells = kept[end - len(item.cells) * size : end].reshape(-1, size).copy()
                self.nodes[item.tree][side][item.node] = self._add(
                    item.tree, item.depth + 1, cells, counts[i], top, int(counts[i, top]), pending
                )


def train_trees(
    X, ys, cfg: TreeConfig = TreeConfig(), widths=None, n_jobs: int = 1
) -> list[DecisionTree]:
    """One tree per integer label array in ``ys``, all grown on the feature rows
    X; tree t sees the first ``widths[t]`` columns (all by default).

    X is argsorted once. Each tree's nodes carry their rows in every column's
    sorted order, and a child's come from a stable partition of its parent's,
    so no node sorts X again. Split search runs over blocks of pending nodes
    from any of the trees (see ``_Forest``). With ``n_jobs`` > 1 the trees are
    grown in that many groups on a thread pool, sharing the one presort.
    """
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be >= 1, got {n_jobs}")
    labels = [np.asarray(y, dtype=int) for y in ys]
    if any(y.size == 0 for y in labels):
        raise ValidationError("empty training set")
    try:
        X = np.asarray(X, dtype=float)
    except ValueError:
        raise ValidationError("inconsistent feature vector lengths") from None
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    for y in labels:
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValidationError(f"feature rows {X.shape} do not match {y.size} labels")
    if not np.isfinite(X).all():
        raise ValidationError("feature matrix has non-finite values")
    n, d = X.shape
    widths = [d] * len(labels) if widths is None else [int(w) for w in widths]
    if len(widths) != len(labels) or not all(0 <= w <= d for w in widths):
        raise ValidationError(f"tree widths {widths} must be one per tree, each 0..{d}")
    XT = np.full((d, n + 1), np.nan)
    XT[:, :n] = X.T
    # row j: the rows sorted by (x[j], row); a node's rows are in increasing
    # order, so their filtered order equals a stable argsort of the node alone
    order = np.argsort(XT[:, :n], axis=1, kind="stable").astype(np.int32)
    encoded = [np.unique(y, return_inverse=True) for y in labels]

    def grow(group):
        trees = [encoded[t] for t in group]
        return _Forest(XT, order, trees, [widths[t] for t in group], cfg).grow()

    groups = [g for g in np.array_split(np.arange(len(labels)), n_jobs) if g.size]
    if len(groups) <= 1:
        return [tree for group in groups for tree in grow(group)]
    from concurrent.futures import ThreadPoolExecutor  # only here: prediction never needs it

    with ThreadPoolExecutor(max_workers=len(groups)) as pool:
        return [tree for trees in pool.map(grow, groups) for tree in trees]


def train_tree(X, y, config: TreeConfig = TreeConfig()) -> DecisionTree:
    """Induce a tree from feature rows X and integer class labels y."""
    return train_trees(X, [y], config)[0]


def stack_trees(trees) -> DecisionTree:
    """The trees, which share a feature width, as one ``DecisionTree`` of their
    nodes end to end, child indices shifted to match; ``roots`` lists each
    tree's first node."""
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
    return DecisionTree(
        feature=joined("feature"),
        threshold=joined("threshold"),
        left=np.where(split, left + offset, -1),
        right=np.where(split, right + offset, -1),
        label=joined("label"),
        n_features=widths.pop(),
        roots=roots,
    )


def descend(tree: DecisionTree, X) -> np.ndarray:
    """Leaf reached by each row of X in each of the tree's roots, as an
    (n, roots) array of node indices.

    All (row, root) pairs move down one level per step, and a pair leaves the
    working set when it reaches a leaf, so a step costs the pairs still
    descending and the number of steps is the depth of the deepest path taken.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise ValidationError(
            f"feature rows {X.shape} do not match the tree's {tree.n_features} features"
        )
    n, n_trees = len(X), len(tree.roots)
    node = np.tile(tree.roots, n)  # pair p is row p // n_trees, root p % n_trees
    live = np.flatnonzero(tree.feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = X[live // n_trees, tree.feature[at]] <= tree.threshold[at]
        node[live] = np.where(go_left, tree.left[at], tree.right[at])
        live = live[tree.feature[node[live]] >= 0]
    return node.reshape(n, n_trees)


def predict_tree(tree: DecisionTree, x) -> int:
    """The leaf label of one feature row: ``descend`` of one row and one tree."""
    return int(tree.label[descend(tree, np.asarray(x, dtype=float).reshape(1, -1))[0, 0]])


def tree_stats(tree: DecisionTree) -> dict:
    """Node/leaf counts and depth of one tree rooted at node 0, for training
    summaries."""
    left, right = tree.left.tolist(), tree.right.tolist()
    depth = [0] * len(left)
    for node, child in enumerate(left):  # parents come before their children
        if child >= 0:
            depth[child] = depth[right[node]] = depth[node] + 1
    return {"nodes": len(left), "leaves": left.count(-1), "depth": max(depth)}


def tree_to_dict(tree: DecisionTree) -> dict:
    """The arrays of one tree rooted at node 0, for an artifact."""
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
    for name in ("feature", "left", "right", "label"):
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
