"""From-scratch CART-style binary decision trees.

Greedy top-down induction: at each node every (feature, midpoint-threshold)
candidate is scored by impurity decrease. ``train_trees`` grows many trees on
one feature matrix together:

* **One presort.** X is argsorted once per call, column by column. Each node
  carries its rows in every column's sorted order, and a child takes a stable
  partition of its parent's, so no node sorts X again (as CART and SLIQ do,
  Mehta, Agrawal & Rissanen 1996).
* **Blocks of nodes.** Split search takes pending nodes from any of the
  call's trees in blocks of bounded size and ranks the cuts of all of them in
  one pass: each (node, feature) column is one row of a padded array, and
  prefix sums run along the rows. Stage 1 ranks every cut by a key built from
  those prefix sums, with no class axis; stage 2 scores the cuts within float
  error of a node's best key again by the dense formula, per class count C and
  in chunks of bounded size.
* **Distinct-class nodes have no class axis.** In a node where every class
  occurs at most once (every node of a label-powerset tree over distinct
  label sets), every Gini key is exactly 2, so stage 2 scores every cut. A
  side of t rows there holds t class terms of 1 / t and C - t zeros, and
  numpy sums a row of C terms in a fixed pairwise order (``_sum_plan``), in
  which adding a zero is exact. So stage 2 counts how many of a side's
  classes fall in each of the order's groups of terms, about C / 11 of them,
  and adds in that order the sums those counts give.

Split search skips three kinds of work whose outcome is known in advance:

* **Repeated columns.** A column with the same stable order and ties (the
  same dense ranks) as an earlier one has the same cells, valid cuts, keys
  and gains in every node, and the earlier one wins each tie. So only the
  first column of each such set is grown on, and ``feature`` is mapped back.
  In the default ``both`` feature mode each factor's ``last`` repeats its
  last ``week_W``.
* **Trees with equal class codes grow as one.** Such trees (BR's tree for a
  label and the chain's for the same label, repeated label-powerset members)
  see the same rows and classes in every node they share. A shared node is
  searched over its widest member's columns. If the best cut's feature lies
  within a narrower member's columns, it is that member's best too: over
  more columns the stage-1 window can only lose cuts whose gains lie below
  the winner's, and the extra columns come later, so they lose ties. Such
  members take the cut and share the children; the others fork and are
  searched again on their own columns. Each member labels its nodes from its
  own classes.
* **Stage 1 of distinct-class Gini blocks.** There ``sum L^2 = n_l`` and
  ``sum R^2 = n_r``, so every key is exactly 2, and the window is every
  valid cut without computing a key.

The trees are identical to those grown one node at a time, each node sorting
its own rows (``tests/_reference_tree.py``), for three reasons. A node's rows
stay in increasing row order, so filtering the global stable order to them
gives the node's own stable argsort, ties included. Gini's stage-1 sums are
integers, exact in any order, and entropy's float running sum is taken along
each node's own column alone, so every key is the same float. Stage 2 scores
each node's cuts with the same dense formula on (k, C) counts of that node's
C, unpadded, so every gain rounds the same way. A distinct-class node's sums
are the same floats as well, since they add the same terms in numpy's order
(``_distinct_sides``).

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

import functools
from dataclasses import dataclass

import numpy as np

from .domain import json_int, json_list, json_number, json_object
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
    totals = counts.sum(axis=-1, keepdims=True)
    totals = np.maximum(totals, 1)
    return _impurity(_terms(counts / totals, criterion).sum(axis=-1), criterion)


def _terms(p: np.ndarray, criterion: str) -> np.ndarray:
    """Each class's term of the impurity sum for proportions p: p^2 for Gini,
    p log2 p for entropy (0 at p = 0)."""
    if criterion == "gini":
        return p * p
    return p * np.log2(np.where(p > 0, p, 1.0))


def _impurity(total: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity from the sum of the class terms."""
    return 1.0 - total if criterion == "gini" else -total


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
# a chunk of k cuts holds (k, C) class counts and gathers up to k * n rows. A
# run of chunks of distinct-class nodes is scored as one, holding no more
# cells than a chunk of counts, and gathers up to 4 chunks' rows (``_chunks``).
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
    first = _run_heads(feats)  # first cut of its column in this batch
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
    return counts - np.repeat(before, _run_lengths(heads, k), axis=0)


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Whether each entry of a 1-d array starts a run of equal entries."""
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def _run_lengths(heads: np.ndarray, n: int) -> np.ndarray:
    """The lengths of the runs of n entries that start at ``heads`` (ascending, from 0)."""
    lengths = np.empty_like(heads)
    np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
    lengths[-1:] = n - heads[-1:]
    return lengths


def _count_sides(block: _Block, rows, cuts, n_classes: int, criterion: str):
    """Impurities of the left and right sides of the cut after cell cuts[k] of
    block row rows[k], for rows of nodes with C = n_classes, from class counts."""
    left = _left_counts(block.cls.T, rows, cuts, n_classes)
    right = block.counts[block.node[rows], :n_classes]
    right -= left
    return _impurity_from_counts(left, criterion), _impurity_from_counts(right, criterion)


@functools.lru_cache
def _sum_plan(n_terms: int) -> tuple[np.ndarray, int | tuple, int, int]:
    """numpy's order for summing a row of ``n_terms`` floats, as (group, tree,
    leaves, tails).

    ``np.add.reduce`` along a contiguous last axis adds each row pairwise: a
    row of more than 128 terms is split at half its length, rounded down to a
    multiple of 8, and each half summed alike; a part of at most 128 terms is
    a leaf. A leaf of n terms adds its first n - n % 8 into 8 accumulators,
    term i into accumulator i % 8 in order, joins those as ((r0 + r1) + (r2 +
    r3)) + ((r4 + r5) + (r6 + r7)), then adds its last n % 8 terms one by one.
    With L leaves, ``group[i]`` is j L + l for term i in accumulator j of
    leaf l and 8 L + l for a term of its tail; ``tree`` nests the leaf
    indices in the order the halves are added; ``tails`` is the longest tail.
    The array is shared, so it is read-only. (This is ``pairwise_sum`` in
    numpy's add loop; a tier-1 test checks it against ``np.add.reduce``.)
    """
    leaves: list[tuple[int, int]] = []
    tree = _halves(0, n_terms, leaves)
    group = np.empty(n_terms, dtype=np.intp)
    for leaf, (lo, n) in enumerate(leaves):
        body = n - n % 8
        group[lo : lo + n] = 8 * len(leaves) + leaf
        group[lo : lo + body] = np.arange(body) % 8 * len(leaves) + leaf
    group.flags.writeable = False
    return group, tree, len(leaves), max(n % 8 for _, n in leaves)


def _halves(lo: int, n: int, leaves: list) -> int | tuple:
    """Split terms lo..lo + n - 1 as numpy's pairwise sum does, appending each
    leaf's (first term, length) to ``leaves``, and nest the leaf indices."""
    if n <= 128:
        leaves.append((lo, n))
        return len(leaves) - 1
    half = n // 2 - n // 2 % 8
    return _halves(lo, half, leaves), _halves(lo + half, n - half, leaves)


def _plan_sum(tree, acc: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """k row sums in the order of a ``_sum_plan``, from the sums of
    accumulator j of leaf l ``acc[j, l]`` (8, leaves, k) and each leaf's
    tail terms ``tail[:, l]`` (tails, leaves, k)."""
    pairs = acc[0::2] + acc[1::2]
    quads = pairs[0::2] + pairs[1::2]
    sums = quads[0] + quads[1]
    for term in tail:
        sums += term
    return _join(tree, sums)


def _join(tree, sums: np.ndarray) -> np.ndarray:
    """The leaf sums ``sums`` (leaves, k) added as ``tree`` nests them."""
    if isinstance(tree, int):
        return sums[tree]
    return _join(tree[0], sums) + _join(tree[1], sums)


def _distinct_sides(block: _Block, rows, cuts, n_classes: int, criterion: str, repeats):
    """``_count_sides`` for rows of nodes in which every class occurs at most
    once, from how many classes of each group of ``_sum_plan(C)`` lie on each
    side, with no class axis.

    A side of t rows holds t classes once each. Its (k, C) class terms, as
    ``_impurity_from_counts`` computes them, are 0 for an absent class and x,
    the term of p = 1 / t, for a present one, and numpy sums each row in the
    plan's order. Adding 0 is exact, so an accumulator that holds c of the
    x's sums to ``repeats[t, c]``, x + x + ... (c times, in order), and a tail
    adds x once per class it holds: the same floats as the dense sum, to the
    bit. (Entropy's x is 0 only for t = 1, and then every term is +0.0.)

    Cut j adds the cells since the previous cut of its row to the left side's
    running count, as ``_left_counts`` does for classes; the counts are laid
    out group-major, so one flat cumulative sum runs them, and each row takes
    off what came before its first cut. The right side's counts are the
    node's less the left's.
    """
    group, tree, leaves, tails = _sum_plan(n_classes)
    n_groups, k, m = (9 if tails else 8) * leaves, rows.size, block.rows.shape[1]
    row_head = _run_heads(rows)  # cuts come in row order
    start = np.zeros(k, dtype=cuts.dtype)  # the first cell each cut adds
    start[1:] = cuts[:-1] + 1
    start[row_head] = 0
    lengths = cuts + 1 - start
    ends = np.cumsum(lengths)
    cells = np.arange(ends[-1]) + np.repeat(rows * m + start - ends + lengths, lengths)
    seg = np.repeat(np.arange(1, k + 1), lengths)
    # running[g * k + j + 1]: the cells of groups before g, and those of group
    # g up to cut j; a row's left counts take off those before its first cut
    running = np.bincount(group.take(block.cls.take(cells)) * k + seg, minlength=n_groups * k + 1)
    np.cumsum(running, out=running)
    heads = np.flatnonzero(row_head)
    before = running[:-1].reshape(n_groups, k)[:, heads]
    counts = np.empty((n_groups, 2 * k), dtype=np.int32)  # left, then right
    left, right = counts[:, :k], counts[:, k:]
    np.subtract(
        running[1:].reshape(n_groups, k),
        np.repeat(before, _run_lengths(heads, k), axis=1),
        out=left,
    )
    # the right side holds the rest of the node's classes; a node's cuts are
    # contiguous
    node = block.node[rows]
    heads = np.flatnonzero(_run_heads(node))
    owner, present = np.nonzero(block.counts[node[heads], :n_classes])
    total = np.bincount(group.take(present) * heads.size + owner, minlength=n_groups * heads.size)
    total = np.repeat(total.reshape(n_groups, -1), _run_lengths(heads, k), axis=1)
    np.subtract(total, left, out=right)
    counts = counts.reshape(-1, leaves, 2 * k)
    sizes = np.concatenate((cuts + 1, block.sizes[node] - cuts - 1))
    tail = np.where(counts[8:] > np.arange(tails)[:, None, None], repeats[sizes, 1], 0.0)
    index = counts[:8]
    index += sizes * repeats.shape[1]
    impurity = _impurity(_plan_sum(tree, repeats.take(index), tail), criterion)
    return impurity[:k], impurity[k:]


def _chunks(pick: np.ndarray, step: int, distinct: np.ndarray, n_classes: int):
    """Stage 2's chunks of ``step`` cuts of ``pick``, each with whether all its
    cuts lie in distinct-class nodes (``distinct``, one flag per cut).

    Up to C / (27 L) such chunks in a row, for the L leaves of
    ``_sum_plan(C)``, come as one, so that ``_distinct_sides`` makes fewer,
    larger calls. It holds about 34 L cells a cut (left and right counts of
    up to 9 L groups, and 8 L sums a side), so such a part holds fewer cells
    than the two (k, C) count arrays of one class-count chunk. A leaf has at
    most 128 terms, so a part joins at most 4 chunks.
    """
    heads = list(range(0, pick.size, step))
    whole = np.logical_and.reduceat(distinct, heads).tolist()
    join = max(1, n_classes // (27 * _sum_plan(n_classes)[2]))
    i = 0
    while i < len(heads):
        j = i + 1
        while whole[i] and j < len(heads) and whole[j] and j - i < join:
            j += 1
        yield pick[heads[i] : heads[j] if j < len(heads) else pick.size], whole[i]
        i = j


@dataclass(slots=True)
class _Pending:
    """A node that may split, shared by trees of one class-code set:
    ``members`` lists each tree's (tree, node), widest tree first, ``codes``
    is the set's row of ``_Forest.codes``, and ``cells``, a (width, n) array
    of the widest member's width, has row j list the node's rows sorted by
    (x[j], row). ``depth`` and the class ``counts`` are every member's."""

    members: list[tuple[int, int]]
    codes: int
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
        sets = np.array([item.codes for item in items])
        self.n_classes = forest.n_classes[sets]
        m = int(self.sizes.max())
        self.first = np.cumsum(self.widths) - self.widths  # each node's first row
        self.rows = np.full((int(self.widths.sum()), m), stride - 1, dtype=np.int32)
        for item, r in zip(items, self.first.tolist()):
            self.rows[r : r + len(item.cells), : item.cells.shape[1]] = item.cells
        self.node = np.repeat(np.arange(len(items)), self.widths)
        self.feat = np.arange(len(self.node)) - self.first[self.node]
        self.cls = forest.codes.ravel().take(self.rows + (sets * stride)[self.node][:, None])
        self.counts = np.zeros((len(items), pad + 1), dtype=np.int64)
        self.counts[:, :pad] = [item.counts for item in items]
        self.counts[:, pad] = m - self.sizes


class _Forest:
    """The trees of one ``train_trees`` call, or of one thread group, grown
    together.

    ``XT`` is X transposed, with only the ``columns`` that no earlier column
    repeats, and a NaN column appended; ``widths[t]`` counts the columns of
    ``XT`` that tree t sees, and ``n_features[t]`` all its columns of X.
    ``sets`` lists the trees of each class-code set, widest first, and
    ``codes`` holds each set's class codes, in the smallest unsigned dtype,
    with the padding class C (the largest class count) appended. A block's
    padding cells point at that last column, so they rank after every real
    cell, add nothing to a real cell's prefix sums and go to neither child.
    """

    def __init__(self, XT, order, columns, encoded, widths, n_features, sets, cfg: TreeConfig):
        self.XT, self.order, self.columns, self.cfg = XT, order, columns, cfg
        self.widths, self.n_features, self.sets = widths, n_features, sets
        self.classes = [classes for classes, _ in encoded]
        self.n_classes = np.array([len(self.classes[trees[0]]) for trees in sets])
        self.pad = int(self.n_classes.max())
        n = order.shape[1]
        self.codes = np.full((len(sets), n + 1), self.pad, dtype=np.min_scalar_type(self.pad))
        for s, trees in enumerate(sets):
            self.codes[s, :n] = encoded[trees[0]][1]
        size = np.arange(n + 1, dtype=float)
        self.xlogx = size * np.log2(np.maximum(size, 1.0))
        # repeats[t, c]: x + x + ... (c terms, in order), x the class term of
        # p = 1 / t, for c up to the 16 terms of an accumulator (_sum_plan)
        repeats = np.zeros((n + 1, 17))
        repeats[1:, 1:] = _terms(1.0 / size[1:], cfg.split_criterion)[:, None]
        self.repeats = np.cumsum(repeats, axis=1, out=repeats)
        self.nodes = {t: {name: [] for name in NODE_ARRAYS} for trees in sets for t in trees}

    def grow(self) -> dict[int, DecisionTree]:
        """Split pending nodes wave by wave, each wave largest first, in blocks
        of at most ``_BLOCK_CELLS`` cells; a node larger than that is a block.

        A wave starts new code sets' roots while it holds fewer than
        ``_WAVE_BLOCKS`` blocks of cells, so blocks stay full while the cells
        held at once stay bounded.
        """
        n = self.order.shape[1]
        waiting = list(range(len(self.sets)))[::-1]
        pending: list[_Pending] = []
        while pending or waiting:
            held = sum(item.cells.size for item in pending)
            while waiting and held < _WAVE_BLOCKS * _BLOCK_CELLS:
                s = waiting.pop()
                counts = np.bincount(self.codes[s, :n], minlength=self.pad)
                top = int(np.argmax(counts))
                cells = self.order[: self.widths[self.sets[s][0]]]
                self._add(self.sets[s], s, 0, cells, counts, top, int(counts[top]), pending)
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
        return {t: self._tree(t) for t in self.nodes}

    def _add(self, trees, codes, depth, cells, counts, top, top_count, pending) -> list[int]:
        """Record a leaf in each of ``trees`` (one code set's, widest first)
        whose majority class code is ``top`` (the first maximum of ``counts``,
        so ties go to the smallest class), each labelled from its own classes,
        and queue them as one node for split search if it may split. Returns
        each tree's new node."""
        made = []
        for tree in trees:
            nodes = self.nodes[tree]
            made.append(len(nodes["label"]))
            for name in ("feature", "left", "right"):
                nodes[name].append(-1)
            nodes["threshold"].append(0.0)
            nodes["label"].append(int(self.classes[tree][top]))
        n, cfg = cells.shape[1], self.cfg
        if (
            top_count < n
            and (cfg.max_depth is None or depth < cfg.max_depth)
            and n >= 2 * cfg.min_samples_leaf
            and len(cells)
        ):
            pending.append(_Pending(list(zip(trees, made)), codes, depth, cells, counts))
        return made

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
        return DecisionTree(**arrays, n_features=self.n_features[tree])

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
        if cfg.split_criterion == "gini" and (block.counts[:, :-1] <= 1).all():
            # every class occurs at most once in each node, so sum L^2 = n_l and
            # sum R^2 = n_r: every key is exactly 2.0, and every valid cut ties
            return np.divmod(np.flatnonzero(valid), m - 1)
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
        class count C, and its first maximum wins.

        The dense gain takes each side's impurity from its (k, C) class
        counts. In a node where every class occurs at most once, those counts
        are 0 or 1, so each side's sum of class terms follows from how many
        of its classes lie in each group of numpy's summation order: the same
        floats, so the same gains (``_distinct_sides``). A chunk of cuts all
        from such nodes builds no class counts; any other chunk does
        (``_count_sides``), so small nodes of few classes, which share a
        chunk, keep one call per chunk.
        """
        cfg, counts, sizes, n_classes = self.cfg, block.counts, block.sizes, block.n_classes
        m = block.rows.shape[1]
        cut_node = block.node[cut_row]
        gains = np.zeros(cut.size)  # a window of one cut needs no score: it wins
        score = np.flatnonzero((np.bincount(cut_node) > 1)[cut_node])
        distinct = (counts[:, :-1] <= 1).all(axis=1)
        for c in np.flatnonzero(np.bincount(n_classes[cut_node[score]])).tolist():
            parent = _impurity_from_counts(counts[:, :c], cfg.split_criterion)
            pick = score[n_classes[cut_node[score]] == c]
            step = max(1, _CHUNK_CELLS // max(m, c))
            for at, whole in _chunks(pick, step, distinct[cut_node[pick]], c):
                owner = cut_node[at]
                if whole:
                    left, right = _distinct_sides(
                        block, cut_row[at], cut[at], c, cfg.split_criterion, self.repeats
                    )
                else:
                    left, right = _count_sides(block, cut_row[at], cut[at], c, cfg.split_criterion)
                nl, n = cut[at] + 1.0, sizes[owner].astype(float)
                weighted = (nl * left + (n - nl) * right) / n
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
        each column are a stable partition of its parent's by the cut.

        The members of a node that see the winning feature take the cut and
        share the children. The cut is each one's own best too, since the
        others' columns lie after it and lose its ties. The members that do
        not see it fork: they are queued again as one node on their own
        columns."""
        C, stride, items = self.pad, self.XT.shape[1], block.items
        takers = []
        for b, f, t in zip(split.tolist(), feature.tolist(), threshold.tolist()):
            item = items[b]
            members = [(tree, node) for tree, node in item.members if self.widths[tree] > f]
            takers.append([tree for tree, _ in members])
            for tree, node in members:
                self.nodes[tree]["feature"][node] = self.columns[f]
                self.nodes[tree]["threshold"][node] = t
            fork = item.members[len(members) :]  # widest first, so the takers lead
            width = self.widths[fork[0][0]] if fork else 0
            if width:
                pending.append(_Pending(fork, item.codes, item.depth, item.cells[:width], item.counts))
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
                made = self._add(
                    takers[i], item.codes, item.depth + 1, cells, counts[i], top,
                    int(counts[i, top]), pending,
                )
                for (tree, node), child in zip(item.members, made):
                    self.nodes[tree][side][node] = child


def train_trees(
    X, ys, cfg: TreeConfig = TreeConfig(), widths=None, n_jobs: int = 1
) -> list[DecisionTree]:
    """One tree per integer label array in ``ys``, all grown on the feature rows
    X; tree t sees the first ``widths[t]`` columns (all by default).

    X is argsorted once. Each tree's nodes carry their rows in every column's
    sorted order, and a child's come from a stable partition of its parent's,
    so no node sorts X again. Split search runs over blocks of pending nodes
    from any of the trees (see ``_Forest``). A column that repeats an earlier
    one's dense ranks is never searched, since the earlier one wins each of
    its ties; trees whose label arrays give equal class codes share each node
    until a column that only some of them see wins it (module docstring).
    With ``n_jobs`` > 1 the sets of such trees are grown in that many groups
    on a thread pool, sharing the one presort.
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
    # row j: the rows sorted by (x[j], row); a node's rows are in increasing
    # order, so their filtered order equals a stable argsort of the node alone
    order = np.argsort(X.T, axis=1, kind="stable").astype(np.int32)
    columns = _unrepeated_columns(X.T, order)
    order = order[columns]
    XT = np.full((columns.size, n + 1), np.nan)
    XT[:, :n] = X.T[columns]
    seen = np.searchsorted(columns, widths).tolist()  # kept columns below each width
    encoded = [np.unique(y, return_inverse=True) for y in labels]
    by_codes: dict[bytes, list[int]] = {}
    for t, (_, codes) in enumerate(encoded):
        by_codes.setdefault(codes.tobytes(), []).append(t)
    sets = [sorted(trees, key=lambda t: -widths[t]) for trees in by_codes.values()]

    def grow(group):
        chosen = [sets[s] for s in group]
        return _Forest(XT, order, columns.tolist(), encoded, seen, widths, chosen, cfg).grow()

    groups = [g for g in np.array_split(np.arange(len(sets)), n_jobs) if g.size]
    if len(groups) <= 1:
        grown = grow(groups[0]) if groups else {}
    else:
        from concurrent.futures import ThreadPoolExecutor  # only here: prediction never needs it

        with ThreadPoolExecutor(max_workers=len(groups)) as pool:
            grown = {t: tree for trees in pool.map(grow, groups) for t, tree in trees.items()}
    return [grown[t] for t in range(len(labels))]


def _unrepeated_columns(XT, order) -> np.ndarray:
    """Indices of the rows of XT (columns of X) whose stable order and ties,
    that is whose dense ranks, no earlier row has. A repeat has the earlier
    column's sorted cells, valid cuts and keys in every node, so it can only
    tie with it, and the lower feature index wins every tie."""
    seen, kept = set(), []
    for j, row in enumerate(order):
        values = XT[j].take(row)
        ranks = row.tobytes() + (values[1:] == values[:-1]).tobytes()
        if ranks not in seen:
            seen.add(ranks)
            kept.append(j)
    return np.array(kept, dtype=np.intp)


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


def tree_from_dict(data, n_features: int, n_classes: int, name: str = "tree") -> DecisionTree:
    """The tree ``name`` of ``n_features`` features and ``n_classes`` classes
    from ``tree_to_dict`` output, checked to be one tree, so a descent ends at
    a leaf after at most ``n_nodes`` steps and indexes nothing out of range."""
    data = json_object(data, name, {"n_features", *NODE_ARRAYS})
    if json_int(data["n_features"], f"{name} 'n_features'") != n_features:
        raise ValidationError(f"{name} 'n_features' must be {n_features}, got {data['n_features']}")
    arrays = {}
    for array in NODE_ARRAYS:
        read, dtype = (json_number, float) if array == "threshold" else (json_int, np.int64)
        values = json_list(data[array], f"{name} '{array}'", read)
        try:
            arrays[array] = np.array(values, dtype=dtype)
        except OverflowError:
            raise ValidationError(f"{name} '{array}' holds a number out of range") from None
    tree = DecisionTree(**arrays, n_features=n_features)
    n_nodes = tree.label.size
    shapes = {array: getattr(tree, array).shape for array in NODE_ARRAYS}
    if n_nodes == 0 or set(shapes.values()) != {(n_nodes,)}:
        raise ValidationError(f"{name} node arrays must be non-empty lists of one length: {shapes}")
    feature, left, right = tree.feature, tree.left, tree.right
    split = left != -1
    _reject_first(
        split & ((feature < 0) | (feature >= n_features)),
        lambda i: f"{name} node {i} split 'feature' {feature[i]} is out of range "
        f"for {n_features} features",
    )
    _reject_first(
        ~split & ((feature != -1) | (right != -1)),
        lambda i: f"{name} node {i} has 'left' -1, so its 'feature' and 'right' must be -1",
    )
    _reject_first(
        (tree.label < 0) | (tree.label >= n_classes),
        lambda i: f"{name} node {i} 'label' {tree.label[i]} does not index the {n_classes} classes",
    )
    _reject_first(
        ~np.isfinite(tree.threshold),
        lambda i: f"{name} node {i} 'threshold' {tree.threshold[i]} is not finite",
    )
    for side, child in (("left", left), ("right", right)):
        _reject_first(
            split & ((child <= np.arange(n_nodes)) | (child >= n_nodes)),
            lambda i: f"{name} node {i} '{side}' {child[i]} must lie between the "
            f"node's index and {n_nodes}",
        )
    # children lie after their parents, so the root is no node's child
    parents = np.bincount(np.concatenate([left[split], right[split]]), minlength=n_nodes)
    _reject_first(
        parents[1:] != 1,
        lambda i: f"{name} node {i + 1} is the child of {parents[i + 1]} nodes, not 1",
    )
    return tree
