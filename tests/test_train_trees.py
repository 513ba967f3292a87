"""Growing many trees in one call: every tree equals the per-node reference,
whatever else shares its call, its blocks or its thread."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _builders import fit_tree, train
from _reference_tree import record_fits, reference_grow
from rakelgen import tree as tree_module
from rakelgen.errors import ValidationError
from rakelgen.mlc import RakelConfig
from rakelgen.synth import default_synth_config, generate_dataset
from rakelgen.tree import TreeConfig, train_trees, tree_to_dict

CRITERIA = ("gini", "entropy")


@st.composite
def configs(draw):
    return TreeConfig(
        max_depth=draw(st.sampled_from([None, 1, 2, 4])),
        min_samples_leaf=draw(st.integers(1, 3)),
        split_criterion=draw(st.sampled_from(CRITERIA)),
    )


@st.composite
def forests(draw):
    """Feature rows with tied values and a constant column, and label arrays
    with 1, 2 or 8 classes (sparse values) or all distinct classes, each
    seeing its own leading columns.

    Some columns repeat an earlier one's order and ties (``2 x + 1``), which
    the grower skips, and some keep an earlier one's order but break its ties
    (its rank), which it keeps. Some label arrays repeat an earlier one or
    relabel it (``3 y + 1``: equal class codes, other labels); such trees
    grow as one, and a wider one whose later column wins a node forks the
    narrower ones off.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 5))
    levels = draw(st.integers(1, 5))
    X = np.array(
        draw(st.lists(st.lists(st.integers(0, levels - 1), min_size=d, max_size=d),
                      min_size=n, max_size=n)),
        dtype=float,
    )
    X[:, -1] = 1.5
    for kind in draw(st.lists(st.sampled_from(["repeat", "untie"]), max_size=3)):
        x = X[:, draw(st.integers(0, X.shape[1] - 1))]
        if kind == "repeat":
            extra = 2 * x + 1
        else:
            extra = np.empty(n)
            extra[np.argsort(x, kind="stable")] = np.arange(n)
        X = np.column_stack([X, extra])
    ys = []
    for _ in range(draw(st.integers(1, 6))):
        if ys and draw(st.booleans()):
            y = ys[draw(st.integers(0, len(ys) - 1))]
            ys.append(draw(st.sampled_from([y, 3 * y + 1])))
            continue
        n_classes = draw(st.sampled_from([1, 2, 8, None]))
        if n_classes is None:  # every class occurs once
            ys.append(np.array(draw(st.permutations(range(n)))) * 2 - 7)
            continue
        values = draw(st.lists(st.integers(-5, 40), min_size=n_classes, max_size=n_classes))
        ys.append(np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))))
    d = X.shape[1]
    widths = draw(st.one_of(st.none(), st.lists(st.integers(1, d), min_size=len(ys), max_size=len(ys))))
    return X, ys, widths, draw(configs())


def _assert_each_tree_is_the_reference(X, ys, widths, cfg, trees):
    widths = [X.shape[1]] * len(ys) if widths is None else widths
    assert len(trees) == len(ys)
    for y, width, tree in zip(ys, widths, trees):
        assert tree.n_features == width
        assert tree_to_dict(tree) == reference_grow(X[:, :width], y, cfg)


class TestAgainstReference:
    @given(forests())
    def test_random_forests(self, forest):
        X, ys, widths, cfg = forest
        for n_jobs in (1, 2, 3):
            trees = train_trees(X, ys, cfg, widths, n_jobs)
            _assert_each_tree_is_the_reference(X, ys, widths, cfg, trees)

    @given(
        forests(),
        st.sampled_from([1, 64, 10**9]),
        st.sampled_from([1, 16]),
        st.sampled_from([1, 50, 1 << 15]),
        st.sampled_from([1, 2, 3]),
    )
    def test_any_block_wave_and_chunk_size(
        self, forest, block_cells, wave_blocks, chunk_cells, n_jobs
    ):
        # 1: every node is a block of its own, larger than the cap; 10**9: all
        # pending nodes share one block; a wave of 1 block starts a tree only
        # when fewer cells than a block are pending; small chunks split stage 2 up
        X, ys, widths, cfg = forest
        with mock.patch.object(tree_module, "_BLOCK_CELLS", block_cells), \
                mock.patch.object(tree_module, "_WAVE_BLOCKS", wave_blocks), \
                mock.patch.object(tree_module, "_CHUNK_CELLS", chunk_cells):
            trees = train_trees(X, ys, cfg, widths, n_jobs)
        _assert_each_tree_is_the_reference(X, ys, widths, cfg, trees)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_mixed_class_counts_up_to_uint16_codes(self, criterion):
        # more than 255 classes in one tree takes uint16 class codes for the
        # whole call, next to trees with 1, 2 and 8 classes
        rng = np.random.default_rng(3)
        n = 300
        X = np.round(rng.normal(size=(n, 3)), 1)
        ys = [
            rng.permutation(n),
            np.full(n, 7),
            rng.integers(0, 2, size=n),
            rng.integers(0, 8, size=n) * 3,
        ]
        cfg = TreeConfig(max_depth=3, split_criterion=criterion)
        _assert_each_tree_is_the_reference(X, ys, None, cfg, train_trees(X, ys, cfg))

    def test_chain_widths(self):
        # position p of a chain sees the features and the gold bits of 0..p-1
        rng = np.random.default_rng(5)
        X = np.round(rng.normal(size=(60, 4)), 1)
        gold = rng.integers(0, 2, size=(60, 5))
        Xh = np.hstack([X, gold])
        widths = list(range(4, 9))
        cfg = TreeConfig(min_samples_leaf=2)
        trees = train_trees(Xh, gold.T, cfg, widths)
        _assert_each_tree_is_the_reference(Xh, list(gold.T), widths, cfg, trees)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_rakel_members_of_120_students(self, criterion, registry, monkeypatch):
        # near-tied windows of two cuts and mixed class counts in one block,
        # where stage 2's rounding, per exact C, picks the cut
        ds = generate_dataset(default_synth_config(n_students=120, seed=9), registry)
        fits = record_fits(monkeypatch)
        train(
            "rakel", ds,
            rakel_config=RakelConfig(seed=9), tree_config=TreeConfig(split_criterion=criterion),
        )
        assert len(fits) == 58
        for X, y, cfg, tree in fits:
            assert tree_to_dict(tree) == reference_grow(X, y, cfg)


class TestBlocks:
    def _blocks(self, X, ys, cfg):
        """The trees, and the (nodes, cells) of each block they were split in."""
        seen = []
        split = tree_module._Forest._split

        def recording(forest, items, pending):
            seen.append((len(items), sum(item.cells.size for item in items)))
            return split(forest, items, pending)

        with mock.patch.object(tree_module._Forest, "_split", recording):
            trees = train_trees(X, ys, cfg)
        return trees, seen

    def test_node_larger_than_a_block(self):
        rng = np.random.default_rng(0)
        X = np.round(rng.normal(size=(200, 150)), 1)
        ys = [rng.integers(0, 3, size=200) for _ in range(2)]
        cfg = TreeConfig(max_depth=2)
        trees, seen = self._blocks(X, ys, cfg)
        assert max(cells for _, cells in seen) > tree_module._BLOCK_CELLS
        _assert_each_tree_is_the_reference(X, ys, None, cfg, trees)

    def test_many_tiny_nodes_share_a_block(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 6, size=(30, 4)).astype(float)
        ys = [rng.integers(0, 4, size=30) for _ in range(40)]
        trees, seen = self._blocks(X, ys, TreeConfig())
        assert max(nodes for nodes, _ in seen) > 50
        _assert_each_tree_is_the_reference(X, ys, None, TreeConfig(), trees)


class TestSkippedWork:
    """Split search skips work whose outcome is already known: each case
    counts the work done, and a grower that did it would fail here."""

    def _searched(self, X, ys, widths=None, cfg=TreeConfig()):
        """The trees, and the (width, rows) of each node searched."""
        seen = []
        split = tree_module._Forest._split

        def recording(forest, items, pending):
            seen.extend(item.cells.shape for item in items)
            return split(forest, items, pending)

        with mock.patch.object(tree_module._Forest, "_split", recording):
            trees = train_trees(X, ys, cfg, widths)
        _assert_each_tree_is_the_reference(X, ys, widths, cfg, trees)
        return seen

    def test_equal_class_codes_search_each_node_once(self):
        rng = np.random.default_rng(4)
        X = np.round(rng.normal(size=(80, 6)), 1)
        y = rng.integers(0, 3, size=80)
        alone = self._searched(X, [y])
        assert len(alone) > 10
        assert self._searched(X, [y, y]) == alone
        assert self._searched(X, [y, 3 * y + 1, y]) == alone

    def test_a_narrower_tree_forks_where_a_later_column_wins(self):
        # only column 3 separates the classes, so the wider tree splits its
        # root on it and stops; the narrower one forks at the root and grows
        # its own tree on columns 0..2
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, size=50)
        X = np.column_stack([rng.integers(0, 4, size=(50, 3)), y + 0.5]).astype(float)
        wide, narrow = self._searched(X, [y], [4]), self._searched(X, [y], [3])
        assert len(wide) == 1 and len(narrow) > 1
        assert sorted(self._searched(X, [y, y], [3, 4])) == sorted(wide + narrow)

    def test_a_repeated_column_is_never_searched(self):
        # columns 3 and 4 repeat 1 and 0 (same order and ties), 5 keeps 2's
        # order but breaks its ties, so it stays
        rng = np.random.default_rng(5)
        X = rng.integers(0, 5, size=(60, 3)).astype(float)
        untied = np.empty(60)
        untied[np.argsort(X[:, 2], kind="stable")] = np.arange(60)
        X = np.column_stack([X, 2 * X[:, 1] + 1, -(-X[:, 0]), untied])
        ys = [rng.integers(0, 3, size=60) for _ in range(3)]
        seen = self._searched(X, ys, [6, 4, 5])
        assert {width for width, _ in seen} == {4, 3}

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_distinct_class_gini_blocks_build_no_keys(self, criterion):
        X, ys, _, cfg = _all_distinct_forest(criterion)
        with mock.patch.object(tree_module, "_cut_keys", wraps=tree_module._cut_keys) as keys:
            trees = train_trees(X, ys, cfg)
        _assert_each_tree_is_the_reference(X, ys, None, cfg, trees)
        # entropy keys differ from cut to cut, so its blocks still rank cuts
        assert (keys.call_count > 0) == (criterion == "entropy")


def _hundred_rows_seven_trees():
    rng = np.random.default_rng(2)
    X = np.round(rng.normal(size=(100, 12)), 1)
    ys = [rng.integers(0, 4, size=100) for _ in range(7)]
    return X, ys, None, TreeConfig()


def _all_distinct_forest(criterion):
    """Four label-powerset-like trees whose 140 classes are all distinct, so
    that every node is a distinct-class node and C > 128 (two leaves of
    numpy's pairwise sum)."""
    rng = np.random.default_rng(3)
    X = np.round(rng.normal(size=(140, 3)), 1)
    ys = [rng.permutation(140) * (t + 1) for t in range(4)]
    return X, ys, None, TreeConfig(split_criterion=criterion)


class TestSameTreeAnywhere:
    @given(forests(), st.integers(2, 4))
    @example(_hundred_rows_seven_trees(), 3)
    @example(_all_distinct_forest("gini"), 2)
    @example(_all_distinct_forest("entropy"), 4)
    def test_alone_in_a_batch_or_on_threads(self, forest, n_jobs):
        X, ys, widths, cfg = forest
        widths = [X.shape[1]] * len(ys) if widths is None else widths
        batch = [tree_to_dict(t) for t in train_trees(X, ys, cfg, widths)]
        threaded = [tree_to_dict(t) for t in train_trees(X, ys, cfg, widths, n_jobs=n_jobs)]
        alone = [tree_to_dict(fit_tree(X[:, :w], y, cfg)) for y, w in zip(ys, widths)]
        assert batch == threaded == alone


class TestInputs:
    def test_no_trees(self):
        assert train_trees([[0.0], [1.0]], []) == []

    @pytest.mark.parametrize("widths", [[1], [1, 3], [2, -1]])
    def test_widths_checked(self, widths):
        with pytest.raises(ValidationError, match="tree widths"):
            train_trees([[0.0, 1.0], [1.0, 0.0]], [[0, 1], [1, 0]], widths=widths)

    def test_every_label_array_matches_the_rows(self):
        with pytest.raises(ValidationError, match="do not match 3 labels"):
            train_trees([[0.0], [1.0]], [[0, 1], [0, 1, 1]])

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_n_jobs_below_one(self, n_jobs):
        with pytest.raises(ValidationError, match=f"n_jobs must be >= 1, got {n_jobs}"):
            train_trees([[0.0], [1.0]], [[0, 1]], n_jobs=n_jobs)
