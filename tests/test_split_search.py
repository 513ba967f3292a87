"""Split search against the dense reference splitter: same cut, same tie choice, less memory.

The per-node splitter ``node_best_split`` and the root split of
``rakelgen.tree.train_trees`` are checked against the dense one node by node;
whole trees of ``rakelgen.tree`` are checked against trees grown node by node
with the dense splitter."""

from __future__ import annotations

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import fit_tree, train
from _reference_split import mask_sides, node_best_split, reference_best_split
from _reference_tree import record_fits, reference_grow
from rakelgen import tree as tree_module
from rakelgen.errors import LabelCoverageWarning
from rakelgen.mlc import RakelConfig
from rakelgen.tree import TreeConfig, _Block, _Forest, _Pending, train_trees, tree_to_dict

CRITERIA = ("gini", "entropy")


def _assert_same_split(X, codes, n_classes, cfg):
    """The per-node splitter and the production search (the root of a
    one-split ``fit_tree``) both pick the dense splitter's cut."""
    X = np.asarray(X, dtype=float)
    codes = np.asarray(codes, dtype=np.intp)
    assert node_best_split(X, codes, n_classes, cfg) == reference_best_split(
        X, codes, n_classes, cfg
    )
    # train_trees encodes only the classes present, and a pure node is a leaf
    present, compact = np.unique(codes, return_inverse=True)
    expected = None
    if len(present) > 1:
        expected = reference_best_split(X, compact, len(present), cfg)
    tree = fit_tree(
        X,
        codes,
        TreeConfig(
            max_depth=1,
            min_samples_leaf=cfg.min_samples_leaf,
            split_criterion=cfg.split_criterion,
        ),
    )
    root = None if tree.feature[0] < 0 else (int(tree.feature[0]), float(tree.threshold[0]))
    assert root == expected


@st.composite
def nodes(draw):
    """Small nodes with duplicate and constant columns, sparse class ids and spare classes."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 6))
    X = draw(
        st.lists(
            st.lists(st.integers(0, levels - 1), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    present = draw(st.integers(1, n))
    codes = draw(st.lists(st.integers(0, present - 1), min_size=n, max_size=n))
    n_classes = present + draw(st.integers(0, 3))
    cfg = TreeConfig(
        min_samples_leaf=draw(st.integers(1, 3)),
        split_criterion=draw(st.sampled_from(CRITERIA)),
    )
    return X, codes, n_classes, cfg


class TestAgainstReference:
    @given(nodes())
    def test_random_nodes(self, node):
        _assert_same_split(*node)

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("msl", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_nodes(self, seed, msl, criterion):
        rng = np.random.default_rng(seed)
        cfg = TreeConfig(min_samples_leaf=msl, split_criterion=criterion)
        for _ in range(25):
            n = int(rng.integers(2, 80))
            d = int(rng.integers(1, 6))
            X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
            n_present = int(rng.integers(1, n + 1))
            codes = rng.integers(0, n_present, size=n)
            _assert_same_split(X, codes, n_present + int(rng.integers(0, 3)), cfg)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_xor(self, criterion):
        X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        _assert_same_split(X, [0, 1, 1, 0], 2, TreeConfig(split_criterion=criterion))

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_constant_columns(self, criterion):
        cfg = TreeConfig(split_criterion=criterion)
        X = np.ones((6, 3))
        codes = np.array([0, 1, 0, 1, 0, 1])
        assert node_best_split(X, codes, 2, cfg) is None
        _assert_same_split(X, codes, 2, cfg)
        X[:, 2] = [3, 1, 2, 2, 1, 3]
        _assert_same_split(X, [0, 1, 0, 1, 0, 1], 2, cfg)

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("msl", [1, 2, 3])
    def test_every_cut_ties(self, criterion, msl):
        # With every class distinct, the Gini key is 2 at every cut, so the
        # dense formula's rounding alone picks the cut.
        rng = np.random.default_rng(msl)
        n, d = 90, 6
        X = rng.normal(size=(n, d))
        _assert_same_split(
            X, rng.permutation(n), n, TreeConfig(min_samples_leaf=msl, split_criterion=criterion)
        )

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("n, n_present", [(300, 300), (300, 200), (260, 140)])
    def test_more_than_128_classes(self, criterion, n, n_present):
        # numpy's pairwise sum recurses above 128 terms per row
        rng = np.random.default_rng(n + n_present)
        X = np.round(rng.normal(size=(n, 4)), 1)
        codes = rng.permutation(n) % n_present
        _assert_same_split(X, codes, n_present + 1, TreeConfig(split_criterion=criterion))


class TestWholeTrees:
    @pytest.fixture(params=["ds37", "ds100"])
    def ds(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize(
        "cfg",
        [
            TreeConfig(),
            TreeConfig(split_criterion="entropy"),
            TreeConfig(max_depth=4, min_samples_leaf=2),
        ],
    )
    def test_lp_tree_and_rakel_members(self, ds, cfg, monkeypatch):
        fits = record_fits(monkeypatch)
        train("lp", ds, tree_config=cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelCoverageWarning)
            train("rakel", ds, rakel_config=RakelConfig(k=3, m=4, seed=1), tree_config=cfg)
        assert len(fits) == 1 + 4
        for X, y, config, tree in fits:
            assert tree_to_dict(tree) == reference_grow(X, y, config, reference_best_split)


def test_memory_does_not_grow_with_class_count():
    # An all-distinct-class node: the dense search holds (n, d, C) float arrays.
    n = n_classes = 400
    d = 20
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, d))
    codes = rng.permutation(n)
    tracemalloc.start()
    try:
        fit_tree(X, codes, TreeConfig(max_depth=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * n_classes * 8 / 8


@st.composite
def distinct_forests(draw):
    """Feature rows with tied values and, for one call, label arrays whose
    classes are all distinct (C = n), nearly distinct, or few: distinct-class
    nodes then share blocks with nodes scored from class counts. The sizes put
    C on both sides of 128 (numpy's pairwise sum recurses above 128 terms) and
    of 256 (class codes and row places no longer fit one byte)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([3, 17, 120, 135, 250, 262]))
    d = draw(st.integers(1, 3))
    levels = draw(st.sampled_from([3, 40, 10**6]))
    X = rng.integers(0, levels, size=(n, d)).astype(float)
    kinds = draw(
        st.lists(st.sampled_from(["distinct", "near", "few"]), min_size=1, max_size=3)
        .filter(lambda kinds: "distinct" in kinds)
    )
    ys = []
    for kind in kinds:
        if kind == "distinct":
            ys.append(rng.permutation(n) * 3 - 5)
        elif kind == "near":
            ys.append(rng.integers(0, max(1, n - n // 8), size=n))
        else:
            ys.append(rng.integers(0, 3, size=n))
    cfg = TreeConfig(
        min_samples_leaf=draw(st.integers(1, 3)),
        split_criterion=draw(st.sampled_from(CRITERIA)),
    )
    return X, ys, cfg


class TestDistinctClassNodes:
    """Stage 2 scores a node in which every class occurs at most once from 0/1
    class masks, without counts; the trees equal those of the dense splitter."""

    @settings(max_examples=25)
    @given(
        distinct_forests(),
        st.sampled_from([1, 300, 24_576]),
        st.sampled_from([1, 7, 1 << 15]),
    )
    def test_whole_trees_match_the_dense_reference(self, forest, block_cells, chunk_cells):
        X, ys, cfg = forest
        with mock.patch.object(tree_module, "_BLOCK_CELLS", block_cells), \
                mock.patch.object(tree_module, "_CHUNK_CELLS", chunk_cells):
            trees = train_trees(X, ys, cfg)
        for y, tree in zip(ys, trees):
            assert tree_to_dict(tree) == reference_grow(X, y, cfg, reference_best_split)

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("n", [60, 300])
    def test_all_distinct_labels_build_no_class_counts(self, criterion, n):
        rng = np.random.default_rng(n)
        X = np.round(rng.normal(size=(n, 4)), 1)
        y = rng.permutation(n)
        cfg = TreeConfig(split_criterion=criterion)

        def no_counts(*args):
            raise AssertionError("a distinct-class node built class counts")

        with mock.patch.object(tree_module, "_left_counts", no_counts):
            tree = fit_tree(X, y, cfg)
        assert tree_to_dict(tree) == reference_grow(X, y, cfg, reference_best_split)


def test_memory_of_a_whole_lp_tree_does_not_grow_with_class_count():
    # C = n = 300 > 256: two-byte class codes and row places, every node distinct
    n = n_classes = 300
    d = 20
    rng = np.random.default_rng(1)
    X = rng.normal(size=(n, d))
    codes = rng.permutation(n)
    tracemalloc.start()
    try:
        tree = fit_tree(X, codes, TreeConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.label) == 2 * n - 1
    assert peak < n * d * n_classes * 8 / 8


def test_memory_of_a_wide_lp_tree_with_few_cuts_a_row():
    # C = n = 1,500 with values of one decimal: about 60 valid cuts a sorted
    # row, so stage 2's parts span many rows of up to n cells. Split search
    # holds up to _WAVE_BLOCKS blocks of pending cells and one block's stage-1
    # arrays, about 5 MB here; counts of every group at every place of a
    # part's rows (rows x n x C / 11) would add about 16 MB.
    n = 1500
    rng = np.random.default_rng(0)
    X = np.round(rng.normal(size=(n, 4)), 1)
    tracemalloc.start()
    try:
        tree = fit_tree(X, rng.permutation(n), TreeConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.label) > 1.99 * n  # a few rows repeat on all four columns
    assert peak < 8_000_000


@st.composite
def distinct_blocks(draw, n_classes, criterion):
    """A block of distinct-class nodes of one tree with C classes (the root,
    C rows, and random subsets of its rows) and cuts of its sorted rows in
    row order, split into parts at random places, so parts split rows. Cuts
    after the first and before the last cell give sides of one row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = n_classes, draw(st.integers(1, 3))
    X = rng.integers(0, 5, size=(n, d)).astype(float)
    XT = np.full((d, n + 1), np.nan)
    XT[:, :n] = X.T
    order = np.argsort(X.T, axis=1, kind="stable").astype(np.int32)
    encoded = [np.unique(rng.permutation(n), return_inverse=True)]
    forest = _Forest(
        XT, order, list(range(d)), encoded, [d], [d], [[0]], TreeConfig(split_criterion=criterion)
    )
    items = []
    for node in range(draw(st.integers(1, 4))):
        keep = np.ones(n, dtype=bool) if node == 0 else rng.random(n) < rng.random()
        cells = np.array([row[keep[row]] for row in order])
        counts = np.bincount(encoded[0][1][keep], minlength=forest.pad)
        items.append(_Pending([(0, node)], 0, 0, cells, counts))
    block = _Block(forest, items)
    rows, cuts = [], []
    for r, size in enumerate(block.sizes[block.node].tolist()):
        if size > 1:
            at = np.flatnonzero(rng.random(size - 1) < min(1.0, 40 / size))
            at = np.union1d(at, [0, size - 2][: draw(st.integers(0, 2))])
            rows += [r] * at.size
            cuts += at.tolist()
    bounds = sorted(draw(st.lists(st.integers(0, len(cuts)), max_size=4)))
    rows, cuts = np.array(rows, dtype=np.intp), np.array(cuts, dtype=np.intp)
    return forest, block, rows, cuts, bounds


@pytest.mark.parametrize("k", [1, 3])
def test_sum_plan_is_numpys_summation_order(k):
    # The distinct-class scorer relies on this order to grow the trees the
    # dense formula grows; a numpy that sums in another order fails here.
    rng = np.random.default_rng(k)
    for n in range(1, 1101):
        group, tree, leaves, tails = tree_module._sum_plan(n)
        a = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-3, 4, size=(k, n))
        acc, tail = np.zeros((8, leaves, k)), np.zeros((max(tails, 1), leaves, k))
        for leaf in range(leaves):
            for j in range(8):
                terms = a[:, group == j * leaves + leaf]
                if terms.size:  # added in order, as an accumulator adds them
                    acc[j, leaf] = np.add.accumulate(terms, axis=1)[:, -1]
            terms = a[:, group == 8 * leaves + leaf]
            tail[: terms.shape[1], leaf] = terms.T
        got, want = tree_module._plan_sum(tree, acc, tail), np.add.reduce(a, axis=-1)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (
            f"numpy {np.__version__} sums a row of {n} floats in an order other "
            "than tree._sum_plan, so distinct-class trees would differ"
        )


class TestDistinctSides:
    """``_distinct_sides`` sums each side's class terms in numpy's pairwise
    order from group counts; ``mask_sides`` has numpy sum the (k, C) terms
    itself. Their impurities must agree to the bit, signed zeros included."""

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize(
        # leaves of 1..9 terms, around 8 and 16, either side of 128 (a split)
        # and 256 (two-byte codes), and several levels of halves
        "n_classes", [*range(1, 10), 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 520, 1030]
    )
    @settings(max_examples=6)
    @given(data=st.data())
    def test_equal_to_numpy_summing_the_masks(self, n_classes, criterion, data):
        forest, block, rows, cuts, bounds = data.draw(distinct_blocks(n_classes, criterion))
        for lo, hi in zip([0, *bounds], [*bounds, cuts.size]):
            if lo == hi:
                continue
            got = tree_module._distinct_sides(
                block, rows[lo:hi], cuts[lo:hi], n_classes, criterion, forest.repeats
            )
            want = mask_sides(block, rows[lo:hi], cuts[lo:hi], n_classes, criterion)
            for side, expected in zip(got, want):
                assert side.view(np.int64).tolist() == expected.view(np.int64).tolist()
