"""Split search against the dense reference splitter: same cut, same tie choice, less memory.

The per-node splitter ``node_best_split`` and the root split of
``rakelgen.tree.train_trees`` are checked against the dense one node by node;
whole trees of ``rakelgen.tree`` are checked against trees grown node by node
with the dense splitter."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _builders import fit_tree
from _reference_split import node_best_split, reference_best_split
from _reference_tree import record_fits, reference_grow
from rakelgen.errors import LabelCoverageWarning
from rakelgen.mlc import RakelConfig, train_lp, train_rakel
from rakelgen.tree import TreeConfig, tree_to_dict

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
        train_lp(ds, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelCoverageWarning)
            train_rakel(ds, RakelConfig(k=3, m=4, seed=1), cfg)
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
