"""Flat-array trees: growth against the recursive reference, stacked descent,
trees deeper than Python's recursion limit, and artifact validation."""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _reference_predict import reference_descent
from _reference_tree import record_fits, reference_grow
from rakelgen.cli import main
from rakelgen.domain import save_dataset
from rakelgen.errors import LabelCoverageWarning, ValidationError
from rakelgen.mlc import (
    LpPayload,
    RakelConfig,
    TrainedModel,
    predict_batch,
    train_binary_relevance,
    train_chain,
    train_lp,
    train_majority,
    train_rakel,
)
from rakelgen.model_io import load_model, model_from_dict, model_to_dict, save_model
from rakelgen.synth import default_synth_config, generate_dataset
from rakelgen.tree import (
    NODE_ARRAYS,
    DecisionTree,
    TreeConfig,
    descend,
    stack_trees,
    train_tree,
    tree_from_dict,
    tree_stats,
    tree_to_dict,
)

CRITERIA = ("gini", "entropy")


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelCoverageWarning)
        return fn(*args)


@st.composite
def datasets(draw):
    """Small datasets with tied values, a constant column and few classes."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 5))
    X = np.array(
        draw(st.lists(st.lists(st.integers(0, levels - 1), min_size=d, max_size=d),
                      min_size=n, max_size=n)),
        dtype=float,
    )
    if draw(st.booleans()):
        X = np.hstack([X, np.full((n, 1), 2.5)])
    y = draw(st.lists(st.integers(0, draw(st.integers(0, 5))), min_size=n, max_size=n))
    cfg = TreeConfig(
        max_depth=draw(st.sampled_from([None, 1, 2, 4])),
        min_samples_leaf=draw(st.integers(1, 3)),
        split_criterion=draw(st.sampled_from(CRITERIA)),
    )
    return X, y, cfg


class TestGrowthAgainstReference:
    @given(datasets())
    def test_random_datasets(self, data):
        X, y, cfg = data
        assert tree_to_dict(train_tree(X, y, cfg)) == reference_grow(X, y, cfg)

    @pytest.mark.parametrize("name", ["ds37", "ds100"])
    def test_every_tree_of_every_strategy(self, name, request, monkeypatch):
        """Each tree that BR, the chain, LP and the RAkEL members train equals
        the recursive reference grown on the same inputs."""
        ds = request.getfixturevalue(name)
        fits = record_fits(monkeypatch)
        train_binary_relevance(ds, TreeConfig(split_criterion="entropy"))
        train_chain(ds, TreeConfig(min_samples_leaf=2))
        train_lp(ds)
        _quiet(train_rakel, ds, RakelConfig(k=3, seed=1), TreeConfig(max_depth=6))
        assert len(fits) == 29 + 29 + 1 + 58
        for X, y, config, tree in fits:
            assert tree_to_dict(tree) == reference_grow(X, y, config)

    def test_node_counts_and_labels(self):
        X = [[0.0], [1.0], [2.0], [3.0]]
        tree = train_tree(X, [4, 4, 9, 9])
        assert np.bincount(descend(stack_trees([tree]), X)[:, 0]).tolist() == [0, 2, 2]
        assert tree.label.tolist() == [4, 4, 9]  # the root's label is its majority, ties low
        assert tree.left.tolist() == [1, -1, -1]
        assert tree.right.tolist() == [2, -1, -1]

    def test_arrays_are_read_only(self):
        tree = train_tree([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError):
            tree.threshold[0] = 5.0


class TestStackedDescent:
    @given(st.lists(datasets(), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_equals_per_tree_walk(self, sets, seed):
        width = max(X.shape[1] for X, _, _ in sets)
        trees = []
        for X, y, cfg in sets:
            padded = np.hstack([X, np.zeros((len(X), width - X.shape[1]))])
            trees.append(train_tree(padded, y, cfg))
        stack = stack_trees(trees)
        queries = np.random.default_rng(seed).integers(-1, 6, size=(25, width)) / 2
        leaves = descend(stack, queries)
        assert leaves.shape == (25, len(trees))
        assert (stack.feature[leaves] == -1).all()
        for t, tree in enumerate(trees):
            expected = [reference_descent(tree, row) for row in queries]
            assert stack.label[leaves[:, t]].tolist() == expected

    def test_one_tree_stacks_to_itself(self):
        tree = train_tree([[0.0, 2.0], [1.0, 0.0], [2.0, 1.0], [3.0, 3.0]], [0, 1, 2, 1])
        stacked = stack_trees([tree])
        assert stacked.roots.tolist() == tree.roots.tolist() == [0]
        assert stacked.n_features == tree.n_features == 2
        for name in (*NODE_ARRAYS, "roots"):
            ours, theirs = getattr(stacked, name), getattr(tree, name)
            assert ours.dtype == theirs.dtype
            assert ours.tolist() == theirs.tolist()
            assert not ours.flags.writeable

    def test_mixed_widths_rejected(self):
        a = train_tree([[0.0], [1.0]], [0, 1])
        b = train_tree([[0.0, 1.0], [1.0, 0.0]], [0, 1])
        with pytest.raises(ValidationError, match="feature widths"):
            stack_trees([a, b])


def _chain_tree(depth: int, n_features: int) -> DecisionTree:
    """Split k (node 2k) sends x[0] <= k + 0.5 to leaf 2k+1 with label k % 2
    and the rest on to split k + 1; the last node is a leaf with label depth % 2."""
    k = np.arange(depth)
    feature = np.full(2 * depth + 1, -1)
    feature[2 * k] = 0
    threshold = np.zeros(2 * depth + 1)
    threshold[2 * k] = k + 0.5
    left = np.full(2 * depth + 1, -1)
    left[2 * k] = 2 * k + 1
    right = np.full(2 * depth + 1, -1)
    right[2 * k] = 2 * k + 2
    label = np.arange(2 * depth + 1) // 2 % 2
    return DecisionTree(feature, threshold, left, right, label, n_features)


class TestDeepTrees:
    def test_hand_built_chain_round_trips(self, registry, tmp_path):
        depth = 5_000
        n_features = 9 * (5 + 10)
        payload = LpPayload(
            tree=_chain_tree(depth, n_features),
            classes=(frozenset(), frozenset({0, 28})),
            scope=tuple(range(29)),
        )
        model = TrainedModel(registry.version, 29, 10, "both", payload)
        path = tmp_path / "deep.json"
        save_model(model, registry, path)
        loaded = load_model(path, registry)
        assert tree_stats(loaded.payload.tree) == {
            "nodes": 2 * depth + 1, "leaves": depth + 1, "depth": depth
        }
        save_model(loaded, registry, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        X = np.zeros((6, n_features))
        X[:, 0] = [0.0, 1.0, 2_500.0, depth - 1, depth, 1e9]
        bits, _ = predict_batch(loaded, X)
        reached = [int(min(v, depth)) % 2 for v in X[:, 0]]
        assert bits[:, 0].tolist() == reached
        assert bits[:, 28].tolist() == reached
        assert not bits[:, 1:28].any()
        assert reached == [reference_descent(loaded.payload.tree, row) for row in X]

    def test_training_does_not_recurse_per_level(self):
        # alternating labels on one feature: every split peels off one row
        n = 600
        X = np.arange(n, dtype=float).reshape(-1, 1)
        y = np.arange(n) % 2
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(_frames()) + 150)
        try:
            with pytest.raises(RecursionError):
                reference_grow(X, y)
            tree = train_tree(X, y)
            stats = tree_stats(tree)
        finally:
            sys.setrecursionlimit(limit)
        assert stats["depth"] == n - 1
        assert (descend(stack_trees([tree]), X)[:, 0] >= 0).all()
        assert tree_to_dict(tree) == reference_grow(X, y)


def _frames() -> list:
    frame, frames = sys._getframe(), []
    while frame is not None:
        frames.append(frame)
        frame = frame.f_back
    return frames


class TestArtifactChecks:
    def _rejects_version(self, version, ds37, registry, tmp_path):
        path = tmp_path / "model.json"
        save_model(train_majority(ds37), registry, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["format_version"] = version
        path.write_text(json.dumps(data), encoding="utf-8")
        data_path = tmp_path / "data.jsonl"
        save_dataset(ds37, data_path)
        code, stderr = _feedback(data_path, path)
        assert code == 2
        assert f"unsupported model format version '{version}'; expected '4'" in stderr

    def test_v1_artifact_rejected(self, ds37, registry, tmp_path):
        self._rejects_version("1", ds37, registry, tmp_path)

    def test_v2_artifact_rejected(self, ds37, registry, tmp_path):
        self._rejects_version("2", ds37, registry, tmp_path)

    def test_v3_artifact_rejected(self, ds37, registry, tmp_path):
        self._rejects_version("3", ds37, registry, tmp_path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda t: t["left"].__setitem__(0, 0), "'left' 0 must lie between"),
            (lambda t: t["right"].__setitem__(0, 10**6), "'right' 1000000 must lie between"),
            (lambda t: t["right"].__setitem__(0, t["left"][0]), "is the child of 2 nodes"),
            (lambda t: t["label"].pop(), "non-empty lists of one length"),
            (lambda t: t["feature"].__setitem__(t["left"].index(-1), 3), "so its 'feature'"),
            (lambda t: t["left"].__setitem__(0, 1.5), "'left' must hold integers"),
        ],
        ids=["cycle", "out-of-range", "shared-child", "length", "leaf-feature", "float-index"],
    )
    def test_structure(self, mutate, message):
        data = tree_to_dict(train_tree([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1]))
        mutate(data)
        with pytest.raises(ValidationError, match=message):
            tree_from_dict(data)

    def test_per_label_tree_labels_are_bits(self, ds37, registry):
        data = model_to_dict(train_binary_relevance(ds37), registry)
        data["payload"]["trees"][2]["label"][0] = 2
        with pytest.raises(ValidationError, match="'label' 2 does not index the 2 bit values"):
            model_from_dict(data, registry)


def _feedback(data_path, model_path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["feedback", "--data", str(data_path), "--model", str(model_path)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_base(registry, tmp_path_factory):
    """A 12-student cohort and the artifacts of a small RAkEL and a BR model."""
    work = tmp_path_factory.mktemp("fuzz")
    ds = generate_dataset(default_synth_config(n_students=12, weeks=4, seed=3), registry)
    save_dataset(ds, work / "data.jsonl")
    rakel = _quiet(train_rakel, ds, RakelConfig(k=3, m=4, seed=0))
    br = train_binary_relevance(ds, TreeConfig(max_depth=3))
    return work, {
        "rakel": model_to_dict(rakel, registry),
        "br": model_to_dict(br, registry),
    }


@st.composite
def mutations(draw, artifacts):
    """A copy of one artifact with one tree field made invalid, and a description."""
    strategy = draw(st.sampled_from(sorted(artifacts)))
    data = copy.deepcopy(artifacts[strategy])
    body = data["payload"]
    if strategy == "rakel":
        member = draw(st.sampled_from(body["members"]))
        tree, n_classes = member["tree"], len(member["classes"])
    else:
        tree, n_classes = draw(st.sampled_from(body["trees"])), 2
    n_nodes, n_features = len(tree["label"]), tree["n_features"]
    node = draw(st.integers(0, n_nodes - 1))
    is_split = tree["feature"][node] >= 0
    kind = draw(st.sampled_from(["child", "length", "feature", "threshold", "label", "type"]))
    if kind == "child":
        # every non-root node has one parent, so any other child index breaks the tree
        name = draw(st.sampled_from(["left", "right"]))
        value = draw(st.one_of(st.integers(-3, n_nodes + 3), st.just(2**70)))
        if value == tree[name][node]:
            value = n_nodes
    elif kind == "length":
        name = draw(st.sampled_from(["feature", "threshold", "left", "right", "label"]))
        if draw(st.booleans()):
            tree[name].append(tree[name][-1])
        else:
            tree[name].pop()
        return data, f"{strategy} {name} length"
    elif kind == "feature":
        name = "feature"
        if is_split:
            value = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=n_features)))
        else:
            value = draw(st.integers(-5, n_features + 5).filter(lambda v: v != -1))
    elif kind == "threshold":
        name = "threshold"
        value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf"), "x", None, [1.0]]))
    elif kind == "label":
        name = "label"
        value = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=n_classes)))
    else:
        name = draw(st.sampled_from(["feature", "threshold", "left", "right", "label"]))
        tree[name] = draw(st.sampled_from(["abc", 7, {}, None, [[0]]]))
        return data, f"{strategy} {name} replaced"
    tree[name][node] = value
    return data, f"{strategy} node {node} {name} = {value!r}"


def test_fuzzed_artifacts_exit_2(fuzz_base):
    work, artifacts = fuzz_base

    @given(mutations(artifacts))
    def check(mutation):
        data, what = mutation
        path = work / "mutated.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, stderr = _feedback(work / "data.jsonl", path)
        assert code == 2, (what, stderr)
        assert "validation error" in stderr

    check()


CHAINS = {"chain-predicted", "chain-real"}

#: Values that replace an envelope field: wrong types, out-of-range numbers, NaN.
RETYPES = ["abc", 7, 7.5, -1, 2**70, float("nan"), True, None, [], [[0]], {}]


@pytest.fixture(scope="module")
def envelope_base(registry, tmp_path_factory):
    """A 12-student labeled cohort and the artifacts of all six strategies."""
    work = tmp_path_factory.mktemp("envelope")
    ds = generate_dataset(default_synth_config(n_students=12, weeks=4, seed=3), registry)
    save_dataset(ds, work / "data.jsonl")
    cfg = TreeConfig(max_depth=3)
    models = {
        "br": train_binary_relevance(ds, cfg),
        "chain-predicted": train_chain(ds, cfg, history="predicted"),
        "chain-real": train_chain(ds, cfg, history="real"),
        "majority": train_majority(ds),
        "lp": train_lp(ds, cfg),
        "rakel": _quiet(train_rakel, ds, RakelConfig(k=3, m=4, seed=0), cfg),
    }
    return work, {name: model_to_dict(model, registry) for name, model in models.items()}


@st.composite
def envelope_mutations(draw, artifacts):
    """A copy of one artifact with its strategy relabelled, or one key of the
    top level, ``strategy_config`` or ``payload`` deleted or retyped; the
    description, and whether the relabel makes another valid artifact."""
    strategy = draw(st.sampled_from(sorted(artifacts)))
    data = copy.deepcopy(artifacts[strategy])
    kind = draw(st.sampled_from(["relabel", "delete", "retype"]))
    if kind == "relabel":
        other = draw(st.sampled_from(sorted(set(artifacts) - {strategy})))
        data["strategy"] = other
        return data, f"{strategy} relabelled {other}", {strategy, other} == CHAINS
    levels = [level for level in (data, data["strategy_config"], data["payload"]) if level]
    level = draw(st.sampled_from(levels))
    key = draw(st.sampled_from(sorted(level)))
    if kind == "delete":
        del level[key]
        return data, f"{strategy} without {key}", None
    level[key] = draw(st.sampled_from(RETYPES))
    return data, f"{strategy} {key} = {level[key]!r}", None


def test_fuzzed_envelopes_never_exit_1(envelope_base):
    work, artifacts = envelope_base

    @given(envelope_mutations(artifacts))
    def check(mutation):
        data, what, valid_relabel = mutation
        path = work / "mutated.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, stderr = _feedback(work / "data.jsonl", path)
        assert code in (0, 2), (what, stderr)
        if code == 2:
            assert "validation error" in stderr, (what, stderr)
        if valid_relabel is not None:
            assert code == (0 if valid_relabel else 2), (what, stderr)

    check()


def test_relabelled_envelopes_exit_2_except_chains(envelope_base):
    """Every strategy relabelled as every other: only the two chain strategies,
    which share a payload, load as each other."""
    work, artifacts = envelope_base
    path = work / "relabelled.json"
    for strategy, other in itertools.permutations(sorted(artifacts), 2):
        data = dict(artifacts[strategy], strategy=other)
        path.write_text(json.dumps(data), encoding="utf-8")
        code, stderr = _feedback(work / "data.jsonl", path)
        assert code == (0 if {strategy, other} == CHAINS else 2), (strategy, other, stderr)
