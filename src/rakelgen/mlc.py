"""Multi-label classification strategies over the template label space.

Five strategies share one trained-model container:

* ``br`` — one independent binary tree per label.
* ``chain-predicted`` / ``chain-real`` — sequential per-label trees whose
  inputs include the earlier labels' values; trained with gold history
  (teacher forcing), differing only in whether prediction feeds back its own
  outputs or the supplied gold bits.
* ``majority`` — a constant prediction from training-label frequencies.
* ``lp`` — label powerset: one multi-class tree over the distinct observed
  label combinations.
* ``rakel`` — an ensemble of LP models over random k-subsets of the labels,
  combined by thresholded vote averaging.

Everything is deterministic given (dataset, configs, seeds): every tree of a
``fit`` call grows in one ``train_trees`` call, in one thread.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .domain import Dataset, json_int, json_list, json_number, json_object
from .errors import LabelCoverageWarning, ValidationError
from .tree import (
    DecisionTree, TreeConfig, descend, stack_trees, train_trees, tree_from_dict, tree_stats,
    tree_to_dict,
)

MAJORITY_MODES = ("per-label", "labelset")

#: Largest number of k-subsets enumerated outright; beyond this, rejection
#: sampling is used (collisions are then vanishingly rare).
_ENUMERATION_LIMIT = 200_000


@dataclass(frozen=True)
class RakelConfig:
    """Ensemble parameters: subset size k, member count m, vote threshold, seed.

    ``m=None`` resolves to 2x the label count at training time.
    """

    k: int = 3
    m: int | None = None
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.m is not None and self.m < 1:
            raise ValidationError("m must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError("threshold must be in [0, 1]")


# Each payload holds one strategy's trained state and owns its behaviour:
# ``strategy`` (its name), ``predict(X, n_labels, gold) -> (bits, votes)``,
# ``to_dict() -> (strategy_config, body)``, ``KEYS``, the keys of those two
# objects, ``from_dict``, which reads them for ``n_labels`` labels and
# ``n_features`` features, and ``summary()``, the facts that ``rakelgen train``
# prints. Votes are the bits themselves except for RAkEL.


@dataclass(frozen=True)
class BrPayload:
    trees: tuple[DecisionTree, ...]
    _stack: DecisionTree = field(init=False, repr=False, compare=False)

    strategy = "br"
    KEYS = (frozenset(), frozenset({"trees"}))

    def __post_init__(self):
        object.__setattr__(self, "_stack", stack_trees(self.trees))

    def predict(self, X, n_labels, gold):
        bits = self._stack.label[descend(self._stack, X)]
        return bits, bits.astype(float)

    def to_dict(self):
        return {}, {"trees": [tree_to_dict(t) for t in self.trees]}

    @classmethod
    def from_dict(cls, strategy, strategy_config, body, n_labels, n_features):
        return cls(trees=_bit_trees(body["trees"], "br", [n_features] * n_labels))

    def summary(self):
        return _trees_summary(self.trees)


@dataclass(frozen=True)
class ChainPayload:
    trees: tuple[DecisionTree, ...]  # one per chain position
    order: tuple[int, ...]  # permutation of label indices
    history: str  # "predicted" | "real"
    KEYS = (frozenset({"order"}), frozenset({"trees"}))

    @property
    def strategy(self):
        return f"chain-{self.history}"

    def predict(self, X, n_labels, gold):
        """Position by position over all rows; ``gold`` holds a chain-real
        model's history bits, else each position reads the earlier outputs."""
        n, d = X.shape
        bits = np.zeros((n, n_labels), dtype=int)
        # columns after the features hold the history bits, in chain order
        Xh = np.empty((n, d + n_labels))
        Xh[:, :d] = X
        for p, tree in enumerate(self.trees):
            label = self.order[p]
            bits[:, label] = tree.label[descend(tree, Xh[:, : d + p])[:, 0]]
            Xh[:, d + p] = bits[:, label] if gold is None else gold[:, label]
        return bits, bits.astype(float)

    def to_dict(self):
        return {"order": list(self.order)}, {"trees": [tree_to_dict(t) for t in self.trees]}

    @classmethod
    def from_dict(cls, strategy, strategy_config, body, n_labels, n_features):
        order = tuple(json_list(strategy_config["order"], "chain 'order'", json_int))
        if sorted(order) != list(range(n_labels)):
            raise ValidationError(f"chain 'order' must be a permutation of 0..{n_labels - 1}")
        # position p reads the features and the bits of the p positions before it
        trees = _bit_trees(body["trees"], "chain", range(n_features, n_features + n_labels))
        return cls(trees=trees, order=order, history=strategy.removeprefix("chain-"))

    def summary(self):
        return _trees_summary(self.trees)


@dataclass(frozen=True)
class MajorityPayload:
    bits: tuple[int, ...]

    strategy = "majority"
    KEYS = (frozenset(), frozenset({"bits"}))

    def predict(self, X, n_labels, gold):
        bits = np.zeros((len(X), n_labels), dtype=int)
        bits[:] = self.bits
        return bits, bits.astype(float)

    def to_dict(self):
        return {}, {"bits": list(self.bits)}

    @classmethod
    def from_dict(cls, strategy, strategy_config, body, n_labels, n_features):
        bits = tuple(json_list(body["bits"], "majority 'bits'", json_int))
        if len(bits) != n_labels:
            raise ValidationError(f"model has {len(bits)} 'bits' for {n_labels} labels")
        bad = [b for b in bits if b not in (0, 1)]
        if bad:
            raise ValidationError(f"majority 'bits' must be 0 or 1, got {bad[0]!r}")
        return cls(bits=bits)

    def summary(self):
        return {"set bits": sum(self.bits)}


@dataclass(frozen=True)
class LpPayload:
    tree: DecisionTree
    classes: tuple[frozenset[int], ...]  # class id -> set of label indices
    scope: tuple[int, ...]  # label indices this model decides

    strategy = "lp"
    KEYS = (frozenset(), frozenset({"tree", "classes", "scope"}))

    def predict(self, X, n_labels, gold):
        leaves = descend(self.tree, X)[:, 0]
        bits = _labelset_table(self, n_labels).astype(int)[self.tree.label[leaves]]
        return bits, bits.astype(float)

    def to_dict(self):
        return {}, {
            "tree": tree_to_dict(self.tree),
            "classes": [sorted(c) for c in self.classes],
            "scope": list(self.scope),
        }

    @classmethod
    def from_dict(cls, strategy, strategy_config, body, n_labels, n_features, name="lp"):
        """``name`` names the body: "lp", or a RAkEL member."""
        body = json_object(body, name, cls.KEYS[1])
        scope = tuple(json_list(body["scope"], f"{name} 'scope'", json_int))
        if len(set(scope)) != len(scope) or not all(0 <= j < n_labels for j in scope):
            raise ValidationError(
                f"{name} 'scope' {list(scope)} must hold distinct label indices below {n_labels}"
            )
        ints = lambda entry, entry_name: json_list(entry, entry_name, json_int)
        classes = json_list(body["classes"], f"{name} 'classes'", ints)
        for labels in classes:  # as ``to_dict`` writes them: sorted, each once
            if labels != sorted(set(labels) & set(scope)):
                raise ValidationError(
                    f"{name} 'classes' entry {labels} is not a subset of 'scope' "
                    f"{list(scope)} in increasing order"
                )
        tree = tree_from_dict(body["tree"], n_features, len(classes), f"{name} 'tree'")
        return cls(tree=tree, classes=tuple(map(frozenset, classes)), scope=scope)

    def summary(self):
        stats = tree_stats(self.tree)
        return {"classes": len(self.classes), "nodes": stats["nodes"], "depth": stats["depth"]}


@dataclass(frozen=True)
class RakelPayload:
    """Members and vote threshold, plus what prediction reads, built once: the
    members' stacked trees, each stacked node's 0/1 vote per label
    (``_votes``), and the number of members covering each label
    (``_coverage``). Both tables stop at the highest label index in any scope.
    The member count m and subset size k are the members' own."""

    members: tuple[LpPayload, ...]
    threshold: float
    _stack: DecisionTree = field(init=False, repr=False, compare=False)
    _votes: np.ndarray = field(init=False, repr=False, compare=False)
    _coverage: np.ndarray = field(init=False, repr=False, compare=False)

    strategy = "rakel"
    KEYS = (frozenset({"threshold"}), frozenset({"members"}))

    def __post_init__(self):
        scopes = [j for member in self.members for j in member.scope]
        width = max(scopes, default=-1) + 1
        votes = [_labelset_table(m, width)[m.tree.label] for m in self.members]
        object.__setattr__(self, "_stack", stack_trees([m.tree for m in self.members]))
        object.__setattr__(self, "_votes", np.concatenate(votes))
        object.__setattr__(self, "_coverage", np.bincount(scopes, minlength=width))

    def predict(self, X, n_labels, gold):
        """Bit j is 1 iff the mean vote of the members covering label j is
        strictly above the threshold; labels covered by no member stay 0."""
        leaves = descend(self._stack, X)  # (n, members)
        width = len(self._coverage)
        votes = np.zeros((len(X), n_labels))
        # vote sums and counts are small integers, so each mean is one rounding
        np.divide(
            self._votes[leaves].sum(axis=1),
            self._coverage,
            out=votes[:, :width],
            where=self._coverage > 0,
        )
        return (votes > self.threshold).astype(int), votes

    def to_dict(self):
        return {"threshold": self.threshold}, {"members": [m.to_dict()[1] for m in self.members]}

    @classmethod
    def from_dict(cls, strategy, strategy_config, body, n_labels, n_features):
        threshold = json_number(strategy_config["threshold"], "rakel 'threshold'")
        if not 0.0 <= threshold <= 1.0:  # NaN fails this too
            raise ValidationError(f"rakel 'threshold' {threshold} must be in [0, 1]")
        members = tuple(
            LpPayload.from_dict("lp", {}, member, n_labels, n_features, f"rakel 'members'[{i}]")
            for i, member in enumerate(json_list(body["members"], "rakel 'members'"))
        )
        if not members:
            raise ValidationError("rakel 'members' must not be empty")
        return cls(members=members, threshold=threshold)

    def summary(self):
        k = len(self.members[0].scope)
        return {"members": len(self.members), "k": k, "threshold": self.threshold}


#: Strategy name -> payload class; the chain strategies share one class.
PAYLOADS = {
    "br": BrPayload,
    "chain-predicted": ChainPayload,
    "chain-real": ChainPayload,
    "majority": MajorityPayload,
    "lp": LpPayload,
    "rakel": RakelPayload,
}

STRATEGIES = tuple(PAYLOADS)
CHAIN_METHODS = ("chain-predicted", "chain-real")

#: The strategies a comparison runs by default, and the one the others are
#: tested against.
DEFAULT_METHODS = ("br", "chain-predicted", "majority", "rakel", "chain-real")
DEFAULT_REFERENCE = "rakel"


def _bit_trees(data, kind: str, widths) -> tuple[DecisionTree, ...]:
    """A ``kind`` artifact's per-label trees; the one at position p reads ``widths[p]`` features."""
    data = json_list(data, f"{kind} 'trees'")
    if len(data) != len(widths):
        raise ValidationError(f"model has {len(data)} 'trees' for {len(widths)} labels")
    return tuple(
        tree_from_dict(tree, width, 2, f"{kind} 'trees'[{p}]")
        for p, (tree, width) in enumerate(zip(data, widths))
    )


def _trees_summary(trees) -> dict:
    stats = [tree_stats(t) for t in trees]
    return {
        "trees": len(stats),
        "total nodes": sum(s["nodes"] for s in stats),
        "max depth": max(s["depth"] for s in stats),
    }


@dataclass(frozen=True)
class TrainedModel:
    registry_version: str
    n_labels: int
    weeks: int
    feature_mode: str
    payload: BrPayload | ChainPayload | MajorityPayload | LpPayload | RakelPayload

    @property
    def strategy(self) -> str:
        return self.payload.strategy


def gold_matrix(model: TrainedModel, ds: Dataset) -> np.ndarray | None:
    """The ``gold`` argument of ``predict_batch`` for the dataset's records:
    their expert labels for a chain-real model, None for every other strategy."""
    if model.strategy != "chain-real":
        return None
    for student_id, labels in zip(ds.student_ids, ds.expert_labels):
        if labels is None:
            raise ValidationError(
                f"record {student_id}: chain-real prediction needs expert labels"
            )
    return ds.label_matrix()


def _lp_encode(
    Y: np.ndarray, scope: tuple[int, ...]
) -> tuple[list[int], tuple[frozenset[int], ...]]:
    """A class id per row of Y for its set of label indices in ``scope``, and
    the table of those sets: distinct sets are numbered in order of first
    appearance, so the table is a bijection between class ids and observed sets."""
    table: list[frozenset[int]] = []
    index: dict[frozenset[int], int] = {}
    classes = []
    for row in Y:
        labelset = frozenset(j for j in scope if row[j])
        if labelset not in index:
            index[labelset] = len(table)
            table.append(labelset)
        classes.append(index[labelset])
    return classes, tuple(table)


def sample_labelsets(n_labels: int, k: int, m: int, seed: int) -> list[tuple[int, ...]]:
    """m distinct k-subsets of 0..n_labels-1, uniform without replacement.

    m is clamped (with a warning) to the number of available subsets; a
    coverage warning lists any label that ends up in no subset.
    """
    if k < 1 or k > n_labels:
        raise ValidationError(f"k must be in 1..{n_labels}, got {k}")
    if m < 1:
        raise ValidationError("m must be >= 1")
    total = math.comb(n_labels, k)
    if m > total:
        warnings.warn(
            f"only {total} distinct {k}-subsets of {n_labels} labels exist; "
            f"clamping m from {m}",
            LabelCoverageWarning,
        )
        m = total
    rng = random.Random(seed)
    if total <= _ENUMERATION_LIMIT:
        subsets = rng.sample(list(combinations(range(n_labels), k)), m)
    else:
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < m:
            chosen.add(tuple(sorted(rng.sample(range(n_labels), k))))
        subsets = sorted(chosen)
        rng.shuffle(subsets)
    covered = set().union(*subsets)
    uncovered = sorted(set(range(n_labels)) - covered)
    if uncovered:
        warnings.warn(
            f"labels covered by no sampled subset: {uncovered}", LabelCoverageWarning
        )
    return subsets


def _plan(method: str, Y: np.ndarray, d: int, rcfg: RakelConfig, order, majority_mode: str):
    """The trees ``method`` grows on the label rows Y, as (their class-code
    arrays, the width of ``[X, gold bits in chain order]`` each tree reads,
    trees -> payload); X has d columns."""
    n_labels = Y.shape[1]
    if method == "br":
        return list(Y.T), [d] * n_labels, lambda trees: BrPayload(trees=tuple(trees))
    if method in CHAIN_METHODS:
        # trained with gold history; position p reads the gold bits of positions 0..p-1
        history = method.removeprefix("chain-")
        payload = lambda trees: ChainPayload(trees=tuple(trees), order=order, history=history)
        return list(Y[:, list(order)].T), range(d, d + n_labels), payload
    if method == "majority":
        # per-label: bit j is set iff label j is in more than half the rows (ties
        # to 0); labelset: the most frequent row, ties to the first seen
        if majority_mode not in MAJORITY_MODES:
            raise ValidationError(f"majority mode must be one of {MAJORITY_MODES}")
        if majority_mode == "per-label":
            bits = tuple(int(c * 2 > len(Y)) for c in Y.sum(axis=0))
        else:
            rows = Counter(tuple(map(int, row)) for row in Y)
            bits = max(rows, key=rows.get)  # max keeps the first winner
        return [], [], lambda trees: MajorityPayload(bits=bits)
    if method == "lp":
        scope = tuple(range(n_labels))
        classes, table = _lp_encode(Y, scope)
        return [classes], [d], lambda trees: LpPayload(tree=trees[0], classes=table, scope=scope)
    if method == "rakel":
        k = rcfg.k
        m = rcfg.m if rcfg.m is not None else 2 * n_labels
        if k < n_labels and m * k < n_labels:
            warnings.warn(
                f"m*k = {m * k} < {n_labels} labels: full coverage is impossible",
                LabelCoverageWarning,
            )
        subsets = sample_labelsets(n_labels, k, m, rcfg.seed)
        encoded = [_lp_encode(Y, scope) for scope in subsets]

        def payload(trees):
            members = map(LpPayload, trees, [table for _, table in encoded], subsets)
            return RakelPayload(members=tuple(members), threshold=rcfg.threshold)

        return [classes for classes, _ in encoded], [d] * len(subsets), payload
    raise ValidationError(f"unknown method {method!r}; expected one of {STRATEGIES}")


def fit(
    X: np.ndarray,
    Y: np.ndarray,
    methods,
    cfg: TreeConfig = TreeConfig(),
    rcfg: RakelConfig = RakelConfig(),
    order: tuple[int, ...] | None = None,
    majority_mode: str = "per-label",
) -> dict:
    """Each strategy of ``methods`` trained on the feature rows X (n, d) and
    their 0/1 label rows Y (n, L), as {method: payload}.

    The trees of every strategy grow in one ``train_trees`` call on X and
    Y's columns in chain ``order`` (registry order by default), which only
    chain trees read. The two chain strategies share one chain. A given
    ``order`` is checked whatever the methods.
    """
    methods = tuple(methods)
    n_labels = Y.shape[1]
    order = tuple(range(n_labels)) if order is None else tuple(map(int, order))
    if sorted(order) != list(range(n_labels)):
        raise ValidationError(f"chain order must be a permutation of 0..{n_labels - 1}")
    if not any(method in CHAIN_METHODS for method in methods):
        order = ()
    plans = {method: _plan(method, Y, X.shape[1], rcfg, order, majority_mode) for method in methods}
    ys, widths, first = [], [], {}  # first: each tree set's first tree in the call
    for method, (codes, tree_widths, _) in plans.items():
        tree_set = "chain" if method in CHAIN_METHODS else method
        if tree_set not in first:
            first[tree_set] = len(ys)
            ys += codes
            widths += tree_widths
        first[method] = first[tree_set]
    grown = train_trees(np.hstack([X, Y[:, list(order)]]), ys, cfg, widths) if ys else []
    return {
        method: payload(grown[first[method] : first[method] + len(codes)])
        for method, (codes, _, payload) in plans.items()
    }


def _labelset_table(payload: LpPayload, n_labels: int) -> np.ndarray:
    """(n_classes, n_labels) int8 0/1 rows: the labels in scope that each class sets."""
    table = np.zeros((len(payload.classes), n_labels), dtype=np.int8)
    for class_id, labelset in enumerate(payload.classes):
        table[class_id, [j for j in payload.scope if j in labelset]] = 1
    return table


def predict_batch(
    model: TrainedModel, X: np.ndarray, gold: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions for the feature rows X (n, d), as (bits (n, L) int, votes (n, L) float).

    Votes are the mean member votes for rakel and the bits themselves for the
    other strategies. ``gold`` (n, L) holds the history bits of a chain-real
    model (see ``gold_matrix``), and only such a model takes it.
    """
    X = np.asarray(X, dtype=float)
    n, n_labels = len(X), model.n_labels
    real_history = model.strategy == "chain-real"
    if real_history != (gold is not None):
        raise ValidationError(
            "real-history chain prediction requires a gold label vector"
            if real_history
            else "only chain-real prediction takes a gold vector"
        )
    if real_history and np.shape(gold) != (n, n_labels):
        raise ValidationError(
            f"gold matrix shape {np.shape(gold)} does not match ({n}, {n_labels})"
        )
    return model.payload.predict(X, n_labels, gold)
