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

Everything is deterministic given (dataset, configs, seeds); parallel member
training must and does produce results identical to sequential training.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .domain import Dataset, json_int
from .errors import LabelCoverageWarning, ValidationError
from .features import feature_matrix
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
# ``to_dict() -> (strategy_config, body)`` and ``from_dict``, which checks an
# artifact's body against ``n_labels``, and ``summary()``, the facts that
# ``rakelgen train`` prints. Votes are the bits themselves except for RAkEL.


@dataclass(frozen=True)
class BrPayload:
    trees: tuple[DecisionTree, ...]
    _stack: DecisionTree = field(init=False, repr=False, compare=False)

    strategy = "br"

    def __post_init__(self):
        object.__setattr__(self, "_stack", stack_trees(self.trees))

    def predict(self, X, n_labels, gold):
        bits = self._stack.label[descend(self._stack, X)]
        return bits, bits.astype(float)

    def to_dict(self):
        return {}, {"trees": [tree_to_dict(t) for t in self.trees]}

    @classmethod
    def from_dict(cls, strategy, strategy_config, body, n_labels):
        return cls(trees=_bit_trees(body["trees"], n_labels))

    def summary(self):
        return _trees_summary(self.trees)


@dataclass(frozen=True)
class ChainPayload:
    trees: tuple[DecisionTree, ...]  # one per chain position
    order: tuple[int, ...]  # permutation of label indices
    history: str  # "predicted" | "real"

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
    def from_dict(cls, strategy, strategy_config, body, n_labels):
        order = tuple(json_int(j, "chain 'order' entry") for j in strategy_config["order"])
        if sorted(order) != list(range(n_labels)):
            raise ValidationError(f"chain 'order' must be a permutation of 0..{n_labels - 1}")
        trees = _bit_trees(body["trees"], n_labels)
        return cls(trees=trees, order=order, history=strategy.removeprefix("chain-"))

    def summary(self):
        return _trees_summary(self.trees)


@dataclass(frozen=True)
class MajorityPayload:
    bits: tuple[int, ...]

    strategy = "majority"

    def predict(self, X, n_labels, gold):
        bits = np.zeros((len(X), n_labels), dtype=int)
        bits[:] = self.bits
        return bits, bits.astype(float)

    def to_dict(self):
        return {}, {"bits": list(self.bits)}

    @classmethod
    def from_dict(cls, strategy, strategy_config, body, n_labels):
        bits = tuple(json_int(b, "majority 'bits' entry") for b in body["bits"])
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
    def from_dict(cls, strategy, strategy_config, body, n_labels):
        tree = tree_from_dict(body["tree"])
        scope = tuple(json_int(j, "lp 'scope' entry") for j in body["scope"])
        if len(set(scope)) != len(scope) or not all(0 <= j < n_labels for j in scope):
            raise ValidationError(
                f"lp 'scope' {list(scope)} must hold distinct label indices below {n_labels}"
            )
        classes = tuple(
            frozenset(json_int(j, "lp 'classes' label") for j in c) for c in body["classes"]
        )
        for labelset in classes:
            if not labelset <= set(scope):
                raise ValidationError(
                    f"lp 'classes' entry {sorted(labelset)} is not a subset of 'scope' {list(scope)}"
                )
        _check_labels(tree, len(classes), "lp", "entries of 'classes'")
        return cls(tree=tree, classes=classes, scope=scope)

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
    def from_dict(cls, strategy, strategy_config, body, n_labels):
        threshold = strategy_config["threshold"]
        if type(threshold) not in (int, float):  # float() would read true as 1.0
            raise ValidationError(f"rakel 'threshold' must be a number, got {threshold!r}")
        if not 0.0 <= threshold <= 1.0:  # NaN fails this too
            raise ValidationError(f"rakel 'threshold' {threshold} must be in [0, 1]")
        threshold = float(threshold)
        members = tuple(LpPayload.from_dict("lp", {}, m, n_labels) for m in body["members"])
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

#: The strategies a comparison runs by default, and the one the others are
#: tested against.
DEFAULT_METHODS = ("br", "chain-predicted", "majority", "rakel", "chain-real")
DEFAULT_REFERENCE = "rakel"


def _bit_trees(data, n_labels: int) -> tuple[DecisionTree, ...]:
    """Per-label trees from an artifact: one per label, each predicting 0 or 1."""
    trees = tuple(tree_from_dict(t) for t in data)
    if len(trees) != n_labels:
        raise ValidationError(f"model has {len(trees)} 'trees' for {n_labels} labels")
    for tree in trees:
        _check_labels(tree, 2, "per-label tree", "bit values")
    return trees


def _check_labels(tree: DecisionTree, n_classes: int, kind: str, what: str) -> None:
    """Every node label of the tree must lie in 0..n_classes-1."""
    bad = tree.label[(tree.label < 0) | (tree.label >= n_classes)]
    if bad.size:
        raise ValidationError(f"{kind} 'label' {bad[0]} does not index the {n_classes} {what}")


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


def _model(ds: Dataset, feature_mode: str, payload) -> TrainedModel:
    return TrainedModel(
        registry_version=ds.registry.version,
        n_labels=len(ds.registry),
        weeks=ds.weeks,
        feature_mode=feature_mode,
        payload=payload,
    )


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


def _training_arrays(ds: Dataset, mode: str) -> tuple[np.ndarray, np.ndarray]:
    if len(ds) == 0:
        raise ValidationError("empty dataset")
    ds.require_labeled()
    return feature_matrix(ds.series, mode), ds.label_matrix()


def train_binary_relevance(
    ds: Dataset, cfg: TreeConfig = TreeConfig(), feature_mode: str = "both", n_jobs: int = 1
) -> TrainedModel:
    """One independent binary tree per label."""
    X, Y = _training_arrays(ds, feature_mode)
    trees = train_trees(X, Y.T, cfg, n_jobs=n_jobs)
    return _model(ds, feature_mode, BrPayload(trees=tuple(trees)))


def train_chain(
    ds: Dataset,
    cfg: TreeConfig = TreeConfig(),
    order: tuple[int, ...] | None = None,
    history: str = "predicted",
    feature_mode: str = "both",
) -> TrainedModel:
    """Classifier chain trained with gold history; ``history`` only affects prediction."""
    if history not in ("predicted", "real"):
        raise ValidationError("history must be 'predicted' or 'real'")
    X, Y = _training_arrays(ds, feature_mode)
    n_labels = Y.shape[1]
    if order is None:
        order = tuple(range(n_labels))
    else:
        order = tuple(int(i) for i in order)
        if sorted(order) != list(range(n_labels)):
            raise ValidationError(
                f"chain order must be a permutation of 0..{n_labels - 1}"
            )
    # position p sees the features and the gold bits of positions 0..p-1
    gold = Y[:, list(order)]
    d = X.shape[1]
    trees = train_trees(np.hstack([X, gold]), gold.T, cfg, widths=range(d, d + n_labels))
    payload = ChainPayload(trees=tuple(trees), order=order, history=history)
    return _model(ds, feature_mode, payload)


def train_majority(ds: Dataset, mode: str = "per-label") -> TrainedModel:
    """Constant predictor from training-label frequencies.

    ``per-label`` sets bit j iff label j occurs in more than half the records
    (ties drop to 0); ``labelset`` predicts the most frequent full label
    combination, ties broken by first appearance.
    """
    if mode not in MAJORITY_MODES:
        raise ValidationError(f"majority mode must be one of {MAJORITY_MODES}")
    if len(ds) == 0:
        raise ValidationError("empty dataset")
    ds.require_labeled()
    Y = ds.label_matrix()
    n = Y.shape[0]
    if mode == "per-label":
        bits = tuple(int(c * 2 > n) for c in Y.sum(axis=0))
    else:
        seen: dict[tuple[int, ...], int] = {}
        for row in Y:
            key = tuple(int(b) for b in row)
            seen[key] = seen.get(key, 0) + 1
        bits = max(seen, key=seen.get)  # max keeps the first (earliest-seen) winner
    return _model(ds, "both", MajorityPayload(bits=bits))


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


def train_lp(
    ds: Dataset, cfg: TreeConfig = TreeConfig(), feature_mode: str = "both"
) -> TrainedModel:
    """One multi-class tree over the distinct observed label combinations."""
    X, Y = _training_arrays(ds, feature_mode)
    scope = tuple(range(Y.shape[1]))
    classes, table = _lp_encode(Y, scope)
    (tree,) = train_trees(X, [classes], cfg)
    return _model(ds, feature_mode, LpPayload(tree=tree, classes=table, scope=scope))


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


def train_rakel(
    ds: Dataset,
    rcfg: RakelConfig = RakelConfig(),
    tcfg: TreeConfig = TreeConfig(),
    feature_mode: str = "both",
    n_jobs: int = 1,
) -> TrainedModel:
    """LP ensemble over random k-subsets of the labels."""
    X, Y = _training_arrays(ds, feature_mode)
    n_labels, k = Y.shape[1], rcfg.k
    m = rcfg.m if rcfg.m is not None else 2 * n_labels
    if k < n_labels and m * k < n_labels:
        warnings.warn(
            f"m*k = {m * k} < {n_labels} labels: full coverage is impossible",
            LabelCoverageWarning,
        )
    subsets = sample_labelsets(n_labels, k, m, rcfg.seed)
    encoded = [_lp_encode(Y, scope) for scope in subsets]
    trees = train_trees(X, [classes for classes, _ in encoded], tcfg, n_jobs=n_jobs)
    members = [
        LpPayload(tree=tree, classes=table, scope=scope)
        for tree, (_, table), scope in zip(trees, encoded, subsets)
    ]
    return _model(ds, feature_mode, RakelPayload(members=tuple(members), threshold=rcfg.threshold))


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
