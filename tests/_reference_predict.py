"""Reference prediction: the per-record code `mlc.predict_batch` replaced.

One root-to-leaf walk per tree and record over the tree's node arrays, and
RAkEL votes counted member by member. It stays here as the oracle that the
differential tests compare the batch path against.
"""

from __future__ import annotations

import numpy as np

from rakelgen.mlc import (
    BrPayload,
    ChainPayload,
    LpPayload,
    MajorityPayload,
    RakelPayload,
    TrainedModel,
)
from rakelgen.tree import DecisionTree


def reference_descent(tree: DecisionTree, x: np.ndarray) -> int:
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return int(tree.label[node])


def _lp_labelset(payload: LpPayload, x: np.ndarray) -> frozenset[int]:
    return payload.classes[reference_descent(payload.tree, x)]


def _rakel_votes(payload: RakelPayload, x: np.ndarray, n_labels: int) -> list[float]:
    votes = [0.0] * n_labels
    counts = [0] * n_labels
    for member in payload.members:
        labelset = _lp_labelset(member, x)
        for j in member.scope:
            counts[j] += 1
            if j in labelset:
                votes[j] += 1.0
    return [votes[j] / counts[j] if counts[j] else 0.0 for j in range(n_labels)]


def reference_predict_votes(
    model: TrainedModel, x: np.ndarray, gold: tuple[int, ...] | None = None
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """(bits, votes) of one feature row; ``gold`` is the chain-real history."""
    payload = model.payload
    if isinstance(payload, RakelPayload):
        means = _rakel_votes(payload, x, model.n_labels)
        t = payload.threshold
        return tuple(int(v > t) for v in means), tuple(means)
    if isinstance(payload, ChainPayload):
        bits = [0] * model.n_labels
        history: list[float] = []
        for p, tree in enumerate(payload.trees):
            xp = np.concatenate([x, history]) if p else x
            predicted = reference_descent(tree, xp)
            bits[payload.order[p]] = int(predicted)
            source = gold[payload.order[p]] if payload.history == "real" else predicted
            history.append(float(source))
    elif isinstance(payload, BrPayload):
        bits = [int(reference_descent(t, x)) for t in payload.trees]
    elif isinstance(payload, MajorityPayload):
        bits = list(payload.bits)
    elif isinstance(payload, LpPayload):
        labelset = _lp_labelset(payload, x)
        bits = [1 if j in labelset else 0 for j in range(model.n_labels)]
    else:
        raise TypeError(type(payload).__name__)
    return tuple(bits), tuple(float(b) for b in bits)
