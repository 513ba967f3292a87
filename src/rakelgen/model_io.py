"""Trained-model persistence as a single JSON artifact.

The artifact pins the registry it was trained against by content hash, so a
model can never silently be applied to a registry with reordered, changed, or
missing templates. Serialization is canonical (sorted keys, fixed layout):
saving, loading, and saving again yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .domain import TemplateRegistry, registry_to_dict
from .errors import ValidationError
from .mlc import (
    BrPayload,
    ChainPayload,
    LpPayload,
    MajorityPayload,
    RakelConfig,
    RakelPayload,
    TrainedModel,
)
from .tree import DecisionTree, TreeConfig, tree_from_dict, tree_to_dict

#: Version 2 stores each tree as flat node arrays (``tree.tree_to_dict``);
#: version 1 artifacts, with nested nodes, are rejected.
FORMAT_VERSION = "2"


def registry_hash(registry: TemplateRegistry) -> str:
    """sha256 over the registry's canonical JSON form."""
    canonical = json.dumps(
        registry_to_dict(registry), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _tree_config_to_dict(cfg: TreeConfig | None) -> dict | None:
    if cfg is None:
        return None
    return {
        "max_depth": cfg.max_depth,
        "min_samples_leaf": cfg.min_samples_leaf,
        "split_criterion": cfg.split_criterion,
        "seed": cfg.seed,
    }


def _tree_config_from_dict(data: dict | None) -> TreeConfig | None:
    if data is None:
        return None
    return TreeConfig(
        max_depth=data["max_depth"],
        min_samples_leaf=int(data["min_samples_leaf"]),
        split_criterion=str(data["split_criterion"]),
        seed=int(data["seed"]),
    )


def _lp_to_dict(payload: LpPayload) -> dict:
    return {
        "tree": tree_to_dict(payload.tree),
        "classes": [sorted(c) for c in payload.classes],
        "scope": list(payload.scope),
    }


def _lp_from_dict(data: dict, cfg: TreeConfig, n_labels: int) -> LpPayload:
    tree = tree_from_dict(data["tree"], cfg)
    scope = tuple(int(j) for j in data["scope"])
    if len(set(scope)) != len(scope) or not all(0 <= j < n_labels for j in scope):
        raise ValidationError(
            f"lp 'scope' {list(scope)} must hold distinct label indices below {n_labels}"
        )
    classes = tuple(frozenset(int(j) for j in c) for c in data["classes"])
    for labelset in classes:
        if not labelset <= set(scope):
            raise ValidationError(
                f"lp 'classes' entry {sorted(labelset)} is not a subset of 'scope' {list(scope)}"
            )
    _check_labels(tree, len(classes), "lp", "entries of 'classes'")
    return LpPayload(tree=tree, classes=classes, scope=scope)


def _check_labels(tree: DecisionTree, n_classes: int, kind: str, what: str) -> None:
    """Every node label of the tree must lie in 0..n_classes-1."""
    bad = tree.label[(tree.label < 0) | (tree.label >= n_classes)]
    if bad.size:
        raise ValidationError(f"{kind} 'label' {bad[0]} does not index the {n_classes} {what}")


def model_to_dict(model: TrainedModel, registry: TemplateRegistry) -> dict:
    if registry.version != model.registry_version:
        raise ValidationError(
            f"registry version {registry.version!r} does not match the model's "
            f"{model.registry_version!r}"
        )
    payload = model.payload
    if isinstance(payload, BrPayload):
        strategy_config: dict = {}
        body = {"trees": [tree_to_dict(t) for t in payload.trees]}
    elif isinstance(payload, ChainPayload):
        strategy_config = {"order": list(payload.order), "history": payload.history}
        body = {"trees": [tree_to_dict(t) for t in payload.trees]}
    elif isinstance(payload, MajorityPayload):
        strategy_config = {"mode": payload.mode}
        body = {"bits": list(payload.bits)}
    elif isinstance(payload, LpPayload):
        strategy_config = {}
        body = _lp_to_dict(payload)
    elif isinstance(payload, RakelPayload):
        cfg = payload.config
        strategy_config = {
            "k": cfg.k,
            "m": cfg.m,
            "threshold": cfg.threshold,
            "seed": cfg.seed,
        }
        body = {"members": [_lp_to_dict(member) for member in payload.members]}
    else:
        raise ValidationError(f"unknown payload type {type(payload).__name__}")
    return {
        "format_version": FORMAT_VERSION,
        "strategy": model.strategy,
        "registry_version": model.registry_version,
        "registry_sha256": registry_hash(registry),
        "n_labels": model.n_labels,
        "weeks": model.weeks,
        "feature_mode": model.feature_mode,
        "tree_config": _tree_config_to_dict(model.tree_config),
        "strategy_config": strategy_config,
        "payload": body,
    }


def _check_label_axis(payload, strategy: str, n_labels: int) -> None:
    """Per-label payload fields must have one entry per label: prediction
    indexes its label columns by them."""
    if isinstance(payload, (BrPayload, ChainPayload)):
        if len(payload.trees) != n_labels:
            raise ValidationError(f"model has {len(payload.trees)} 'trees' for {n_labels} labels")
        for tree in payload.trees:
            _check_labels(tree, 2, "per-label tree", "bit values")
    if isinstance(payload, MajorityPayload) and len(payload.bits) != n_labels:
        raise ValidationError(f"model has {len(payload.bits)} 'bits' for {n_labels} labels")
    if isinstance(payload, ChainPayload):
        if sorted(payload.order) != list(range(n_labels)):
            raise ValidationError(
                f"chain 'order' must be a permutation of 0..{n_labels - 1}"
            )
        if f"chain-{payload.history}" != strategy:
            raise ValidationError(
                f"chain 'history' {payload.history!r} does not match strategy {strategy!r}"
            )


def model_from_dict(data: dict, registry: TemplateRegistry) -> TrainedModel:
    if not isinstance(data, dict):
        raise ValidationError("model artifact must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported model format version {version!r}; expected {FORMAT_VERSION!r}"
        )
    stored_hash = data.get("registry_sha256")
    actual_hash = registry_hash(registry)
    if stored_hash != actual_hash:
        raise ValidationError(
            "model was trained against a different registry "
            f"(artifact hash {stored_hash}, supplied registry hash {actual_hash})"
        )
    try:
        strategy = data["strategy"]
        n_labels = int(data["n_labels"])
        if n_labels != len(registry):
            raise ValidationError(
                f"model 'n_labels' {n_labels} does not match the registry's "
                f"{len(registry)} templates"
            )
        tree_config = _tree_config_from_dict(data["tree_config"])
        strategy_config = data["strategy_config"]
        body = data["payload"]
        if strategy == "br":
            payload = BrPayload(
                trees=tuple(tree_from_dict(t, tree_config) for t in body["trees"])
            )
        elif strategy in ("chain-predicted", "chain-real"):
            payload = ChainPayload(
                trees=tuple(tree_from_dict(t, tree_config) for t in body["trees"]),
                order=tuple(int(j) for j in strategy_config["order"]),
                history=str(strategy_config["history"]),
            )
        elif strategy == "majority":
            payload = MajorityPayload(
                bits=tuple(int(b) for b in body["bits"]),
                mode=str(strategy_config["mode"]),
            )
        elif strategy == "lp":
            payload = _lp_from_dict(body, tree_config, n_labels)
        elif strategy == "rakel":
            payload = RakelPayload(
                members=tuple(
                    _lp_from_dict(m, tree_config, n_labels) for m in body["members"]
                ),
                config=RakelConfig(
                    k=int(strategy_config["k"]),
                    m=int(strategy_config["m"]),
                    threshold=float(strategy_config["threshold"]),
                    seed=int(strategy_config["seed"]),
                ),
            )
        else:
            raise ValidationError(f"unknown strategy {strategy!r} in model artifact")
        _check_label_axis(payload, strategy, n_labels)
        return TrainedModel(
            strategy=strategy,
            registry_version=str(data["registry_version"]),
            n_labels=n_labels,
            weeks=int(data["weeks"]),
            feature_mode=str(data["feature_mode"]),
            tree_config=tree_config,
            payload=payload,
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed model artifact: {exc}") from None


def save_model(model: TrainedModel, registry: TemplateRegistry, path: str | Path) -> None:
    """Write the artifact; ``registry`` must be the one the model was trained on."""
    artifact = model_to_dict(model, registry)
    payload = json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(payload, encoding="utf-8")


def load_model(path: str | Path, registry: TemplateRegistry) -> TrainedModel:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    return model_from_dict(data, registry)
