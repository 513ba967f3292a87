"""Trained-model persistence as a single JSON artifact.

The artifact pins the registry it was trained against by content hash, so a
model can never silently be applied to a registry with reordered, changed, or
missing templates. Serialization is canonical (sorted keys, fixed layout):
saving, loading, and saving again yields byte-identical files.

This module writes and checks the envelope; each payload class in ``mlc``
writes and checks its own ``strategy_config`` and ``payload`` body.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .domain import TemplateRegistry, json_int, json_object, read_json, registry_to_dict
from .errors import ValidationError
from .features import FEATURE_MODES, feature_count
from .mlc import PAYLOADS, STRATEGIES, TrainedModel

#: Version 4 holds only what prediction reads (the README's "File formats"
#: lists what each version dropped); artifacts of earlier versions are rejected.
FORMAT_VERSION = "4"


def registry_hash(registry: TemplateRegistry) -> str:
    """sha256 over the registry's canonical JSON form."""
    canonical = json.dumps(
        registry_to_dict(registry), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def model_to_dict(model: TrainedModel, registry: TemplateRegistry) -> dict:
    if registry.version != model.registry_version:
        raise ValidationError(
            f"registry version {registry.version!r} does not match the model's "
            f"{model.registry_version!r}"
        )
    strategy_config, body = model.payload.to_dict()
    return {
        "format_version": FORMAT_VERSION,
        "strategy": model.strategy,
        "registry_version": model.registry_version,
        "registry_sha256": registry_hash(registry),
        "n_labels": model.n_labels,
        "weeks": model.weeks,
        "feature_mode": model.feature_mode,
        "strategy_config": strategy_config,
        "payload": body,
    }


def model_from_dict(data, registry: TemplateRegistry) -> TrainedModel:
    version = json_object(data, "model artifact").get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported model format version {version!r}; expected {FORMAT_VERSION!r}"
        )
    envelope = {"format_version", "strategy", "registry_version", "registry_sha256", "n_labels",
                "weeks", "feature_mode", "strategy_config", "payload"}
    json_object(data, "model artifact", envelope)  # the keys model_to_dict writes
    stored_hash = data["registry_sha256"]
    actual_hash = registry_hash(registry)
    if stored_hash != actual_hash:
        raise ValidationError(
            "model was trained against a different registry "
            f"(artifact hash {stored_hash}, supplied registry hash {actual_hash})"
        )
    try:
        n_labels = json_int(data["n_labels"], "model 'n_labels'")
        if n_labels != len(registry):
            raise ValidationError(
                f"model 'n_labels' {n_labels} does not match the registry's "
                f"{len(registry)} templates"
            )
        registry_version = data["registry_version"]
        if registry_version != registry.version:
            raise ValidationError(
                f"model 'registry_version' {registry_version!r} does not match the "
                f"registry's {registry.version!r}"
            )
        weeks = json_int(data["weeks"], "model 'weeks'")
        if weeks < 1:
            raise ValidationError(f"model 'weeks' must be >= 1, got {weeks}")
        feature_mode = data["feature_mode"]
        if feature_mode not in FEATURE_MODES:
            raise ValidationError(
                f"model 'feature_mode' {feature_mode!r} must be one of {FEATURE_MODES}"
            )
        strategy = data["strategy"]
        if strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {strategy!r} in model artifact")
        kind = PAYLOADS[strategy]
        config = json_object(data["strategy_config"], "model 'strategy_config'", kind.KEYS[0])
        body = json_object(data["payload"], "model 'payload'", kind.KEYS[1])
        width = feature_count(weeks, feature_mode)
        payload = kind.from_dict(strategy, config, body, n_labels, width)
        return TrainedModel(
            registry_version=registry_version,
            n_labels=n_labels,
            weeks=weeks,
            feature_mode=feature_mode,
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
    return model_from_dict(read_json(path), registry)
