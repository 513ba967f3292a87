"""Model persistence: single-file JSON artifacts with registry binding."""

from __future__ import annotations

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from _builders import tiny_registry
from rakelgen.cli import main
from rakelgen.domain import Template, TemplateRegistry, save_dataset
from rakelgen.errors import LabelCoverageWarning, ValidationError
from rakelgen.features import feature_matrix
from rakelgen.mlc import (
    RakelConfig,
    gold_matrix,
    predict_batch,
    train_binary_relevance,
    train_chain,
    train_lp,
    train_majority,
    train_rakel,
)
from rakelgen.model_io import (
    FORMAT_VERSION,
    load_model,
    model_from_dict,
    model_to_dict,
    registry_hash,
    save_model,
)
from rakelgen.tree import TreeConfig


def _train(method: str, ds):
    if method == "br":
        return train_binary_relevance(ds, TreeConfig(max_depth=4))
    if method == "chain-predicted":
        return train_chain(ds, history="predicted")
    if method == "chain-real":
        return train_chain(ds, history="real")
    if method == "majority":
        return train_majority(ds)
    if method == "lp":
        return train_lp(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LabelCoverageWarning)
        return train_rakel(ds, RakelConfig(k=3, m=24, seed=0))


ALL_METHODS = ("br", "chain-predicted", "chain-real", "majority", "lp", "rakel")


class TestRoundTrip:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_save_load_save_is_byte_identical(self, method, ds37, registry, tmp_path):
        model = _train(method, ds37)
        first = tmp_path / "model.json"
        second = tmp_path / "again.json"
        save_model(model, registry, first)
        loaded = load_model(first, registry)
        save_model(loaded, registry, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_loaded_model_predicts_identically(self, method, ds37, registry, tmp_path):
        model = _train(method, ds37)
        path = tmp_path / "model.json"
        save_model(model, registry, path)
        loaded = load_model(path, registry)
        assert loaded.strategy == model.strategy
        head = ds37.take(range(10))
        X = feature_matrix(head.series, model.feature_mode)
        gold = gold_matrix(model, head)
        for ours, theirs in zip(predict_batch(loaded, X, gold), predict_batch(model, X, gold)):
            np.testing.assert_array_equal(ours, theirs)

    def test_artifact_is_plain_json_with_expected_keys(self, ds37, registry, tmp_path):
        model = _train("majority", ds37)
        path = tmp_path / "model.json"
        save_model(model, registry, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["format_version"] == FORMAT_VERSION
        assert data["strategy"] == "majority"
        assert data["registry_version"] == registry.version
        assert data["registry_sha256"] == registry_hash(registry)
        assert data["n_labels"] == 29
        assert data["weeks"] == 10
        assert set(data) == {
            "format_version",
            "strategy",
            "registry_version",
            "registry_sha256",
            "n_labels",
            "weeks",
            "feature_mode",
            "strategy_config",
            "payload",
        }

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_strategy_config_holds_only_what_prediction_reads(self, method, ds37, registry):
        data = model_to_dict(_train(method, ds37), registry)
        assert data["format_version"] == "4"
        assert data["strategy"] == method
        expected = {
            "chain-predicted": {"order": list(range(29))},
            "chain-real": {"order": list(range(29))},
            "rakel": {"threshold": 0.5},
        }
        assert data["strategy_config"] == expected.get(method, {})

    @pytest.mark.parametrize("method", ["br", "chain-real", "lp", "rakel"])
    def test_trees_store_five_node_arrays(self, method, ds37, registry):
        body = model_to_dict(_train(method, ds37), registry)["payload"]
        trees = body.get("trees") or [lp["tree"] for lp in body.get("members", [body])]
        keys = {"n_features", "feature", "threshold", "left", "right", "label"}
        assert all(set(tree) == keys for tree in trees)

    def test_chain_relabel_loads_as_the_other_chain(self, ds37, registry):
        data = model_to_dict(_train("chain-predicted", ds37), registry)
        data["strategy"] = "chain-real"
        loaded = model_from_dict(data, registry)
        assert loaded.strategy == "chain-real"
        assert loaded.payload.history == "real"
        assert model_to_dict(loaded, registry) == data


class TestRegistryBinding:
    def test_load_with_modified_registry_fails(self, ds37, registry, tmp_path):
        model = _train("majority", ds37)
        path = tmp_path / "model.json"
        save_model(model, registry, path)
        altered_templates = list(registry.templates)
        altered_templates[0] = dataclasses.replace(
            altered_templates[0], surface_text="Changed wording."
        )
        altered = TemplateRegistry(
            templates=tuple(altered_templates), version=registry.version
        )
        with pytest.raises(ValidationError, match="sha256|hash"):
            load_model(path, altered)

    def test_save_with_mismatched_registry_version_fails(self, ds37, registry):
        model = _train("majority", ds37)
        other = TemplateRegistry(templates=registry.templates, version="other-v2")
        with pytest.raises(ValidationError, match="version"):
            model_to_dict(model, other)

    def test_hash_is_stable_and_sensitive(self, registry):
        rebuilt = TemplateRegistry(
            templates=registry.templates, version=registry.version
        )
        assert registry_hash(rebuilt) == registry_hash(registry)
        reordered = TemplateRegistry(
            templates=tuple(reversed(registry.templates)), version=registry.version
        )
        assert registry_hash(reordered) != registry_hash(registry)

    def test_hash_ignores_non_content_state(self):
        a = tiny_registry(3)
        b = tiny_registry(3)
        assert registry_hash(a) == registry_hash(b)


class TestMalformedArtifacts:
    def test_unsupported_format_version(self, ds37, registry, tmp_path):
        model = _train("majority", ds37)
        path = tmp_path / "model.json"
        save_model(model, registry, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["format_version"] = "99"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValidationError, match="format"):
            load_model(path, registry)

    def test_missing_payload_key(self, ds37, registry):
        model = _train("majority", ds37)
        data = model_to_dict(model, registry)
        del data["payload"]
        with pytest.raises(ValidationError, match="malformed"):
            model_from_dict(data, registry)

    def test_unknown_strategy(self, ds37, registry):
        model = _train("majority", ds37)
        data = model_to_dict(model, registry)
        data["strategy"] = "stacking"
        with pytest.raises(ValidationError):
            model_from_dict(data, registry)

    def test_not_json_file(self, registry, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("]", encoding="utf-8")
        with pytest.raises(ValidationError, match="JSON"):
            load_model(path, registry)

    def test_missing_file(self, registry, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_model(tmp_path / "absent.json", registry)


class TestCorruptedArtifacts:
    """Out-of-range indices in a tree or its class table fail at load time."""

    @pytest.mark.parametrize(
        "method, tree_of",
        [
            ("lp", lambda body: body["tree"]),
            ("rakel", lambda body: body["members"][-1]["tree"]),
            ("br", lambda body: body["trees"][3]),
        ],
    )
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("feature", 9999, "'feature' 9999 is out of range for 135 features"),
            ("feature", -1, "'feature' -1 is out of range"),
            ("threshold", float("nan"), "'threshold' nan is not finite"),
            ("feature", "x", "malformed model artifact: invalid literal"),
        ],
    )
    def test_bad_split_field(
        self, method, tree_of, field, value, message, ds37, registry, tmp_path
    ):
        data = model_to_dict(_train(method, ds37), registry)
        tree = tree_of(data["payload"])
        assert tree["feature"][0] >= 0  # the root is a split
        tree[field][0] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            load_model(path, registry)

    @pytest.mark.parametrize(
        "method, body_of",
        [("lp", lambda body: body), ("rakel", lambda body: body["members"][0])],
    )
    @pytest.mark.parametrize("label_of", [len, lambda t: len(t) + 7, lambda t: -1])
    def test_leaf_label_outside_class_table(
        self, method, body_of, label_of, ds37, registry
    ):
        data = model_to_dict(_train(method, ds37), registry)
        lp = body_of(data["payload"])
        label = label_of(lp["classes"])
        tree = lp["tree"]
        node = 0
        while tree["feature"][node] >= 0:
            node = tree["right"][node]
        tree["label"][node] = label
        with pytest.raises(ValidationError, match=f"'label' {label} does not index"):
            model_from_dict(data, registry)


class TestLabelAxis:
    """Label indices and per-label fields must agree with ``n_labels`` and the
    registry; prediction indexes its label columns by them."""

    @pytest.mark.parametrize(
        "method, body_of",
        [("lp", lambda body: body), ("rakel", lambda body: body["members"][0])],
    )
    @pytest.mark.parametrize(
        "scope_of",
        [
            lambda scope: [99, *scope[1:]],
            lambda scope: [-1, *scope[1:]],
            lambda scope: [scope[1]] * len(scope),
        ],
        ids=["beyond-n-labels", "negative", "repeated"],
    )
    def test_bad_scope(self, method, body_of, scope_of, ds37, registry):
        data = model_to_dict(_train(method, ds37), registry)
        lp = body_of(data["payload"])
        lp["scope"] = scope_of(lp["scope"])
        with pytest.raises(ValidationError, match="'scope' .* must hold distinct label indices"):
            model_from_dict(data, registry)

    @pytest.mark.parametrize(
        "method, body_of",
        [("lp", lambda body: body), ("rakel", lambda body: body["members"][0])],
    )
    def test_class_outside_scope(self, method, body_of, ds37, registry):
        data = model_to_dict(_train(method, ds37), registry)
        lp = body_of(data["payload"])
        lp["classes"][-1] = [99]
        with pytest.raises(ValidationError, match="'classes' entry \\[99\\]"):
            model_from_dict(data, registry)

    def test_rakel_class_outside_its_member_scope(self, ds37, registry):
        data = model_to_dict(_train("rakel", ds37), registry)
        member = data["payload"]["members"][0]
        outside = min(set(range(len(registry))) - set(member["scope"]))
        member["classes"][0] = [outside]
        with pytest.raises(ValidationError, match="not a subset of 'scope'"):
            model_from_dict(data, registry)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_n_labels_must_match_registry(self, method, ds37, registry):
        data = model_to_dict(_train(method, ds37), registry)
        data["n_labels"] = 5
        with pytest.raises(ValidationError, match="'n_labels' 5 does not match"):
            model_from_dict(data, registry)

    @pytest.mark.parametrize(
        "method, mutate, message",
        [
            ("br", lambda d: d["payload"]["trees"].pop(), "'trees' for 29 labels"),
            ("chain-real", lambda d: d["payload"]["trees"].pop(), "'trees' for 29 labels"),
            ("majority", lambda d: d["payload"]["bits"].append(0), "'bits' for 29 labels"),
            (
                "chain-predicted",
                lambda d: d["strategy_config"]["order"].__setitem__(0, 1),
                "'order' must be a permutation",
            ),
        ],
    )
    def test_per_label_fields(self, method, mutate, message, ds37, registry):
        data = model_to_dict(_train(method, ds37), registry)
        mutate(data)
        with pytest.raises(ValidationError, match=message):
            model_from_dict(data, registry)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["payload"]["bits"].__setitem__(0, 5), "majority 'bits' must be 0 or 1, got 5"),
            (
                lambda d: d["payload"]["bits"].__setitem__(0, True),
                "majority 'bits' entry must be an integer, got true",
            ),
            (
                lambda d: d["payload"]["bits"].__setitem__(1, 1.0),
                "majority 'bits' entry must be an integer, got 1.0",
            ),
        ],
        ids=["bit-5", "bit-true", "bit-float"],
    )
    def test_majority_fields_exit_2(self, mutate, message, ds37, registry, tmp_path, capsys):
        self._exits_2("majority", mutate, message, ds37, registry, tmp_path, capsys)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["payload"].__setitem__("members", []), "rakel 'members' must not be empty"),
            (
                lambda d: d["strategy_config"].__setitem__("threshold", 1.5),
                "rakel 'threshold' 1.5 must be in [0, 1]",
            ),
            (
                lambda d: d["strategy_config"].__setitem__("threshold", float("nan")),
                "rakel 'threshold' nan must be in [0, 1]",
            ),
            (
                lambda d: d["strategy_config"].__setitem__("threshold", True),
                "rakel 'threshold' must be a number, got True",
            ),
            (
                lambda d: d["strategy_config"].__setitem__("threshold", "0.5"),
                "rakel 'threshold' must be a number, got '0.5'",
            ),
        ],
        ids=["no-members", "threshold-1.5", "threshold-nan", "threshold-true", "threshold-string"],
    )
    def test_rakel_fields_exit_2(self, mutate, message, ds37, registry, tmp_path, capsys):
        self._exits_2("rakel", mutate, message, ds37, registry, tmp_path, capsys)

    @pytest.mark.parametrize("kind", ["float", "boolean"])
    @pytest.mark.parametrize(
        "method, field, where",
        [
            ("br", "model 'n_labels'", lambda d: (d, "n_labels")),
            ("br", "model 'weeks'", lambda d: (d, "weeks")),
            ("br", "tree 'n_features'", lambda d: (d["payload"]["trees"][0], "n_features")),
            ("chain-predicted", "chain 'order' entry", lambda d: (d["strategy_config"]["order"], 1)),
            ("lp", "lp 'scope' entry", lambda d: (d["payload"]["scope"], 1)),
            (
                "lp",
                "lp 'classes' label",
                lambda d: (next(c for c in d["payload"]["classes"] if c), 0),
            ),
        ],
        ids=["n_labels", "weeks", "n_features", "order", "scope", "classes"],
    )
    def test_integer_fields_exit_2(
        self, method, field, where, kind, ds37, registry, tmp_path, capsys
    ):
        """A float or a boolean where an integer belongs is refused: ``int()``
        would read 10.5 as 10 and true as 1."""

        def mutate(data):
            container, key = where(data)
            container[key] = container[key] + 0.5 if kind == "float" else True

        message = f"{field} must be an integer, got"
        self._exits_2(method, mutate, message, ds37, registry, tmp_path, capsys)

    @staticmethod
    def _exits_2(method, mutate, message, ds37, registry, tmp_path, capsys):
        """The mutated artifact fails to load, and ``feedback`` exits 2 with ``message``."""
        data = model_to_dict(_train(method, ds37), registry)
        mutate(data)
        with pytest.raises(ValidationError, match=re.escape(message)):
            model_from_dict(data, registry)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data), encoding="utf-8")
        records = tmp_path / "data.jsonl"
        save_dataset(ds37, records)
        assert main(["feedback", "--data", str(records), "--model", str(model)]) == 2
        assert message in capsys.readouterr().err
