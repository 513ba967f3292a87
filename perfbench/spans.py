"""Span recording around the calls into rakelgen's modules.

Tracing works from outside the program: ``Tracer.install`` rebinds the names
that the calling modules imported (``rakelgen.mlc.train_tree`` and so on) to
wrappers that record a span per call. Spans are kept in memory and written
out once, after the job. ``predict_tree`` runs once per RAkEL member and
record (hundreds of thousands of times in a bulk feedback job), so its calls
are summed per parent span instead of getting one span each.

``layer_metrics`` turns a written span file into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

#: Cross-validation methods of the default ``evaluate`` run, one metric each.
CV_METHODS = ("br", "chain-predicted", "majority", "rakel", "chain-real")

#: Training entry points as ``evaluation.train_method`` calls them.
TRAINERS = {
    "train_binary_relevance": "br",
    "train_chain": "chain",
    "train_majority": "majority",
    "train_lp": "lp",
    "train_rakel": "rakel",
}


class Tracer:
    """Records spans (id, name, start, end, parent, run id) for one job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stack: list[int] = []
        self.aggregates: dict[tuple[int | None, str], list] = {}
        self.fits: set[bytes] = set()
        self.trees: list = []
        self.max_classes = 0
        self.feature_inputs: set = set()
        self.artifact_bytes = 0
        self.missing: list[str] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name_of, fn, after=None):
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in on exit
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[span_id] = (span_id, name_of(args, kwargs), start, end, parent)

        return wrapper

    def _summed(self, name, fn):
        aggregates = self.aggregates
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (stack[-1] if stack else None, name)
                slot = aggregates.get(key)
                if slot is None:
                    aggregates[key] = [elapsed, 1]
                else:
                    slot[0] += elapsed
                    slot[1] += 1

        return wrapper

    def _after_fit(self, args, kwargs, tree):
        X = args[0] if args else kwargs["X"]
        y = args[1] if len(args) > 1 else kwargs["y"]
        config = args[2] if len(args) > 2 else kwargs.get("config")
        X = np.ascontiguousarray(X, dtype=float)
        y = np.ascontiguousarray(y, dtype=np.int64)
        digest = hashlib.sha1(X.tobytes())
        digest.update(str(X.shape).encode())
        digest.update(y.tobytes())
        digest.update(repr(config).encode())
        self.fits.add(digest.digest())
        self.max_classes = max(self.max_classes, int(np.unique(y).size))
        self.trees.append(tree)

    def _after_extract(self, args, kwargs, _result):
        record = args[0] if args else kwargs["record"]
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "both")
        self.feature_inputs.add((record.student_id, mode))

    def _after_artifact(self, path_index):
        def after(args, kwargs, _result):
            path = args[path_index] if len(args) > path_index else kwargs["path"]
            self.artifact_bytes = os.path.getsize(path)

        return after

    # -- installation -----------------------------------------------------

    def _rebind(self, module_name: str, attr: str, make):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(fn))

    def install(self) -> None:
        """Wrap each layer's public functions where the calling module looks them up."""

        def fixed(name):
            return lambda args, kwargs: name

        def span(name, after=None):
            return lambda fn: self._span(fixed(name), fn, after)

        self._rebind("rakelgen.mlc", "train_tree", span("tree.train", self._after_fit))
        self._rebind("rakelgen.mlc", "predict_tree", lambda fn: self._summed("tree.predict", fn))
        for module in ("rakelgen.mlc", "rakelgen.nlg"):
            self._rebind(module, "extract_features", span("features.extract", self._after_extract))
        for attr, short in TRAINERS.items():
            self._rebind("rakelgen.evaluation", attr, span(f"mlc.train.{short}"))
        self._rebind("rakelgen.evaluation", "predict_record", span("mlc.predict"))
        self._rebind("rakelgen.nlg", "predict_votes", span("mlc.predict"))

        def cv_name(args, kwargs):
            method = args[1] if len(args) > 1 else kwargs["method"]
            return f"evaluation.cross_validate.{method}"

        self._rebind("rakelgen.evaluation", "cross_validate", lambda fn: self._span(cv_name, fn))
        self._rebind("rakelgen.evaluation", "compute_metrics", span("evaluation.metrics"))
        self._rebind("rakelgen.evaluation", "paired_t_test", span("evaluation.t_test"))
        self._rebind("rakelgen.nlg", "select_templates", span("nlg.select"))
        self._rebind("rakelgen.nlg", "render_summary", span("nlg.render"))
        self._rebind("rakelgen.cli", "load_dataset", span("domain.load_dataset"))
        self._rebind("rakelgen.cli", "save_model", span("model_io.save", self._after_artifact(2)))
        self._rebind("rakelgen.cli", "load_model", span("model_io.load", self._after_artifact(0)))

    # -- output -----------------------------------------------------------

    def _tree_nodes(self) -> int:
        try:
            from rakelgen.tree import tree_stats

            return sum(tree_stats(tree)["nodes"] for tree in self.trees)
        except (ImportError, AttributeError, KeyError, TypeError):
            return 0

    def write(self, path) -> dict:
        """Write every span and per-parent sum as JSON lines; return the job's counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")
            for (parent, name), (seconds, calls) in self.aggregates.items():
                handle.write(json.dumps({
                    "name": name, "parent": parent, "seconds": seconds,
                    "calls": calls, "run": self.run_id,
                }) + "\n")
        return {
            "distinct_fits": len(self.fits),
            "tree_nodes": self._tree_nodes(),
            "max_classes": self.max_classes,
            "distinct_feature_inputs": len(self.feature_inputs),
            "artifact_bytes": self.artifact_bytes,
            "missing_hooks": self.missing,
        }


def layer_metrics(spans_path, counts: dict) -> dict[str, float]:
    """Per-layer seconds and counts of one traced job.

    Times are self times (a span's duration minus its children's), except
    ``evaluation.cross_validate_s.<method>``, which is the whole per-method
    cross-validation.
    """
    spans, aggregates = [], []
    with open(spans_path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            (spans if "id" in row else aggregates).append(row)
    child_seconds: dict[int, float] = defaultdict(float)
    for row in spans:
        if row["parent"] is not None:
            child_seconds[row["parent"]] += row["end"] - row["start"]
    for row in aggregates:
        if row["parent"] is not None:
            child_seconds[row["parent"]] += row["seconds"]
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for row in spans:
        duration = row["end"] - row["start"]
        total_s[row["name"]] += duration
        self_s[row["name"]] += duration - child_seconds[row["id"]]
        calls[row["name"]] += 1
    for row in aggregates:
        self_s[row["name"]] += row["seconds"]
        calls[row["name"]] += row["calls"]

    def ratio(numerator, base):
        return numerator / base if base else 0.0

    metrics = {
        "tree.train_s": self_s["tree.train"],
        "tree.train_calls": calls["tree.train"],
        "tree.nodes": counts["tree_nodes"],
        "tree.max_classes": counts["max_classes"],
        "tree.distinct_fit_ratio": ratio(counts["distinct_fits"], calls["tree.train"]),
        "tree.predict_s": self_s["tree.predict"],
        "tree.predict_calls": calls["tree.predict"],
    }
    for short in TRAINERS.values():
        metrics[f"mlc.train_s.{short}"] = self_s[f"mlc.train.{short}"]
    metrics["mlc.predict_s"] = self_s["mlc.predict"]
    metrics["mlc.predict_calls"] = calls["mlc.predict"]
    metrics["features.extract_s"] = self_s["features.extract"]
    metrics["features.extract_calls"] = calls["features.extract"]
    metrics["features.distinct_ratio"] = ratio(
        counts["distinct_feature_inputs"], calls["features.extract"]
    )
    for method in CV_METHODS:
        metrics[f"evaluation.cross_validate_s.{method}"] = total_s[
            f"evaluation.cross_validate.{method}"
        ]
    metrics["evaluation.metrics_s"] = self_s["evaluation.metrics"]
    metrics["evaluation.t_test_s"] = self_s["evaluation.t_test"]
    metrics["nlg.select_s"] = self_s["nlg.select"]
    metrics["nlg.render_s"] = self_s["nlg.render"]
    metrics["domain.load_dataset_s"] = self_s["domain.load_dataset"]
    metrics["model_io.save_s"] = self_s["model_io.save"]
    metrics["model_io.load_s"] = self_s["model_io.load"]
    metrics["model_io.artifact_bytes"] = counts["artifact_bytes"]
    return metrics
