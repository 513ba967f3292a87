"""End-to-end command-line behavior, exit codes, and output formats."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import rakelgen
from _builders import synth_config_dict
from rakelgen import nlg
from rakelgen.cli import main
from rakelgen.domain import (
    Dataset, default_registry, load_dataset, registry_to_dict, series_stack,
)
from rakelgen.features import feature_matrix, feature_schema
from rakelgen.model_io import load_model

pytestmark = pytest.mark.filterwarnings(
    "ignore::rakelgen.errors.LabelCoverageWarning"
)


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("RAKELGEN_SEED", raising=False)


@pytest.fixture()
def data_path(tmp_path):
    path = tmp_path / "students.jsonl"
    assert main(["generate", "--out", str(path), "--count", "14", "--seed", "5"]) == 0
    return path


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_requested_records(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        code, stdout, _ = _run(
            ["generate", "--out", str(out), "--count", "9", "--seed", "1"], capsys
        )
        assert code == 0
        assert f"wrote 9 records to {out}" in stdout
        assert "correlation lectures_attended/understandability" in stdout
        assert len(out.read_text(encoding="utf-8").splitlines()) == 9

    def test_one_student_has_no_achieved_correlation(self, tmp_path, capsys):
        out = tmp_path / "one.jsonl"
        code, stdout, stderr = _run(["generate", "--out", str(out), "--count", "1"], capsys)
        assert (code, stderr) == (0, "")
        assert stdout == (
            f"wrote 1 records to {out}\n"
            "correlation lectures_attended/understandability: target 0.6, achieved n/a\n"
        )
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1

    def test_constant_factor_mean_has_no_achieved_correlation(self, tmp_path, capsys):
        data = synth_config_dict(n_students=6)
        data["factors"]["understandability"]["mean"] = 100.0  # every value clips to 5
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        code, stdout, _ = _run(
            ["generate", "--out", str(tmp_path / "x.jsonl"), "--config", str(config_path)],
            capsys,
        )
        assert code == 0
        assert stdout.endswith("target 0.6, achieved n/a\n")

    def test_deterministic_for_same_seed(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["generate", "--out", str(a), "--count", "8", "--seed", "3"])
        main(["generate", "--out", str(b), "--count", "8", "--seed", "3"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        c = tmp_path / "c.jsonl"
        monkeypatch.setenv("RAKELGEN_SEED", "11")
        main(["generate", "--out", str(a), "--count", "8"])
        main(["generate", "--out", str(b), "--count", "8"])
        main(["generate", "--out", str(c), "--count", "8", "--seed", "12"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_invalid_seed_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RAKELGEN_SEED", "eleven")
        code, _, stderr = _run(
            ["generate", "--out", str(tmp_path / "x.jsonl")], capsys
        )
        assert code == 2
        assert "RAKELGEN_SEED" in stderr

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, monkeypatch, source):
        argv = ["generate", "--out", str(tmp_path / "x.jsonl")]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("RAKELGEN_SEED", "-1")
        else:
            data = synth_config_dict(n_students=5)
            data["seed"] = -1
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(data), encoding="utf-8")
            argv += ["--config", str(config_path)]
        code, stdout, stderr = _run(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert stderr == "rakelgen: validation error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "x.jsonl").exists()

    def test_negative_seed_still_runs_evaluate_and_train(
        self, data_path, tmp_path, capsys, monkeypatch
    ):
        evaluate = ["evaluate", "--data", str(data_path), "--methods", "majority,rakel",
                    "--folds", "2", "--m", "4"]
        assert main([*evaluate, "--seed", "-3"]) == 0
        monkeypatch.setenv("RAKELGEN_SEED", "-5")
        assert main(evaluate) == 0
        assert main(["train", "--data", str(data_path), "--method", "rakel", "--m", "4",
                     "--out", str(tmp_path / "model.json")]) == 0

    def test_custom_config_file(self, tmp_path, capsys):
        config = synth_config_dict(n_students=6, weeks=4, seed=2)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "data.jsonl"
        code, _, _ = _run(
            ["generate", "--out", str(out), "--config", str(config_path)], capsys
        )
        assert code == 0
        ds = load_dataset(out, default_registry())
        assert len(ds) == 6
        assert ds.weeks == 4

    def test_non_positive_definite_pairs_exit_2(self, tmp_path, capsys):
        data = synth_config_dict(n_students=5)
        data["correlation_pairs"] = [
            ["marks", "hours_studied", 0.9],
            ["hours_studied", "understandability", 0.9],
            ["marks", "understandability", -0.9],
        ]
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        code, _, stderr = _run(
            [
                "generate",
                "--out",
                str(tmp_path / "x.jsonl"),
                "--config",
                str(config_path),
            ],
            capsys,
        )
        assert code == 2
        assert "positive definite" in stderr

    def test_non_finite_config_field_exit_2(self, tmp_path, capsys):
        data = synth_config_dict(n_students=5)
        data["factors"]["marks"]["noise_std"] = float("nan")
        config_path = tmp_path / "nan.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        code, _, stderr = _run(
            ["generate", "--out", str(tmp_path / "x.jsonl"), "--config", str(config_path)],
            capsys,
        )
        assert code == 2
        assert "factors marks: noise_std must be finite, got nan" in stderr

    def test_unwritable_output_is_internal_error(self, tmp_path, capsys):
        code, _, stderr = _run(
            ["generate", "--out", str(tmp_path), "--count", "5"], capsys
        )
        assert code == 1
        assert "internal" in stderr


class TestEvaluate:
    def test_default_methods_render_five_rows(self, data_path, capsys):
        code, stdout, _ = _run(
            ["evaluate", "--data", str(data_path), "--folds", "4"], capsys
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("Classifier")
        assert len(lines) == 2 + 5
        assert any(line.startswith("Majority") for line in lines)
        assert any("MLC - RAkEL (no history)" in line for line in lines)

    def test_single_method_report(self, data_path, capsys):
        code, stdout, _ = _run(
            [
                "evaluate",
                "--data",
                str(data_path),
                "--methods",
                "majority",
                "--reference",
                "majority",
                "--folds",
                "4",
            ],
            capsys,
        )
        assert code == 0
        assert len(stdout.splitlines()) == 3

    def test_json_report_written(self, data_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = _run(
            [
                "evaluate",
                "--data",
                str(data_path),
                "--methods",
                "br,majority,rakel",
                "--folds",
                "4",
                "--k",
                "2",
                "--m",
                "8",
                "--json",
                str(report_path),
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(data) == {"br", "majority", "rakel"}
        assert data["rakel"]["p_vs_reference"] is None
        for entry in data.values():
            assert 0.0 <= entry["accuracy"] <= 1.0
            assert len(entry["folds"]) == 4

    def test_stdout_deterministic(self, data_path, capsys):
        argv = [
            "evaluate",
            "--data",
            str(data_path),
            "--methods",
            "br,majority,rakel",
            "--folds",
            "4",
            "--k",
            "2",
            "--m",
            "8",
            "--seed",
            "0",
        ]
        code_a, out_a, _ = _run(argv, capsys)
        code_b, out_b, _ = _run(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_too_many_folds_exit_2(self, data_path, capsys):
        code, _, stderr = _run(
            ["evaluate", "--data", str(data_path), "--folds", "20"], capsys
        )
        assert code == 2
        assert "fold" in stderr

    def test_unknown_method_exit_2(self, data_path, capsys):
        code, _, stderr = _run(
            ["evaluate", "--data", str(data_path), "--methods", "svm"], capsys
        )
        assert code == 2
        assert "svm" in stderr

    def test_json_errors_flag(self, data_path, capsys):
        code, _, stderr = _run(
            [
                "--json-errors",
                "evaluate",
                "--data",
                str(data_path),
                "--methods",
                "svm",
            ],
            capsys,
        )
        assert code == 2
        payload = json.loads(stderr)
        assert payload["error"] == "validation"
        assert "svm" in payload["message"]

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        code, _, stderr = _run(
            ["evaluate", "--data", str(tmp_path / "none.jsonl")], capsys
        )
        assert code == 2
        assert "cannot read" in stderr

    @pytest.mark.parametrize("n_jobs", ["0", "-3"])
    def test_n_jobs_below_one_exit_2(self, data_path, n_jobs, capsys):
        code, stdout, stderr = _run(
            ["evaluate", "--data", str(data_path), "--n-jobs", n_jobs], capsys
        )
        assert (code, stdout) == (2, "")
        assert f"n_jobs must be >= 1, got {n_jobs}" in stderr


class TestTrain:
    def test_rakel_artifact(self, data_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, stdout, _ = _run(
            [
                "train",
                "--data",
                str(data_path),
                "--method",
                "rakel",
                "--out",
                str(model_path),
                "--k",
                "3",
                "--m",
                "58",
                "--seed",
                "0",
            ],
            capsys,
        )
        assert code == 0
        assert "strategy: rakel" in stdout
        assert "members: 58" in stdout
        assert f"saved: {model_path}" in stdout
        model = load_model(model_path, default_registry())
        assert len(model.payload.members) == 58

    def test_majority_artifact(self, data_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, stdout, _ = _run(
            [
                "train",
                "--data",
                str(data_path),
                "--method",
                "majority",
                "--out",
                str(model_path),
            ],
            capsys,
        )
        assert code == 0
        assert "set bits:" in stdout
        model = load_model(model_path, default_registry())
        assert len(model.payload.bits) == 29

    SUMMARIES = {
        "br": "trees: 29\ntotal nodes: 105\nmax depth: 3\n",
        "chain-predicted": "trees: 29\ntotal nodes: 105\nmax depth: 3\n",
        "chain-real": "trees: 29\ntotal nodes: 105\nmax depth: 3\n",
        "majority": "set bits: 1\n",
        "lp": "classes: 14\nnodes: 27\ndepth: 9\n",
        "rakel": "members: 58\nk: 3\nthreshold: 0.5\n",
    }

    @pytest.mark.parametrize("method", SUMMARIES)
    def test_full_stdout(self, method, data_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code, stdout, _ = _run(
            ["train", "--data", str(data_path), "--method", method,
             "--out", str(model_path), "--seed", "0"],
            capsys,
        )
        assert code == 0
        assert stdout == (
            f"strategy: {method}\nrecords: 14\nlabels: 29\nweeks: 10\n"
            + self.SUMMARIES[method]
            + f"saved: {model_path}\n"
        )

    def test_artifacts_deterministic_across_jobs(self, data_path, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        base = [
            "train",
            "--data",
            str(data_path),
            "--method",
            "br",
            "--seed",
            "0",
        ]
        main(base + ["--out", str(first), "--n-jobs", "1"])
        main(base + ["--out", str(second), "--n-jobs", "2"])
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


    def test_non_finite_series_value_exit_2(self, data_path, tmp_path, capsys):
        lines = data_path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[3])
        record["series"]["marks"][2] = float("nan")
        lines[3] = json.dumps(record)
        bad = tmp_path / "nan.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, stderr = _run(
            ["train", "--data", str(bad), "--method", "br", "--out", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2
        assert f"record {record['student_id']}: series marks" in stderr
        assert "non-finite" in stderr


class TestFeedback:
    @pytest.fixture()
    def model_path(self, data_path, tmp_path, capsys):
        path = tmp_path / "model.json"
        main(
            [
                "train",
                "--data",
                str(data_path),
                "--method",
                "rakel",
                "--out",
                str(path),
                "--seed",
                "0",
            ]
        )
        capsys.readouterr()
        return path

    def test_text_output_block_per_student(self, data_path, model_path, capsys):
        code, stdout, _ = _run(
            ["feedback", "--data", str(data_path), "--model", str(model_path)],
            capsys,
        )
        assert code == 0
        blocks = stdout.rstrip("\n").split("\n\n")
        assert len(blocks) == 14
        for index, block in enumerate(blocks):
            assert block.startswith(f"s{index:04d}:")

    def test_json_output_valid_and_one_per_factor(
        self, data_path, model_path, tmp_path, capsys
    ):
        out = tmp_path / "feedback.json"
        code, _, _ = _run(
            [
                "feedback",
                "--data",
                str(data_path),
                "--model",
                str(model_path),
                "--format",
                "json",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        registry = default_registry()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload) == 14
        for entry in payload:
            factors = [
                registry.templates[registry.label_index(item["template_id"])].factor
                for item in entry["feedback"]
            ]
            assert len(factors) == len(set(factors))

    @pytest.mark.parametrize("tolerance", ["nan", "-0.5"])
    def test_bad_trend_tolerance_exit_2(self, data_path, model_path, tolerance, tmp_path, capsys):
        out = tmp_path / "feedback.txt"
        code, stdout, stderr = _run(
            ["feedback", "--data", str(data_path), "--model", str(model_path),
             "--trend-tolerance", tolerance, "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert f"trend tolerance must be >= 0, got {float(tolerance)}" in stderr
        assert not out.exists()

    def test_corrupted_artifact_exit_2(self, data_path, tmp_path, capsys):
        model_path = tmp_path / "lp.json"
        main(["train", "--data", str(data_path), "--method", "lp", "--out", str(model_path)])
        artifact = json.loads(model_path.read_text(encoding="utf-8"))
        artifact["payload"]["tree"]["feature"][0] = 9999  # the root split
        model_path.write_text(json.dumps(artifact), encoding="utf-8")
        capsys.readouterr()
        code, _, stderr = _run(
            ["feedback", "--data", str(data_path), "--model", str(model_path)], capsys
        )
        assert code == 2
        assert "'feature' 9999 is out of range" in stderr

    def test_weeks_mismatch_exit_2(self, model_path, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        main(
            [
                "generate",
                "--out",
                str(other),
                "--count",
                "4",
                "--weeks",
                "6",
                "--seed",
                "0",
            ]
        )
        capsys.readouterr()
        code, _, stderr = _run(
            ["feedback", "--data", str(other), "--model", str(model_path)], capsys
        )
        assert code == 2
        assert "week" in stderr

    def test_lone_surrogate_id_exit_2_before_output(self, data_path, model_path, tmp_path, capsys):
        # "\udc80" is valid JSON but no UTF-8 output can write it
        lines = data_path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[3])
        record["student_id"] = "s\udc80"
        lines[3] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o.txt"
        code, stdout, stderr = _run(
            ["feedback", "--data", str(bad), "--model", str(model_path), "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"rakelgen: validation error: {bad}:4: malformed record: "
            'student_id must be valid Unicode, got "s\\udc80"\n'
        )
        assert not out.exists()

    @pytest.mark.parametrize("field", ["version", "surface_text"])
    def test_lone_surrogate_in_registry_exit_2_before_output(
        self, data_path, model_path, field, tmp_path, capsys
    ):
        data = registry_to_dict(default_registry())
        template = data["templates"][3]
        if field == "version":
            data["version"] += "\udc80"
            expected = f"'version' must be valid Unicode, got {json.dumps(data['version'])}"
        else:
            template["surface_text"] += "\udc80"
            expected = (
                "template entry 3: 'surface_text' must be valid Unicode, "
                f"got {json.dumps(template['surface_text'])}"
            )
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(data), encoding="utf-8")
        # stamp the artifact as trained against that registry
        artifact = json.loads(model_path.read_text(encoding="utf-8"))
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        artifact["registry_version"] = data["version"]
        artifact["registry_sha256"] = hashlib.sha256(canonical).hexdigest()
        model_path.write_text(json.dumps(artifact), encoding="utf-8")
        code, stdout, stderr = _run(
            ["feedback", "--data", str(data_path), "--model", str(model_path),
             "--registry", str(registry)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("rakelgen: validation error: ")
        assert stderr.endswith(expected + "\n")

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("surface_text", "Your {nope} went up.",
             "template {id}: unknown slot {{nope}} in surface text"),
            ("factor", "attendance", "unknown factor name: 'attendance'"),
            ("factor", 3, "unknown factor name: 3"),
            ("reference", "weekly", "unknown reference type: 'weekly'"),
            ("id", "four", "'id' must be an integer, got \"four\""),
        ],
    )
    def test_registry_entry_error_names_file_exit_2(
        self, data_path, model_path, field, value, problem, tmp_path, capsys
    ):
        data = registry_to_dict(default_registry())
        template = data["templates"][4]
        template[field] = value
        registry = tmp_path / "r.json"
        registry.write_text(json.dumps(data), encoding="utf-8")
        code, stdout, stderr = _run(
            ["feedback", "--data", str(data_path), "--model", str(model_path),
             "--registry", str(registry)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"rakelgen: validation error: {registry}: template entry 4: "
            + problem.format(id=template["id"]) + "\n"
        )

    def test_chain_real_needs_labels_exit_2(self, data_path, tmp_path, capsys):
        model_path = tmp_path / "chain.json"
        main(
            [
                "train",
                "--data",
                str(data_path),
                "--method",
                "chain-real",
                "--out",
                str(model_path),
            ]
        )
        stripped = tmp_path / "unlabeled.jsonl"
        lines = []
        for line in data_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.pop("expert_labels", None)
            lines.append(json.dumps(record))
        stripped.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code, _, stderr = _run(
            ["feedback", "--data", str(stripped), "--model", str(model_path)],
            capsys,
        )
        assert code == 2
        assert "label" in stderr

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda a: a["payload"]["members"][0].__setitem__("scope", [99, 1, 2]), "must hold distinct label indices"),
            (lambda a: a["payload"]["members"][0].__setitem__("scope", [1, 1, 1]), "must hold distinct label indices"),
            (lambda a: a.__setitem__("n_labels", 5), "'n_labels' 5"),
            (
                lambda a: [m.__setitem__("classes", [[99]] * len(m["classes"]))
                           for m in a["payload"]["members"]],
                "'classes' entry [99]",
            ),
        ],
        ids=["scope-out-of-range", "scope-repeated", "n-labels", "classes-out-of-scope"],
    )
    def test_corrupted_label_axis_exit_2(
        self, data_path, model_path, mutate, message, capsys
    ):
        artifact = json.loads(model_path.read_text(encoding="utf-8"))
        mutate(artifact)
        model_path.write_text(json.dumps(artifact), encoding="utf-8")
        code, stdout, stderr = _run(
            ["feedback", "--data", str(data_path), "--model", str(model_path)], capsys
        )
        assert (code, stdout) == (2, "")
        assert message in stderr

    @pytest.mark.parametrize("method", ["rakel", "chain-real"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_chunked_output_matches_one_record_path(self, method, fmt, tmp_path, capsys):
        """A cohort one record longer than a prediction chunk renders exactly as
        record-by-record feedback does."""
        train = tmp_path / "train.jsonl"
        data = tmp_path / "cohort.jsonl"
        model = tmp_path / "model.json"
        out = tmp_path / "feedback.out"
        count = str(nlg._CHUNK_ROWS + 1)
        assert main(["generate", "--out", str(train), "--count", "40", "--seed", "2"]) == 0
        assert main(["generate", "--out", str(data), "--count", count, "--seed", "3"]) == 0
        assert main(["train", "--data", str(train), "--method", method, "--out", str(model),
                     "--seed", "1"]) == 0
        code, _, _ = _run(["feedback", "--data", str(data), "--model", str(model),
                           "--format", fmt, "--out", str(out)], capsys)
        assert code == 0
        registry = default_registry()
        trained = load_model(model, registry)
        ds = load_dataset(data, registry)
        summaries = [
            next(nlg.feedback_for_records(trained, Dataset(registry, [record])))
            for record in ds.records
        ]
        if fmt == "json":
            text = json.dumps([nlg.summary_to_json(s) for s in summaries], indent=2)
        else:
            text = "\n\n".join(nlg.render_text(s) for s in summaries)
        assert out.read_text(encoding="utf-8") == text + "\n"


class TestOverflowingFeatures:
    """Finite series values near the float limit overflow the feature sums.
    Every command that makes features exits 2 naming the record and the
    factor, with no numpy warning (the suite makes each warning an error)."""

    @pytest.fixture()
    def paths(self, tmp_path, capsys):
        clean, bad, model = (tmp_path / name for name in ("clean.jsonl", "bad.jsonl", "m.json"))
        assert main(["generate", "--out", str(clean), "--count", "30", "--seed", "5"]) == 0
        assert main(["train", "--data", str(clean), "--method", "br", "--out", str(model)]) == 0
        capsys.readouterr()
        lines = clean.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["series"]["hours_studied"] = [1e308] * record["weeks"]
        bad.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n", encoding="utf-8")
        return {"data": str(bad), "model": str(model), "out": str(tmp_path / "out.json")}

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--folds", "3"],
            ["train", "--method", "rakel", "--out", "{out}"],
            ["feedback", "--model", "{model}"],
            ["inspect-features"],
        ],
        ids=["evaluate", "train", "feedback", "inspect-features"],
    )
    def test_exit_2_naming_the_record_and_factor(self, paths, argv, capsys):
        argv = [argv[0], "--data", paths["data"], *(arg.format(**paths) for arg in argv[1:])]
        code, stdout, stderr = _run(argv, capsys)
        assert (code, stdout) == (2, "")
        assert stderr == (
            "rakelgen: validation error: record s0000: series hours_studied gives "
            "non-finite features\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_feedback_writes_nothing_for_a_record_past_the_first_chunk(
        self, tmp_path, capsys, fmt, to_file
    ):
        # record s0280 lies in the second prediction chunk: the job fails
        # before any earlier record's summary is written, and --out makes no file
        data, model, out = tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "fb.out"
        count = str(nlg._CHUNK_ROWS + 44)
        assert main(["generate", "--out", str(data), "--count", count, "--seed", "5"]) == 0
        assert main(["train", "--data", str(data), "--method", "br", "--out", str(model)]) == 0
        capsys.readouterr()
        lines = data.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[280])
        assert record["student_id"] == "s0280"
        record["series"]["marks"] = [1e308] * record["weeks"]
        lines[280] = json.dumps(record)
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["feedback", "--data", str(data), "--model", str(model), "--format", fmt]
        code, stdout, stderr = _run(argv + ["--out", str(out)] * to_file, capsys)
        assert (code, stdout) == (2, "")
        assert stderr == (
            "rakelgen: validation error: record s0280: series marks gives non-finite features\n"
        )
        assert not out.exists()

    def test_other_records_still_inspect(self, paths, capsys):
        argv = ["inspect-features", "--data", paths["data"], "--student", "s0001"]
        code, stdout, _ = _run(argv, capsys)
        assert code == 0
        assert stdout.startswith("s0001:")


def test_parser_aggregates_are_evaluations():
    from rakelgen import cli, evaluation

    assert cli.AGGREGATES == evaluation.AGGREGATES


class TestInspectFeatures:
    def test_lists_factor_statistics(self, data_path, capsys):
        code, stdout, _ = _run(
            [
                "inspect-features",
                "--data",
                str(data_path),
                "--student",
                "s0003",
            ],
            capsys,
        )
        assert code == 0
        assert stdout.startswith("s0003:")
        assert "marks.mean =" in stdout
        assert "revision.slope =" in stdout

    def test_unknown_student_exit_2(self, data_path, capsys):
        code, _, stderr = _run(
            [
                "inspect-features",
                "--data",
                str(data_path),
                "--student",
                "s9999",
            ],
            capsys,
        )
        assert code == 2
        assert "s9999" in stderr

    @pytest.mark.parametrize("mode", ["derived", "raw", "both"])
    def test_prints_each_records_feature_vector(self, data_path, capsys, mode):
        """One feature matrix for all records prints what one feature row
        per record prints."""
        code, stdout, _ = _run(["inspect-features", "--data", str(data_path), "--mode", mode],
                               capsys)
        expected = []
        for student_id, series, _ in load_dataset(data_path, default_registry()).records:
            values = feature_matrix(series_stack([series]), mode)[0].tolist()
            expected.append(f"{student_id}:")
            expected.extend(f"  {factor.key}.{name} = {value:g}" for (factor, name), value
                            in zip(feature_schema(series.shape[1], mode), values))
        assert (code, stdout) == (0, "\n".join(expected) + "\n")


def _read_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with path.open("rb") as handle:
        return tomllib.load(handle)


def _checkout_env():
    """Environment whose PYTHONPATH puts the imported ``rakelgen`` first."""
    env = dict(os.environ)
    source_root = str(Path(rakelgen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    return env


class TestFreedHeap:
    """``main`` has glibc keep freed memory for reuse (``cli._keep_freed_heap``)."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
    def test_second_evaluate_faults_few_pages(self, tmp_path):
        """Without the malloc parameters, every block of split search faults its
        scratch pages in again: about 40,000 minor faults on this cohort."""
        data = tmp_path / "students.jsonl"
        assert main(["generate", "--out", str(data), "--count", "40", "--seed", "0"]) == 0
        argv = ["evaluate", "--data", str(data), "--folds", "3", "--methods", "br,rakel"]
        script = (
            "import contextlib, io, resource\n"
            "from rakelgen.cli import main\n"
            f"argv = {argv!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(argv) == 0\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert main(argv) == 0\n"
            "    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "print(faults)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=_checkout_env())
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 2000

    @pytest.mark.parametrize("missing", [OSError, TypeError, AttributeError])
    def test_runs_without_mallopt(self, data_path, missing, monkeypatch, capsys):
        calls = []

        def cdll(name):
            calls.append(name)
            if missing is AttributeError:
                return object()
            raise missing("no C library here")

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        code, stdout, _ = _run(["inspect-features", "--data", str(data_path)], capsys)
        assert (code, calls) == (0, [None])
        assert stdout.startswith("s0000:")


class TestEntryPoint:
    def test_import_is_lazy_and_star_import_binds_all(self):
        script = (
            "import json, sys\n"
            "import rakelgen\n"
            "loaded = [name for name in sys.modules if name.startswith('rakelgen.')]\n"
            "namespace = {}\n"
            "exec('from rakelgen import *', namespace)\n"
            "unbound = [name for name in rakelgen.__all__ if name not in namespace]\n"
            "print(json.dumps([loaded, unbound, rakelgen.__all__]))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=_checkout_env())
        assert result.returncode == 0, result.stderr
        loaded, unbound, names = json.loads(result.stdout)
        assert loaded == []
        assert unbound == []
        assert "__version__" in names and "load_dataset" in names

    def test_feedback_imports_no_evaluation_or_synthesis(self, data_path, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data_path), "--method", "rakel",
                     "--out", str(model)]) == 0
        argv = ["feedback", "--data", str(data_path), "--model", str(model),
                "--out", str(tmp_path / "feedback.txt")]
        script = (
            "import json, sys\n"
            "from rakelgen.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=_checkout_env())
        code, modules = json.loads(result.stdout)
        assert code == 0, result.stderr
        assert "rakelgen.nlg" in modules
        assert "rakelgen.evaluation" not in modules
        assert "rakelgen.synth" not in modules

    def test_console_script_version(self, tmp_path):
        project = _read_pyproject()["project"]
        module, _, attr = project["scripts"]["rakelgen"].partition(":")
        # The wrapper an installer writes for a ``module:attr`` console script.
        script = tmp_path / "rakelgen"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n",
            encoding="utf-8",
        )
        script.chmod(0o755)
        env = _checkout_env()
        env["PATH"] = os.pathsep.join(
            filter(None, [str(tmp_path), env.get("PATH")])
        )
        result = subprocess.run(
            ["rakelgen", "--version"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"rakelgen {project['version']}\n"

    def test_package_runs_as_a_module(self):
        result = subprocess.run(
            [sys.executable, "-m", "rakelgen", "--version"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"rakelgen {rakelgen.__version__}\n"

    def test_module_invocation_matches(self):
        result = subprocess.run(
            [sys.executable, "-m", "rakelgen.cli", "--version"],
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert result.returncode == 0
        assert "rakelgen" in result.stdout
