"""Smoke test of the benchmark on tiny cohorts.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

TINY = run.Sizes(cv_students=20, lp_students=30, lp_holdout=20, bulk_train=40, bulk_students=200)


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """Digests of a first run of each tiny workload, standing in for digests.json."""
    out = tmp_path_factory.mktemp("pin")
    rk = run.load_program()
    digests = {}
    for workload in run.WORKLOADS:
        work = out / workload
        work.mkdir()
        job = run.SETUPS[workload](rk, work, 0, TINY, [])
        result = run.run_job(job, work, False, "pin")
        assert "error" not in result
        digests[workload] = result["digests"]
    return digests


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, pinned, tmp_path):
    record = run.run_workload(workload, 0, 0, trace, TINY, pinned[workload], tmp_path)
    result = run.summary(record, trace)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + (run.TRACED_JOBS if trace else 0)
    declared = json.loads(run.BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace and workload == "cv_compare":
        # 10 folds x (29 BR + 2 x 29 chain + 58 RAkEL) fits; the chain-real
        # fits and each chain's first fit repeat BR or chain-predicted ones
        assert result["metrics"]["tree.train_calls"]["value"] == 1450
        assert result["metrics"]["features.extract_calls"]["value"] == 4 * 18 * 10 + 5 * 20
    json.dumps(result)  # the result line is plain JSON


def test_corrupted_output_is_a_failure(pinned, tmp_path, monkeypatch):
    setup = run.SETUPS["feedback_bulk"]

    def corrupting_setup(rk, work, *args):
        job = setup(rk, work, *args)

        def corrupt() -> int:
            with open(work / "feedback.txt", "a", encoding="utf-8") as handle:
                handle.write("x")
            return 0

        job.after = corrupt
        return job

    monkeypatch.setitem(run.SETUPS, "feedback_bulk", corrupting_setup)
    record = run.run_workload("feedback_bulk", 0, 0, False, TINY, pinned["feedback_bulk"], tmp_path)
    result = run.summary(record, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert record["failures"][0].startswith("feedback.txt: sha256")


def test_failed_command_is_a_failure(pinned, tmp_path, monkeypatch):
    setup = run.SETUPS["train_lp"]

    def bad_setup(*args):
        job = setup(*args)
        job.argv = [*job.argv, "--max-depth", "0"]  # rejected: exit 2
        return job

    monkeypatch.setitem(run.SETUPS, "train_lp", bad_setup)
    record = run.run_workload("train_lp", 0, 0, False, TINY, pinned["train_lp"], tmp_path)
    assert not run.summary(record, False)["correct"]
    assert record["failures"] == ["rakelgen train exited 2"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv_compare",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
