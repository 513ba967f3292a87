"""``comparison_report`` runs its folds in forked worker processes: the
report, the warnings and the errors are those of one process, whatever the
number of workers. The count is set by replacing ``_worker_count``."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import rakelgen
from rakelgen import evaluation, mlc
from rakelgen.cli import main
from rakelgen.errors import LabelCoverageWarning, ValidationError
from rakelgen.evaluation import EvalOptions, comparison_report
from rakelgen.mlc import STRATEGIES, RakelConfig

WORKERS = (1, 2, 3)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("folds") / "students.jsonl"
    assert main(["generate", "--out", str(path), "--count", "24", "--seed", "3"]) == 0
    return path


def _with_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(evaluation, "_worker_count", lambda n_folds: workers)


CASES = {
    "default": [],
    "all-k2-m5": ["--methods", ",".join(STRATEGIES), "--k", "2", "--m", "5"],
    "fold-mean": ["--aggregate", "fold-mean"],
    "reversed-order": ["--chain-order", ",".join(map(str, reversed(range(29))))],
    "entropy": ["--criterion", "entropy"],
}


@pytest.mark.filterwarnings("ignore::rakelgen.errors.LabelCoverageWarning")
@pytest.mark.parametrize("extra", CASES.values(), ids=CASES)
def test_table_and_json_are_the_same_at_any_worker_count(
    data_path, tmp_path, monkeypatch, capsys, extra
):
    outputs = []
    for workers in WORKERS:
        _with_workers(monkeypatch, workers)
        report = tmp_path / f"report{workers}.json"
        argv = ["evaluate", "--data", str(data_path), "--json", str(report), *extra]
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, report.read_bytes()))
    assert outputs[1:] == outputs[:1] * (len(WORKERS) - 1)


#: Runs the CLI with the worker count of its first argument, under the
#: interpreter's default warning filters.
SCRIPT = """
import sys
from rakelgen import cli, evaluation
evaluation._worker_count = lambda n_folds: int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""


def _env() -> dict:
    """This environment without ``PYTHONWARNINGS``, importing this ``rakelgen``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    source_root = str(Path(rakelgen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def _evaluate_in_a_new_process(workers: int, argv: list[str]) -> tuple[int, str, str]:
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(workers), "evaluate", *argv],
        capture_output=True, text=True, env=_env(),
    )
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize(
    "rakel, warned", [(["--k", "1"], 1), (["--k", "2", "--m", "5"], 2)], ids=["clamped", "uncovered"]
)
def test_warnings_print_as_in_one_process(data_path, rakel, warned):
    """Every fold warns alike; the default filter prints each warning once."""
    argv = ["--data", str(data_path), "--folds", "4", "--methods", "br,rakel", *rakel]
    runs = [_evaluate_in_a_new_process(workers, argv) for workers in (1, 2)]
    assert runs[0] == runs[1]
    code, _, stderr = runs[0]
    assert code == 0
    lines = [line for line in stderr.splitlines() if "LabelCoverageWarning" in line]
    assert len(lines) == len(set(lines)) == warned


@pytest.mark.parametrize("workers", (1, 2))
def test_labelsets_are_sampled_once_per_report(ds37, monkeypatch, workers):
    """The request is resolved in this process, before the folds are mapped."""
    calls = []
    sample = mlc.sample_labelsets

    def counted(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(mlc, "sample_labelsets", counted)
    _with_workers(monkeypatch, workers)
    comparison_report(ds37, ("br", "rakel"), "rakel", EvalOptions(n_folds=4))
    assert calls == [(29, 3, 58, 0)]


@pytest.mark.parametrize("workers", (1, 2))
def test_each_coverage_warning_is_raised_once_per_report(ds37, monkeypatch, workers):
    _with_workers(monkeypatch, workers)
    opts = EvalOptions(n_folds=4, rakel_config=RakelConfig(k=2, m=5))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        comparison_report(ds37, ("br", "rakel"), "rakel", opts)
    assert [w.category for w in caught] == [LabelCoverageWarning] * 2
    assert "full coverage is impossible" in str(caught[0].message)


def test_train_imports_no_process_pool(data_path, tmp_path):
    """Only a fold map with more than one worker imports the pool."""
    argv = ["train", "--method", "rakel", "--data", str(data_path), "--out", str(tmp_path / "m.json")]
    script = (
        "import sys\n"
        "from rakelgen import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env())
    assert (result.returncode, result.stdout.splitlines()[-1]) == (0, "[]"), result.stderr


@pytest.mark.parametrize("workers", WORKERS)
def test_a_refused_chain_order_exits_2_as_in_one_process(data_path, monkeypatch, capsys, workers):
    _with_workers(monkeypatch, workers)
    argv = ["evaluate", "--data", str(data_path), "--methods", "br,rakel", "--chain-order", "7"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "rakelgen: validation error: chain order must be a permutation of 0..28\n"
    )


@pytest.mark.parametrize("workers", WORKERS)
def test_the_first_failing_fold_raises(ds37, monkeypatch, workers):
    fold = evaluation._fold

    def failing(index, *state):
        if index in (3, 5):
            raise ValidationError(f"fold {index} failed")
        return fold(index, *state)

    monkeypatch.setattr(evaluation, "_fold", failing)
    _with_workers(monkeypatch, workers)
    with pytest.raises(ValidationError, match="^fold 3 failed$"):
        comparison_report(ds37, ("majority",), "majority", EvalOptions(n_folds=8))


def test_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7})
    assert evaluation._worker_count(10) == 4
    assert evaluation._worker_count(3) == 3
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert evaluation._worker_count(10) == 1  # fork is unsafe while another thread runs
    for missing in ("sched_getaffinity", "fork"):
        monkeypatch.undo()
        monkeypatch.delattr(os, missing)
        assert evaluation._worker_count(10) == 1
