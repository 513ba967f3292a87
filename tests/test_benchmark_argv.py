"""The benchmark's command lines still run.

``perfbench/run.py`` builds each workload's CLI job from its own argv. A CLI
change that such an argv no longer parses or runs (an option renamed or
dropped, say) fails here: each workload is set up at tiny sizes and its job
run in this process through ``cli.main``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from rakelgen.cli import main

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

pytestmark = pytest.mark.filterwarnings("ignore::rakelgen.errors.LabelCoverageWarning")


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


RUN = _load_run()
TINY = RUN.Sizes(cv_students=10, lp_students=8, lp_holdout=4, bulk_train=8, bulk_students=6)


@pytest.mark.parametrize("workload", RUN.WORKLOADS)
def test_the_workload_job_runs(workload, tmp_path):
    job = RUN.SETUPS[workload](RUN.load_program(), tmp_path, 0, TINY, [])
    assert main(job.argv) == 0
    if job.after is not None:
        assert job.after() == 0
