"""rakelgen benchmark: the CLI jobs users run, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload cv_compare --seed 0 --seconds 10 --trace 0

Workloads (see README.md for why each was chosen):

* ``cv_compare``    - ``evaluate``, default five methods, 10 folds, 50 students.
* ``train_lp``      - ``train --method lp`` on 200 students.
* ``feedback_bulk`` - ``feedback`` over 5,000 students with a RAkEL artifact
  trained during set-up on a separate 100-student cohort.

Each cohort is fixed; the workload seed (mod ``PINNED_SEEDS``) is the CLI
``--seed`` (fold plan, RAkEL subsets) and shuffles the order of the training
records of ``train_lp`` and of the records ``feedback_bulk`` renders. Set-up
builds the inputs at least ``SETUP_REPS`` times and for at least
``SETUP_MIN_S`` seconds; ``setup_s`` is the median. Each job then runs in a
fresh Python process (``job.py``) until ``--seconds`` have passed, at least
once. Every job's outputs are checked
against SHA-256 digests pinned in ``digests.json``; a non-zero exit or a
mismatch is a failed operation, and any failure makes the exit code 1.

With ``--trace 1`` the run also makes ``TRACED_JOBS`` traced jobs and reports
the per-layer metrics instead of the end-to-end ones. Their counts must repeat
exactly between the traced jobs.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs the three workloads in turn, each ending in its own
result line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("cv_compare", "train_lp", "feedback_bulk")
#: The workload seed is taken mod PINNED_SEEDS, so that every run's output has
#: a digest pinned in digests.json.
PINNED_SEEDS = 10
#: Synthesis seed of every cohort. Cohorts are fixed because the split-search
#: work differs between cohorts of these sizes (by up to 1.5x for full LP).
COHORT_SEEDS = {"cv": 0, "lp_train": 1, "lp_holdout": 2, "bulk_train": 3, "bulk": 4}
SETUP_REPS = 3
SETUP_MIN_S = 2.0
TRACED_JOBS = 2
JOB_TIMEOUT_S = 60
#: One process, one thread: numpy's BLAS pools are pinned to a single thread
#: here and in every job process.
THREAD_ENV = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
#: Per-layer metrics that count work; they must repeat exactly between runs.
COUNT_METRICS = (
    "tree.train_calls",
    "tree.nodes",
    "tree.max_classes",
    "tree.distinct_fit_ratio",
    "tree.predict_calls",
    "mlc.predict_calls",
    "features.extract_calls",
    "features.distinct_ratio",
    "model_io.artifact_bytes",
)


@dataclass(frozen=True)
class Sizes:
    """Cohort sizes (students) of each workload's inputs."""

    cv_students: int = 50
    lp_students: int = 200
    lp_holdout: int = 200
    bulk_train: int = 100
    bulk_students: int = 5_000


FULL = Sizes()


@dataclass
class Job:
    """One CLI job: its argv, the file its stdout goes to, and the output
    files whose digests are checked. ``after`` runs in this process once the
    job succeeded and returns an exit code (used to render held-out feedback)."""

    argv: list[str]
    stdout: str
    outputs: tuple[str, ...]
    after: Callable[[], int] | None = None


def load_program():
    """Import the package under test from ``src/`` of this checkout."""
    if not (SRC / "rakelgen" / "cli.py").is_file():
        raise FileNotFoundError(f"no rakelgen sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy
    from rakelgen import cli, domain, features, synth

    return SimpleNamespace(
        cli=cli,
        domain=domain,
        features=features,
        synth=synth,
        numpy=numpy,
        registry=domain.default_registry(),
    )


def _generate(rk, n: int, cohort: str, path: Path, synth_s: list, order_seed=None) -> str:
    """Write cohort ``cohort`` of ``n`` students, shuffled by ``order_seed`` if given."""
    start = perf_counter()
    config = rk.synth.default_synth_config(n_students=n, seed=COHORT_SEEDS[cohort])
    ds = rk.synth.generate_dataset(config, rk.registry)
    synth_s.append(perf_counter() - start)
    if order_seed is not None:
        records = list(ds.records)
        random.Random(order_seed).shuffle(records)
        ds = rk.domain.Dataset(ds.registry, tuple(records))
    rk.domain.save_dataset(ds, path)
    return str(path)


def _quiet_cli(rk, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return rk.cli.main(argv)


def setup_cv_compare(rk, work: Path, index: int, sizes: Sizes, synth_s: list) -> Job:
    data = _generate(rk, sizes.cv_students, "cv", work / "cohort.jsonl", synth_s)
    argv = [
        "evaluate", "--data", data, "--folds", "10", "--reference", "rakel",
        "--seed", str(index), "--n-jobs", "1", "--json", str(work / "report.json"),
    ]
    return Job(argv, "table.txt", ("report.json", "table.txt"))


def setup_train_lp(rk, work: Path, index: int, sizes: Sizes, synth_s: list) -> Job:
    data = _generate(rk, sizes.lp_students, "lp_train", work / "train.jsonl", synth_s, index)
    holdout = _generate(rk, sizes.lp_holdout, "lp_holdout", work / "holdout.jsonl", synth_s)
    model = str(work / "lp_model.json")
    argv = [
        "train", "--data", data, "--method", "lp", "--out", model,
        "--seed", str(index), "--n-jobs", "1",
    ]

    def holdout_feedback() -> int:
        return _quiet_cli(rk, [
            "feedback", "--data", holdout, "--model", model, "--format", "json",
            "--out", str(work / "holdout_feedback.json"),
        ])

    return Job(argv, "stdout.txt", ("holdout_feedback.json",), holdout_feedback)


def setup_feedback_bulk(rk, work: Path, index: int, sizes: Sizes, synth_s: list) -> Job:
    train = _generate(rk, sizes.bulk_train, "bulk_train", work / "train.jsonl", synth_s)
    artifact = str(work / "rakel_model.json")
    rc = _quiet_cli(rk, [
        "train", "--data", train, "--method", "rakel", "--out", artifact,
        "--seed", str(index), "--n-jobs", "1",
    ])
    if rc != 0:
        raise RuntimeError(f"set-up training of the RAkEL artifact exited {rc}")
    data = _generate(rk, sizes.bulk_students, "bulk", work / "students.jsonl", synth_s, index)
    argv = ["feedback", "--data", data, "--model", artifact, "--out", str(work / "feedback.txt")]
    return Job(argv, "stdout.txt", ("feedback.txt",))


SETUPS = {
    "cv_compare": setup_cv_compare,
    "train_lp": setup_train_lp,
    "feedback_bulk": setup_feedback_bulk,
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_job(job: Job, work: Path, trace: bool, run_id: str) -> dict:
    """Run ``job`` in a fresh process; return its timings, digests and any error."""
    for name in (*job.outputs, "job_result.json", "spans.jsonl"):
        (work / name).unlink(missing_ok=True)
    spec = {
        "src": str(SRC),
        "argv": job.argv,
        "stdout": str(work / job.stdout),
        "result": str(work / "job_result.json"),
        "spans": str(work / "spans.jsonl"),
        "trace": trace,
        "run_id": run_id,
    }
    spec_path = work / "job_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), str(spec_path)],
            stdout=subprocess.DEVNULL,
            env={**os.environ, **THREAD_ENV},
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"job exceeded {JOB_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"job process exited {proc.returncode}"}
    result = json.loads((work / "job_result.json").read_text(encoding="utf-8"))
    if result["rc"] != 0:
        result["error"] = f"rakelgen {job.argv[0]} exited {result['rc']}"
        return result
    if job.after is not None:
        rc = job.after()
        if rc != 0:
            result["error"] = f"output check command exited {rc}"
            return result
    result["digests"] = {
        name: sha256_file(work / name) if (work / name).is_file() else None
        for name in job.outputs
    }
    if trace:
        from spans import layer_metrics

        result["layers"] = layer_metrics(work / "spans.jsonl", result["counts"])
    return result


def check_job(result: dict, expected: dict | None) -> str | None:
    """The reason ``result`` is a failure, or None when it ran and matched."""
    if "error" in result:
        return result["error"]
    if not expected:
        return "no pinned digests for this workload and seed"
    for name, digest in result["digests"].items():
        if digest != expected.get(name):
            return f"{name}: sha256 {digest} != pinned {expected.get(name)}"
    return None


def load_expected(workload: str, index: int) -> dict | None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return pinned.get(workload, {}).get(str(index))


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    """Digest of every file under src/rakelgen, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rakelgen").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(rk, workload: str, seed: int, index: int, sizes: Sizes) -> dict:
    weeks = rk.synth.default_synth_config().weeks
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": rk.numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "n_jobs": 1,
        "blas_threads": 1,
        "workload": workload,
        "seed": seed,
        "cli_and_order_seed": index,
        "cohort_seeds": COHORT_SEEDS,
        "cohort_sizes": asdict(sizes),
        "weeks": weeks,
        "d_features": len(rk.features.feature_schema(weeks, "both")),
        "L_labels": len(rk.registry),
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sizes = FULL,
    expected: dict | None = None,
    out: Path = OUT,
) -> dict:
    """Set up, run and check one workload; return the full result record."""
    rk = load_program()
    index = seed % PINNED_SEEDS
    work = out / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s, synth_s = [], []
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
        synth_parts: list[float] = []
        start = perf_counter()
        job = SETUPS[workload](rk, work, index, sizes, synth_parts)
        setup_s.append(perf_counter() - start)
        synth_s.append(sum(synth_parts))

    untraced = []
    start = perf_counter()
    while not untraced or perf_counter() - start < seconds:
        untraced.append(run_job(job, work, False, f"{workload}-{seed}-u{len(untraced)}"))
    traced = [
        run_job(job, work, True, f"{workload}-{seed}-t{i}")
        for i in range(TRACED_JOBS if trace else 0)
    ]

    failures = [
        reason for reason in (check_job(r, expected) for r in untraced + traced) if reason
    ]
    timed = [r for r in untraced if "job_s" in r]
    end_to_end = {
        "job_s": statistics.median(r["job_s"] for r in timed) if timed else None,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed) if timed else None,
        "setup_s": statistics.median(setup_s),
    }
    record = {
        "context": run_context(rk, workload, seed, index, sizes),
        "attempted": len(untraced) + len(traced),
        "failed": len(failures),
        "failures": failures,
        "samples": {
            "job_s": [r.get("job_s") for r in untraced],
            "peak_rss_mb": [r.get("peak_rss_mb") for r in untraced],
            "setup_s": setup_s,
            "synth.generate_s": synth_s,
        },
        "end_to_end": end_to_end,
    }
    if trace:
        layered = [r["layers"] for r in traced if "layers" in r]
        layers = {}
        if layered:
            for name in layered[0]:
                values = [one[name] for one in layered]
                if name not in COUNT_METRICS:
                    layers[name] = statistics.median(values)
                    continue
                layers[name] = values[0]
                if len(set(values)) > 1:
                    failures.append(f"count {name} differs between traced jobs: {values}")
            record["failed"] = len(failures)
            traced_s = statistics.median(r["job_s"] for r in traced if "job_s" in r)
            if timed:
                layers["trace.overhead_frac"] = traced_s / end_to_end["job_s"] - 1.0
            record["samples"]["traced_job_s"] = [r.get("job_s") for r in traced]
            record["missing_hooks"] = traced[0]["counts"]["missing_hooks"]
        layers["synth.generate_s"] = statistics.median(synth_s)
        record["per_layer"] = layers
    return record


def metric_units(group: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def summary(record: dict, trace: bool) -> dict:
    """The result line: every end_to_end metric untraced, every per_layer one traced."""
    values = record["per_layer"] if trace else record["end_to_end"]
    units = metric_units("per_layer" if trace else "end_to_end")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values.get(name), "unit": unit} for name, unit in units.items()
        },
    }


def report(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, save its record, print its metrics; True if correct."""
    record = run_workload(
        workload, seed, seconds, trace, expected=load_expected(workload, seed % PINNED_SEEDS)
    )
    result = summary(record, trace)
    record["result"] = result
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"context: {json.dumps(record['context'], sort_keys=True)}")
    counts = {name: len(record["samples"][name]) for name in ("job_s", "peak_rss_mb", "setup_s")}
    for name, metric in result["metrics"].items():
        n = f" (median of {counts[name]})" if name in counts else ""
        print(f"{workload} {name} = {metric['value']} {metric['unit']}{n}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{workload} failed_frac = {failed / attempted} ({failed}/{attempted} jobs)")
    for reason in record["failures"]:
        print(f"FAILED: {reason}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rakelgen" / "cli.py").is_file() or not DIGESTS.is_file():
        print(f"perfbench: no rakelgen sources under {SRC} or no {DIGESTS.name}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [report(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
