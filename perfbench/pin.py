"""Pin the output digests that run.py checks, one set per cohort index.

Usage (from the repository root): python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload's job once per cohort index 0..PINNED_SEEDS-1 and writes
the SHA-256 of its outputs to digests.json. Run it only at a commit whose
outputs are known to be right: the digests are the benchmark's output gate.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(workloads) -> int:
    pinned = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    rk = run.load_program()
    for workload in workloads:
        work = run.OUT / "pin" / workload
        for index in range(run.PINNED_SEEDS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            job = run.SETUPS[workload](rk, work, index, run.FULL, [])
            result = run.run_job(job, work, False, f"pin-{workload}-{index}")
            if "error" in result:
                print(f"{workload} {index}: {result['error']}", file=sys.stderr)
                return 1
            pinned.setdefault(workload, {})[str(index)] = result["digests"]
            print(f"{workload} {index}: job_s {result['job_s']:.3f}", flush=True)
    run.DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or run.WORKLOADS))
