"""Run one rakelgen CLI job in this fresh process and report its cost.

Usage: python3 perfbench/job.py SPEC.json

SPEC names the CLI argv, where to send the job's stdout, where to write the
result and, for a traced job, where to write the spans. The job runs in
process through ``rakelgen.cli.main``; its wall time counts from before the
package import, and its peak RSS is this process's, so it belongs to the job
alone.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    tracer = None
    start = perf_counter()
    from rakelgen import cli

    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    with open(spec["stdout"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        rc = cli.main(spec["argv"])
    job_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"rc": rc, "job_s": job_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["counts"] = tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
