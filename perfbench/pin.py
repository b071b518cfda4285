"""Regenerate sources.json and expected.json from the engine in this checkout.

    python3 perfbench/pin.py

Runs every job any seed can select, untimed, and records its verdict and
the SHA-256 of its canonical output.  The pins are the known answers the
benchmark checks each run against; every later version of the engine must
reproduce them byte for byte.  Rerun this only when the job lists in
jobs.py change, never to absorb a change in engine output.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import jobs
import run


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import laxdual

    with open(jobs.SOURCES_FILE, "w", encoding="utf-8") as handle:
        json.dump(jobs.make_sources(), handle, indent=1, sort_keys=True)
        handle.write("\n")

    pinned = {}
    for workload in jobs.LIBRARY_WORKLOADS:
        runner = jobs.Runner()
        pinned[workload] = {}
        for job in jobs.all_jobs(workload):
            verdict, text = runner.run(job)
            pinned[workload][job.key] = {"verdict": verdict, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    env = run.child_env()
    work = jobs.write_cli_files(run.ROOT)
    try:
        pinned["cli_batch"] = {}
        for job in jobs.all_jobs("cli_batch"):
            child = run.spawn(run.cli_argv(job, traced=False), env)
            pinned["cli_batch"][job.key] = {
                "verdict": str(child.code),
                "sha256": hashlib.sha256(child.out).hexdigest(),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for workload, table in pinned.items():
        want = {job.key: job.expect for job in jobs.all_jobs(workload)}
        wrong = [key for key, pin in table.items() if pin["verdict"] != want[key]]
        if wrong:
            sys.stderr.write(f"{workload}: verdicts differ from the known answers: {wrong}\n")
            return 1
    with open(run.EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump({"laxdual": laxdual.__version__, "workloads": pinned}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {sum(len(t) for t in pinned.values())} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
