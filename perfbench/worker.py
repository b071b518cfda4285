"""One pass of a library workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S [--trace]

Runs the pass's job list once, one job at a time, and prints one JSON line:
the pass wall time (the sum of the job latencies), the speed probes
(calibrate.kernel_s) with their times, each job's time window, key,
latency, verdict and output SHA-256, and with --trace the span and counter
summary.  run.py starts one worker per pass, so no pass sees state left by
another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import time
import traceback

import calibrate
import jobs

PROBE_EVERY_S = 0.025


class Probes:
    """Speed probes with their start times: three before the pass, one after
    each job, and one every PROBE_EVERY_S inside a job, run from SIGALRM.
    A probe that interrupts a job is taken off the job's latency and off the
    tracer's clock."""

    def __init__(self, tracer):
        self.samples = []
        self.stolen = 0.0
        self.tracer = tracer

    def take(self):
        t0 = time.perf_counter()
        self.samples.append((t0, calibrate.kernel_s()))
        return time.perf_counter() - t0

    def on_alarm(self, signum, frame):
        spent = self.take()
        self.stolen += spent
        if self.tracer is not None:
            self.tracer.paused += spent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.LIBRARY_WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()
    runner = jobs.Runner()
    job_list = jobs.pass_jobs(args.workload, args.seed)
    done, windows = [], []
    probes = Probes(tracer)
    for _ in range(3):
        probes.take()
    signal.signal(signal.SIGALRM, probes.on_alarm)
    for job in job_list:
        stolen = probes.stolen
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            verdict, text = runner.run(job)
        except Exception:  # a failing job is counted, never fatal to the pass
            verdict, text = "ERROR " + traceback.format_exc(limit=3), ""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        windows.append((t0, t1))
        done.append((job.key, (t1 - t0 - (probes.stolen - stolen)) * 1000.0, verdict, text))
        probes.take()
    out = {
        "wall_s": sum(ms for _key, ms, _verdict, _text in done) / 1000.0,
        "probes": probes.samples,
        "windows": windows,
        "jobs": [[key, ms, verdict, hashlib.sha256(text.encode()).hexdigest()] for key, ms, verdict, text in done],
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
