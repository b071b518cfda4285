"""laxdual benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/laxdual`.  One client runs
one job at a time with no threads.  Library workloads run whole passes, each
in a fresh worker process (worker.py); cli_batch runs each job as its own
`python -m laxdual.cli` process.  Passes repeat until S seconds have gone.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes (at least one and two) and reports the per-layer metrics.
Every job's verdict or exit code and output SHA-256 are checked against
expected.json; the last stdout line is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import selectors
import shutil
import signal
import statistics
import sys
import time
from typing import NamedTuple

import calibrate
import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_FILE = os.path.join(HERE, "expected.json")
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 11
MIN_PASSES = 2
TAIL_QUANTILE = 0.9
PROBE_WINDOW_S = 0.25
TRACE_PREFIX = b"PERFBENCH-TRACE "

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import laxdual, laxdual.cli; "
    "print(repr(time.perf_counter() - t))"
)


class Child(NamedTuple):
    code: int
    out: bytes
    err: bytes
    wall_s: float
    rss_mb: float


def spawn(argv, env, timeout=CHILD_TIMEOUT_S):
    """Run argv to completion; capture its output, wall time and peak RSS."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out_w, 1),
            (os.POSIX_SPAWN_DUP2, err_w, 2),
        ])
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks = {out_r: [], err_r: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(out_r, selectors.EVENT_READ)
        sel.register(err_r, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, t0 + timeout - time.perf_counter()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    os.close(out_r)
    os.close(err_r)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = -9 if killed else os.waitstatus_to_exitcode(status)
    return Child(code, b"".join(chunks[out_r]), b"".join(chunks[err_r]), wall, usage.ru_maxrss / 1024.0)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- passes --------------------------------------------------------------------


class Pass(NamedTuple):
    wall_s: float     # raw seconds, the sum of the job latencies
    jobs: list        # [key, raw ms, verdict, sha256]
    rss_mb: float
    trace: dict       # per-layer values (raw seconds), or None when untraced
    windows: list     # [start, end] perf_counter times of each job
    probes: list      # [start, seconds] of each speed probe
    probe_ref_s: float

    def speed(self):
        """Mean probe speed of the pass, relative to the reference."""
        return statistics.fmean(self.probe_ref_s / s for _t, s in self.probes)

    def scaled_ms(self):
        """Job latencies times the mean probe speed within PROBE_WINDOW_S of
        each job.  A job's time integrates the machine's speed over its run,
        so the scale is the arithmetic mean of speeds (1 / probe time)."""
        out = []
        for (_key, ms, _verdict, _digest), (t0, t1) in zip(self.jobs, self.windows):
            near = [self.probe_ref_s / s for t, s in self.probes if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
            out.append(ms * statistics.fmean(near))
        return out


def library_pass(workload, seed, traced, env):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        argv.append("--trace")
    child = spawn(argv, env)
    if child.code != 0:
        raise RuntimeError(f"worker exited {child.code}: {child.err.decode(errors='replace')[-2000:]}")
    data = json.loads(child.out.decode().strip().splitlines()[-1])
    trace = layer_values([data["trace"]], outside_main_s=0.0) if traced else None
    return Pass(data["wall_s"], data["jobs"], child.rss_mb, trace, data["windows"], data["probes"],
                calibrate.KERNEL_REF_S)


def cli_argv(job, traced):
    launcher = [sys.executable, os.path.join(HERE, "launch.py")]
    if job.kind == "cli_tampered":
        return launcher + (["--trace"] if traced else []) + ["--tamper", "--"] + list(job.args)
    if traced:
        return launcher + ["--trace", "--"] + list(job.args)
    return [sys.executable, "-m", "laxdual.cli"] + list(job.args)


def bare_start_s(env):
    return spawn([sys.executable, "-c", "pass"], env).wall_s


def bare_probe(env):
    return (time.perf_counter(), bare_start_s(env))


def cli_pass(job_list, traced, env):
    """Each job is one process; bare interpreter starts are the speed probes."""
    done, summaries, windows = [], [], []
    probes = [bare_probe(env) for _ in range(3)]
    outside = wall = rss = 0.0
    for job in job_list:
        t0 = time.perf_counter()
        child = spawn(cli_argv(job, traced), env)
        windows.append((t0, t0 + child.wall_s))
        probes.append(bare_probe(env))
        wall += child.wall_s
        rss = max(rss, child.rss_mb)
        done.append([job.key, child.wall_s * 1000.0, str(child.code), hashlib.sha256(child.out).hexdigest()])
        if traced:
            lines = [ln for ln in child.err.splitlines() if ln.startswith(TRACE_PREFIX)]
            if lines:
                summary = json.loads(lines[-1][len(TRACE_PREFIX):])
                summaries.append(summary)
                outside += child.wall_s - summary["incl_s"].get("cli.main", 0.0)
            else:
                done[-1][2] = "ERROR no trace line"
    trace = layer_values(summaries, outside_main_s=outside) if traced else None
    return Pass(wall, done, rss, trace, windows, probes, calibrate.BARE_START_REF_S)


# -- per-layer values ------------------------------------------------------------


def layer_values(summaries, outside_main_s):
    """Per-layer metrics of one pass from the span summaries of its processes."""
    import spans

    calls, self_s, counters = {}, {}, dict.fromkeys(spans.SUM_COUNTERS + spans.MAX_COUNTERS, 0)
    for s in summaries:
        for name, v in s["calls"].items():
            calls[name] = calls.get(name, 0) + v
        for name, v in s["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name in spans.SUM_COUNTERS:
            counters[name] += s["counters"][name]
        for name in spans.MAX_COUNTERS:
            counters[name] = max(counters[name], s["counters"][name])
    values = {}
    for group, names in spans.GROUPS.items():
        values[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
        values[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names + spans.HELPERS.get(group, ()))

    def ratio(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    values.update({
        "diffpoly.mul.term_pairs": counters["mul.term_pairs"],
        "diffpoly.mul.fill": ratio("mul.result_terms", "mul.term_pairs"),
        "diffpoly.terms_max": counters["terms_max"],
        "diffpoly.coeff_bits_max": counters["coeff_bits_max"],
        "diffpoly.degree_max": counters["degree_max"],
        "diffpoly.dorder_max": counters["dorder_max"],
        "fnr.rows_built": counters["fnr.rows_built"],
        "fnr.rows_repeat_frac": ratio("fnr.rows_repeat", "fnr.rows_built"),
        "fnr.table_terms": counters["fnr.table_terms"],
        "zerocurv.zero_curvature.repeat_frac": ratio("zc.repeat", "zc.calls"),
        "poisson.wz_orders": counters["wz.orders"],
        "poisson.wz_repeat_frac": ratio("wz.repeat", "wz.orders"),
        "report.items": counters["report.items"],
        "report.items_failed": counters["report.items_failed"],
        "cli.outside_main_s": outside_main_s,
    })
    return values


# -- the run ---------------------------------------------------------------------


def measure_setup(env):
    """Median import time of laxdual + laxdual.cli in fresh interpreters,
    raw and scaled by the bare interpreter starts interleaved with them."""
    times, bare = [], []
    for _ in range(SETUP_PROBES):
        child = spawn([sys.executable, "-c", IMPORT_PROBE], env)
        if child.code != 0:
            raise RuntimeError(f"import probe failed: {child.err.decode(errors='replace')[-2000:]}")
        times.append(float(child.out.decode().strip()))
        bare.append(bare_start_s(env))
    raw = statistics.median(times)
    bare_s = statistics.median(bare)
    return raw * calibrate.BARE_START_REF_S / bare_s, raw, bare_s


def check_jobs(workload, passes, expected):
    """(attempted, failed, first failure messages)."""
    pinned = expected["workloads"][workload]
    want = {job.key: job.expect for job in jobs.all_jobs(workload)}
    attempted = failed = 0
    notes = []
    for p in passes:
        for key, _ms, verdict, digest in p.jobs:
            attempted += 1
            pin = pinned.get(key)
            problem = None
            if verdict != want.get(key):
                problem = f"verdict {verdict!r}, known answer {want.get(key)!r}"
            elif pin is None or pin["sha256"] != digest or pin["verdict"] != verdict:
                problem = "output differs from the pinned SHA-256"
            if problem:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"{key}: {problem}")
    return attempted, failed, notes


def tail(values):
    """Nearest-rank TAIL_QUANTILE of one pass's job latencies."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(TAIL_QUANTILE * len(ordered))) - 1]


def run_passes(workload, seed, seconds, trace, env):
    job_list = jobs.pass_jobs(workload, seed)

    def one(traced):
        if workload == "cli_batch":
            return cli_pass(job_list, traced, env)
        return library_pass(workload, seed, traced, env)

    untraced, traced = [], []
    start = time.perf_counter()
    if trace:
        untraced.append(one(False))
        traced.append(one(True))
        traced.append(one(True))
        while time.perf_counter() - start < seconds:
            if len(untraced) < len(traced):
                untraced.append(one(False))
            else:
                traced.append(one(True))
    else:
        while len(untraced) < MIN_PASSES or time.perf_counter() - start < seconds:
            untraced.append(one(False))
    return untraced, traced


def end_to_end(untraced, setup_s):
    scaled = [p.scaled_ms() for p in untraced]
    latencies = [ms for lat in scaled for ms in lat]
    raw = [ms for p in untraced for _k, ms, _v, _h in p.jobs]
    print(f"passes {len(untraced)} of {len(scaled[0])} jobs, {len(latencies)} jobs in all; job_tail_ms is the "
          f"median over passes of each pass's p{TAIL_QUANTILE * 100:.0f} (nearest rank); pass speed "
          f"{min(p.speed() for p in untraced):.3f}"
          f"..{max(p.speed() for p in untraced):.3f}; raw wall_s {statistics.median(p.wall_s for p in untraced):.4f}, "
          f"raw job_p50_ms {statistics.median(raw):.3f}")
    return {
        "wall_s": statistics.median(sum(lat) / 1000.0 for lat in scaled),
        "job_p50_ms": statistics.median(latencies),
        "job_tail_ms": statistics.median(tail(lat) for lat in scaled),
        "peak_rss_mb": max(p.rss_mb for p in untraced),
        "setup_s": setup_s,
    }


def per_layer(untraced, traced):
    """Per-layer values, times scaled by pass speed; (values, whether the counts repeated exactly)."""
    first = traced[0].trace
    counts_repeat = all(
        p.trace[name] == first[name] for p in traced for name in first if not name.endswith("_s")
    )
    values = {
        name: statistics.median(p.trace[name] * p.speed() for p in traced) if name.endswith("_s") else first[name]
        for name in first
    }
    traced_wall = statistics.median(sum(p.scaled_ms()) for p in traced)
    untraced_wall = statistics.median(sum(p.scaled_ms()) for p in untraced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values, counts_repeat


def declared(values, specs):
    """The metrics BENCHMARK.json declares, each with its declared unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None):
    parser = argparse.ArgumentParser(description="laxdual benchmark")
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "laxdual", "__init__.py")):
        sys.stderr.write(f"error: no src/laxdual under {ROOT}; run from a full checkout\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))  # jobs.write_cli_files renders rules with the engine
    with open(EXPECTED_FILE, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    env = child_env()
    work = jobs.write_cli_files(ROOT) if args.workload == "cli_batch" else None
    try:
        warm = spawn([sys.executable, "-m", "compileall", "-q", "src/laxdual", "perfbench"], env)
        if warm.code != 0:
            raise RuntimeError(f"compileall failed: {warm.err.decode(errors='replace')}")
        setup_s, setup_raw, bare_s = measure_setup(env)
        print(f"python {sys.version.split()[0]}; bare interpreter start {bare_s * 1000:.1f} ms (not charged "
              f"to laxdual); raw setup_s {setup_raw:.5f} = median of {SETUP_PROBES} fresh-interpreter imports")
        untraced, traced = run_passes(args.workload, args.seed, args.seconds, args.trace, env)
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)

    attempted, failed, notes = check_jobs(args.workload, untraced + traced, expected)
    for note in notes:
        print(f"FAILED {note}")
    correct = failed == 0
    if args.trace:
        values, counts_repeat = per_layer(untraced, traced)
        if not counts_repeat:
            print("FAILED per-layer counts differ between traced passes of one seed")
            correct = False
        metrics = declared(values, spec["per_layer"])
    else:
        metrics = declared(end_to_end(untraced, setup_s), spec["end_to_end"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
