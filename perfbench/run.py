"""FASE benchmark: one workload, one run, one JSON line of metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload scan-fig11 --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``scan-fig11``      closed loop, 1 client: the default ``fase scan``
* ``analyze-archive`` closed loop, 1 client: ``fase analyze`` of two archives
* ``survey-pool``     closed loop, 1 client: an 8-shard, 2-worker survey
* ``service-open``    open loop, 4 jobs/s: ``fase serve`` under a job stream

Every workload runs in fresh interpreters started from here, one after
another. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
times each layer from outside (``tracer.py``) and reports the per-layer
metrics. Every op's output goes through a correctness gate; the last
line of output is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it is a record of the run: sample count, tail
percentile, errors and host-noise diagnostics. The program under test
is imported from ``src/``; without it the benchmark exits with code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

#: Nominal seconds per op on the reference host; a run of ``--seconds``
#: takes ``seconds / nominal`` ops, never fewer than MIN_SAMPLES.
NOMINAL_OP_S = {"scan-fig11": 0.95, "analyze-archive": 0.4, "survey-pool": 0.68}
SERVICE_RATE = 4.0  # jobs/s, about a third of the 2-worker fleet's drain rate
NEEDS_PREPARE = ("analyze-archive", "survey-pool")
WORKLOADS = tuple(NOMINAL_OP_S) + ("service-open",)
#: The tail is the highest percentile with at least this many samples
#: beyond it; with MIN_SAMPLES ops it is strictly above the median.
TAIL_BEYOND = 10
MIN_SAMPLES = 22
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0
ORPHAN_GRACE_S = 2.0  # then what a worker left running is killed

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "startup.import_s": "s",
    "uarch.calibrate_s": "s",
    "system.scene_s": "s",
    "system.scene_calls": "count",
    "system.env_s": "s",
    "spectrum.capture_self_s": "s",
    "spectrum.captures": "count",
    "scoring.cache_build_s": "s",
    "scoring.score_s": "s",
    "scoring.cache_hit_ratio": "fraction",
    "detect.self_s": "s",
    "detect.detections": "count",
    "group.self_s": "s",
    "io.load_s": "s",
    "io.load_mb": "MB",
    "survey.shard_s": "s",
    "survey.self_s": "s",
    "survey.manifest_s": "s",
    "survey.manifest_appends": "count",
    "survey.worker_idle_frac": "fraction",
    "survey.failures": "count",
    "service.submit_rtt_s": "s",
    "service.queue_wait_s": "s",
    "service.claim_empty_frac": "fraction",
    "service.shard_s": "s",
    "service.shard_inflation": "ratio",
    "service.commit_s": "s",
    "service.observe_lag_s": "s",
    "service.http_requests_per_job": "count",
    "service.replay_s": "s",
    "proc.cpu_s_per_op": "s",
    "proc.minflt_per_op": "count",
    "gen.late_p90_s": "s",
    "trace.op_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.attributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "profile.attributed_frac": "fraction",
    "profile.capture_gap": "fraction",
    "profile.score_gap": "fraction",
    "profile.detect_gap": "fraction",
    "error_rate": "fraction",
    "host.steal_frac": "fraction",
    "host.loadavg_1m": "load",
    "host.user_s": "s",
    "host.sys_s": "s",
    "host.ref_loop_start_s": "s",
    "host.ref_loop_end_s": "s",
}


def become_subreaper():
    """Adopt orphaned descendants (Linux), so every process can be reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class BenchError(Exception):
    """The run could not produce a result."""


def ref_loop_s():
    """Time a fixed pure-Python compute loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def host_diagnostics(ticks0, ticks1, ref_start, ref_end):
    steal = 0.0
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "host.steal_frac": steal,
        "host.loadavg_1m": os.getloadavg()[0],
        "host.user_s": kids.ru_utime,
        "host.sys_s": kids.ru_stime,
        "host.ref_loop_start_s": ref_start,
        "host.ref_loop_end_s": ref_end,
    }


class Runner:
    """Starts worker interpreters under one deadline for the whole run."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def spawn(self, phase, *extra):
        cmd = [
            sys.executable, WORKER,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--phase", phase,
            "--work", self.work,
            "--trace", str(self.args.trace),
            *extra,
        ]
        return subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=self.env, start_new_session=True
        )

    def wait_ready(self, proc):
        """Block until the worker prints READY; returns that moment."""
        buffer = b""
        fd = proc.stdout.fileno()
        while b"READY" not in buffer:
            ready, _, _ = select.select([fd], [], [], self.remaining())
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError(f"worker exited with code {proc.wait()} before it was ready")
            buffer += chunk
        return time.perf_counter()

    def finish(self, proc):
        """Wait for a worker to exit cleanly within the run budget."""
        fd = proc.stdout.fileno()
        try:
            while True:
                ready, _, _ = select.select([fd], [], [], self.remaining())
                if ready and not os.read(fd, 4096):
                    break
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker overran the run budget") from exc
        finally:
            self.stop(proc)
        if code != 0:
            raise BenchError(f"{self.args.workload} worker exited with code {code}")

    @staticmethod
    def stop(proc):
        """End the worker and every process it left behind, and reap them.

        This process is a child subreaper (see :func:`become_subreaper`),
        so a helper the worker started and did not wait for, such as
        multiprocessing's resource tracker, is reparented here when the
        worker exits and is reaped below instead of lingering.
        """
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
        proc.stdout.close()
        grace_end = time.monotonic() + ORPHAN_GRACE_S
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                if time.monotonic() > grace_end:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                time.sleep(0.005)

    def setup_sample(self, phase, *extra):
        """Spawn a worker; seconds from spawn to READY (after warm-up)."""
        start = time.perf_counter()
        proc = self.spawn(phase, *extra)
        try:
            return proc, self.wait_ready(proc) - start
        except BaseException:
            self.stop(proc)
            raise

    def run(self):
        workload = self.args.workload
        if workload == "service-open":
            n_ops = max(MIN_SAMPLES, round(self.args.seconds * SERVICE_RATE))
            proc = self.spawn("measure", "--ops", str(n_ops), "--rate", str(SERVICE_RATE))
            self.finish(proc)
            return self.load_result(), n_ops
        n_ops = max(MIN_SAMPLES, round(self.args.seconds / NOMINAL_OP_S[workload]))
        if workload in NEEDS_PREPARE:
            self.finish(self.spawn("prepare"))
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, seconds = self.setup_sample("setup")
            self.finish(proc)
            setups.append(seconds)
        proc, seconds = self.setup_sample("measure", "--ops", str(n_ops))
        setups.append(seconds)
        self.finish(proc)
        result = self.load_result()
        result["setup_samples"] = setups
        return result, n_ops

    def load_result(self):
        with open(os.path.join(self.work, "result.json"), encoding="utf-8") as handle:
            return json.load(handle)


def tail(samples):
    """(value, percentile): the highest order statistic with TAIL_BEYOND above it."""
    ordered = sorted(samples)
    index = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(result):
    ops = result["ops"]
    latencies = [op["wall"] for op in ops]
    completed = [op for op in ops if op["error"] is None]
    tail_value, tail_pct = tail(latencies)
    span = result.get("span_s") or sum(latencies)
    metrics = {
        "setup_s": statistics.median(result["setup_samples"]),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": len(completed) / span,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return metrics, tail_pct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 1
    become_subreaper()
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    ticks0, ref_start = cpu_ticks(), ref_loop_s()
    try:
        result, n_ops = Runner(args, work).run()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host = host_diagnostics(ticks0, cpu_ticks(), ref_start, ref_loop_s())

    ops = result["ops"]
    errors = [op["error"] for op in ops if op["error"] is not None]
    run_error = result.get("run_error")
    e2e, tail_pct = end_to_end(result)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(ops),
        "samples_planned": n_ops,
        "latency_tail_pct": round(tail_pct, 2),
        "error_rate": len(errors) / len(ops),
        "errors": errors[:5],
        "run_error": run_error,
        "setup_samples": result["setup_samples"],
        **result.get("record", {}),
        **host,
    }
    print("perfbench record: " + json.dumps(record, sort_keys=True))
    if args.trace:
        values = dict(result["layers"], error_rate=record["error_rate"], **host)
        chosen = PER_LAYER
    else:
        values = e2e
        chosen = END_TO_END
    for name, unit in chosen.items():
        label = name
        if name == "latency_tail_s":
            label = f"{name} (p{tail_pct:.1f} of {len(ops)} samples)"
        print(f"  {label:<44} {values.get(name, 0.0):>14.6g} {unit}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in chosen.items()}
    print(json.dumps({
        "correct": not errors and run_error is None,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
