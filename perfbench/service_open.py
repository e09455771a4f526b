"""The open-loop service workload: ``fase serve`` under a fixed-rate job stream.

The server runs as its own process (``python -m repro serve --workers
2``, or ``serve_traced.py`` in a traced run) over a copy of a store that
already holds HISTORY_JOBS finished jobs. The set-up samples start the
server over that same copy one after another; each start only appends
a ``restart`` record. One generator thread submits
one-shard jobs over HTTP at a fixed interval across rotating tenants;
each job is timed from when it was due to be sent until the server's
journal records it ``complete``. A second thread observes completions
by tailing the store journal every OBSERVE_POLL_S — out of the server
process, at a resolution far below the job latency, and without adding
a single request to the server's load. After the timed window every
job's ``GET /jobs/{id}/result`` is compared with ``run_survey`` of the
same plan.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.core import FaseConfig
from repro.service import ServiceClient
from repro.service.queue import JobStore
from repro.survey import plan_shards, run_survey
from repro.survey.shards import run_shard

import tracer
import workloads

HERE = Path(__file__).resolve().parent
TENANTS = ("alice", "bob", "carol")
HISTORY_JOBS = 1000
N_SEEDS = 8
SETUP_SAMPLES = 3
WARMUP_JOBS = 4
DEADLINE_S = 10.0  # a job not completed this long after it was due has failed
OBSERVE_POLL_S = 0.002
ALONE_REPEATS = 9


def job_plan():
    """One tiny shard: i7, LDM/LDL1, 0-100 kHz."""
    return dict(
        machines=[workloads.I7],
        pairs=[("LDM", "LDL1")],
        config=FaseConfig(span_low=0.0, span_high=1e5, fres=50.0, name="service-open"),
    )


def comparable(report_dict):
    """A report dict without run artifacts (telemetry, config names)."""
    if isinstance(report_dict, dict):
        return {
            key: comparable(value)
            for key, value in report_dict.items()
            if key not in ("telemetry", "config_description")
        }
    if isinstance(report_dict, list):
        return [comparable(value) for value in report_dict]
    return report_dict


def history_store(cache_dir):
    """A store of HISTORY_JOBS finished jobs, built once per source tree.

    Keyed by a digest of the program's source, so a checkout never
    replays a store written by other code. The jobs carry a real shard
    result; all of them plan the same shard, so it is computed once.
    """
    import repro

    package = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    target = Path(cache_dir) / f"history-{HISTORY_JOBS}-{digest.hexdigest()[:16]}"
    if target.is_dir():
        return target
    building = target.with_name(target.name + f".tmp-{os.getpid()}")
    plan = job_plan()
    result = run_shard(plan_shards(seed=0, **plan)[0])
    store = JobStore(building).open()
    for index in range(HISTORY_JOBS):
        store.submit(TENANTS[index % len(TENANTS)], seed=0, **plan)
        claimed = store.claim("history")
        store.complete_shard(claimed.job_id, claimed.spec.shard_id, result, "history")
    os.replace(building, target)
    return target


class JournalObserver(threading.Thread):
    """Tails ``store.jsonl``; records when each job's ``complete`` lands."""

    def __init__(self, path):
        super().__init__(name="journal-observer", daemon=True)
        self.path = path
        self.completed = {}
        self.stop = threading.Event()
        self._offset = path.stat().st_size

    def run(self):
        pending = b""
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            while not self.stop.wait(OBSERVE_POLL_S):
                chunk = handle.read()
                if not chunk:
                    continue
                now = time.perf_counter()
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    record = json.loads(line).get("record", {})
                    if record.get("kind") == "complete":
                        self.completed[record["job_id"]] = now


class Server:
    """One ``serve`` process over the run's copy of the history store."""

    def __init__(self, store, work, index, traced):
        self.store = store
        self.dump = Path(work) / f"server-{index}.json"
        serve = ["serve", str(self.store), "--workers", "2", "--port", "0"]
        if traced:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(self.dump), *serve]
        else:
            cmd = [sys.executable, "-m", "repro", *serve]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("fase service on "):
            self.close()
            raise RuntimeError(f"serve did not start: {line!r}")
        self.url = line.split()[3]
        while True:
            try:
                with urllib.request.urlopen(self.url + "/jobs", timeout=30) as response:
                    if response.status == 200:
                        response.read()
                        break
            except (urllib.error.URLError, ConnectionError):
                if self.proc.poll() is not None:
                    raise RuntimeError("serve exited before answering GET /jobs") from None
                time.sleep(0.005)
        self.setup_s = time.perf_counter() - self.started
        self.client = ServiceClient(self.url)

    def signal(self, signum):
        self.proc.send_signal(signum)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def shard_alone_s(plan, seed):
    """Median seconds of the jobs' shard run alone, in this process."""
    spec = plan_shards(seed=seed, **plan)[0]
    times = []
    for _ in range(ALONE_REPEATS):
        start = time.perf_counter()
        run_shard(spec)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(args, import_s):
    plan = job_plan()
    seeds = workloads.derived_seeds(args.seed, N_SEEDS)
    store = Path(args.work) / "store"
    shutil.copytree(history_store(HERE / ".cache"), store)
    references = {
        seed: comparable(run_survey(workers=1, seed=seed, **plan).to_dict()) for seed in seeds
    }
    alone_s = shard_alone_s(plan, seeds[0]) if args.trace else None

    setups = []
    for index in range(SETUP_SAMPLES - 1):
        server = Server(store, args.work, index, args.trace)
        setups.append(server.setup_s)
        server.close()
    server = Server(store, args.work, SETUP_SAMPLES - 1, args.trace)
    setups.append(server.setup_s)
    try:
        result = drive(server, args, plan, seeds, references)
    finally:
        server.close()
    result["setup_samples"] = setups
    result["import_s"] = import_s
    if args.trace:
        with open(server.dump, encoding="utf-8") as handle:
            dump = json.load(handle)
        result["layers"] = server_layers(dump, result.pop("jobs"), alone_s)
    else:
        result.pop("jobs")
    return result


def drive(server, args, plan, seeds, references):
    observer = JournalObserver(server.store / "store.jsonl")
    observer.start()
    try:
        warm = [server.client.submit(TENANTS[0], seed=seeds[0], **plan) for _ in range(WARMUP_JOBS)]
        wait_for(observer, warm, time.perf_counter() + 60.0)
        if args.trace:
            server.signal(signal.SIGUSR1)
        interval = 1.0 / args.rate
        start = time.perf_counter() + interval
        jobs = []
        for index in range(args.ops):
            due = start + index * interval
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            job = {"due": due, "sent": sent, "seed": seeds[index % N_SEEDS], "id": None}
            try:
                job["id"] = server.client.submit(
                    TENANTS[index % len(TENANTS)], seed=job["seed"], **plan
                )
            except Exception as exc:  # noqa: BLE001 - a refused submit is a failed op
                job["error"] = f"submit: {exc}"
            job["answered"] = time.perf_counter()
            jobs.append(job)
        last_due = start + (args.ops - 1) * interval
        wait_for(observer, [j["id"] for j in jobs if j["id"]], last_due + DEADLINE_S)
        if args.trace:
            server.signal(signal.SIGUSR2)
    finally:
        observer.stop.set()
        observer.join()
    peak = server.peak_rss_mb()

    ops = []
    for job in jobs:
        done = observer.completed.get(job["id"])
        job["done"] = done
        error = job.get("error")
        if error is None and (done is None or done - job["due"] > DEADLINE_S):
            error = f"{job['id']} not completed within {DEADLINE_S:g} s of its due time"
        if error is None:
            got = comparable(server.client.result(job["id"]).to_dict())
            if got != references[job["seed"]]:
                error = f"{job['id']}: result differs from run_survey of the same plan"
        latency = (done if done is not None else job["due"] + DEADLINE_S) - job["due"]
        ops.append({"wall": latency, "error": error})
    finished = [job["done"] for job in jobs if job["done"] is not None]
    return {
        "ops": ops,
        "jobs": jobs,
        "span_s": (max(finished) if finished else last_due) - start,
        "peak_rss_mb": peak,
        "record": {
            "rate_per_s": args.rate,
            "deadline_s": DEADLINE_S,
            "gen.late_p90_s": late_p90([job["sent"] - job["due"] for job in jobs]),
        },
    }


def late_p90(lateness):
    """How late the generator ran: 90th percentile of send minus due."""
    return statistics.quantiles(lateness, n=10)[-1]


def wait_for(observer, job_ids, deadline):
    while time.perf_counter() < deadline:
        if all(job_id in observer.completed for job_id in job_ids):
            return
        time.sleep(0.01)


def server_layers(dump, jobs, alone_s):
    """Per-layer figures for the service, from the server's stamps."""
    stamps = dump["jobs"]
    traced, untraced, paths = [], [], []
    for job in jobs:
        s = stamps.get(job["id"]) if job["id"] else None
        if s is None or job["done"] is None or len(s) < 7:
            continue
        latency = job["done"] - job["due"]
        (traced if tracer.job_traced(job["id"]) else untraced).append(latency)
        paths.append({
            "latency": latency,
            "late": job["sent"] - job["due"],
            "rtt": job["answered"] - job["sent"],
            "submit": s["submit1"] - s["submit0"],
            "queue_wait": s["claim1"] - s["submit1"],
            "shard": s["shard1"] - s["shard0"],
            "commit": s["commit1"] - s["commit0"],
            "observe": job["done"] - s["commit1"],
        })
    n_traced = len(traced)

    def mean(key):
        return statistics.fmean(p[key] for p in paths)

    layers = tracer.layer_metrics(dump["layers"], n_traced)
    n_jobs = len(jobs)
    rusage0, rusage1 = dump["rusage"]
    named = ("late", "submit", "queue_wait", "shard", "commit", "observe")
    wall = mean("latency")
    layers.update({
        "startup.import_s": dump["import_s"],
        "service.submit_rtt_s": mean("rtt"),
        "service.queue_wait_s": mean("queue_wait"),
        "service.claim_empty_frac": dump["claims_empty"] / max(dump["claims"], 1),
        "service.shard_s": mean("shard"),
        "service.shard_inflation": statistics.median(p["shard"] for p in paths) / alone_s,
        "service.commit_s": mean("commit"),
        "service.observe_lag_s": mean("observe"),
        "service.http_requests_per_job": dump["requests"] / n_jobs,
        "service.replay_s": dump["replay_s"],
        "proc.cpu_s_per_op": (rusage1["cpu"] - rusage0["cpu"]) / n_jobs,
        "proc.minflt_per_op": (rusage1["minflt"] - rusage0["minflt"]) / n_jobs,
        "gen.late_p90_s": late_p90([j["sent"] - j["due"] for j in jobs]),
        "trace.op_wall_s": wall,
        "trace.unattributed_s": wall - sum(mean(key) for key in named),
        "trace.attributed_frac": sum(mean(key) for key in named) / wall,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    })
    return layers
