"""``fase serve`` with the benchmark's wrappers installed, for traced runs.

Usage: ``python3 perfbench/serve_traced.py DUMP.json serve STORE [serve flags]``

Wraps the job store's public methods, the fleet's shard body and the
stdlib HTTP handler's request parser, then runs the normal CLI. Every
job's path through the server is stamped on the shared monotonic clock:
submit, claim, shard and commit. SIGUSR1 opens the measured window
(counters and layer times restart), SIGUSR2 closes it; when the server
exits after SIGTERM the stamps, counters and layer times are written to
``DUMP.json``.

Layer times inside a shard are recorded only for jobs with an even
sequence number, so the generator can compare traced and untraced jobs
served side by side under the same load.
"""

from __future__ import annotations

import http.server
import json
import resource
import signal
import sys
import threading
import time

IMPORT_START = time.perf_counter()
import repro.cli  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START

import repro.service.workers  # noqa: E402
from repro.service.queue import JobStore  # noqa: E402

import tracer  # noqa: E402


class ServerTrace:
    """Per-job stamps and window counters, shared by every server thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.jobs = {}
        self.replay_s = 0.0
        self.window = [None, None]
        self.rusage = [None, None]
        self.claims = 0
        self.claims_empty = 0
        self.requests = 0
        self.snapshot = None  # layer times of the measured window

    def stamp(self, job_id, **stamps):
        with self.lock:
            self.jobs.setdefault(job_id, {}).update(stamps)

    def open_window(self, *_):
        with self.lock:
            self.claims = self.claims_empty = self.requests = 0
            self.window = [time.perf_counter(), None]
            self.rusage = [usage(), None]
        tracer.TRACER.reset()

    def close_window(self, *_):
        with self.lock:
            self.window[1] = time.perf_counter()
            self.rusage[1] = usage()
            self.snapshot = tracer.TRACER.snapshot()

    def in_window(self):
        return self.window[0] is not None and self.window[1] is None


def usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu": own.ru_utime + own.ru_stime, "minflt": own.ru_minflt}


def install(trace):
    original_open = JobStore.open
    original_submit = JobStore.submit
    original_claim = JobStore.claim
    original_complete = JobStore.complete_shard
    original_run_shard = repro.service.workers.run_shard
    original_parse = http.server.BaseHTTPRequestHandler.parse_request

    def open_(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original_open(self, *args, **kwargs)
        finally:
            trace.replay_s += time.perf_counter() - start

    def submit(self, *args, **kwargs):
        start = time.perf_counter()
        job_id = original_submit(self, *args, **kwargs)
        trace.stamp(job_id, submit0=start, submit1=time.perf_counter())
        return job_id

    def claim(self, *args, **kwargs):
        claimed = original_claim(self, *args, **kwargs)
        end = time.perf_counter()
        if trace.in_window():
            with trace.lock:
                trace.claims += 1
                trace.claims_empty += claimed is None
        if claimed is not None:
            trace.stamp(claimed.job_id, claim1=end)
            trace.local.job = claimed.job_id
            tracer.TRACER.set_thread(tracer.job_traced(claimed.job_id))
        return claimed

    def run_shard(spec):
        start = time.perf_counter()
        try:
            return original_run_shard(spec)
        finally:
            trace.stamp(trace.local.job, shard0=start, shard1=time.perf_counter())
            tracer.TRACER.set_thread(False)

    def complete_shard(self, job_id, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original_complete(self, job_id, *args, **kwargs)
        finally:
            trace.stamp(job_id, commit0=start, commit1=time.perf_counter())

    def parse_request(self):
        if trace.in_window():
            with trace.lock:
                trace.requests += 1
        return original_parse(self)

    JobStore.open = open_
    JobStore.submit = submit
    JobStore.claim = claim
    JobStore.complete_shard = complete_shard
    repro.service.workers.run_shard = run_shard
    http.server.BaseHTTPRequestHandler.parse_request = parse_request


def main(argv):
    dump_path, cli_args = argv[0], argv[1:]
    trace = ServerTrace()
    tracer.install(tracer.TRACER)
    tracer.TRACER.enabled = True
    tracer.TRACER.thread_default = False  # only fleet threads inside a traced job record
    install(trace)
    signal.signal(signal.SIGUSR1, trace.open_window)
    signal.signal(signal.SIGUSR2, trace.close_window)
    code = repro.cli.main(cli_args)
    with open(dump_path, "w", encoding="utf-8") as handle:
        json.dump({
            "import_s": IMPORT_S,
            "replay_s": trace.replay_s,
            "jobs": trace.jobs,
            "window": trace.window,
            "rusage": trace.rusage,
            "claims": trace.claims,
            "claims_empty": trace.claims_empty,
            "requests": trace.requests,
            "layers": trace.snapshot,
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
