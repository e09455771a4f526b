"""Per-layer timing taken from outside the program.

The benchmark never edits ``repro``: it wraps calls into each layer's
public functions and methods, and a wrapper records how much of each
call's time was not spent in another wrapped call below it (its self
time), per layer. Self times of all layers plus the unattributed
remainder add up to the wall-clock of the op that made the calls.

Wrappers stay installed for the life of the process. While the tracer is
disabled they call straight through, so a run can alternate traced and
untraced ops and report the difference as the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, attribute path) for every wrapped callable. A method
#: is patched on its class; a function is replaced wherever a loaded
#: ``repro`` module holds a reference to it, so ``from x import f``
#: callers see the wrapper too.
LAYERS = (
    ("uarch.calibrate", "repro.core.campaign", "MeasurementCampaign.activities_for"),
    ("system.scene", "repro.system.machine", "MachineScene.mean_bin_power"),
    ("system.env", "repro.system.environment", "RFEnvironment.mean_power"),
    ("spectrum.capture", "repro.spectrum.analyzer", "SpectrumAnalyzer.capture"),
    ("scoring.cache_build", "repro.core.heuristic", "HeuristicScorer.cache_for"),
    ("scoring.score", "repro.core.heuristic", "HeuristicScorer.all_scores"),
    ("detect", "repro.core.detect", "CarrierDetector.detect"),
    ("group", "repro.core.harmonics", "group_harmonics"),
    ("group", "repro.core.classify", "classify_sources"),
    ("io.load", "repro.io", "load_campaign"),
    ("survey.manifest", "repro.survey.manifest", "SurveyManifest.append_shard"),
    ("survey.manifest", "repro.survey.manifest", "SurveyManifest.append_ledger"),
    ("survey.manifest", "repro.survey.manifest", "SurveyManifest.append_promise"),
    ("survey.manifest", "repro.survey.manifest", "SurveyManifest.append_outcome"),
    ("survey.manifest", "repro.survey.manifest", "JournaledLedger.record_failure"),
    ("survey.manifest", "repro.survey.manifest", "JournaledLedger.record_requeue"),
    ("survey.manifest", "repro.survey.manifest", "JournaledLedger.record_abandoned"),
    ("survey.manifest", "repro.survey.manifest", "JournaledLedger.record_planned"),
    ("survey.manifest", "repro.survey.manifest", "JournaledLedger.record_note"),
    ("survey.manifest", "repro.survey.manifest", "JournaledLedger.record_cancelled"),
)


class Tracer:
    """Self seconds, call counts and counters per layer."""

    def __init__(self):
        self.enabled = False
        self.thread_default = True  # whether threads record until set_thread
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        with self._lock:
            self.self_s = defaultdict(float)
            self.calls = defaultdict(int)
            self.counts = defaultdict(float)
            self.caches = []

    def active(self):
        """Recording in this thread? (``local.on`` lets a thread opt out.)"""
        return self.enabled and getattr(self._local, "on", self.thread_default)

    def set_thread(self, on):
        self._local.on = on

    def count(self, name, value=1.0):
        with self._lock:
            self.counts[name] += value

    def wrap(self, layer, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)  # time spent in wrapped callees
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] += elapsed - inner
                    tracer.calls[layer] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def snapshot(self):
        """Plain-dict copy, the form shard workers and the server export."""
        with self._lock:
            hits = sum(cache.hits for cache in self.caches)
            misses = sum(cache.misses for cache in self.caches)
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts, cache_hits=hits, cache_misses=misses),
            }


def _patch_function(original, wrapper):
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every callable in :data:`LAYERS` (idempotent per process)."""
    import importlib

    def on_cache(_args, cache):
        if cache is not None:
            with tracer._lock:
                tracer.caches.append(cache)

    def on_detect(_args, detections):
        tracer.count("detections", len(detections))

    def on_load(args, _result):
        try:
            tracer.count("load_bytes", os.path.getsize(args[0]))
        except (OSError, TypeError, IndexError):
            pass

    hooks = {"scoring.cache_build": on_cache, "detect": on_detect, "io.load": on_load}
    importlib.import_module("repro.survey")  # load every module that holds a reference
    importlib.import_module("repro.service")
    for layer, module_name, path in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        if hasattr(original, "__perfbench_original__"):
            continue
        wrapper = tracer.wrap(layer, original, hooks.get(layer))
        if owner_name:
            setattr(owner, attr, wrapper)
        else:
            _patch_function(original, wrapper)
    return tracer


#: The process-wide tracer: forked shard workers inherit it with the
#: wrappers, so :func:`traced_run_shard` can report what ran inside them.
TRACER = Tracer()

#: Environment variable naming the file :func:`traced_run_shard` appends to.
SHARD_LOG_ENV = "PERFBENCH_SHARD_LOG"


def job_traced(job_id):
    """Service jobs with an even sequence number get layer times recorded.

    The odd ones run beside them untraced, so one run compares the two.
    """
    return int(job_id.rsplit("-", 1)[1]) % 2 == 0


def traced_run_shard(spec):
    """``run_survey(shard_fn=...)`` body: ``run_shard`` plus a span record.

    Runs in the forked pool worker. Appends one JSON line with the
    shard's start/end on the shared monotonic clock and the layer times
    recorded inside it to the file named by :data:`SHARD_LOG_ENV`.
    """
    from repro.survey.shards import run_shard

    TRACER.reset()
    start = time.perf_counter()
    result = run_shard(spec)
    end = time.perf_counter()
    record = {"shard": spec.shard_id, "start": start, "end": end, "layers": TRACER.snapshot()}
    with open(os.environ[SHARD_LOG_ENV], "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return result


SECTIONS = ("self_s", "calls", "counts")


def merge_snapshots(snapshots):
    """Sum a list of :meth:`Tracer.snapshot` dicts key by key."""
    merged = {section: defaultdict(float) for section in SECTIONS}
    for snap in snapshots:
        for section in SECTIONS:
            for key, value in snap.get(section, {}).items():
                merged[section][key] += value
    return {section: dict(values) for section, values in merged.items()}


def layer_metrics(snap, n_ops):
    """Per-op layer figures from a merged tracer snapshot."""
    self_s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]
    hits, misses = counts.get("cache_hits", 0.0), counts.get("cache_misses", 0.0)

    def per_op(value):
        return value / n_ops

    return {
        "uarch.calibrate_s": per_op(self_s.get("uarch.calibrate", 0.0)),
        "system.scene_s": per_op(self_s.get("system.scene", 0.0)),
        "system.scene_calls": per_op(calls.get("system.scene", 0)),
        "system.env_s": per_op(self_s.get("system.env", 0.0)),
        "spectrum.capture_self_s": per_op(self_s.get("spectrum.capture", 0.0)),
        "spectrum.captures": per_op(calls.get("spectrum.capture", 0)),
        "scoring.cache_build_s": per_op(self_s.get("scoring.cache_build", 0.0)),
        "scoring.score_s": per_op(self_s.get("scoring.score", 0.0)),
        "scoring.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "detect.self_s": per_op(self_s.get("detect", 0.0)),
        "detect.detections": per_op(counts.get("detections", 0.0)),
        "group.self_s": per_op(self_s.get("group", 0.0)),
        "io.load_s": per_op(self_s.get("io.load", 0.0)),
        "io.load_mb": per_op(counts.get("load_bytes", 0.0)) / 1e6,
        "survey.manifest_s": per_op(self_s.get("survey.manifest", 0.0)),
        "survey.manifest_appends": per_op(calls.get("survey.manifest", 0)),
    }
