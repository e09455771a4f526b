"""repro.telemetry: tracing, metrics, and profiling for FASE campaigns.

A real FASE survey is an hours-long measurement campaign with parallel
captures, fault-injected retries, watchdog timeouts, and checkpoint
resume. This package records *where time and captures went*:

* **spans** (:mod:`repro.telemetry.spans`) — nested, monotonic-clock
  timed units of work with seed-stable ids, emitted to pluggable sinks;
* **metrics** (:mod:`repro.telemetry.metrics`) — thread-safe counters,
  gauges, and fixed-bucket histograms with a snapshot/merge API
  (``captures_total``, ``capture_retries``, ``capture_timeouts``,
  ``screen_rejections``, ``scoring_cache_hits``/``misses`` — one per
  per-harmonic score-memo lookup — and per-stage wall-clock histograms);
* **profiling** (:mod:`repro.telemetry.profiler`) — opt-in attribution
  of campaign wall-clock to capture / average / score / detect stages;
* **sinks** (:mod:`repro.telemetry.sinks`) — in-memory
  :class:`Recorder`, crash-tolerant append-only :class:`JsonlSink`, and
  the discard-everything base.

The default is **off**: the ambient pipeline is :data:`NULL_TELEMETRY`,
whose every operation is a no-op, so uninstrumented runs pay nothing
(the PR-1 scoring benchmark guards this). Instrumented code asks for the
ambient pipeline at the instant it needs it::

    from repro.telemetry import current_telemetry
    with current_telemetry().span("capture", index=i, stage="capture"):
        ...

and callers opt in either per call (``run_fase(..., telemetry=...)``),
ambiently (:func:`use_telemetry`), or from the CLI
(``--telemetry-jsonl``, ``--profile``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from .profiler import StageProfiler
from .sinks import JsonlSink, Recorder, TelemetrySink, read_jsonl
from .spans import SpanHandle, Tracer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "current_telemetry",
    "use_telemetry",
    "use_thread_telemetry",
    "adopt_telemetry",
    "set_telemetry",
    "record_campaign_ledger",
    "record_planner_ledger",
    "record_survey_resume",
    "MetricsRegistry",
    "MetricsSnapshot",
    "HistogramSnapshot",
    "DEFAULT_TIME_BUCKETS",
    "StageProfiler",
    "TelemetrySink",
    "Recorder",
    "JsonlSink",
    "read_jsonl",
    "SpanHandle",
    "Tracer",
]


class _NullSpanContext:
    """Reusable no-op span context (one shared instance, zero allocation)."""

    __slots__ = ()

    def __enter__(self):
        return _NULL_HANDLE

    def __exit__(self, exc_type, exc, tb):
        return False


class _NullHandle:
    __slots__ = ()
    span_id = None

    def set(self, **attrs):
        return self


_NULL_HANDLE = _NullHandle()
_NULL_SPAN = _NullSpanContext()


class NullTelemetry:
    """The disabled pipeline: every operation is a cheap no-op.

    This is what :func:`current_telemetry` returns until something is
    installed, so instrumentation sites never need an ``if`` guard.
    """

    enabled = False
    profiler = None

    def span(self, name, stage=None, parent_id=None, **attrs):
        return _NULL_SPAN

    def event(self, name, **attrs):
        return None

    def count(self, name, n=1):
        pass

    def gauge(self, name, value):
        pass

    def observe(self, name, value):
        pass

    def snapshot(self):
        return MetricsSnapshot(counters={}, gauges={}, histograms={})

    def emit_snapshot(self, label="metrics"):
        return None

    def close(self):
        pass


NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """One observability pipeline: tracer + metrics + sinks (+ profiler).

    ``sinks`` is any iterable of :class:`TelemetrySink`; ``profile=True``
    attaches a :class:`StageProfiler` fed with every closed span's
    exclusive time. Span durations with a ``stage`` also land in the
    ``stage_{stage}_seconds`` histogram (inclusive duration), so metrics
    snapshots carry the per-stage wall-clock distribution even without
    the profiler.
    """

    enabled = True

    def __init__(self, sinks=(), profile=False, metrics=None):
        self.sinks = tuple(sinks)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = StageProfiler() if profile else None
        self.tracer = Tracer(self._emit, on_close=self._on_span_close)

    # ------------------------------------------------------------------

    def _emit(self, record):
        for sink in self.sinks:
            sink.emit(record)

    def _on_span_close(self, stage, duration_s, self_s):
        if stage is not None:
            self.metrics.observe(f"stage_{stage}_seconds", duration_s)
            if self.profiler is not None:
                self.profiler.add(stage, self_s)

    # ------------------------------------------------------------------

    def span(self, name, stage=None, parent_id=None, **attrs):
        """Context manager timing one unit of work (see :class:`Tracer`)."""
        return self.tracer.span(name, stage=stage, parent_id=parent_id, **attrs)

    def event(self, name, **attrs):
        """Emit a zero-duration point record to the sinks."""
        return self.tracer.event(name, **attrs)

    def count(self, name, n=1):
        self.metrics.count(name, n)

    def gauge(self, name, value):
        self.metrics.gauge(name, value)

    def observe(self, name, value):
        self.metrics.observe(name, value)

    def snapshot(self):
        """The pipeline's :class:`MetricsSnapshot` so far."""
        return self.metrics.snapshot()

    def emit_snapshot(self, label="metrics"):
        """Write the current metrics state to the sinks as one record."""
        record = {"kind": "metrics", "name": label}
        record.update(self.snapshot().to_dict())
        self._emit(record)
        return record

    def emit_external_snapshot(self, snapshot, label="metrics"):
        """Write someone else's :class:`MetricsSnapshot` to this pipeline's sinks.

        The survey engine uses this to stream the merged cross-process
        snapshot through the survey-level JSONL without folding it into
        this pipeline's own registry (which tracks the parent process
        only).
        """
        record = {"kind": "metrics", "name": label}
        record.update(snapshot.to_dict())
        self._emit(record)
        return record

    def close(self):
        """Close every sink (flush + fsync for file sinks)."""
        for sink in self.sinks:
            sink.close()


# ----------------------------------------------------------------------
# The ambient pipeline. Two layers:
#
# * a plain module global (not a contextvar): worker threads spawned by
#   campaign pools must see the same pipeline as the thread that
#   installed it, and contextvars do not flow into pool workers;
# * a per-thread overlay for a process running *many* pipelines at once
#   (the service worker fleet drives whole ``run_fase`` pipelines in
#   sibling threads). Concurrent installs on the shared global would
#   interleave their save/restore pairs and leave a stale pipeline
#   installed process-wide; the overlay scopes each install — and its
#   restore — to the installing thread. Campaign pools created under an
#   overlay adopt it explicitly (:func:`adopt_telemetry`).

_active = NULL_TELEMETRY
_active_lock = threading.Lock()
_thread_active = threading.local()


def current_telemetry():
    """The ambient pipeline (:data:`NULL_TELEMETRY` unless installed)."""
    override = getattr(_thread_active, "pipeline", None)
    if override is not None:
        return override
    return _active


def set_telemetry(telemetry):
    """Install ``telemetry`` (or ``None`` → off) ambiently; returns the old one."""
    global _active
    with _active_lock:
        previous = _active
        _active = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(telemetry):
    """Install a pipeline process-wide for the duration of a ``with`` block."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry if telemetry is not None else NULL_TELEMETRY
    finally:
        set_telemetry(previous)


@contextmanager
def use_thread_telemetry(telemetry):
    """Install a pipeline for this thread only, for a ``with`` block.

    The per-pipeline install (``run_fase(..., telemetry=...)``) uses
    this form, so pipelines running concurrently in sibling threads
    cannot clobber each other — or the process-wide default — no matter
    how their lifetimes interleave."""
    previous = getattr(_thread_active, "pipeline", None)
    _thread_active.pipeline = telemetry if telemetry is not None else NULL_TELEMETRY
    try:
        yield current_telemetry()
    finally:
        _thread_active.pipeline = previous


def adopt_telemetry(telemetry):
    """Pool-thread initializer: pin the submitter's pipeline here.

    Thread-pool workers outlive any single submission, so they adopt the
    pipeline that was ambient when the pool was created (pools live
    strictly inside one pipeline's scope)."""
    _thread_active.pipeline = telemetry


# ----------------------------------------------------------------------


def record_campaign_ledger(telemetry, measurements, robustness, resumed=()):
    """Fold one finished campaign's ledger into the metrics registry.

    Counter totals are derived from the same objects the
    :class:`~repro.faults.RobustnessReport` renders, in exactly one place
    per campaign, so the telemetry stream and the report can never
    disagree — the acceptance invariant of the subsystem. ``resumed`` is
    the durable runner's restored-capture index tuple.
    """
    telemetry.count("captures_total", len(measurements))
    if resumed:
        telemetry.count("captures_resumed", len(resumed))
    if robustness is None:
        return
    telemetry.count("faults_injected", robustness.n_injected)
    telemetry.count("capture_timeouts", robustness.n_timeouts)
    telemetry.count("capture_retries", sum(robustness.retries.values()))
    telemetry.count("captures_excluded", robustness.n_excluded)
    telemetry.count("captures_dropped", len(robustness.dropped))
    telemetry.count(
        "screen_rejections", sum(1 for m in measurements if getattr(m, "flagged", False))
    )


def record_planner_ledger(telemetry, accounting):
    """Fold one adaptive survey's plan accounting into the metrics registry.

    Mirrors :func:`record_campaign_ledger`: the counters are derived
    from the same :class:`~repro.survey.planner.PlanAccounting` the
    report renders, in exactly one place per survey, so the telemetry
    stream and ``report.planning`` can never disagree. Note the worker
    side already counted ``captures_saved``/``prescan_captures`` in the
    *shard-local* registries that merge into ``report.telemetry``; this
    records the same totals in the survey parent's registry.
    """
    telemetry.count("captures_saved", accounting.captures_saved)
    telemetry.count("prescan_captures", accounting.prescan_captures)
    telemetry.count("shards_early_stopped", accounting.n_early_stopped)
    telemetry.count("shards_budget_exhausted", accounting.n_budget_exhausted)
    telemetry.count("shards_prescan_skipped", accounting.n_prescan_skipped)


def record_survey_resume(telemetry, n_restored, n_abandoned=0):
    """Fold one manifest resume into the metrics registry.

    One place per survey, mirroring the ledger recorders above:
    ``shards_resumed`` counts shards restored from the manifest without
    re-running, ``shards_resumed_abandoned`` the shards a previous run
    already abandoned (replayed, not retried).
    """
    telemetry.count("shards_resumed", n_restored)
    if n_abandoned:
        telemetry.count("shards_resumed_abandoned", n_abandoned)
