"""One workload in a fresh interpreter: set up, warm up, run the timed ops.

Started by ``run.py`` with ``PYTHONPATH=src``; not meant to be run by
hand. ``--phase prepare`` writes the workload's inputs and reference
outputs; ``--phase setup`` imports, builds and warms up, prints
``READY`` and exits (a set-up time sample); ``--phase measure`` does the
same and then runs the timed ops, writing ``result.json`` to the work
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

IMPORT_START = time.perf_counter()
import workloads  # noqa: E402  (imports repro; timed as startup.import_s)

IMPORT_S = time.perf_counter() - IMPORT_START

import tracer  # noqa: E402


def rusage_totals():
    """(cpu seconds, minor faults) of this process plus reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, own.ru_minflt + kids.ru_minflt


def peak_rss_mb():
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def union_length(spans):
    """Total length covered by a set of (start, end) intervals."""
    covered, reach = 0.0, None
    for start, end in sorted(spans):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def read_shard_log(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    os.remove(path)
    return records


def profile_gap(workload):
    """One extra traced scan under ``Telemetry(profile=True)``.

    Compares the program's own stage attribution with the wrappers'
    on the same op: shares of the op wall-clock for capture (scene
    synthesis + analyzer), scoring, and detection.
    """
    from repro.telemetry import Telemetry

    telemetry = Telemetry(profile=True)
    tracer.TRACER.reset()
    tracer.TRACER.enabled = True
    start = time.perf_counter()
    workloads.scan(workload.seeds[0], telemetry=telemetry)
    wall = time.perf_counter() - start
    tracer.TRACER.enabled = False
    stages = {stage: seconds for stage, (_calls, seconds) in telemetry.profiler.totals().items()}
    self_s = tracer.TRACER.snapshot()["self_s"]
    ours = {
        "capture": sum(
            self_s.get(layer, 0.0) for layer in ("system.scene", "system.env", "spectrum.capture")
        ),
        "score": self_s.get("scoring.score", 0.0),
        "detect": self_s.get("detect", 0.0) + self_s.get("scoring.cache_build", 0.0),
    }
    theirs = {
        "capture": stages.get("capture", 0.0) + stages.get("average", 0.0),
        "score": stages.get("score", 0.0),
        "detect": stages.get("detect", 0.0),
    }
    out = {"profile.attributed_frac": sum(stages.values()) / wall}
    for stage in ours:
        out[f"profile.{stage}_gap"] = abs(ours[stage] - theirs[stage]) / wall
    return out


def run_closed_loop(args, cls):
    prep = None
    prep_path = os.path.join(args.work, "prep.json")
    if os.path.exists(prep_path):
        with open(prep_path, encoding="utf-8") as handle:
            prep = json.load(handle)
    workload = cls(args.seed, args.work, prep)
    if args.trace:
        tracer.install(tracer.TRACER)
    workload.warmup()
    print("READY", flush=True)
    if args.phase == "setup":
        return None

    shard_log = os.path.join(args.work, "shards.jsonl")
    os.environ[tracer.SHARD_LOG_ENV] = shard_log
    deadline = time.perf_counter() + 3.0 * args.ops * cls.nominal_op_s + 30.0
    ops, snaps, traced_walls, untraced_walls = [], [], [], []
    for index in range(args.ops):
        traced = bool(args.trace) and index % 2 == 0
        workload.before_op(index)
        if traced:
            tracer.TRACER.reset()
            tracer.TRACER.enabled = True
            if isinstance(workload, workloads.SurveyPool):
                workload.shard_fn = tracer.traced_run_shard
        cpu0, flt0 = rusage_totals()
        start = time.perf_counter()
        output, error = None, None
        try:
            output = workload.op(index)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        cpu1, flt1 = rusage_totals()
        tracer.TRACER.enabled = False
        if error is None:
            error = workload.check(index, output)
        wall = end - start
        ops.append({"wall": wall, "error": error, "traced": traced,
                    "cpu": cpu1 - cpu0, "minflt": flt1 - flt0})
        (traced_walls if traced else untraced_walls).append(wall)
        if traced:
            snap = tracer.TRACER.snapshot()
            snap["wall"] = wall
            if isinstance(workload, workloads.SurveyPool):
                workload.shard_fn = None
                shards = read_shard_log(shard_log)
                parent_self = sum(snap["self_s"].values())
                snap = tracer.merge_snapshots([snap] + [s["layers"] for s in shards])
                snap.update(
                    wall=wall,
                    parent_self=parent_self,
                    shard_busy=sum(s["end"] - s["start"] for s in shards),
                    shard_union=union_length([(s["start"], s["end"]) for s in shards]),
                    failures=workload.failures(output) if output is not None else 0,
                )
            snaps.append(snap)
        workload.after_op(index)
        if time.perf_counter() > deadline:
            break

    result = {
        "import_s": IMPORT_S,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb(),
        "run_error": workload.run_error(),
        "record": workload.record(),
    }
    if args.trace:
        result["layers"] = traced_layers(workload, snaps, ops, traced_walls, untraced_walls)
    return result


def traced_layers(workload, snaps, ops, traced_walls, untraced_walls):
    n = len(snaps)

    def mean(key):
        return sum(s[key] for s in snaps) / n

    merged = tracer.merge_snapshots(snaps)
    layers = tracer.layer_metrics(merged, n)
    wall = mean("wall")
    traced_ops = [op for op in ops if op["traced"]]
    layers["startup.import_s"] = IMPORT_S
    layers["proc.cpu_s_per_op"] = statistics.fmean(op["cpu"] for op in traced_ops)
    layers["proc.minflt_per_op"] = statistics.median(op["minflt"] for op in traced_ops)
    layers["trace.op_wall_s"] = wall
    if isinstance(workload, workloads.SurveyPool):
        # The op's critical path: shard spans (any worker busy) plus the
        # parent-side layers (manifest appends, cross-machine grouping);
        # the shards' own layer times are worker busy time, reported
        # above but not added to the path. Parent-side time that overlaps
        # a shard span is counted twice, so the path is an upper bound.
        layers["survey.shard_s"] = mean("shard_busy")
        layers["survey.self_s"] = wall - mean("shard_union")
        layers["survey.worker_idle_frac"] = 1.0 - mean("shard_busy") / (workload.workers * wall)
        layers["survey.failures"] = mean("failures")
        attributed = mean("shard_union") + mean("parent_self")
    else:
        attributed = sum(merged["self_s"].values()) / n
    layers["trace.unattributed_s"] = wall - attributed
    layers["trace.attributed_frac"] = attributed / wall
    layers["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    if isinstance(workload, workloads.ScanFig11):
        layers.update(profile_gap(workload))
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("prepare", "setup", "measure"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--rate", type=float, default=0.0)
    args = parser.parse_args(argv)

    if args.workload == "service-open":
        import service_open

        result = service_open.run(args, IMPORT_S)
    else:
        cls = workloads.CLOSED_LOOP[args.workload]
        if args.phase == "prepare":
            result = cls.prepare(args.seed, args.work)
            with open(os.path.join(args.work, "prep.json"), "w", encoding="utf-8") as handle:
                json.dump(result, handle)
            return 0
        result = run_closed_loop(args, cls)
    if result is not None:
        with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
