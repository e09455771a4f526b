"""Persistence for campaign results: record once, analyze many times.

A real FASE lab records spectra over hours and re-analyzes them offline;
this module round-trips :class:`~repro.core.campaign.CampaignResult`
bundles through a single ``.npz`` file (numpy's zipped archive), keeping
the traces, the achieved falts, the activity metadata, and the campaign
configuration.

Writes are crash-safe and deterministic: :func:`save_campaign` builds the
archive with fixed zip timestamps (identical campaigns produce identical
bytes — what the resume tests compare), writes it to a sibling temporary
file, fsyncs, and ``os.replace``\\ s it over the final name, so a kill
mid-write leaves either the old archive or the new one, never a
truncated hybrid. :func:`load_campaign` raises
:class:`~repro.errors.CampaignArchiveError` on a damaged archive and can
recover the campaign from its :class:`~repro.runner.CampaignJournal`
checkpoints instead.

Large archives have a zero-copy read path. ``save_campaign(...,
compress=False)`` stores the trace arrays uncompressed (``ZIP_STORED``),
which keeps the archive ``np.load``-compatible *and* lets
``load_campaign(..., lazy=True)`` hand each trace back as a read-only
``np.memmap`` over the archive bytes: opening a full-span campaign is
then O(metadata), and trace bytes are paged in only when a measurement's
``power_mw`` is actually touched (compressed archives fall back to
per-member decompress-on-first-touch — still lazy, not zero-copy).
"""

from __future__ import annotations

import io as _io
import json
import os
import zipfile
import zlib

import numpy as np

from .core.campaign import CampaignMeasurement, CampaignResult
from .core.config import FaseConfig
from .errors import CampaignArchiveError, CampaignError, TraceError
from .faults.injectors import FaultEvent
from .faults.robustness import DetectionDelta, RobustnessReport
from .faults.screening import CaptureQuality
from .spectrum.grid import FrequencyGrid
from .spectrum.trace import SpectrumTrace, validate_power
from .uarch.activity import AlternationActivity

#: Format marker for forward compatibility.
_FORMAT = "fase-campaign-v1"


def _config_to_dict(config):
    return {
        "span_low": config.span_low,
        "span_high": config.span_high,
        "fres": config.fres,
        "falt1": config.falt1,
        "f_delta": config.f_delta,
        "n_alternations": config.n_alternations,
        "n_averages": config.n_averages,
        "harmonics": list(config.harmonics),
        "name": config.name,
        "n_workers": config.n_workers,
        "max_capture_retries": config.max_capture_retries,
        "capture_timeout_s": config.capture_timeout_s,
        "retry_backoff_s": config.retry_backoff_s,
    }


def _config_from_dict(data):
    data = dict(data)
    data["harmonics"] = tuple(data["harmonics"])
    # Archives written before these fields existed.
    data.setdefault("n_workers", 1)
    data.setdefault("max_capture_retries", 2)
    data.setdefault("capture_timeout_s", None)
    data.setdefault("retry_backoff_s", 0.5)
    return FaseConfig(**data)


def _activity_to_dict(activity):
    return {
        "falt": activity.falt,
        "levels_x": activity.levels_x,
        "levels_y": activity.levels_y,
        "duty_cycle": activity.duty_cycle,
        "jitter_fraction": activity.jitter_fraction,
        "label": activity.label,
    }


def _activity_from_dict(data):
    return AlternationActivity(**data)


def _robustness_to_dict(robustness):
    """JSON form of a :class:`~repro.faults.RobustnessReport` (or ``None``).

    The ledger is part of the campaign's provenance — ``cmd_analyze``
    prints it "for archives of degraded runs" — so it must survive the
    archive round-trip, not just journal recovery. Dict keys go through
    JSON as strings and are restored to ints on load.
    """
    if robustness is None:
        return None
    delta = robustness.detection_delta
    return {
        "plan_description": robustness.plan_description,
        "events": [
            {"fault": e.fault, "index": e.index, "attempt": e.attempt, "detail": e.detail}
            for e in robustness.events
        ],
        "retries": {str(index): extra for index, extra in robustness.retries.items()},
        "excluded": {str(index): list(reasons) for index, reasons in robustness.excluded.items()},
        "dropped": list(robustness.dropped),
        "detection_delta": None
        if delta is None
        else {
            "n_naive": delta.n_naive,
            "n_degraded": delta.n_degraded,
            "gained": list(delta.gained),
            "lost": list(delta.lost),
        },
    }


def _robustness_from_dict(data):
    if data is None:
        return None
    delta_data = data.get("detection_delta")
    delta = None
    if delta_data is not None:
        delta = DetectionDelta(
            n_naive=int(delta_data["n_naive"]),
            n_degraded=int(delta_data["n_degraded"]),
            gained=tuple(delta_data["gained"]),
            lost=tuple(delta_data["lost"]),
        )
    return RobustnessReport(
        plan_description=data["plan_description"],
        events=[
            FaultEvent(
                fault=e["fault"], index=int(e["index"]), attempt=int(e["attempt"]),
                detail=e["detail"],
            )
            for e in data.get("events", [])
        ],
        retries={int(index): int(extra) for index, extra in (data.get("retries") or {}).items()},
        excluded={
            int(index): tuple(reasons)
            for index, reasons in (data.get("excluded") or {}).items()
        },
        dropped=tuple(int(index) for index in data.get("dropped", ())),
        detection_delta=delta,
    )


def _restore_grid(grid_data, config, path):
    """Rebuild the capture grid, keeping it consistent with the config.

    Grid parameters pass through JSON floats and were historically
    reconstructed independently of the config, so a reloaded campaign's
    ``grid`` could fail ``==`` against ``config.grid()`` and downstream
    grid-keyed caches would miss. The config-derived grid is canonical:
    float round-trip noise (under half a bin of ``start`` drift, a ppm of
    ``resolution``) is repaired to it, while a materially different grid
    means the archive is inconsistent and is rejected.
    """
    stored = FrequencyGrid(**grid_data)
    expected = config.grid()
    if stored != expected:
        repairable = (
            stored.n_bins == expected.n_bins
            and abs(stored.start - expected.start) <= 0.5 * expected.resolution
            and abs(stored.resolution - expected.resolution) <= 1e-6 * expected.resolution
        )
        if not repairable:
            raise CampaignError(
                f"{path!r}: stored grid {stored!r} disagrees with the campaign "
                f"config's grid {expected!r}"
            )
    return expected


def _fsync_directory(directory):
    """Flush a directory's metadata (a rename) to disk where supported."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: Fixed zip member timestamp (the DOS epoch) so identical campaigns
#: produce identical archive bytes — resume correctness is asserted by
#: byte-comparing archives, which real timestamps would defeat.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _write_npz_deterministic(handle, arrays, compress=True):
    """Write an ``np.load``-compatible archive with fixed metadata.

    ``compress=False`` stores members uncompressed (``ZIP_STORED``) so
    the array bytes sit contiguously in the file and can be memory-mapped
    by :func:`mmap_npz_member`; compression defeats mmap.
    """
    compression = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with zipfile.ZipFile(handle, "w", compression=compression, allowZip64=True) as zf:
        for name, value in arrays.items():
            buffer = _io.BytesIO()
            np.lib.format.write_array(buffer, np.asanyarray(value), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            info.compress_type = compression
            info.external_attr = 0o600 << 16
            zf.writestr(info, buffer.getvalue())


def save_campaign(result, path, compress=True):
    """Write a campaign result to ``path`` (a ``.npz`` archive).

    Returns the real on-disk path as a :class:`pathlib.Path`: like
    ``np.savez``, a missing ``.npz`` suffix is appended, so the caller's
    ``path`` is not always the file that exists afterwards — use the
    return value.

    The write is crash-safe (temporary sibling file, fsync,
    ``os.replace``, directory fsync) and deterministic (fixed zip
    timestamps): a kill mid-save leaves the previous archive intact, and
    two saves of the same campaign are byte-identical. A failed write
    never leaves the temporary sibling behind.

    ``compress=False`` writes the traces uncompressed so
    ``load_campaign(..., lazy=True)`` can memory-map them — the right
    trade for full-span campaigns whose archives are re-analyzed often.
    """
    from pathlib import Path

    if not result.measurements:
        raise CampaignError("refusing to save an empty campaign result")
    grid = result.grid
    metadata = {
        "format": _FORMAT,
        "machine_name": result.machine_name,
        "activity_label": result.activity_label,
        "config": _config_to_dict(result.config),
        "grid": {"start": grid.start, "stop": grid.stop, "resolution": grid.resolution},
        "falts": list(result.falts),
        "activities": [_activity_to_dict(m.activity) for m in result.measurements],
        "trace_labels": [m.trace.label for m in result.measurements],
        # Degraded-mode provenance: which captures the screen flagged and
        # why, so offline re-analysis excludes the same falt indices.
        "flagged": [bool(m.flagged) for m in result.measurements],
        "quality_reasons": [
            list(m.quality.reasons) if m.quality is not None else None
            for m in result.measurements
        ],
        "robustness": _robustness_to_dict(result.robustness),
    }
    arrays = {"metadata": json.dumps(metadata)}
    for i, measurement in enumerate(result.measurements):
        arrays[f"trace_{i}"] = measurement.trace.power_mw
    real_path = os.fspath(path)
    if not real_path.endswith(".npz"):
        real_path += ".npz"
    tmp_path = real_path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            _write_npz_deterministic(handle, arrays, compress=compress)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, real_path)
    finally:
        # A write that died mid-way (ENOSPC, a raising serializer) must
        # not leave the sibling behind; after a successful os.replace the
        # tmp name no longer exists and this is a no-op.
        if os.path.exists(tmp_path):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
    _fsync_directory(os.path.dirname(real_path))
    return Path(real_path)


#: Failure modes of reading a damaged zip/npy stream.
_ARCHIVE_READ_ERRORS = (zipfile.BadZipFile, OSError, ValueError, EOFError, zlib.error)


def mmap_npz_member(path, name):
    """A read-only ``np.memmap`` over one uncompressed ``.npz`` member.

    Returns ``None`` when the member is absent, compressed, Fortran-
    ordered, or otherwise not mappable — callers fall back to an ordinary
    read. This is the zero-copy half of the archive data plane: a
    ``ZIP_STORED`` member's ``.npy`` payload sits contiguously in the
    file, so after parsing the local zip header and the npy header the
    array bytes can be mapped straight from the page cache, shared
    between every process that opens the same archive.
    """
    member = name + ".npy"
    try:
        with open(path, "rb") as handle:
            with zipfile.ZipFile(handle) as zf:
                try:
                    info = zf.getinfo(member)
                except KeyError:
                    return None
                if info.compress_type != zipfile.ZIP_STORED:
                    return None
                handle.seek(info.header_offset)
                local = handle.read(30)
                if len(local) < 30 or local[:4] != b"PK\x03\x04":
                    return None
                # The local header's name/extra lengths can differ from
                # the central directory's; trust the local copy.
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                handle.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
                else:
                    return None
                if fortran or dtype.hasobject:
                    return None
                offset = handle.tell()
    except _ARCHIVE_READ_ERRORS:
        return None
    try:
        return np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
    except (OSError, ValueError):
        return None


class _ArchiveTraceLoader:
    """On-demand reader for one archive's trace members.

    Shared by every :class:`LazySpectrumTrace` of one lazy load;
    ``loads`` counts materializations (the laziness tests pin it at zero
    until a trace is touched).
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.loads = 0

    def load(self, member):
        self.loads += 1
        mapped = mmap_npz_member(self.path, member)
        if mapped is not None:
            return mapped
        try:
            with np.load(self.path, allow_pickle=False) as archive:
                return np.asarray(archive[member], dtype=float)
        except KeyError as exc:
            raise CampaignArchiveError(
                f"{self.path!r} is missing array {member!r}; the archive is incomplete"
            ) from exc
        except _ARCHIVE_READ_ERRORS as exc:
            raise CampaignArchiveError(
                f"{self.path!r} has a damaged {member!r} member: {exc}"
            ) from exc


class LazySpectrumTrace(SpectrumTrace):
    """A :class:`~repro.spectrum.SpectrumTrace` whose power is read on demand.

    Construction stores only the grid, the label, and where the bytes
    live; the first ``power_mw`` access materializes them (an
    ``np.memmap`` view for uncompressed archives, a decompressed array
    otherwise) and validates the shape. Everything downstream — scoring,
    detection, re-saving — goes through ``power_mw``, so lazy campaigns
    drop into every existing pipeline unchanged.
    """

    def __init__(self, grid, loader, member, label=""):
        # Deliberately not calling super().__init__: its eager power
        # validation is exactly what laziness defers.
        self.grid = grid
        self.label = label
        self._loader = loader
        self._member = member
        self._power = None

    @property
    def materialized(self):
        """Whether the trace bytes have been read yet."""
        return self._power is not None

    @property
    def power_mw(self):
        if self._power is None:
            power = self._loader.load(self._member)
            if power.shape != (self.grid.n_bins,):
                raise CampaignArchiveError(
                    f"{self._loader.path!r}: member {self._member!r} has shape "
                    f"{power.shape}, expected ({self.grid.n_bins},)"
                )
            try:
                validate_power(power)
            except TraceError as exc:
                raise CampaignArchiveError(
                    f"{self._loader.path!r}: member {self._member!r} is damaged: {exc}"
                ) from exc
            self._power = power
        return self._power


def load_campaign(path, journal=None, lazy=False):
    """Read a campaign result previously written by :func:`save_campaign`.

    A truncated, corrupted, or incomplete archive raises
    :class:`~repro.errors.CampaignArchiveError`. When ``journal`` is
    given — a campaign journal directory (or
    :class:`~repro.runner.CampaignJournal`) written by the durable
    runner — such damage is repaired instead: the campaign is rebuilt
    from the journal's checkpointed captures.

    ``lazy=True`` returns measurements whose traces are
    :class:`LazySpectrumTrace` views: metadata and member presence are
    validated up front (so the journal fallback still engages on a
    truncated archive), but trace bytes are not read until a
    measurement's ``power_mw`` is touched — memory-mapped when the
    archive was saved with ``compress=False``. Damage *inside* a trace
    member of a lazy load surfaces at first touch, after this call
    returned.
    """
    try:
        return _load_archive(path, lazy=lazy)
    except CampaignArchiveError:
        if journal is None:
            raise
        from .runner import recover_campaign

        return recover_campaign(getattr(journal, "directory", journal))


def _load_archive(path, lazy=False):
    try:
        archive = np.load(path, allow_pickle=False)
    except _ARCHIVE_READ_ERRORS as exc:
        raise CampaignArchiveError(
            f"{str(path)!r} is unreadable as a campaign archive: {exc}"
        ) from exc
    with archive:
        try:
            metadata = json.loads(str(archive["metadata"]))
        except KeyError as exc:
            raise CampaignArchiveError(
                f"{str(path)!r} is not a FASE campaign archive (no metadata member)"
            ) from exc
        except _ARCHIVE_READ_ERRORS as exc:
            raise CampaignArchiveError(
                f"{str(path)!r} has a damaged metadata member: {exc}"
            ) from exc
        if metadata.get("format") != _FORMAT:
            # An archive torn badly enough to mangle its format marker is
            # *damage*, not a version skew: raise the archive error so
            # load_campaign's journal-recovery fallback engages.
            raise CampaignArchiveError(
                f"{str(path)!r} does not carry the campaign format marker "
                f"(found {metadata.get('format')!r}, expected {_FORMAT!r}); "
                "the archive is damaged or not a FASE campaign"
            )
        config = _config_from_dict(metadata["config"])
        grid = _restore_grid(metadata["grid"], config, path)
        result = CampaignResult(
            config=config,
            machine_name=metadata["machine_name"],
            activity_label=metadata["activity_label"],
        )
        n_measurements = len(metadata["falts"])
        flagged = metadata.get("flagged") or [False] * n_measurements
        reasons = metadata.get("quality_reasons") or [None] * n_measurements
        # Hand-edited or torn metadata can leave the per-capture lists
        # disagreeing in length; zip would silently drop captures and the
        # flag lookups would raise a raw IndexError mid-load.
        lengths = {
            "falts": n_measurements,
            "activities": len(metadata["activities"]),
            "trace_labels": len(metadata["trace_labels"]),
            "flagged": len(flagged),
            "quality_reasons": len(reasons),
        }
        if len(set(lengths.values())) > 1:
            detail = ", ".join(f"{name}={count}" for name, count in lengths.items())
            raise CampaignArchiveError(
                f"{str(path)!r} has inconsistent metadata: per-capture lists "
                f"disagree in length ({detail})"
            )
        result.robustness = _robustness_from_dict(metadata.get("robustness"))
        members = set(archive.files)
        loader = _ArchiveTraceLoader(path) if lazy else None
        for i, (falt, activity_data, label) in enumerate(
            zip(metadata["falts"], metadata["activities"], metadata["trace_labels"])
        ):
            if f"trace_{i}" not in members:
                # Presence is checked eagerly even for lazy loads (the zip
                # central directory is already in memory), so a truncated
                # archive fails here — inside the journal fallback's reach
                # — not at first touch.
                raise CampaignArchiveError(
                    f"{str(path)!r} is missing array 'trace_{i}' (capture {i} of "
                    f"{n_measurements}); the archive is incomplete"
                )
            if lazy:
                trace = LazySpectrumTrace(grid, loader, f"trace_{i}", label=label)
            else:
                try:
                    power = archive[f"trace_{i}"]
                except _ARCHIVE_READ_ERRORS as exc:
                    raise CampaignArchiveError(
                        f"{str(path)!r} has a damaged 'trace_{i}' member (capture {i} of "
                        f"{n_measurements}): {exc}"
                    ) from exc
                try:
                    trace = SpectrumTrace(grid, power, label=label)
                except TraceError as exc:
                    raise CampaignArchiveError(
                        f"{str(path)!r} has a damaged 'trace_{i}' member (capture {i} of "
                        f"{n_measurements}): {exc}"
                    ) from exc
            quality = None
            if reasons[i] is not None:
                quality = CaptureQuality(ok=not flagged[i], reasons=tuple(reasons[i]))
            result.measurements.append(
                CampaignMeasurement(
                    falt=float(falt),
                    activity=_activity_from_dict(activity_data),
                    trace=trace,
                    flagged=bool(flagged[i]),
                    quality=quality,
                )
            )
    return result.validate()
