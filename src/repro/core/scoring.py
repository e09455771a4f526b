"""Vectorized scoring engine for the FASE heuristic.

The Eq. 1/2 scorer is the hot path of every campaign: a full-span survey
evaluates every spectrum at every shifted position ``f + h * falt_i`` —
N traces x H harmonics x N falts interpolations over grids of up to
hundreds of thousands of bins. :class:`ShiftedPowerCache` makes that
cheap in three ways:

* **slice-blend interpolation** — all N traces are stacked into one
  ``(N, n_bins)`` power matrix. Because the grid is uniform,
  ``f + shift`` lands at the same fractional bin offset for every bin,
  so the interpolation collapses to two contiguous slices blended by one
  scalar weight instead of a per-trace binary-search ``np.interp``;
* **no per-shift allocation** — :meth:`ShiftedPowerCache.shift_into`
  writes a shifted row into a caller-owned buffer, so the scorer reuses
  one sub-score matrix and one denominator vector for every harmonic.
  Each shift ``h * falt_i`` is read exactly once per harmonic score, so
  there is nothing to memoize at the shift level;
* **score memoization** — whole per-harmonic score arrays are memoized
  on the cache, so a second scoring pass over the same campaign (or a
  shared cache handed to several consumers) computes nothing twice.

The cache is shared by :class:`~repro.core.heuristic.HeuristicScorer` and
:class:`~repro.core.detect.CarrierDetector`, whose movement verification
reads windows of the stacked power matrix; the naive per-trace
``np.interp`` path survives as the reference implementation
(``HeuristicScorer(vectorized=False)``) that tests and benchmarks compare
against.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..errors import DetectionError


def shift_valid_range(grid, shift):
    """Half-open bin range ``[lo, hi)`` whose shifted positions have data.

    A bin can only be scored where ``f + shift`` falls inside the grid's
    span; outside it the interpolation merely clamps to the edge value.
    Because the grid is uniform the in-span bins always form one
    contiguous run, so the validity test reduces to two bounds. They are
    compared with a half-resolution tolerance: the exact boundary is
    derived from float arithmetic, and a strict comparison can flip the
    first/last in-span bin in or out when ``shift`` is an exact multiple
    of the resolution. Half a bin is the natural tolerance — a shifted
    position within half a bin of the span is still covered by the edge
    bin's resolution bandwidth.
    """
    # Bin k is valid iff -0.5 <= k + shift/fres <= n_bins - 1 + 0.5.
    offset = shift / grid.resolution
    lo = int(np.ceil(-offset - 0.5))
    hi = int(np.floor(grid.n_bins - 1 - offset + 0.5)) + 1
    lo = min(max(lo, 0), grid.n_bins)
    hi = min(max(hi, lo), grid.n_bins)
    return lo, hi


def shift_valid_mask(grid, shift):
    """Boolean-mask form of :func:`shift_valid_range` over the grid."""
    lo, hi = shift_valid_range(grid, shift)
    mask = np.zeros(grid.n_bins, dtype=bool)
    mask[lo:hi] = True
    return mask


class ShiftedPowerCache:
    """Batched ``SP_i(f + shift)`` evaluation and score memo for one campaign.

    Stacks the campaign's traces into a ``(N, n_bins)`` power matrix.
    :meth:`shift_into` interpolates any row (or matrix) over this grid
    into a caller-owned buffer; :meth:`shifted_all` returns LRU-memoized
    read-only matrices of every trace at one shift; :meth:`memoized`
    keeps whole per-harmonic score arrays.

    ``hits``/``misses`` count lookups in both memos — for the scorer,
    one per harmonic score. ``max_entries`` bounds the shifted-matrix
    memo (LRU eviction); the default ``None`` keeps every shift.
    """

    def __init__(self, traces, max_entries=None):
        traces = list(traces)
        if len(traces) < 2:
            raise DetectionError("the scoring cache needs at least two traces")
        grid = traces[0].grid
        for trace in traces:
            if trace.grid != grid:
                raise DetectionError("traces must share one grid")
        if max_entries is not None and max_entries < 1:
            raise DetectionError("max_entries must be >= 1 (or None)")
        self._reset(
            grid,
            np.ascontiguousarray(np.vstack([trace.power_mw for trace in traces])),
            max_entries,
        )

    def _reset(self, grid, power, max_entries):
        self.grid = grid
        self.power = power
        self.max_entries = max_entries
        self._shifted = OrderedDict()
        self._scores = {}
        self._floored_totals = {}
        self._ranges = {}
        self._masks = {}
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_result(cls, result, max_entries=None):
        """Build a cache over a :class:`CampaignResult`'s traces."""
        return cls(result.traces, max_entries=max_entries)

    def subset(self, indices):
        """A new cache over a row-subset of this cache's traces.

        The degraded pipeline scores leave-one-out views (a flagged falt
        index excluded, Eq. 2 renormalized over the rest); subsetting
        reuses the already-stacked power matrix instead of restacking
        the surviving traces. Memoized matrices and scores are *not*
        carried over: they describe the full stack, not the subset.
        """
        indices = [int(i) for i in indices]
        if len(indices) < 2:
            raise DetectionError("the scoring cache needs at least two traces")
        if len(set(indices)) != len(indices):
            raise DetectionError("subset indices must be distinct")
        for i in indices:
            if not 0 <= i < self.n_traces:
                raise DetectionError(f"trace index {i} outside 0..{self.n_traces - 1}")
        clone = object.__new__(type(self))
        clone._reset(self.grid, np.ascontiguousarray(self.power[indices]), self.max_entries)
        return clone

    @property
    def n_traces(self):
        return self.power.shape[0]

    @property
    def n_bins(self):
        return self.power.shape[1]

    # ------------------------------------------------------------------

    def shifted_all(self, shift):
        """``(N, n_bins)`` matrix of every trace evaluated at ``f + shift``.

        Matches ``np.interp`` semantics (linear interpolation, edge-value
        clamping outside the span) to within floating-point reordering.
        The returned array is shared with the cache — treat it as
        read-only.
        """
        key = float(shift)
        cached = self._shifted.get(key)
        if cached is not None:
            self._shifted.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        matrix = self._shift_matrix(self.power, key)
        matrix.flags.writeable = False
        self._shifted[key] = matrix
        if self.max_entries is not None and len(self._shifted) > self.max_entries:
            self._shifted.popitem(last=False)
        return matrix

    def shifted(self, index, shift):
        """One trace's shifted power: ``SP_index(f + shift)`` over the grid."""
        return self.shifted_all(shift)[index]

    def floored_total(self, floor=0.0):
        """``sum_j max(SP_j, floor)`` per bin, computed once per floor.

        Linear interpolation commutes with the sum over traces, so the
        Eq. 2 denominator at any shift is one :meth:`shift_into` of this
        vector instead of N per-trace interpolations. The floor is applied
        to the bin powers *before* interpolating; that matches flooring
        the interpolated values exactly wherever a trace does not cross
        the floor between adjacent bins (the floor sits ~7 decades below
        any physical noise floor, so in practice it only binds on
        all-zero synthetic traces, where both orderings agree).
        """
        floor = float(floor)
        total = self._floored_totals.get(floor)
        if total is None:
            floored = np.maximum(self.power, floor) if floor > 0.0 else self.power
            total = np.ascontiguousarray(floored.sum(axis=0))
            total.flags.writeable = False
            self._floored_totals[floor] = total
        return total

    def memoized(self, key, compute, *args):
        """The read-only array ``compute(*args)`` returned for ``key``, computed once.

        The scorer keys each harmonic's Eq. 1 score by
        ``(falts, harmonic, power_floor, clip_subscore)``, so a second
        scoring pass with this cache is a dictionary lookup per harmonic.
        """
        value = self._scores.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = compute(*args)
        value.flags.writeable = False
        self._scores[key] = value
        return value

    def valid_range(self, shift):
        """Memoized :func:`shift_valid_range` for this cache's grid."""
        key = float(shift)
        bounds = self._ranges.get(key)
        if bounds is None:
            bounds = shift_valid_range(self.grid, key)
            self._ranges[key] = bounds
        return bounds

    def valid_mask(self, shift):
        """Memoized :func:`shift_valid_mask` for this cache's grid."""
        key = float(shift)
        mask = self._masks.get(key)
        if mask is None:
            mask = shift_valid_mask(self.grid, key)
            mask.flags.writeable = False
            self._masks[key] = mask
        return mask

    # ------------------------------------------------------------------

    def shift_into(self, row, shift, out):
        """Slice-blend interpolation of ``row`` at ``f + shift`` into ``out``.

        On a uniform grid ``f_k + shift`` sits at bin position
        ``k + shift/fres`` — a *constant* offset — so the interpolation is
        two contiguous slices blended by one scalar weight (plus constant
        edge clamps), with no per-point search or index gathers at all.
        ``row`` is a grid-length vector (or an ``(M, n_bins)`` matrix) over
        this cache's grid; ``out`` has its shape and must not overlap it.
        Nothing is allocated. Returns ``out``.
        """
        n_bins = self.n_bins
        offset = shift / self.grid.resolution
        whole = int(np.floor(offset))
        frac = offset - whole
        # Columns k with 0 <= k+whole < n-1 interpolate between two real
        # bins; on the left of that range the shifted position is below
        # the span (clamp to the first bin), on the right at or past the
        # last bin center (clamp to the last bin, matching np.interp).
        lo = min(max(-whole, 0), n_bins)
        hi = min(max(n_bins - 1 - whole, 0), n_bins)
        if lo > 0:
            out[..., :lo] = row[..., :1]
        if hi < n_bins:
            out[..., hi:] = row[..., -1:]
        if hi > lo:
            left = row[..., lo + whole : hi + whole]
            if frac == 0.0:
                out[..., lo:hi] = left
            else:
                # left + frac*(right - left), evaluated in place.
                right = row[..., lo + whole + 1 : hi + whole + 1]
                interior = out[..., lo:hi]
                np.subtract(right, left, out=interior)
                interior *= frac
                interior += left
        return out

    def _shift_matrix(self, power, shift):
        """:meth:`shift_into` a fresh array shaped like ``power``."""
        return self.shift_into(power, shift, np.empty_like(power))

    def __repr__(self):
        return (
            f"ShiftedPowerCache({self.n_traces} traces x {self.n_bins} bins, "
            f"{len(self._shifted)} shifts and {len(self._scores)} scores cached, "
            f"{self.hits} hits)"
        )
