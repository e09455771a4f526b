"""The FASE heuristic (Equations 1 and 2).

For a harmonic ``h`` of the alternation frequency, the score at candidate
carrier frequency ``f`` is

    F_h(f)    = prod_i F_{i,h}(f)                               (Eq. 1)
    F_{i,h}(f) = SP_i(f + h*falt_i) / ( (1/(N-1)) sum_{j!=i} SP_j(f + h*falt_i) )   (Eq. 2)

Sub-score ``i`` reads spectrum ``i`` at its own shifted side-band position
``f + h*falt_i`` and normalizes by the *other* spectra **at that same
absolute frequency** — the paper's prose is explicit: "At the exact same
frequency in at least some of the other spectra, however, the signal will
not be as strong because these spectra have peaks at falt_j and so their
side-band signal is at a different frequency." A side-band that moves with
falt therefore scores ≫ 1 in every sub-score (each spectrum is strong
exactly where the others are not), while anything stationary — radio
stations, unmodulated combs, noise hills — cancels to ≈ 1. (Shifting the
denominator spectra by their *own* falt_j instead would park every
spectrum on its own side-band peak and flatten the score to 1 everywhere,
including at real carriers.)

Spectra are combined in *linear power* — the ratio of Eq. 2 is a power
ratio, and the figures' dBm axes are display-only.

Two implementations compute the same numbers: the default vectorized
pipeline interpolates every shift through a shared
:class:`~repro.core.scoring.ShiftedPowerCache` into one reused
``(N, n_bins)`` sub-score buffer and reduces it to each harmonic's
F_h in turn (log-space accumulation preserved), memoizing the finished
score arrays on the cache; ``HeuristicScorer(vectorized=False)`` keeps
the naive per-trace ``np.interp`` path as the reference implementation
for tests and benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..errors import DetectionError
from ..telemetry import current_telemetry
from .campaign import CampaignResult
from .scoring import ShiftedPowerCache, shift_valid_mask

#: Floor (mW) applied to shifted powers before ratios. Far below the
#: thermal noise per bin of any realistic capture (-148 dBm ≈ 1.6e-15 mW)
#: so it only guards truly empty synthetic traces.
DEFAULT_POWER_FLOOR = 1e-22


class HeuristicScorer:
    """Computes Eq. 1/2 score arrays over a campaign's grid."""

    def __init__(self, power_floor=DEFAULT_POWER_FLOOR, clip_subscore=1e9, vectorized=True):
        if power_floor <= 0:
            raise DetectionError("power floor must be positive")
        if clip_subscore <= 1:
            raise DetectionError("subscore clip must exceed 1")
        self.power_floor = float(power_floor)
        self.clip_subscore = float(clip_subscore)
        self.vectorized = bool(vectorized)

    # ------------------------------------------------------------------

    def cache_for(self, traces_or_result):
        """A :class:`ShiftedPowerCache` over a trace list or campaign result.

        Returns ``None`` in reference mode, where every evaluation goes
        through per-trace ``np.interp`` by design.
        """
        if not self.vectorized:
            return None
        traces = getattr(traces_or_result, "traces", traces_or_result)
        return ShiftedPowerCache(traces)

    def subscores(self, traces, falts, harmonic, cache=None):
        """The N sub-scores F_{i,h}(f) as an (N, n_bins) matrix.

        For each ``i`` every spectrum is evaluated at the *same* shifted
        frequency ``f + h*falt_i``; the sub-score is spectrum i over the
        mean of the others there. Bins whose shifted frequency falls
        outside the measured span have no data and are forced to 1.
        """
        self._validate(traces, falts, harmonic)
        if not self.vectorized:
            return self._subscores_reference(traces, falts, harmonic)
        if cache is None:
            cache = ShiftedPowerCache(traces)
        return self._subscores_vectorized(cache, falts, harmonic)

    def _subscores_vectorized(self, cache, falts, harmonic, out=None, scratch=None):
        n = cache.n_traces
        floor = self.power_floor
        subs = out if out is not None else np.empty((n, cache.n_bins), dtype=float)
        denom = scratch if scratch is not None else np.empty(cache.n_bins, dtype=float)
        total = cache.floored_total(floor)
        inv_others = 1.0 / (n - 1)
        for i, falt in enumerate(falts):
            shift = harmonic * falt
            # Numerator: trace i interpolated and floored in place in its
            # output row; denominator: the floored total interpolated in
            # place (linearity of the interpolation) minus that row. No
            # grid-length array is allocated per shift.
            sub = subs[i]
            cache.shift_into(cache.power[i], shift, sub)
            np.maximum(sub, floor, out=sub)
            cache.shift_into(total, shift, denom)
            np.subtract(denom, sub, out=denom)
            denom *= inv_others
            np.maximum(denom, floor, out=denom)
            np.divide(sub, denom, out=sub)
            np.clip(sub, 1.0 / self.clip_subscore, self.clip_subscore, out=sub)
            # Bins whose shifted position has no measured data sit outside
            # one contiguous in-span run; force both flanks to 1.
            valid_lo, valid_hi = cache.valid_range(shift)
            sub[:valid_lo] = 1.0
            sub[valid_hi:] = 1.0
        return subs

    def _subscores_reference(self, traces, falts, harmonic):
        """The naive path: one ``np.interp`` per trace per shift."""
        grid = traces[0].grid
        n = len(traces)
        subs = np.empty((n, grid.n_bins), dtype=float)
        for i, falt in enumerate(falts):
            shift = harmonic * falt
            shifted = np.empty((n, grid.n_bins), dtype=float)
            for j, trace in enumerate(traces):
                shifted[j] = trace.shifted_power(shift)
            shifted = np.maximum(shifted, self.power_floor)
            mean_others = (shifted.sum(axis=0) - shifted[i]) / (n - 1)
            sub = shifted[i] / np.maximum(mean_others, self.power_floor)
            sub = np.clip(sub, 1.0 / self.clip_subscore, self.clip_subscore)
            sub[~shift_valid_mask(grid, shift)] = 1.0
            subs[i] = sub
        return subs

    def harmonic_score(self, traces, falts, harmonic, cache=None):
        """F_h(f) over the whole grid (Eq. 1)."""
        subs = self.subscores(traces, falts, harmonic, cache=cache)
        return self._accumulate(subs)

    def all_scores(self, result, cache=None):
        """{harmonic: F_h array} for every configured harmonic.

        The vectorized path computes each harmonic's sub-scores into one
        reused ``(N, n_bins)`` buffer and reduces it to F_h before moving
        on; the finished, read-only score arrays are memoized on the
        cache, so passing the same ``cache`` again (the detector shares
        its cache for movement verification) recomputes nothing.

        A degraded result (screen-flagged captures) is scored through its
        leave-one-out view: the flagged falt indices are excluded and the
        Eq. 2 denominator renormalizes over the remaining spectra. A
        caller-supplied ``cache`` must already cover that view (the
        detector builds its cache from the view for exactly this reason).
        """
        view = getattr(result, "scoring_view", None)
        if view is not None:
            result = view()
        result.validate()
        harmonics = tuple(result.config.harmonics)
        telemetry = current_telemetry()
        with telemetry.span(
            "score", stage="score", label=result.activity_label, n_harmonics=len(harmonics)
        ):
            if not self.vectorized:
                return {
                    h: self.harmonic_score(result.traces, result.falts, h)
                    for h in harmonics
                }
            owns_cache = cache is None
            if owns_cache:
                cache = ShiftedPowerCache.from_result(result)
            falts = tuple(float(falt) for falt in result.falts)
            subs = np.empty((cache.n_traces, cache.n_bins), dtype=float)
            scratch = np.empty(cache.n_bins, dtype=float)

            def score(h):
                self._subscores_vectorized(cache, falts, h, out=subs, scratch=scratch)
                return self._accumulate(subs)

            scores = {
                h: cache.memoized((falts, h, self.power_floor, self.clip_subscore), score, h)
                for h in harmonics
            }
            if owns_cache:
                # Whoever builds the cache flushes its counters; a shared
                # cache is flushed by its owner (the detector) instead.
                telemetry.count("scoring_cache_hits", cache.hits)
                telemetry.count("scoring_cache_misses", cache.misses)
            return scores

    def scores_excluding(self, result, exclude_index, cache=None):
        """Leave-one-out scores: falt index ``exclude_index`` held out.

        The excluded spectrum contributes neither a sub-score row nor a
        term in any Eq. 2 denominator; the remaining N-1 spectra
        renormalize exactly as if the campaign had never measured it.
        A ``cache`` built over the *full* result is reused via
        :meth:`ShiftedPowerCache.subset`, so ablation sweeps (hold out
        each index in turn) pay for one trace stack, not N.
        """
        measurements = result.measurements
        if not 0 <= exclude_index < len(measurements):
            raise DetectionError(
                f"exclude_index {exclude_index} outside 0..{len(measurements) - 1}"
            )
        kept = [i for i in range(len(measurements)) if i != exclude_index]
        subset = CampaignResult(
            config=result.config,
            machine_name=result.machine_name,
            activity_label=result.activity_label,
            measurements=[measurements[i] for i in kept],
        )
        sub_cache = None
        if self.vectorized:
            sub_cache = (
                cache.subset(kept) if cache is not None else ShiftedPowerCache.from_result(subset)
            )
        return self.all_scores(subset, cache=sub_cache)

    def _accumulate(self, subs):
        """Eq. 1 product across the rows of ``subs``, guarded against overflow.

        Each factor is clipped to ``[1/clip, clip]``, so the product of N
        sub-scores is bounded by ``clip**N``; when that provably fits in
        float64 the product is taken directly (a single cheap pass).
        Otherwise accumulation happens in log space, which is safe for
        any N at the cost of a transcendental per element; the logs
        overwrite ``subs``, which callers treat as scratch.
        """
        n = subs.shape[0]
        if n * np.log10(self.clip_subscore) < 250.0:
            return np.prod(subs, axis=0)
        total = np.sum(np.log(subs, out=subs), axis=0)
        return np.exp(total, out=total)

    def combined_score(self, result, scores=None, cache=None, log_scores=None):
        """Evidence fused across harmonics: sum of positive log10 scores.

        The paper inspects each F_h separately; this simple fusion sums
        ``max(log10 F_h, 0)`` so independent harmonics reinforce each other
        while off-carrier scores (~1, log ~0) contribute nothing. Returned
        in log10 units ("decades of evidence"). For automated detection
        prefer :meth:`combined_zscore`, which normalizes each harmonic by
        its own noise statistics first. ``log_scores`` ({harmonic:
        log10 F_h}, see :meth:`log_scores`) spares recomputing the logs.
        """
        if log_scores is None:
            if scores is None:
                scores = self.all_scores(result, cache=cache)
            log_scores = self.log_scores(scores)
        combined = np.zeros(result.grid.n_bins, dtype=float)
        positive = np.empty_like(combined)
        for log_score in log_scores.values():
            combined += np.maximum(log_score, 0.0, out=positive)
        return combined

    @staticmethod
    def log_scores(scores):
        """{harmonic: log10 F_h} — shared by the z-scores and the evidence."""
        return {h: np.log10(score) for h, score in scores.items()}

    @staticmethod
    def zscore(score_array):
        """Robust z-score of one harmonic's log-score array.

        Off-carrier, log10 F_h fluctuates around 0 with a spread set by the
        capture averaging and side-band overlap; carriers stand many robust
        standard deviations (median absolute deviation scaled to sigma)
        above it. Normalizing per harmonic makes detection thresholds
        independent of the campaign's noise floor and averaging count.
        """
        return _robust_zscore(np.log10(score_array), np.empty(np.shape(score_array)))

    def harmonic_zscores(self, result, scores=None, cache=None, log_scores=None):
        """{harmonic: robust z-score array} for every configured harmonic."""
        if log_scores is None:
            if scores is None:
                scores = self.all_scores(result, cache=cache)
            log_scores = self.log_scores(scores)
        scratch = np.empty(result.grid.n_bins, dtype=float)
        return {h: _robust_zscore(log_score, scratch) for h, log_score in log_scores.items()}

    def combined_zscore(self, result, scores=None, zscores=None, cache=None):
        """Root-sum-square fusion of the positive per-harmonic z-scores.

        Z(f) = sqrt(sum_h max(z_h(f), 0)^2). Section 2.3 stresses that
        "detection of a single harmonic of falt in a single side-band is
        sufficient to detect a carrier" — several side-bands are routinely
        obscured by unrelated signals — so the fusion must not average
        strong evidence away across harmonics that (legitimately) carry
        none: a 50 %-duty alternation has no even harmonics at all, and a
        carrier with one clean side-band may only excite h = -1. RSS keeps
        a single z = 9 harmonic decisive while off-carrier bins (z ~ N(0,1)
        per harmonic) stay near sqrt(H/2) ~ 2.2.
        """
        if zscores is None:
            zscores = self.harmonic_zscores(result, scores=scores, cache=cache)
        combined = np.zeros(result.grid.n_bins, dtype=float)
        positive = np.empty_like(combined)
        for z in zscores.values():
            np.maximum(z, 0.0, out=positive)
            combined += np.multiply(positive, positive, out=positive)
        return np.sqrt(combined, out=combined)

    # ------------------------------------------------------------------

    @staticmethod
    def _validate(traces, falts, harmonic):
        if len(traces) != len(falts):
            raise DetectionError("one falt per trace is required")
        if len(traces) < 2:
            raise DetectionError("the heuristic needs at least two spectra")
        if harmonic == 0:
            raise DetectionError("harmonic 0 is the carrier itself; score side-bands")
        grid = traces[0].grid
        for trace in traces:
            if trace.grid != grid:
                raise DetectionError("traces must share one grid")


def _median_inplace(values):
    """``np.median`` of a finite 1-D array, to the last bit; reorders ``values``.

    ``np.median`` partitions around both middle positions at once, which
    NumPy serves with its scalar introselect. A partition around the one
    upper-middle position takes NumPy's SIMD selection path instead
    (~5x faster on a grid-length array); the lower-middle element is
    then the maximum of the lower part. Both values and the arithmetic
    on them (the middle element, or the mean of the two middle elements)
    are ``np.median``'s own.
    """
    mid = values.size // 2
    values.partition(mid)
    upper = values[mid]
    if values.size % 2:
        return float(upper)
    return float((values[:mid].max() + upper) / 2.0)


def _robust_zscore(log_score, scratch):
    """``(log_score - median) / (1.4826 * MAD)`` without ``np.median``.

    Both medians are selected in place in ``scratch`` (see
    :func:`_median_inplace`), so the only allocation is the returned
    array. ``log_score`` must be finite: a NaN would not poison the
    median as it does ``np.median``'s (spectra reject non-finite power
    for that reason).
    """
    flat = scratch.reshape(-1)
    np.copyto(scratch, log_score)
    median = _median_inplace(flat)
    deviation = np.subtract(log_score, median)
    np.abs(deviation, out=scratch)
    sigma = 1.4826 * _median_inplace(flat)
    if sigma <= 0:
        sigma = float(np.std(log_score)) or 1.0
    deviation /= sigma
    return deviation


class IncrementalEvidence:
    """Running Eq. 1 evidence over a growing capture prefix.

    The adaptive survey planner feeds captures in one at a time (the
    serial shared-stream order of
    :meth:`~repro.core.campaign.MeasurementCampaign.iter_captures`) and
    asks after each whether the campaign is still worth finishing. Each
    Eq. 2 sub-score is clipped to ``[1/clip, clip]``, so after ``k`` of
    ``N`` captures the final ``log10 F_h`` at any bin can exceed the
    current prefix maximum by at most ``(N - k) * log10(clip)`` — and in
    practice by far less, which is what ``bound_decades`` lets a caller
    encode as a per-falt cap. When even that optimistic bound stays
    below the detection threshold, no completion of the campaign can
    cross it and the remaining captures are provably wasted.
    """

    def __init__(self, config, machine_name, activity_label, scorer=None):
        self.scorer = scorer or HeuristicScorer()
        self.result = CampaignResult(
            config=config, machine_name=machine_name, activity_label=activity_label
        )
        self._evidence = None

    @property
    def n_captures(self):
        return len(self.result.measurements)

    @property
    def max_evidence_decades(self):
        """Strongest ``log10 F_h`` over all harmonics and bins so far.

        ``None`` until two captures exist (Eq. 2 needs a denominator).
        """
        return self._evidence

    def add(self, measurement):
        """Fold one capture in; returns the updated prefix evidence."""
        self.result.measurements.append(measurement)
        if self.n_captures >= 2:
            scores = self.scorer.all_scores(self.result)
            self._evidence = max(
                float(np.max(np.log10(score))) for score in scores.values()
            )
        return self._evidence

    def bound_decades(self, n_total, per_falt_cap_decades):
        """Upper bound on the final evidence after all ``n_total`` captures.

        Assumes each of the remaining factors contributes at most
        ``per_falt_cap_decades`` decades at the current best bin.
        Infinite until the prefix evidence is defined.
        """
        if self._evidence is None:
            return float("inf")
        remaining = max(n_total - self.n_captures, 0)
        return self._evidence + remaining * float(per_falt_cap_decades)
