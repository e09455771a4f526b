"""Bitwise identity of the scoring path against copies of its old algorithms.

The Eq. 1/2 scorer used to interpolate every shift into a fresh array,
stack all harmonics' sub-scores into one ``(H, N, n_bins)`` array reduced
by ``np.prod`` (or a log-space sum), and take z-score medians with
``np.median``. The ``reference_*`` functions below are those algorithms,
copied verbatim; the production path interpolates into reused buffers,
reduces one harmonic at a time and takes medians from a sort. Every
array must agree to the last bit, on any NumPy build, for any trace
count, harmonic set, shift (whole-bin, fractional, past either span
edge) and grid size — and so must the detector's batched movement-check
percentiles against the per-window ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CarrierDetector, FaseConfig, HeuristicScorer
from repro.core import detect as detect_module
from repro.core.campaign import CampaignMeasurement, CampaignResult
from repro.core.scoring import ShiftedPowerCache, shift_valid_range
from repro.spectrum import FrequencyGrid, SpectrumTrace
from repro.uarch.activity import AlternationActivity

FRES = 100.0


# -- the pre-rewrite algorithms -------------------------------------------


def reference_shift_matrix(grid, power, shift):
    n_bins = power.shape[1]
    offset = shift / grid.resolution
    whole = int(np.floor(offset))
    frac = offset - whole
    out = np.empty_like(power)
    lo = min(max(-whole, 0), n_bins)
    hi = min(max(n_bins - 1 - whole, 0), n_bins)
    if lo > 0:
        out[:, :lo] = power[:, :1]
    if hi < n_bins:
        out[:, hi:] = power[:, -1:]
    if hi > lo:
        left = power[:, lo + whole : hi + whole]
        if frac == 0.0:
            out[:, lo:hi] = left
        else:
            right = power[:, lo + whole + 1 : hi + whole + 1]
            interior = out[:, lo:hi]
            np.subtract(right, left, out=interior)
            interior *= frac
            interior += left
    return out


def reference_all_scores(scorer, result):
    view = result.scoring_view()
    harmonics = tuple(view.config.harmonics)
    grid = view.grid
    power = np.ascontiguousarray(np.vstack([trace.power_mw for trace in view.traces]))
    n = power.shape[0]
    floor = scorer.power_floor
    clip = scorer.clip_subscore
    floored = np.maximum(power, floor) if floor > 0.0 else power
    total = np.ascontiguousarray(floored.sum(axis=0))
    stack = np.empty((len(harmonics), n, grid.n_bins), dtype=float)
    denom = np.empty(grid.n_bins, dtype=float)
    inv_others = 1.0 / (n - 1)
    for k, h in enumerate(harmonics):
        for i, falt in enumerate(view.falts):
            shift = float(h * falt)
            sub = stack[k, i]
            np.maximum(reference_shift_matrix(grid, power[i : i + 1], shift)[0], floor, out=sub)
            np.subtract(reference_shift_matrix(grid, total[None, :], shift)[0], sub, out=denom)
            denom *= inv_others
            np.maximum(denom, floor, out=denom)
            np.divide(sub, denom, out=sub)
            np.clip(sub, 1.0 / clip, clip, out=sub)
            lo, hi = shift_valid_range(grid, shift)
            sub[:lo] = 1.0
            sub[hi:] = 1.0
    if n * np.log10(clip) < 250.0:
        scores = np.prod(stack, axis=1)
    else:
        scores = np.exp(np.sum(np.log(stack), axis=1))
    return {h: scores[k] for k, h in enumerate(harmonics)}


def reference_zscore(score_array):
    log_score = np.log10(score_array)
    median = float(np.median(log_score))
    mad = float(np.median(np.abs(log_score - median)))
    sigma = 1.4826 * mad
    if sigma <= 0:
        sigma = float(np.std(log_score)) or 1.0
    return (log_score - median) / sigma


def reference_combined_zscore(zscores):
    combined = np.zeros(len(next(iter(zscores.values()))), dtype=float)
    for z in zscores.values():
        combined += np.maximum(z, 0.0) ** 2
    return np.sqrt(combined)


def reference_combined_score(scores):
    combined = np.zeros(len(next(iter(scores.values()))), dtype=float)
    for score in scores.values():
        combined += np.maximum(np.log10(score), 0.0)
    return combined


def reference_window_percentiles(segments, q):
    return [float(np.percentile(segment, q)) for segment in segments]


# -- helpers ----------------------------------------------------------------


def assert_bitwise(ours, theirs):
    ours = np.asarray(ours)
    theirs = np.asarray(theirs)
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def assert_score_dicts_bitwise(ours, theirs):
    assert list(ours) == list(theirs)
    for h in theirs:
        assert_bitwise(ours[h], theirs[h])


def build_result(power_rows, falts, harmonics, flagged=()):
    n_bins = power_rows.shape[1]
    grid = FrequencyGrid(0.0, n_bins * FRES, FRES)
    config = FaseConfig(
        span_low=0.0, span_high=1e6, fres=FRES, harmonics=tuple(harmonics), name="identity"
    )
    measurements = [
        CampaignMeasurement(
            falt=float(falt),
            activity=AlternationActivity(falt=float(falt), levels_x={}, levels_y={}),
            trace=SpectrumTrace(grid, row),
            flagged=i in flagged,
        )
        for i, (falt, row) in enumerate(zip(falts, power_rows))
    ]
    return CampaignResult(
        config=config, machine_name="identity", activity_label="identity",
        measurements=measurements,
    )


@st.composite
def campaigns(draw, min_traces=2):
    """Random spectra on small grids with whole-bin, fractional and
    out-of-span shifts and non-default harmonic sets."""
    n = draw(st.integers(min_value=min_traces, max_value=6))
    n_bins = draw(st.sampled_from([2, 3, 4, 7, 16, 61, 250]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    power = rng.gamma(2.0, 1.0, (n, n_bins)) * 1e-14
    # Exact zeros exercise the power floor; one all-zero trace the
    # denominator floor.
    power[rng.random((n, n_bins)) < 0.1] = 0.0
    if draw(st.booleans()):
        power[draw(st.integers(0, n - 1))] = 0.0
    # falt_i = (base + 3i + frac_i) bins: distinct, >= 2 bins apart, with
    # frac_i == 0 for whole-bin shifts and a base that can push
    # h * falt_i past either edge of the span.
    base = draw(st.integers(min_value=1, max_value=2 * n_bins + 2))
    fracs = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.3183, 0.999]), min_size=n, max_size=n
        )
    )
    falts = [(base + 3 * i + frac) * FRES for i, frac in enumerate(fracs)]
    harmonics = draw(
        st.lists(
            st.integers(min_value=-7, max_value=7).filter(bool),
            min_size=1, max_size=4, unique=True,
        )
    )
    return power, falts, harmonics


CLIPS = st.sampled_from([1e9, 1e130])  # 1e130: log-space branch for any N >= 2


# -- the identities -----------------------------------------------------------


class TestScoresMatchReference:
    @given(case=campaigns(), clip=CLIPS)
    @settings(max_examples=150, deadline=None)
    def test_all_scores_and_zscores_bitwise(self, case, clip):
        power, falts, harmonics = case
        result = build_result(power, falts, harmonics)
        scorer = HeuristicScorer(clip_subscore=clip)
        expected = reference_all_scores(scorer, result)
        scores = scorer.all_scores(result)
        assert_score_dicts_bitwise(scores, expected)

        zscores = scorer.harmonic_zscores(result, scores=scores)
        expected_z = {h: reference_zscore(score) for h, score in expected.items()}
        assert_score_dicts_bitwise(zscores, expected_z)
        assert_bitwise(
            scorer.combined_zscore(result, zscores=zscores),
            reference_combined_zscore(expected_z),
        )
        assert_bitwise(
            scorer.combined_score(result, scores=scores), reference_combined_score(expected)
        )
        log_scores = scorer.log_scores(scores)
        assert_score_dicts_bitwise(
            scorer.harmonic_zscores(result, log_scores=log_scores), expected_z
        )
        assert_bitwise(
            scorer.combined_score(result, log_scores=log_scores),
            reference_combined_score(expected),
        )

    @given(case=campaigns(), clip=CLIPS)
    @settings(max_examples=60, deadline=None)
    def test_harmonic_score_bitwise(self, case, clip):
        power, falts, harmonics = case
        result = build_result(power, falts, harmonics)
        scorer = HeuristicScorer(clip_subscore=clip)
        expected = reference_all_scores(scorer, result)
        for h in harmonics:
            assert_bitwise(scorer.harmonic_score(result.traces, result.falts, h), expected[h])

    @given(case=campaigns(min_traces=3), clip=CLIPS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_scores_excluding_and_subset_bitwise(self, case, clip, data):
        power, falts, harmonics = case
        result = build_result(power, falts, harmonics)
        scorer = HeuristicScorer(clip_subscore=clip)
        held_out = data.draw(st.integers(0, len(falts) - 1))
        kept = [i for i in range(len(falts)) if i != held_out]
        expected = reference_all_scores(
            scorer, build_result(power[kept], [falts[i] for i in kept], harmonics)
        )
        cache = scorer.cache_for(result)
        assert_score_dicts_bitwise(
            scorer.scores_excluding(result, held_out, cache=cache), expected
        )
        assert_score_dicts_bitwise(scorer.scores_excluding(result, held_out), expected)

    @given(case=campaigns(min_traces=3), clip=CLIPS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_degraded_scoring_view_bitwise(self, case, clip, data):
        power, falts, harmonics = case
        flagged = data.draw(
            st.sets(st.integers(0, len(falts) - 1), min_size=1, max_size=len(falts) - 2)
        )
        result = build_result(power, falts, harmonics, flagged=flagged)
        scorer = HeuristicScorer(clip_subscore=clip)
        assert_score_dicts_bitwise(scorer.all_scores(result), reference_all_scores(scorer, result))

    @given(case=campaigns(), clip=CLIPS)
    @settings(max_examples=40, deadline=None)
    def test_memoized_second_pass_is_the_same_bytes(self, case, clip):
        power, falts, harmonics = case
        result = build_result(power, falts, harmonics)
        scorer = HeuristicScorer(clip_subscore=clip)
        cache = scorer.cache_for(result)
        first = scorer.all_scores(result, cache=cache)
        assert cache.misses == len(harmonics) and cache.hits == 0
        second = scorer.all_scores(result, cache=cache)
        assert cache.hits == len(harmonics)
        assert_score_dicts_bitwise(second, reference_all_scores(scorer, result))
        assert all(second[h] is first[h] for h in harmonics)


class TestShiftInto:
    @given(case=campaigns(), shift_bins=st.floats(-600.0, 600.0), whole=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_shift_into_matches_reference_matrix(self, case, shift_bins, whole):
        power, _, _ = case
        grid = FrequencyGrid(0.0, power.shape[1] * FRES, FRES)
        cache = ShiftedPowerCache([SpectrumTrace(grid, row) for row in power])
        shift = float(np.round(shift_bins) if whole else shift_bins) * FRES
        expected = reference_shift_matrix(grid, power, shift)
        out = np.full(power.shape[1], np.nan)
        for i in range(power.shape[0]):
            assert_bitwise(cache.shift_into(cache.power[i], shift, out), expected[i])
        assert_bitwise(cache.shifted_all(shift), expected)


class TestSortedMedianZscore:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 400),
        ties=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_zscore_matches_np_median(self, seed, size, ties):
        """Odd and even lengths, heavy ties at score 1 (log 0) and the
        zero-MAD fallback all reproduce the ``np.median`` z-score."""
        rng = np.random.default_rng(seed)
        scores = rng.lognormal(0.0, 2.0, size)
        scores[rng.random(size) < ties] = 1.0
        assert_bitwise(HeuristicScorer.zscore(scores), reference_zscore(scores))

    @pytest.mark.parametrize("size", [400, 1000, 4096, 80000])
    def test_zscore_matches_np_median_on_grid_lengths(self, size):
        """Even grid-length arrays on which selection leaves the lower half
        unordered (an interleaved ramp, random draws): the lower-middle
        element must be found, not assumed to sit next to the middle."""
        half = size // 2
        ramp = np.ravel(np.column_stack([np.arange(half, size), np.arange(half)[::-1]]))
        rng = np.random.default_rng(size)
        for values in [ramp / size] + [rng.normal(size=size) for _ in range(20)]:
            scores = np.exp(values)
            assert_bitwise(HeuristicScorer.zscore(scores), reference_zscore(scores))


class TestBatchedMovementCheck:
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.sampled_from([1, 2, 17, 41, 41, 41]), min_size=0, max_size=8),
        q=st.sampled_from([25.0, 50.0, 90.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_window_percentiles_match_per_window(self, seed, lengths, q):
        rng = np.random.default_rng(seed)
        segments = [rng.gamma(2.0, 1.0, length) * 1e-14 for length in lengths]
        ours = detect_module._window_percentiles(segments, q)
        theirs = reference_window_percentiles(segments, q)
        assert [v.hex() for v in ours] == [v.hex() for v in theirs]

    def test_detections_match_per_window_movement_check(self, i7_ldm_ldl1, monkeypatch):
        """The whole detector, batched against per-window percentiles."""
        batched = CarrierDetector().detect(i7_ldm_ldl1)
        assert batched
        monkeypatch.setattr(detect_module, "_window_percentiles", reference_window_percentiles)
        per_window = CarrierDetector().detect(i7_ldm_ldl1)
        assert batched == per_window

    def test_edge_clipped_windows(self, synthetic_campaign, monkeypatch):
        """Side-band windows clipped by the grid edge form their own groups."""
        carrier = synthetic_campaign.grid.stop - 45.0e3
        result = synthetic_campaign(carrier=carrier)
        detector = CarrierDetector()
        lengths = []

        def spy(segments, q):
            lengths.extend(len(segment) for segment in segments)
            return reference_window_percentiles(segments, q)

        batched = detector._verify_movement(result, carrier, 1)
        monkeypatch.setattr(detect_module, "_window_percentiles", spy)
        assert detector._verify_movement(result, carrier, 1) == batched
        assert len(set(lengths)) > 1  # full and clipped windows both present
