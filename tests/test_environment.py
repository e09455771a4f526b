"""RF environment: radio stations, spurs, metropolitan preset."""

import numpy as np
import pytest

from repro.errors import SystemModelError
from repro.spectrum.grid import FrequencyGrid
from repro.system.environment import (
    AM_BAND_HIGH,
    AM_BAND_LOW,
    AMRadioStation,
    RFEnvironment,
    SpuriousToneField,
    ToneInterferer,
)
from repro.units import dbm_to_milliwatts

GRID = FrequencyGrid(0.0, 2e6, 50.0)


class TestToneInterferer:
    def test_single_bin(self):
        tone = ToneInterferer(600e3, -100.0)
        power = tone.mean_power(GRID)
        assert power[GRID.index_of(600e3)] == pytest.approx(dbm_to_milliwatts(-100.0))
        assert np.count_nonzero(power) == 1

    def test_validation(self):
        with pytest.raises(SystemModelError):
            ToneInterferer(0.0, -100.0)


class TestAMRadioStation:
    def test_carrier_plus_audio_sidebands(self):
        station = AMRadioStation(1000e3, -95.0, audio_bandwidth=5e3, sideband_fraction=0.3)
        power = station.mean_power(GRID)
        carrier_bin = GRID.index_of(1000e3)
        assert power[carrier_bin] > 0
        # audio energy within +-5 kHz
        near = power[GRID.index_of(997e3) : GRID.index_of(1003e3)].sum()
        assert near == pytest.approx(dbm_to_milliwatts(-95.0), rel=0.15)

    def test_total_power_calibrated(self):
        station = AMRadioStation(800e3, -90.0)
        assert station.mean_power(GRID).sum() == pytest.approx(dbm_to_milliwatts(-90.0), rel=0.01)

    def test_static_mean(self):
        """A station's mean spectrum never changes: the property FASE's
        normalization relies on to reject it."""
        station = AMRadioStation(800e3, -90.0)
        np.testing.assert_array_equal(station.mean_power(GRID), station.mean_power(GRID))

    def test_validation(self):
        with pytest.raises(SystemModelError):
            AMRadioStation(800e3, -90.0, sideband_fraction=1.0)
        with pytest.raises(SystemModelError):
            AMRadioStation(800e3, -90.0, audio_bandwidth=0.0)


class TestSpuriousToneField:
    def test_count_and_determinism(self):
        field = SpuriousToneField(0.0, 2e6, 50, rng=np.random.default_rng(4))
        power = field.mean_power(GRID)
        assert 40 <= np.count_nonzero(power) <= 50  # some tones may share bins
        again = SpuriousToneField(0.0, 2e6, 50, rng=np.random.default_rng(4)).mean_power(GRID)
        np.testing.assert_array_equal(power, again)

    def test_validation(self):
        with pytest.raises(SystemModelError):
            SpuriousToneField(2e6, 1e6, 10)
        with pytest.raises(SystemModelError):
            SpuriousToneField(0.0, 1e6, -1)

    def test_default_rng_reproducible(self):
        """Regression: ``rng=None`` used to pull fresh process entropy, so
        two fields built without an explicit stream could never reproduce
        each other (or a rerun of the same script). The default is now a
        fixed labeled stream."""
        a = SpuriousToneField(0.0, 2e6, 50)
        b = SpuriousToneField(0.0, 2e6, 50)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.powers_mw, b.powers_mw)

    def test_zero_tones_is_silent(self):
        field = SpuriousToneField(0.0, 2e6, 0)
        np.testing.assert_array_equal(field.mean_power(GRID), 0.0)


class TestRFEnvironment:
    def test_quiet_has_only_thermal_floor(self):
        env = RFEnvironment.quiet()
        power = env.mean_power(GRID)
        assert np.ptp(power) == pytest.approx(0.0, abs=1e-30)

    def test_metropolitan_populates_am_band(self):
        env = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        power = env.mean_power(GRID)
        lo, hi = GRID.index_of(AM_BAND_LOW), GRID.index_of(min(AM_BAND_HIGH, 2e6 - 50))
        floor = np.median(power)
        stations = np.sum(power[lo:hi] > 100 * floor)
        assert stations > 10

    def test_metropolitan_deterministic(self):
        a = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0)).mean_power(GRID)
        b = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0)).mean_power(GRID)
        np.testing.assert_array_equal(a, b)

    def test_sum_of_sources_and_noise(self):
        tone = ToneInterferer(500e3, -100.0)
        env = RFEnvironment(sources=[tone])
        power = env.mean_power(GRID)
        np.testing.assert_allclose(power, tone.mean_power(GRID))

    def test_small_span_no_am_band(self):
        env = RFEnvironment.metropolitan(100e3, rng=np.random.default_rng(0))
        grid = FrequencyGrid(0.0, 100e3, 50.0)
        assert env.mean_power(grid).sum() > 0  # noise + spurs only, no crash

    def test_invalid_span(self):
        with pytest.raises(SystemModelError):
            RFEnvironment.metropolitan(0.0)

    def test_empty_source_list_without_noise_is_silent(self):
        env = RFEnvironment(sources=(), noise=None)
        np.testing.assert_array_equal(env.mean_power(GRID), 0.0)

    def test_metropolitan_with_all_source_counts_zero(self):
        """Source counts of zero leave only the noise landscape — still a
        valid environment with power in every bin."""
        env = RFEnvironment.metropolitan(
            2e6,
            rng=np.random.default_rng(0),
            n_am_stations=0,
            n_spurious=0,
            n_longwave=0,
        )
        power = env.mean_power(GRID)
        assert np.all(power > 0)
        # above the pink-noise knee the floor is smooth: no narrowband
        # sources anywhere (the 1/f rise legitimately dominates near DC)
        tail = power[GRID.index_of(100e3) :]
        assert tail.max() < 100 * np.median(tail)

    def test_metropolitan_span_below_every_band(self):
        """A span under the long-wave band (60 kHz) skips stations and
        long-wave transmitters entirely without crashing."""
        env = RFEnvironment.metropolitan(50e3, rng=np.random.default_rng(0))
        grid = FrequencyGrid(0.0, 50e3, 50.0)
        assert env.mean_power(grid).sum() > 0


class TestEnvironmentCache:
    """The static environment is rendered once per grid and never mutated."""

    def test_cached_render_is_read_only(self):
        power = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0)).mean_power(GRID)
        with pytest.raises(ValueError):
            power[0] = 1.0
        with pytest.raises(ValueError):
            power += 1.0

    def test_same_grid_reuses_one_render(self):
        env = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        first = env.mean_power(GRID)
        assert env.mean_power(FrequencyGrid(0.0, 2e6, 50.0)) is first

    def test_second_grid_replaces_the_entry(self):
        env = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        other = FrequencyGrid(100e3, 600e3, 25.0)
        first = env.mean_power(GRID)
        on_other = env.mean_power(other)
        again = env.mean_power(GRID)
        # One entry: each grid switch evicts the previous render, so going
        # back to a grid renders it again (a new array, the same bytes).
        assert again is not first
        np.testing.assert_array_equal(again, first)
        assert env.mean_power(other) is not on_other
        fresh = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(on_other, fresh.mean_power(other))

    def test_environments_never_share_an_entry(self):
        a = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        b = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(1))
        power_a, power_b = a.mean_power(GRID), b.mean_power(GRID)
        assert power_a is not power_b
        assert not np.array_equal(power_a, power_b)
        twin = RFEnvironment.metropolitan(2e6, rng=np.random.default_rng(0))
        assert twin.mean_power(GRID) is not power_a

    def test_sources_are_immutable(self):
        env = RFEnvironment(sources=[ToneInterferer(500e3, -100.0)])
        assert isinstance(env.sources, tuple)
        with pytest.raises(AttributeError):
            env.sources.append(ToneInterferer(600e3, -100.0))
