"""Time-domain capture path: synthesis calibration and end-to-end FASE.

The strongest internal validation in the repository: the same machine
model, driven through sampled waveforms + Welch estimation instead of
analytic line rendering, must present the same carriers to the unchanged
FASE pipeline.
"""

import numpy as np
import pytest

from repro import FaseConfig, MicroOp
from repro.core import CarrierDetector
from repro.spectrum.grid import FrequencyGrid
from repro.spectrum.welch import trace_from_iq
from repro.system import build_environment, corei7_desktop
from repro.system.environment import RFEnvironment, ToneInterferer
from repro.system.timedomain import TimeDomainCampaign, TimeDomainScene, _environment_iq
from repro.uarch.activity import AlternationActivity
from repro.uarch.isa import MicroOp as Op, activity_levels


@pytest.fixture(scope="module")
def machine():
    return corei7_desktop(
        environment=build_environment(4e6, rng=np.random.default_rng(0)),
        rng=np.random.default_rng(0),
    )


@pytest.fixture(scope="module")
def td_result(machine):
    config = FaseConfig(
        span_low=200e3, span_high=700e3, fres=50.0,
        falt1=43.3e3, f_delta=0.5e3, name="TD window",
    )
    campaign = TimeDomainCampaign(machine, config, duration=0.4, rng=np.random.default_rng(1))
    return campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")


class TestEnvironmentSynthesis:
    """The PSD-shaped noise synthesis must be power-calibrated."""

    def test_tone_power_calibrated(self):
        env = RFEnvironment(sources=[ToneInterferer(310e3, -100.0)])
        fs, center, n = 200e3, 320e3, 1 << 17
        iq = _environment_iq(env, None, center, fs, n, np.random.default_rng(0))
        grid = FrequencyGrid(250e3, 390e3, 100.0)
        trace = trace_from_iq(iq, fs, grid, center_frequency=center, nperseg=4096)
        index = grid.index_of(310e3)
        band = float(trace.power_mw[index - 3 : index + 4].sum())
        assert 10 * np.log10(band) == pytest.approx(-100.0, abs=1.0)

    def test_floor_density_calibrated(self):
        env = RFEnvironment.quiet(floor_dbm_per_hz=-160.0)
        fs, center, n = 200e3, 320e3, 1 << 17
        iq = _environment_iq(env, None, center, fs, n, np.random.default_rng(1))
        grid = FrequencyGrid(250e3, 390e3, 100.0)
        trace = trace_from_iq(iq, fs, grid, center_frequency=center, nperseg=4096)
        density_dbm = 10 * np.log10(trace.power_mw.mean() / grid.resolution)
        assert density_dbm == pytest.approx(-160.0, abs=1.0)


class TestSceneSynthesis:
    def test_carrier_power_matches_analytic_path(self, machine):
        """The 315 kHz regulator line lands at the same level either way."""
        activity = AlternationActivity.constant(
            activity_levels(Op.LDM), label="steady"
        )
        scene = TimeDomainScene(machine, activity, 450e3, 650e3, rng=np.random.default_rng(2))
        grid = FrequencyGrid(250e3, 650e3, 50.0)
        td_trace = scene.capture_trace(grid, duration=0.3)
        from repro.spectrum.analyzer import SpectrumAnalyzer

        analytic = SpectrumAnalyzer(n_averages=None).capture(machine.scene(activity), grid)
        index = grid.index_of(315e3)
        td_band = td_trace.power_mw[index - 20 : index + 21].sum()
        an_band = analytic.power_mw[index - 20 : index + 21].sum()
        assert 10 * np.log10(td_band / an_band) == pytest.approx(0.0, abs=2.0)

    def test_synthesize_shape(self, machine):
        activity = AlternationActivity.constant({}, label="idle")
        scene = TimeDomainScene(machine, activity, 450e3, 500e3, rng=np.random.default_rng(3))
        iq = scene.synthesize(0.01)
        assert iq.dtype == complex
        assert len(iq) == int(0.01 * 500e3)

    def test_reproducible_given_seed(self, machine):
        activity = AlternationActivity.constant({}, label="idle")
        a = TimeDomainScene(machine, activity, 450e3, 500e3, rng=np.random.default_rng(4)).synthesize(0.005)
        b = TimeDomainScene(machine, activity, 450e3, 500e3, rng=np.random.default_rng(4)).synthesize(0.005)
        np.testing.assert_array_equal(a, b)


class TestEndToEndFase:
    def test_td_campaign_detects_paper_carriers(self, td_result):
        """FASE over the waveform path finds the regulators and refresh."""
        detections = CarrierDetector().detect(td_result)
        frequencies = np.array([d.frequency for d in detections])
        for expected in (315e3, 450e3, 512e3):
            assert np.min(np.abs(frequencies - expected)) < 1e3, expected

    def test_no_detection_at_core_regulator(self, td_result):
        """The LDM/LDL1 pair must not claim the 333 kHz core regulator in
        the time-domain path either."""
        detections = CarrierDetector().detect(td_result)
        for detection in detections:
            assert abs(detection.frequency - 333e3) > 2e3

    def test_measurements_have_distinct_falts(self, td_result):
        """Regression for two real bugs: a child_rng label collision gave
        two measurements identical noise, and per-period sample rounding
        collapsed all five falts onto one effective frequency."""
        falts = td_result.falts
        assert len(set(round(f) for f in falts)) == 5
        # side-band peaks must actually move measurement-to-measurement
        grid = td_result.grid
        positions = []
        for measurement in td_result.measurements:
            target = 512e3 - measurement.falt
            index = grid.index_of(target)
            segment = measurement.trace.power_mw[index - 20 : index + 21]
            positions.append(grid.frequency_at(index - 20 + int(np.argmax(segment))))
        assert len(set(positions)) >= 4


def test_environment_cache_follows_alternating_grids():
    """Captures that alternate capture bands each see their own band."""
    fs, n = 200e3, 4096
    shared = build_environment(4e6, rng=np.random.default_rng(0))
    for center in (300e3, 700e3, 300e3, 700e3):
        fresh = build_environment(4e6, rng=np.random.default_rng(0))
        got = _environment_iq(shared, None, center, fs, n, np.random.default_rng(2))
        want = _environment_iq(fresh, None, center, fs, n, np.random.default_rng(2))
        np.testing.assert_array_equal(got, want)
