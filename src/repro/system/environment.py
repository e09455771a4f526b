"""The RF environment: everything FASE must reject.

The paper's experiments "cover the entire AM radio spectrum, and were
performed without shielding in a major metropolitan area with hundreds of
radio stations nearby"; the headline robustness result is that FASE rejects
all of it — broadcast AM (modulated, but not by the micro-benchmark),
long-wave transmitters, the system's own unmodulated periodic signals, and
broadband noise.

Environment sources are *static*: their mean spectrum is the same in every
capture regardless of what the micro-benchmark does. (The per-capture
fluctuations come from the analyzer's estimation-noise model.) That
stationarity is exactly the property Eq. 2 normalizes away.
"""

from __future__ import annotations

import numpy as np

from ..errors import SystemModelError
from ..rng import child_rng, ensure_rng, make_rng
from ..signals.lineshape import DeltaLine, GaussianLine
from ..signals.noise import BroadbandHills, CompositeNoise, PinkNoise, ThermalNoise
from ..units import dbm_to_milliwatts

#: US AM broadcast band edges and channel spacing.
AM_BAND_LOW = 540e3
AM_BAND_HIGH = 1600e3
AM_CHANNEL_SPACING = 10e3


class EnvironmentSource:
    """Base class: a static contributor of mean per-bin power."""

    def mean_power(self, grid):
        """Mean per-bin power (mW) over the grid."""
        raise NotImplementedError


class ToneInterferer(EnvironmentSource):
    """A fixed unmodulated tone (e.g. a long-wave time-signal station)."""

    def __init__(self, frequency, power_dbm, linewidth=0.0, name=""):
        if frequency <= 0:
            raise SystemModelError("tone frequency must be positive")
        self.frequency = float(frequency)
        self.power_mw = float(dbm_to_milliwatts(power_dbm))
        self.shape = GaussianLine(linewidth) if linewidth > 0 else DeltaLine()
        self.name = name or f"tone@{frequency:.0f}Hz"

    def mean_power(self, grid):
        return self.shape.render(grid.frequencies, self.frequency, self.power_mw)


class AMRadioStation(EnvironmentSource):
    """A broadcast AM station: carrier plus program-audio side-bands.

    The program audio occupies ±``audio_bandwidth`` around the carrier;
    ``sideband_fraction`` of the received power rides in the side-bands.
    Strongly amplitude-modulated — but not by our micro-benchmark, so FASE
    must not report it.
    """

    def __init__(self, frequency, power_dbm, audio_bandwidth=5e3, sideband_fraction=0.3, name=""):
        if frequency <= 0:
            raise SystemModelError("carrier frequency must be positive")
        if audio_bandwidth <= 0:
            raise SystemModelError("audio bandwidth must be positive")
        if not 0.0 <= sideband_fraction < 1.0:
            raise SystemModelError("sideband fraction must be in [0, 1)")
        self.frequency = float(frequency)
        self.power_mw = float(dbm_to_milliwatts(power_dbm))
        self.audio_bandwidth = float(audio_bandwidth)
        self.sideband_fraction = float(sideband_fraction)
        self.name = name or f"AM@{frequency / 1e3:.0f}kHz"

    def mean_power(self, grid):
        # Carrier and audio sum into this station's own array before the
        # environment adds it, which fixes the float summation order.
        power = DeltaLine().render(
            grid.frequencies, self.frequency, self.power_mw * (1.0 - self.sideband_fraction)
        )
        GaussianLine(self.audio_bandwidth / 2.0).deposit(
            power, grid.frequencies, self.frequency, self.power_mw * self.sideband_fraction
        )
        return power


class SpuriousToneField(EnvironmentSource):
    """Many fixed periodic signals scattered across a band.

    Stands in for the "thousands of periodic signals that are not modulated
    by system activity" a computer produces, plus miscellaneous external
    narrowband interferers. The realization is fixed at construction.
    """

    def __init__(self, low, high, n_tones, power_dbm_low=-145.0, power_dbm_high=-115.0, rng=None):
        if not 0 <= low < high:
            raise SystemModelError("need 0 <= low < high")
        if n_tones < 0:
            raise SystemModelError("n_tones must be non-negative")
        if rng is None:
            # Without an explicit stream the field used to draw from fresh
            # process entropy, so two environments assembled in the same
            # process could never reproduce each other (or a rerun). Derive
            # a fixed labeled stream instead, the same way campaign
            # components do in rng.py.
            rng = child_rng(make_rng(0), "spurious-tone-field")
        else:
            rng = ensure_rng(rng)
        self.frequencies = np.sort(rng.uniform(low, high, size=n_tones))
        self.powers_mw = dbm_to_milliwatts(
            rng.uniform(power_dbm_low, power_dbm_high, size=n_tones)
        )

    def mean_power(self, grid):
        power = np.zeros(grid.n_bins, dtype=float)
        shape = DeltaLine()
        for frequency, tone_power in zip(self.frequencies, self.powers_mw):
            shape.deposit(power, grid.frequencies, frequency, tone_power)
        return power


class RFEnvironment(EnvironmentSource):
    """Aggregate of environment sources plus the noise landscape.

    The environment is static, so :meth:`mean_power` renders it once per
    grid and hands every later capture on that grid the same read-only
    array. ``sources`` is a tuple so the cached render cannot go stale by
    mutation.
    """

    def __init__(self, sources=(), noise=None):
        self.sources = tuple(sources)
        self.noise = noise
        self._rendered = None  # (grid key, read-only power) of the last grid

    def mean_power(self, grid):
        """Mean per-bin power (mW), read-only and cached for the last grid.

        The cache holds one entry, keyed on the exact bin centres (start,
        resolution, bin count): campaigns capture one grid many times, and
        callers that alternate grids get a fresh render each time.
        """
        key = (grid.start, grid.resolution, grid.n_bins)
        rendered = self._rendered
        if rendered is not None and rendered[0] == key:
            return rendered[1]
        power = np.zeros(grid.n_bins, dtype=float)
        for source in self.sources:
            power += source.mean_power(grid)
        if self.noise is not None:
            power += self.noise.mean_density(grid.frequencies) * grid.resolution
        power.flags.writeable = False
        self._rendered = (key, power)
        return power

    @classmethod
    def quiet(cls, floor_dbm_per_hz=-170.0):
        """A shielded-lab environment: thermal floor only."""
        return cls(sources=(), noise=ThermalNoise(floor_dbm_per_hz))

    @classmethod
    def metropolitan(
        cls,
        span,
        rng=None,
        n_am_stations=40,
        n_spurious=120,
        n_longwave=4,
        strongest_am_dbm=-95.0,
    ):
        """An unshielded city lab like the paper's (Section 3).

        Populates the AM broadcast band with stations on 10 kHz channels,
        a few strong long-wave transmitters, a field of spurious tones over
        the whole span, and thermal + pink + rolling-hills noise.
        """
        if span <= 0:
            raise SystemModelError("span must be positive")
        rng = ensure_rng(rng)
        sources = []
        band_high = min(AM_BAND_HIGH, span)
        if band_high > AM_BAND_LOW:
            channels = np.arange(AM_BAND_LOW, band_high + 1, AM_CHANNEL_SPACING)
            n_pick = min(n_am_stations, len(channels))
            picked = rng.choice(channels, size=n_pick, replace=False)
            for channel in picked:
                power = strongest_am_dbm - rng.uniform(0.0, 35.0)
                sources.append(AMRadioStation(float(channel), power))
        longwave_band_high = min(300e3, span)
        if longwave_band_high > 60e3:
            for _ in range(n_longwave):
                frequency = rng.uniform(60e3, longwave_band_high)
                sources.append(ToneInterferer(frequency, -100.0 - rng.uniform(0.0, 15.0)))
        sources.append(SpuriousToneField(0.0, span, n_spurious, rng=rng))
        noise = CompositeNoise(
            [
                ThermalNoise(-165.0),
                PinkNoise(level_dbm_per_hz=-163.0, knee=50e3),
                BroadbandHills(span, n_hills=8, peak_dbm_per_hz=-168.0, rng=rng),
            ]
        )
        return cls(sources=sources, noise=noise)
