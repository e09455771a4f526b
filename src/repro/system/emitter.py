"""Emitter base class: from physical mechanism to per-bin spectral power.

An emitter owns an oscillator (which fixes its harmonic frequencies and
line shapes) and a *modulation response*: the envelope amplitude of each
harmonic as a function of the activity level in the emitter's coupled
domain. Given an :class:`~repro.uarch.activity.AlternationActivity` the
base class expands each harmonic into a carrier line plus alternation
side-bands (:func:`repro.signals.modulation.am_sideband_lines`) and renders
them onto a frequency grid.

Amplitudes are in sqrt-milliwatt units so that line powers come out in
milliwatts as received by the reference antenna at the reference distance;
the receiver chain rescales for other distances.
"""

from __future__ import annotations

import numpy as np

from ..errors import SystemModelError
from ..signals.modulation import am_sideband_lines
from ..units import dbm_to_milliwatts


class Emitter:
    """Base class for system emitters.

    Parameters
    ----------
    name:
        Human-readable identity used in reports ("DRAM regulator").
    oscillator:
        An :class:`~repro.signals.oscillator.Oscillator` setting harmonic
        frequencies and line shapes.
    domain:
        The activity domain this emitter couples to (``None`` for
        unmodulated emitters).
    fundamental_dbm:
        Received power of the fundamental at the reference activity level,
        reference distance.
    max_harmonics:
        Highest harmonic rendered; the per-harmonic envelope usually decays
        (sinc envelope of the underlying pulse train) well before this cap.
    position:
        (x_cm, y_cm) board position, used by near-field localization.
    """

    def __init__(
        self,
        name,
        oscillator,
        domain,
        fundamental_dbm,
        max_harmonics=12,
        n_sideband_harmonics=5,
        position=(0.0, 0.0),
    ):
        if max_harmonics < 1:
            raise SystemModelError("max_harmonics must be >= 1")
        if n_sideband_harmonics < 0:
            raise SystemModelError("n_sideband_harmonics must be >= 0")
        self.name = name
        self.oscillator = oscillator
        self.domain = domain
        self.fundamental_dbm = float(fundamental_dbm)
        self.max_harmonics = int(max_harmonics)
        self.n_sideband_harmonics = int(n_sideband_harmonics)
        self.position = tuple(position)

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------

    def envelope(self, order, level):
        """Relative envelope amplitude of harmonic ``order`` at a level.

        Dimensionless; scaled by :meth:`amplitude_unit` which anchors the
        fundamental's power at the reference level to ``fundamental_dbm``.
        """
        raise NotImplementedError

    def lineshape(self, order):
        """Line shape of harmonic ``order``; defaults to the oscillator's.

        Overridable for emitters whose emission shaping differs from the
        bare oscillator (e.g. a dithered regulator spreading its carrier).
        """
        return self.oscillator.lineshape(order)

    def reference_level(self):
        """Activity level at which ``fundamental_dbm`` is specified."""
        return 0.5

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def amplitude_unit(self):
        """sqrt-mW per unit envelope, anchoring the power calibration."""
        reference_envelope = self.envelope(1, self.reference_level())
        if reference_envelope <= 0:
            raise SystemModelError(
                f"emitter {self.name!r}: reference envelope must be positive"
            )
        return float(np.sqrt(dbm_to_milliwatts(self.fundamental_dbm))) / reference_envelope

    def activity_levels(self, activity):
        """(level_x, level_y) of this emitter's domain under an activity."""
        if self.domain is None:
            return 0.0, 0.0
        return activity.level_x(self.domain), activity.level_y(self.domain)

    def render(self, grid, activity):
        """Mean per-bin power (mW) this emitter contributes to the grid."""
        power = np.zeros(grid.n_bins, dtype=float)
        unit = self.amplitude_unit()
        level_x, level_y = self.activity_levels(activity)
        max_offset = self.n_sideband_harmonics * activity.falt
        for order in range(1, self.max_harmonics + 1):
            center = self.oscillator.harmonic_frequency(order)
            shape = self.lineshape(order)
            margin = max_offset + shape.halfwidth + grid.resolution
            if center - margin > grid.stop:
                break
            if center + margin < grid.start:
                continue
            amp_x = unit * self.envelope(order, level_x)
            amp_y = unit * self.envelope(order, level_y)
            if amp_x <= 0 and amp_y <= 0:
                continue
            lines = am_sideband_lines(
                amp_x,
                amp_y,
                activity.falt,
                duty_cycle=activity.duty_cycle,
                n_harmonics=self.n_sideband_harmonics,
                jitter_fraction=activity.jitter_fraction,
            )
            for line in lines:
                line_shape = (
                    shape.broadened(line.extra_width) if line.extra_width > 0 else shape
                )
                line_shape.deposit(power, grid.frequencies, center + line.offset, line.power)
        return power

    def carrier_frequencies(self, up_to=None):
        """Harmonic center frequencies, optionally capped at a frequency."""
        frequencies = []
        for order in range(1, self.max_harmonics + 1):
            f = self.oscillator.harmonic_frequency(order)
            if up_to is not None and f > up_to:
                break
            frequencies.append(f)
        return frequencies

    def is_modulated_by(self, activity, threshold=1e-9):
        """Whether this activity moves the emitter's envelope at all."""
        level_x, level_y = self.activity_levels(activity)
        return abs(self.envelope(1, level_x) - self.envelope(1, level_y)) > threshold

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class UnmodulatedEmitter(Emitter):
    """A periodic system signal with no activity dependence.

    Computer systems "produce thousands of periodic signals that are not
    modulated by system activity"; FASE must reject all of them. The
    envelope is flat in the activity level.
    """

    def __init__(self, name, oscillator, fundamental_dbm, harmonic_decay_db=6.0, **kwargs):
        kwargs.setdefault("max_harmonics", 8)
        super().__init__(name, oscillator, domain=None, fundamental_dbm=fundamental_dbm, **kwargs)
        if harmonic_decay_db < 0:
            raise SystemModelError("harmonic decay must be non-negative")
        self.harmonic_decay_db = float(harmonic_decay_db)

    def reference_level(self):
        return 0.0

    def envelope(self, order, level):
        # Amplitude decays by harmonic_decay_db (power) per harmonic step.
        return 10.0 ** (-(order - 1) * self.harmonic_decay_db / 20.0)
