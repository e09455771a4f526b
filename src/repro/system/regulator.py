"""Switching voltage regulators: the strongest carriers FASE finds.

Section 4.1 mechanism, implemented literally:

* The regulator switches at a fixed frequency (200-500 kHz typical) set by
  an RC oscillator, so its carrier and harmonics have Gaussian line shapes.
* It "maintains the voltage supplied to the CPU by varying the duty cycle
  of the control signal of a switch between the 12 V supply and the 1 V
  output". Higher load current → larger duty cycle.
* "Changing the duty cycle changes (modulates) the amplitude of all the
  signal's harmonics" — captured by the pulse-train Fourier envelope
  ``|c_m(d)| = d sinc(m d)``.

The nominal duty cycle is the voltage conversion ratio (e.g. 1 V from 12 V
→ d ≈ 0.083, "small when the ratio between the input and output voltage is
large", which is why "the even harmonics of this carrier are relatively
strong" in Figure 11).

Section 4.4's AMD regulator is the dual: a *constant-on-time* regulator
keeps the switch-on time fixed and varies the switching period, so load
changes move its *frequency* (FM). FASE must not report it, and does not,
because an incoherent frequency hop leaves no falt-tracking side-bands.
"""

from __future__ import annotations

import numpy as np

from ..errors import SystemModelError
from ..signals.modulation import fm_dwell_lines
from ..signals.oscillator import RCOscillator
from ..signals.pulse import pulse_harmonic_amplitude
from .emitter import Emitter


class SwitchingRegulator(Emitter):
    """Fixed-frequency PWM buck regulator: AM via pulse-width modulation.

    ``input_volts``/``output_volts`` fix the nominal duty cycle
    ``d0 = output / input``. ``duty_gain`` is how much the duty cycle rises
    from zero load to full load (the feedback loop compensating the output
    droop). The envelope of harmonic ``m`` at load level L is
    ``|c_m(d0 + duty_gain * L)|``.
    """

    def __init__(
        self,
        name,
        switching_frequency,
        domain,
        fundamental_dbm,
        input_volts=12.0,
        output_volts=1.0,
        duty_gain=0.05,
        current_gain=0.0,
        fractional_sigma=2e-3,
        max_harmonics=14,
        **kwargs,
    ):
        if input_volts <= 0 or output_volts <= 0 or output_volts >= input_volts:
            raise SystemModelError("need 0 < output_volts < input_volts")
        if duty_gain < 0:
            raise SystemModelError("duty gain must be non-negative")
        if current_gain < 0:
            raise SystemModelError("current gain must be non-negative")
        self.nominal_duty = output_volts / input_volts
        self.duty_gain = float(duty_gain)
        #: Second AM mechanism: the emitted field scales with the switched
        #: current, which follows the load directly. Dominant when the
        #: conversion ratio is large (duty near 0.5, where the pulse
        #: harmonics barely respond to duty changes — e.g. integrated
        #: regulators converting 1.8 V to ~1 V).
        self.current_gain = float(current_gain)
        if self.nominal_duty + self.duty_gain >= 1.0:
            raise SystemModelError("duty cycle would exceed 1 at full load")
        oscillator = RCOscillator(switching_frequency, fractional_sigma=fractional_sigma)
        super().__init__(
            name,
            oscillator,
            domain=domain,
            fundamental_dbm=fundamental_dbm,
            max_harmonics=max_harmonics,
            **kwargs,
        )

    @property
    def switching_frequency(self):
        return self.oscillator.frequency

    def duty_cycle_at(self, level):
        """Switch duty cycle at a load level in [0, 1]."""
        if not 0.0 <= level <= 1.0:
            raise SystemModelError("load level must be in [0, 1]")
        return self.nominal_duty + self.duty_gain * level

    def envelope(self, order, level):
        current_factor = 1.0 + self.current_gain * level
        return current_factor * pulse_harmonic_amplitude(order, self.duty_cycle_at(level))


class ConstantOnTimeRegulator(Emitter):
    """Constant-on-time regulator: frequency-modulated by its load.

    "This particular regulator keeps the input-to-output switch turned on
    for a fixed amount of time during its switching cycle, but changes the
    duration of the switching cycle (i.e. its switching frequency) to
    increase/decrease its duty cycle." (Section 4.4)

    With on-time ``t_on`` fixed, delivering duty cycle ``d`` requires
    switching frequency ``f = d / t_on``; load raises ``d`` and therefore
    ``f``. The long-term spectrum under alternation is a pair of dwell
    humps per harmonic (see :func:`fm_dwell_lines`), *without* coherent
    falt side-bands — the property that makes FASE correctly ignore it.
    """

    def __init__(
        self,
        name,
        nominal_frequency,
        domain,
        fundamental_dbm,
        input_volts=12.0,
        output_volts=1.1,
        duty_gain=0.05,
        fractional_sigma=4e-3,
        max_harmonics=8,
        **kwargs,
    ):
        if input_volts <= 0 or output_volts <= 0 or output_volts >= input_volts:
            raise SystemModelError("need 0 < output_volts < input_volts")
        if duty_gain < 0:
            raise SystemModelError("duty gain must be non-negative")
        self.nominal_duty = output_volts / input_volts
        self.duty_gain = float(duty_gain)
        #: Fixed on-time chosen so the nominal duty is delivered at the
        #: nominal switching frequency.
        self.on_time = self.nominal_duty / nominal_frequency
        oscillator = RCOscillator(nominal_frequency, fractional_sigma=fractional_sigma)
        super().__init__(
            name,
            oscillator,
            domain=domain,
            fundamental_dbm=fundamental_dbm,
            max_harmonics=max_harmonics,
            **kwargs,
        )

    def frequency_at(self, level):
        """Switching frequency at a load level (rises with load)."""
        if not 0.0 <= level <= 1.0:
            raise SystemModelError("load level must be in [0, 1]")
        duty = self.nominal_duty + self.duty_gain * level
        return duty / self.on_time

    def envelope(self, order, level):
        # Envelope amplitude barely changes (the duty cycle is what the
        # feedback holds); harmonic decay follows the pulse envelope at the
        # nominal duty.
        return pulse_harmonic_amplitude(order, self.nominal_duty)

    def render(self, grid, activity):
        """Render dwell humps at the X-load and Y-load frequencies."""
        power = np.zeros(grid.n_bins, dtype=float)
        unit = self.amplitude_unit()
        level_x, level_y = self.activity_levels(activity)
        f_x = self.frequency_at(level_x)
        f_y = self.frequency_at(level_y)
        for order in range(1, self.max_harmonics + 1):
            amplitude = unit * self.envelope(order, 0.0)
            line_power = amplitude * amplitude
            if line_power <= 0:
                continue
            shape = self.oscillator.lineshape(order)
            centers = fm_dwell_lines(
                f_x * order,
                f_y * order,
                duty_cycle=activity.duty_cycle,
                power=line_power,
                smear_fraction=0.15,
            )
            margin = shape.halfwidth + grid.resolution
            if min(line.offset for line in centers) - margin > grid.stop:
                break
            for line in centers:
                line_shape = shape.broadened(line.extra_width)
                line_shape.deposit(power, grid.frequencies, line.offset, line.power)
        return power

    def is_modulated_by(self, activity, threshold=1e-9):
        """FM response: the activity moves the frequency, not the envelope."""
        level_x, level_y = self.activity_levels(activity)
        return abs(self.frequency_at(level_x) - self.frequency_at(level_y)) > threshold
