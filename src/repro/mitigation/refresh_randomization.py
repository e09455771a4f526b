"""Refresh-interval randomization (the paper's proposed fix, Section 4.2).

"Randomizing the issue of memory refresh commands would be compatible with
existing DRAM standards and would greatly reduce the modulation of refresh
activity."

Mechanism: if each refresh command is issued at a random offset within its
tREFI window (keeping the *average* rate at the standard's 7.8 us), the
pulse train loses cycle-to-cycle phase coherence. With a fractional timing
randomization ``r`` (uniform offset of ± r/2 of the period), harmonic ``n``
keeps only the coherent fraction

    sinc(n * r)          (the characteristic function of the uniform jitter)

of its amplitude; the rest is spread as broadband noise. Full-window
randomization (r = 1) eliminates the fundamental entirely and every
harmonic's coherent line with it — and because the *modulation* rides on
those coherent lines, FASE's side-bands vanish too.
"""

from __future__ import annotations

import numpy as np

from ..errors import SystemModelError
from ..signals.lineshape import GaussianLine
from ..signals.pulse import pulse_harmonic_amplitude
from ..system.refresh import MemoryRefreshEmitter


class RandomizedRefreshEmitter(MemoryRefreshEmitter):
    """Memory refresh with randomized issue times.

    ``randomization`` in [0, 1]: the fraction of the refresh period over
    which each command's issue time is uniformly randomized. 0 is the
    stock deterministic scheduler; 1 randomizes over the whole window.
    """

    def __init__(self, *args, randomization=1.0, **kwargs):
        if not 0.0 <= randomization <= 1.0:
            raise SystemModelError("randomization must be in [0, 1]")
        self.randomization = float(randomization)
        super().__init__(*args, **kwargs)

    def coherence_retention(self, order):
        """Coherent amplitude fraction of harmonic ``order`` after
        randomization: |sinc(n r)|."""
        return float(np.abs(np.sinc(order * self.randomization)))

    def envelope(self, order, level):
        return super().envelope(order, level) * self.coherence_retention(order)

    def amplitude_unit(self):
        """Calibrate against the *unmitigated* refresh drive.

        ``fundamental_dbm`` describes the physical pulse energy, which the
        randomization redistributes but does not change; anchoring to the
        mitigated (possibly zero) envelope would blow the unit up.
        """
        reference = (
            super(RandomizedRefreshEmitter, self).envelope(self.n_ranks, self.reference_level())
        )
        if reference <= 0:
            raise SystemModelError("refresh reference envelope must be positive")
        from ..units import dbm_to_milliwatts

        return float(np.sqrt(dbm_to_milliwatts(self.fundamental_dbm))) / reference

    def render(self, grid, activity):
        """Coherent (attenuated) lines plus the randomization pedestal.

        The energy removed from the coherent lines reappears as a broad
        pedestal (like the activity-induced dispersal, but static). The
        pedestal is activity-independent to first order, so it carries no
        side-bands — the energy is still emitted but no longer leaks the
        activity pattern.
        """
        power = super().render(grid, activity)
        if self.randomization <= 0:
            return power
        unit = self.amplitude_unit()
        pedestal = GaussianLine(self.dispersal_width)
        for order in range(1, self.max_harmonics + 1):
            center = self.oscillator.harmonic_frequency(order)
            if center - pedestal.halfwidth > grid.stop:
                break
            full = (
                unit
                * pulse_harmonic_amplitude(order, self.duty_cycle)
                * self.rank_stagger_factor(order)
            )
            retention = self.coherence_retention(order)
            lost_power = full * full * (1.0 - retention * retention)
            if lost_power <= 0:
                continue
            pedestal.deposit(power, grid.frequencies, center, lost_power)
        return power

    def is_modulated_by(self, activity, threshold=1e-9):
        """Full randomization leaves no coherent carrier to modulate."""
        if self.coherence_retention(1) <= threshold:
            return False
        return super().is_modulated_by(activity, threshold)
