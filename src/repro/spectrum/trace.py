"""Spectrum traces: per-bin power over a frequency grid.

A :class:`SpectrumTrace` is what the analyzer returns and what the FASE
heuristic consumes. Internally power is stored *linearly* (milliwatts per
bin) because Eq. 2 of the paper is a ratio of powers; dBm is a view for
display and for matching the paper's figures.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from ..units import dbm_to_milliwatts, milliwatts_to_dbm
from .grid import FrequencyGrid


def validate_power(power):
    """Raise :class:`TraceError` unless every bin's power is finite and >= 0.

    A single NaN or infinite bin would turn every robust z-score of the
    campaign into NaN (the medians absorb it) and silently hide every
    carrier, so it is refused at the boundary instead.
    """
    if not np.isfinite(power).all():
        raise TraceError("per-bin power must be finite (found NaN or infinity)")
    if (power < 0).any():
        raise TraceError("per-bin power must be non-negative")


class SpectrumTrace:
    """Power spectrum over a :class:`FrequencyGrid`.

    ``power_mw`` is a 1-D array of per-bin powers in milliwatts, aligned
    with ``grid.frequencies``. ``label`` carries provenance (which falt and
    activity pair produced the capture) through the pipeline and into
    reports.
    """

    def __init__(self, grid, power_mw, label=""):
        if not isinstance(grid, FrequencyGrid):
            raise TraceError("grid must be a FrequencyGrid")
        power = np.asarray(power_mw, dtype=float)
        if power.shape != (grid.n_bins,):
            raise TraceError(
                f"power array shape {power.shape} does not match grid with "
                f"{grid.n_bins} bins"
            )
        validate_power(power)
        self.grid = grid
        self.power_mw = power
        self.label = label

    @classmethod
    def from_dbm(cls, grid, dbm, label=""):
        """Build a trace from per-bin dBm values."""
        return cls(grid, dbm_to_milliwatts(np.asarray(dbm, dtype=float)), label=label)

    @property
    def frequencies(self):
        return self.grid.frequencies

    @property
    def dbm(self):
        """Per-bin power in dBm (floored, never -inf)."""
        return milliwatts_to_dbm(self.power_mw)

    def power_at(self, frequency):
        """Power (mW) in the bin containing ``frequency``."""
        return float(self.power_mw[self.grid.index_of(frequency)])

    def dbm_at(self, frequency):
        return float(milliwatts_to_dbm(self.power_at(frequency)))

    def interp_power(self, frequencies):
        """Linear-power interpolation at arbitrary frequencies.

        The heuristic evaluates spectra at ``f + h * falt_i`` which rarely
        lands exactly on a bin; linear interpolation of power keeps the
        score smooth. Frequencies outside the grid return the edge value.
        """
        return np.interp(frequencies, self.grid.frequencies, self.power_mw)

    def shifted_power(self, shift):
        """The trace's power evaluated at ``grid.frequencies + shift``.

        This is the core primitive of Eq. 2: ``SP_i(f + h * falt_i)``
        evaluated over the whole grid at once.
        """
        return self.interp_power(self.grid.frequencies + shift)

    def slice(self, low, high):
        """A new trace restricted to [low, high]."""
        lo, hi = self.grid.slice_indices(low, high)
        sub = self.grid.subgrid(low, high)
        return SpectrumTrace(sub, self.power_mw[lo:hi].copy(), label=self.label)

    def total_power(self):
        """Total power in the trace (mW)."""
        return float(self.power_mw.sum())

    def peak_frequency(self):
        """Frequency of the strongest bin."""
        return float(self.grid.frequency_at(int(np.argmax(self.power_mw))))

    def _check_compatible(self, other):
        if not isinstance(other, SpectrumTrace):
            raise TraceError("operand must be a SpectrumTrace")
        if self.grid != other.grid:
            raise TraceError("traces are on different grids")

    def __add__(self, other):
        self._check_compatible(other)
        return SpectrumTrace(self.grid, self.power_mw + other.power_mw, label=self.label)

    def scaled(self, factor):
        """Trace with power multiplied by a non-negative factor."""
        if factor < 0:
            raise TraceError("scale factor must be non-negative")
        return SpectrumTrace(self.grid, self.power_mw * factor, label=self.label)

    def __repr__(self):
        label = f", label={self.label!r}" if self.label else ""
        return f"SpectrumTrace({self.grid!r}{label})"


def average_traces(traces, label=None):
    """Average several traces bin-wise in linear power.

    The paper: "Each spectrum was measured 4 times over several hours and
    averaged." Averaging in linear power (not dB) is what a spectrum
    analyzer's power-average detector does.

    ``label`` names the averaged trace explicitly. When omitted, a label
    shared by every input is kept; inputs with differing labels (e.g.
    captures whose labels embed their own falt) produce a combined
    ``"average of N traces"`` label rather than silently inheriting the
    first capture's provenance.
    """
    traces = list(traces)
    if not traces:
        raise TraceError("cannot average zero traces")
    first = traces[0]
    accumulator = np.zeros_like(first.power_mw)
    for trace in traces:
        first._check_compatible(trace)
        accumulator += trace.power_mw
    if label is None:
        labels = {trace.label for trace in traces}
        label = first.label if len(labels) == 1 else f"average of {len(traces)} traces"
    return SpectrumTrace(first.grid, accumulator / len(traces), label=label)
