"""PSD estimation from time-domain IQ: the physical cross-check path.

The frequency-domain renderer is analytic; this module closes the loop by
estimating spectra from sampled waveforms (``repro.signals.waveform``) with
Welch's method, so tests can verify that both paths put side-bands in the
same places with the same relative powers.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError
from .grid import FrequencyGrid
from .trace import SpectrumTrace


def welch_psd(iq, sample_rate, nperseg=None, center_frequency=0.0):
    """Two-sided Welch PSD of complex baseband samples.

    Returns ``(frequencies, psd)`` with frequencies in absolute Hz
    (baseband offsets shifted by ``center_frequency``) sorted ascending and
    the PSD in power units per Hz (the caller owns the absolute scale).
    """
    iq = np.asarray(iq)
    if iq.ndim != 1 or iq.size < 8:
        raise TraceError("iq must be a 1-D array of at least 8 samples")
    if sample_rate <= 0:
        raise TraceError("sample rate must be positive")
    if nperseg is None:
        nperseg = min(iq.size, 1 << 14)
    from scipy.signal import welch

    freqs, psd = welch(
        iq,
        fs=sample_rate,
        nperseg=nperseg,
        return_onesided=False,
        scaling="density",
        detrend=False,
    )
    order = np.argsort(freqs)
    return freqs[order] + center_frequency, psd[order]


def trace_from_iq(iq, sample_rate, grid, center_frequency=0.0, nperseg=None, label=""):
    """Estimate a :class:`SpectrumTrace` over ``grid`` from IQ samples.

    The Welch density is *integrated* over each grid bin (each Welch bin's
    power ``psd * df`` is deposited into the grid bin containing it), which
    conserves total power even when the grid is coarser than the Welch
    resolution — naive interpolation would over- or under-count narrow
    lines. Bins outside the sampled bandwidth get zero power.
    """
    if not isinstance(grid, FrequencyGrid):
        raise TraceError("grid must be a FrequencyGrid")
    freqs, psd = welch_psd(iq, sample_rate, nperseg=nperseg, center_frequency=center_frequency)
    welch_df = float(np.median(np.diff(freqs)))
    edges = np.concatenate(
        (
            grid.frequencies - grid.resolution / 2.0,
            [grid.frequencies[-1] + grid.resolution / 2.0],
        )
    )
    power, _ = np.histogram(freqs, bins=edges, weights=psd * welch_df)
    return SpectrumTrace(grid, np.maximum(power, 0.0), label=label)
