"""Property-based tests (hypothesis) on the signal-theory core."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.signals.lineshape import (
    DeltaLine,
    GaussianLine,
    LineShape,
    LorentzianLine,
    SpreadSpectrumLine,
    _grid_step,
)
from repro.signals.modulation import am_sideband_lines, modulation_depth_from_levels
from repro.signals.pulse import pulse_harmonic_amplitude, pulse_harmonic_power

duties = st.floats(min_value=0.005, max_value=0.995)
orders = st.integers(min_value=1, max_value=40)
amplitudes = st.floats(min_value=0.0, max_value=10.0)


class TestPulseProperties:
    @given(order=orders, duty=duties)
    def test_amplitude_bounded_by_duty(self, order, duty):
        """|c_n| = d |sinc(n d)| <= d <= 1."""
        amplitude = pulse_harmonic_amplitude(order, duty)
        assert 0.0 <= amplitude <= min(duty, 1.0) + 1e-12

    @given(order=orders, duty=duties)
    def test_complement_symmetry(self, order, duty):
        assert pulse_harmonic_amplitude(order, duty) == pytest.approx(
            pulse_harmonic_amplitude(order, 1.0 - duty), abs=1e-12
        )

    @given(duty=duties)
    def test_total_power_never_exceeds_mean_square(self, duty):
        """Partial Fourier sums are bounded by the signal's total power."""
        total = pulse_harmonic_power(0, duty)
        for n in range(1, 60):
            total += pulse_harmonic_power(n, duty)
        assert total <= duty + 1e-9

    @given(order=orders, duty=duties)
    def test_power_nonnegative(self, order, duty):
        assert pulse_harmonic_power(order, duty) >= 0.0


class TestLineShapeProperties:
    grid = np.arange(0.0, 500e3, 100.0)

    @given(
        sigma=st.floats(min_value=150.0, max_value=20e3),
        center=st.floats(min_value=120e3, max_value=380e3),
        power=st.floats(min_value=1e-18, max_value=1e-3),
    )
    @settings(max_examples=40)
    def test_gaussian_power_conserved(self, sigma, center, power):
        out = GaussianLine(sigma).render(self.grid, center, power)
        assert out.sum() == pytest.approx(power, rel=1e-6)
        assert np.all(out >= 0.0)

    @given(
        width=st.floats(min_value=5e3, max_value=100e3),
        center=st.floats(min_value=150e3, max_value=350e3),
    )
    @settings(max_examples=40)
    def test_spread_spectrum_power_conserved(self, width, center):
        out = SpreadSpectrumLine(width).render(self.grid, center, 1.0)
        assert out.sum() == pytest.approx(1.0, rel=1e-6)

    @given(gamma=st.floats(min_value=200.0, max_value=5e3))
    @settings(max_examples=20)
    def test_lorentzian_peak_at_center(self, gamma):
        out = LorentzianLine(gamma).render(self.grid, 250e3, 1.0)
        assert abs(self.grid[int(np.argmax(out))] - 250e3) <= 100.0

    @given(center=st.floats(min_value=0.0, max_value=499e3))
    @settings(max_examples=40)
    def test_delta_single_bin(self, center):
        out = DeltaLine().render(self.grid, center, 1.0)
        assert np.count_nonzero(out) == 1
        assert out.sum() == pytest.approx(1.0)


def reference_render(shape, frequencies, center, power):
    """The full-grid renderer ``LineShape.render`` used before ``deposit``.

    Kept verbatim as the reference the in-place deposit must match bit for
    bit: every accumulating renderer used to do ``acc += render(...)``.
    """
    out = np.zeros_like(frequencies, dtype=float)
    if power <= 0:
        return out
    lo = np.searchsorted(frequencies, center - shape.halfwidth, side="left")
    hi = np.searchsorted(frequencies, center + shape.halfwidth, side="right")
    if hi <= lo:
        idx = np.searchsorted(frequencies, center)
        if 0 < idx < len(frequencies):
            if abs(frequencies[idx - 1] - center) < abs(frequencies[idx] - center):
                idx -= 1
        elif idx == len(frequencies):
            idx -= 1
        if 0 <= idx < len(frequencies) and abs(frequencies[idx] - center) <= max(
            shape.halfwidth, _grid_step(frequencies)
        ):
            out[idx] = power
        return out
    window = frequencies[lo:hi]
    weights = shape.density(window - center)
    total = weights.sum()
    if total <= 0:
        return out
    out[lo:hi] = power * weights / total
    return out


def _bits(array):
    return np.asarray(array, dtype=float).view(np.uint64)


widths = st.floats(min_value=1.0, max_value=5e3)
line_shapes = st.one_of(
    st.just(DeltaLine()),
    widths.map(GaussianLine),
    widths.map(LorentzianLine),
    st.builds(
        SpreadSpectrumLine,
        widths,
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)),
        st.sampled_from(["sinusoidal", "triangular"]),
    ),
)


@st.composite
def deposit_cases(draw):
    """(shape, grid, center, power, accumulator) covering every window case."""
    shape = draw(line_shapes)
    step = draw(st.sampled_from([10.0, 50.0, 100.0]))
    start = draw(st.sampled_from([0.0, 1e3, 123.5]))
    n_bins = draw(st.integers(min_value=2, max_value=400))
    frequencies = start + np.arange(n_bins) * step
    first, last = frequencies[0], frequencies[-1]
    reach = max(shape.halfwidth, step)
    u = draw(st.floats(min_value=0.0, max_value=1.0))
    where = draw(st.sampled_from(["inside", "bin", "low-edge", "high-edge", "below", "above"]))
    center = {
        "inside": first + u * (last - first),
        "bin": frequencies[int(u * (n_bins - 1))],
        "low-edge": first + (2.0 * u - 1.0) * reach,
        "high-edge": last + (2.0 * u - 1.0) * reach,
        "below": first - u * step,
        "above": last + u * step,
    }[where]
    power = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-20, max_value=1e3)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    accumulator = np.random.default_rng(seed).uniform(1e-6, 1.0, n_bins)
    return shape, frequencies, float(center), power, accumulator


class TestDepositIdentity:
    """``deposit`` is the old full-grid render, added in place, bit for bit."""

    def test_strategy_covers_every_line_shape(self):
        covered = {DeltaLine, GaussianLine, LorentzianLine, SpreadSpectrumLine}
        assert set(LineShape.__subclasses__()) == covered

    @given(case=deposit_cases())
    @settings(max_examples=400, deadline=None)
    def test_deposit_equals_accumulated_reference_render(self, case):
        shape, frequencies, center, power, accumulator = case
        expected = accumulator + reference_render(shape, frequencies, center, power)
        got = accumulator.copy()
        shape.deposit(got, frequencies, center, power)
        np.testing.assert_array_equal(_bits(got), _bits(expected))

    @given(case=deposit_cases())
    @settings(max_examples=100, deadline=None)
    def test_render_equals_reference_render(self, case):
        shape, frequencies, center, power, _ = case
        np.testing.assert_array_equal(
            _bits(shape.render(frequencies, center, power)),
            _bits(reference_render(shape, frequencies, center, power)),
        )


class TestModulationProperties:
    @given(
        amp_x=amplitudes,
        amp_y=amplitudes,
        falt=st.floats(min_value=1e3, max_value=100e3),
        duty=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60)
    def test_sideband_energy_conservation(self, amp_x, amp_y, falt, duty):
        """Carrier + side-band power equals the envelope's mean square.

        E[A(t)^2] = d*Ax^2 + (1-d)*Ay^2 decomposes exactly into the DC
        (carrier) term and the harmonic (side-band) terms by Parseval.
        """
        lines = am_sideband_lines(amp_x, amp_y, falt, duty_cycle=duty, n_harmonics=400)
        total = sum(line.power for line in lines)
        mean_square = duty * amp_x**2 + (1 - duty) * amp_y**2
        assert total <= mean_square + 1e-9
        assert total == pytest.approx(mean_square, rel=0.02)

    @given(amp_x=amplitudes, amp_y=amplitudes)
    def test_depth_in_unit_interval(self, amp_x, amp_y):
        assert 0.0 <= modulation_depth_from_levels(amp_x, amp_y) <= 1.0

    @given(
        amp_x=amplitudes,
        amp_y=amplitudes,
        falt=st.floats(min_value=1e3, max_value=100e3),
    )
    @settings(max_examples=40)
    def test_sidebands_symmetric(self, amp_x, amp_y, falt):
        lines = am_sideband_lines(amp_x, amp_y, falt, n_harmonics=5)
        by_offset = {line.offset: line.power for line in lines}
        for offset, power in by_offset.items():
            if offset != 0.0:
                assert by_offset[-offset] == pytest.approx(power)
