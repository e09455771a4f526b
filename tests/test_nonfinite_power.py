"""Spectra with NaN or infinite power are refused at every entry point.

One NaN bin in one trace used to pass :class:`SpectrumTrace` (it only
checked ``power < 0``) and then turned every robust z-score of the
campaign into NaN, so detection silently reported no carriers. Traces
now refuse non-finite power, and archives carrying it are treated as
damaged: an eager load raises :class:`CampaignArchiveError` (so a
journal can repair it) and a lazy trace raises it at first touch. A
journal record carrying it counts as absent, like a torn one.
"""

import json

import numpy as np
import pytest

from repro import DurableCampaign, FaseConfig, MeasurementCampaign, MicroOp
from repro.errors import CampaignArchiveError, TraceError
from repro.io import load_campaign, save_campaign
from repro.runner import CampaignJournal
from repro.runner.journal import _record_checksum
from repro.spectrum import FrequencyGrid, SpectrumTrace
from repro.system import build_environment, corei7_desktop

GRID = FrequencyGrid(0.0, 1e5, 100.0)
CONFIG = FaseConfig(span_low=0.0, span_high=1e6, fres=100.0, name="nonfinite test")


def _machine():
    return corei7_desktop(
        environment=build_environment(1e6, kind="quiet"), rng=np.random.default_rng(0)
    )


@pytest.fixture(scope="module")
def small_result():
    campaign = MeasurementCampaign(_machine(), CONFIG, rng=np.random.default_rng(1))
    return campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")


def _poison(path, out, member="trace_1", bin_index=123, value=np.nan, compress=True):
    """Copy an archive with one bin of ``member`` overwritten by ``value``."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays[member] = arrays[member].copy()
    arrays[member][bin_index] = value
    (np.savez_compressed if compress else np.savez)(out, **arrays)
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-12])
def test_trace_rejects_nonfinite_or_negative_power(value):
    power = np.full(GRID.n_bins, 1e-14)
    power[7] = value
    with pytest.raises(TraceError):
        SpectrumTrace(GRID, power)


def test_finite_nonnegative_power_accepted():
    power = np.zeros(GRID.n_bins)
    power[3] = 1e300
    assert SpectrumTrace(GRID, power).power_mw[3] == 1e300


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_eager_load_of_nonfinite_archive_is_damage(small_result, tmp_path, value):
    path = save_campaign(small_result, tmp_path / "good.npz")
    bad = _poison(path, tmp_path / "bad.npz", value=value)
    with pytest.raises(CampaignArchiveError, match="trace_1"):
        load_campaign(bad)


def test_lazy_load_raises_at_first_touch(small_result, tmp_path):
    path = save_campaign(small_result, tmp_path / "good.npz", compress=False)
    bad = _poison(path, tmp_path / "bad.npz", compress=False)
    loaded = load_campaign(bad, lazy=True)  # metadata and members are intact
    assert loaded.measurements[0].trace.power_mw.shape == (CONFIG.grid().n_bins,)
    with pytest.raises(CampaignArchiveError, match="trace_1"):
        loaded.measurements[1].trace.power_mw


def test_nonfinite_archive_recovered_from_journal(tmp_path):
    campaign = DurableCampaign(
        _machine(), CONFIG, journal_dir=tmp_path / "journal", rng=np.random.default_rng(1)
    )
    result = campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")
    path = save_campaign(result, tmp_path / "archived.npz")
    bad = _poison(path, tmp_path / "bad.npz")
    recovered = load_campaign(bad, journal=tmp_path / "journal")
    for ours, theirs in zip(recovered.measurements, result.measurements):
        np.testing.assert_array_equal(ours.trace.power_mw, theirs.trace.power_mw)


def test_nonfinite_journal_record_is_treated_as_absent(tmp_path):
    """A checksummed record whose power is NaN is no capture at all."""
    campaign = DurableCampaign(
        _machine(), CONFIG, journal_dir=tmp_path / "journal", rng=np.random.default_rng(1)
    )
    campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")
    journal = CampaignJournal(tmp_path / "journal")
    grid = CONFIG.grid()
    assert sorted(journal.records(grid)) == [0, 1, 2, 3, 4]
    record = sorted((tmp_path / "journal").glob("record-*.npz"))[1]
    with np.load(record, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays["meta"]))
    arrays["power"] = arrays["power"].copy()
    arrays["power"][5] = np.nan
    meta["checksum"] = _record_checksum(
        meta["index"], meta["attempt"], meta["falt"], arrays["power"]
    )
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(record, **arrays)
    assert meta["index"] not in journal.records(grid)
