"""Byte-level pins on scene synthesis and on the ``fase scan`` report.

The digests were recorded before scene rendering moved to windowed
in-place deposits and a per-grid environment cache; that rewrite is
exact (it adds into zero-filled accumulators in the original order), so
every preset's mean spectra and every scan report must keep these bytes.

Floating-point bytes depend on the NumPy build (its SIMD ``exp`` paths),
so the pins are asserted against the NumPy release that recorded them;
``tests/test_prop_signals.py::TestDepositIdentity`` carries the same
guarantee portably, line by line.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from repro import cli
from repro.core import FaseConfig
from repro.core.campaign import MeasurementCampaign
from repro.survey import DEFAULT_PAIRS
from repro.system import ALL_PRESETS

PINNED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests were recorded with NumPy {PINNED_NUMPY}",
)

#: SHA-256 over the idle scene and every (pair, falt) scene of the default
#: campaign on the Fig. 11 grid, preset built with ``default_rng(5)``.
SCENE_DIGESTS = {
    "corei3_laptop": "ff71c5f90eb7e1642b73ed3780d4e793af3f6e3f1a27e2c51b82e2e0cab779d6",
    "corei7_desktop": "4d790cd64938a9cfa5141054f133d6391fd773b5991008e1b5d48a0baa825711",
    "pentium3m_laptop": "cd3c3989f31a44fe54e3b8ac6e0415aa4fa6b4e77292edb19c233092b6f792fc",
    "turionx2_laptop": "0273a5907d9931df17675e97ab82d6355cdeb4a0a74160fec47e83203790dd73",
}

#: SHA-256 of the stdout of ``fase scan --seed N`` (all defaults).
SCAN_DIGESTS = {
    0: "3fb34bd3e4e8cb27f29ad4cbf4757c50bd959bd8bf852b3bc4147355bfb62aa9",
    3: "e799c7b29763930635d0b5df63a2887654cdecdcc0cb2527815c7969956df397",
    11: "3895aac6d2c1cb71fdcba63f1102d05028333c240001bf0c6d01755d30b9fc8b",
}

FIG11 = FaseConfig(span_low=0.0, span_high=4e6, fres=50.0, name="cli campaign")


def test_every_preset_pinned():
    assert sorted(SCENE_DIGESTS) == sorted(ALL_PRESETS)


@pytest.mark.parametrize("name", sorted(SCENE_DIGESTS))
def test_scene_spectra_pinned(name):
    machine = ALL_PRESETS[name](rng=np.random.default_rng(5))
    grid = FIG11.grid()
    digest = hashlib.sha256(machine.idle_scene().mean_bin_power(grid).tobytes())
    campaign = MeasurementCampaign(machine, FIG11)
    for op_x, op_y in DEFAULT_PAIRS:
        for activity in campaign.activities_for(op_x, op_y):
            digest.update(machine.scene(activity).mean_bin_power(grid).tobytes())
    assert digest.hexdigest() == SCENE_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(SCAN_DIGESTS))
def test_scan_report_pinned(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["scan", "--seed", str(seed)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SCAN_DIGESTS[seed]
