"""Byte-level pins on Eq. 1/2 scores, z-scores and detections.

The digests were recorded before the scoring path moved to in-place
interpolation into reused buffers, a per-harmonic product, and
sort-based medians. That rewrite keeps every floating-point operation
and its order, so each ``all_scores``, ``harmonic_zscores`` and
``combined_zscore`` array of the Fig. 11 campaigns must keep these
bytes, and the detector must report the same carriers to the last bit.

Floating-point bytes depend on the NumPy build (its SIMD ``log``/``exp``
paths), so the pins are asserted against the NumPy release that
recorded them; ``tests/test_score_identity.py`` carries the same
guarantee portably against a reference copy of the old algorithms.
"""

import hashlib

import numpy as np
import pytest

from repro.core import CarrierDetector, FaseConfig, HeuristicScorer
from repro.core.campaign import MeasurementCampaign
from repro.system import ALL_PRESETS
from repro.uarch.isa import MicroOp

PINNED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests were recorded with NumPy {PINNED_NUMPY}",
)

FIG11 = FaseConfig(span_low=0.0, span_high=4e6, fres=50.0, name="cli campaign")

#: (preset, seed) -> SHA-256 of the scores, z-scores, fused z-score and
#: detection keys of that preset's LDM/LDL1 campaign on the Fig. 11 grid
#: (preset built with ``default_rng(seed)``, campaign with ``seed + 1``).
SCORE_DIGESTS = {
    ("corei7_desktop", 0): {
        "all_scores": "63718ab21db6456c133caa6a92e60dacfec6057748a6f77afb1adbb1aedb3d73",
        "harmonic_zscores": "693d599d58526e35f3696beb4c462b3bfc05d06196d65eea5e9f5de65fd61096",
        "combined_zscore": "f2df939eeae0ebd16859c0a279e650f373f3d79f5360e537bbd422b56537ec47",
        "detections": "53df4496b04d801bdee4673bd36f72f9a0f05ed9a56d5decb69c5a295794f904",
    },
    ("corei7_desktop", 3): {
        "all_scores": "108a4558ea7cac0e3eee92442160c662d212109ec39742621e81e85bc597b28a",
        "harmonic_zscores": "d2198372c6955b76907a3c8ae455966e920dcefb8579de1f4455f1f62a285e2e",
        "combined_zscore": "fea1ad65797a7a80712e5423133e90b4ad38a15d1a287af0023558a4bc548eec",
        "detections": "8e2883aa02eeaa9910e934827cfc6258cb2f8ba775a43090d53d6d4f7451f9d4",
    },
    ("corei7_desktop", 11): {
        "all_scores": "4a6b0af0153cdbbe615a79fcf54e2bd643e0b48d1cb79898019569df9b90fa3e",
        "harmonic_zscores": "573ab83d29473b882a62fe738ec1564204c5e515147e1e6d2034e559f09f036b",
        "combined_zscore": "9492dacaa2c851d34eb2b5f54946248c331243b05930a17408627fd9c5e25b56",
        "detections": "3d409f799508b0c36519a94b8d4b0a1524890bd167d474e6cbe5da0df3c82eaa",
    },
    ("turionx2_laptop", 0): {
        "all_scores": "b83275f5e95fbb05e525c582ef804fdbfb05ba2ec3f7b3ae4c70c02623c9fe39",
        "harmonic_zscores": "d1b4b10c167c0f1ecadb72600bc00a16de8878977d1b09ba045398e3d860a257",
        "combined_zscore": "985f87e78ab021c9f30d1d7e9ed0f4c7b8effc902a9634de88b333a560889f41",
        "detections": "c83722d2c01173619d136c33e91da2c9dc7944629b74c2ac2b26f216ac54d6a6",
    },
    ("turionx2_laptop", 3): {
        "all_scores": "48eee47095ae6bc12e7def088adc97877fd221af9b6570970c2a64a135597b41",
        "harmonic_zscores": "59fa20f43b7f2bb49ce77a2dcdb4ff87e94ff65529b618fc12a1f4fdb9dc1350",
        "combined_zscore": "11a9fdee201d372988eeb0307515546bb10efbdea03bb2bc3c120835c9a4442c",
        "detections": "f47423cb790e3a71d1458896ddf69fc53f6bc337c82e3c4a5f996dff9c7b537b",
    },
    ("turionx2_laptop", 11): {
        "all_scores": "dba5ba4fd77e43e0d8e986409d3be46f19fbab625ee10dc1f1cfd30e7f2908fb",
        "harmonic_zscores": "88aec349195fb7733e54de57ffada52af384a30654f20ac8d3182b6e8d330730",
        "combined_zscore": "54ebe784ce4f1c5b799e1eacb7d9432e4fc290afda786c2e45b8d9dc97397624",
        "detections": "2c0110a6809cc4e30ba5ec95f4d2acded480088b1860f8b1ab0bea23a62980e9",
    },
}


def _array_digest(arrays):
    digest = hashlib.sha256()
    for harmonic in sorted(arrays):
        digest.update(f"{harmonic}:".encode())
        digest.update(np.ascontiguousarray(arrays[harmonic]).tobytes())
    return digest.hexdigest()


def _detection_digest(detections):
    keys = [
        (
            d.frequency.hex(),
            d.combined_score.hex(),
            d.magnitude_dbm.hex(),
            d.modulation_depth.hex(),
            sorted((h, s.hex()) for h, s in d.harmonic_scores.items()),
        )
        for d in detections
    ]
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def campaign_digests(preset, seed):
    """Digests of every scoring output for one pinned campaign."""
    machine = ALL_PRESETS[preset](rng=np.random.default_rng(seed))
    campaign = MeasurementCampaign(machine, FIG11, rng=np.random.default_rng(seed + 1))
    result = campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")
    scorer = HeuristicScorer()
    scores = scorer.all_scores(result)
    zscores = scorer.harmonic_zscores(result, scores=scores)
    combined = scorer.combined_zscore(result, zscores=zscores)
    return {
        "all_scores": _array_digest(scores),
        "harmonic_zscores": _array_digest(zscores),
        "combined_zscore": _array_digest({0: combined}),
        "detections": _detection_digest(CarrierDetector().detect(result)),
    }


@pytest.mark.parametrize("preset,seed", sorted(SCORE_DIGESTS))
def test_scores_pinned(preset, seed):
    assert campaign_digests(preset, seed) == SCORE_DIGESTS[(preset, seed)]
