"""Public API surface: exports, exception hierarchy, report rendering."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import errors


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis
        import repro.core
        import repro.mitigation
        import repro.signals
        import repro.spectrum
        import repro.system
        import repro.uarch

        for module in (
            repro.analysis, repro.core, repro.mitigation, repro.signals,
            repro.spectrum, repro.system, repro.uarch,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_scan_never_imports_scipy(self):
        """scipy serves only the time-domain cross-check path, so importing
        the CLI and running a scan must not pay for it."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import repro, repro.cli\n"
            "from repro import FaseConfig, MicroOp, corei7_desktop, run_fase\n"
            "run_fase(\n"
            "    corei7_desktop(rng=np.random.default_rng(0)),\n"
            "    pairs=((MicroOp.LDM, MicroOp.LDL1),),\n"
            "    config=FaseConfig(span_low=0.0, span_high=1e6, fres=100.0),\n"
            "    rng=np.random.default_rng(1),\n"
            ")\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "[]"


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.ReproError), name

    def test_catchable_as_base(self):
        from repro.spectrum.grid import FrequencyGrid

        with pytest.raises(errors.ReproError):
            FrequencyGrid(0.0, 1.0, 0.0)

    def test_specific_types_distinct(self):
        assert errors.GridError is not errors.TraceError
        assert not issubclass(errors.GridError, errors.TraceError)


class TestReportRendering:
    @pytest.fixture(scope="class")
    def report(self):
        from repro import FaseConfig, MicroOp, run_fase
        from repro.system import build_environment, corei7_desktop

        machine = corei7_desktop(
            environment=build_environment(1e6, kind="quiet"), rng=np.random.default_rng(0)
        )
        config = FaseConfig(span_low=0.0, span_high=1e6, fres=100.0, name="surface test")
        return run_fase(
            machine, pairs=((MicroOp.LDM, MicroOp.LDL1),), config=config,
            rng=np.random.default_rng(1),
        )

    def test_activity_report_to_text(self, report):
        text = report.activities["LDM/LDL1"].to_text()
        assert "carriers" in text
        assert "set" in text

    def test_detections_for_unknown_label(self, report):
        with pytest.raises(KeyError):
            report.detections_for("STM/LDL1")

    def test_carriers_near_tolerance(self, report):
        wide = report.carriers_near(315e3, rel_tol=0.05)
        narrow = report.carriers_near(315e3, rel_tol=1e-6)
        assert len(wide) >= len(narrow)

    def test_summary_mentions_mechanisms(self, report):
        assert "regulator" in report.summary() or "refresh" in report.summary()


class TestCliSurvey:
    def test_survey_covers_all_presets(self, capsys):
        from repro.cli import main

        assert main(["survey", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for name in ("Core i7", "Core i3", "Turion", "Pentium"):
            assert name in out
