"""Tests for the Pennycook PP score and its committed baseline.

The baseline is the declared ``portability`` regression suite:
``repro bench portability --regress`` (CI's ``bench-regress`` job)
recomputes the sweep at the committed baseline's parameters and fails
if the PP score moved beyond the tolerance or the device set changed;
``repro bench portability --record`` appends a snapshot.  The
simulated clock is deterministic, so "within tolerance" really means
"recomputes exactly" unless a cost model changed.
"""

import json
from pathlib import Path

import pytest

from repro.backends.portability import (DEFAULT_N_PARTICLES,
                                        PORTABLE_CONFIG,
                                        PP_DRIFT_TOLERANCE,
                                        DeviceEfficiency,
                                        PortabilityReport,
                                        measure_portability, pp_score)
from repro.backends.registry import all_device_specs
from repro.errors import ConfigurationError, ValidationError
from repro.regress import (append_snapshot, baseline_path, compare_cells,
                           get_suite, load_baseline, parse_filter,
                           run_regression)
from repro.regress.runner import DRIFT
from repro.regress.suites import SuiteArtifact

REPO_BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _report(pp=0.9, devices=("cpu", "cuda:gpu0")):
    rows = [DeviceEfficiency(device=d, backend=d.split(":")[0]
                             if ":" in d else "oneapi",
                             best_nsps=1.0, portable_nsps=1.1,
                             efficiency=0.9) for d in devices]
    return PortabilityReport(pp=pp, devices=rows)


def _cells(report):
    """The suite's v1 cells for a report."""
    return get_suite("portability").cells(SuiteArtifact(report, report.n_particles,
                                     {"steps": report.steps,
                                      "warmup": report.warmup}))


def _record(report, directory):
    """Append a report as a snapshot, as ``--record`` would."""
    return append_snapshot("portability", _cells(report),
                           report.n_particles, directory=directory,
                           params={"steps": report.steps,
                                   "warmup": report.warmup})


def _drift(current, baseline, tmp_path):
    """Findings of the suite's performance + device-set checks."""
    _record(baseline, tmp_path)
    suite = get_suite("portability", directory=tmp_path)
    cells = _cells(current)
    compared = compare_cells(
        suite, cells, load_baseline("portability", tmp_path).latest.cells)
    findings = [f"{r.label}: {r.status}" for r in compared
                if r.status == DRIFT]
    findings += [check.detail for check in suite.sanity(
        SuiteArtifact(current, current.n_particles, {}), cells)
        if not check.passed]
    return findings


class TestPpScore:
    def test_harmonic_mean(self):
        assert pp_score([1.0, 1.0]) == 1.0
        assert pp_score([0.5, 1.0]) == pytest.approx(2 / 3)
        assert pp_score([0.25]) == 0.25

    def test_empty_set_is_zero(self):
        assert pp_score([]) == 0.0

    def test_unsupported_platform_zeroes_the_metric(self):
        assert pp_score([1.0, 0.0, 1.0]) == 0.0

    def test_out_of_range_efficiency_raises(self):
        with pytest.raises(ConfigurationError):
            pp_score([1.2])
        with pytest.raises(ConfigurationError):
            pp_score([-0.1])


class TestReportRoundTrip:
    def test_json_round_trip(self):
        report = _report()
        data = json.loads(json.dumps(report.as_dict()))
        assert data["pp"] == report.pp
        assert [r["device"] for r in data["devices"]] \
            == [r.device for r in report.devices]
        assert data["portable_config"] == dict(PORTABLE_CONFIG)

    def test_write_and_load_baseline(self, tmp_path):
        path = _record(_report(), tmp_path / "sub")
        loaded = load_baseline("portability", tmp_path / "sub").latest
        pp = [c for c in loaded.cells if c.keys["config"] == "pp"]
        assert pp[0].metrics["pp"] == pytest.approx(0.9)
        assert pp[0].tolerance == PP_DRIFT_TOLERANCE
        # pretty-printed with a trailing newline, diff-friendly
        text = path.read_text()
        assert text.endswith("\n") and "\n " in text

    def test_corrupt_baseline_raises_typed(self, tmp_path, capsys):
        from repro.cli import main
        assert load_baseline("portability", tmp_path) is None
        baseline_path("portability", tmp_path).write_text("{not json")
        with pytest.raises(ValidationError, match="unreadable"):
            load_baseline("portability", tmp_path)
        # the regression run fails on it instead of passing silently
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "portability", "--regress",
                  "--record-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "unreadable" in capsys.readouterr().out


class TestDriftCheck:
    def test_identical_reports_have_no_findings(self, tmp_path):
        assert _drift(_report(), _report(), tmp_path) == []

    def test_small_drift_within_tolerance(self, tmp_path):
        assert _drift(_report(pp=0.905), _report(pp=0.9), tmp_path) == []

    def test_pp_drift_is_a_finding(self, tmp_path):
        findings = _drift(_report(pp=0.80), _report(pp=0.9), tmp_path)
        assert any("pp" in f and DRIFT in f for f in findings)

    def test_device_set_change_is_a_finding(self, tmp_path):
        findings = _drift(_report(devices=("cpu",)),
                          _report(devices=("cpu", "cuda:gpu0")),
                          tmp_path / "fewer")
        assert any("missing ['cuda:gpu0']" in f for f in findings)
        findings = _drift(_report(devices=("cpu", "cuda:gpu0")),
                          _report(devices=("cpu",)), tmp_path / "more")
        assert any("added ['cuda:gpu0']" in f for f in findings)


class TestCommittedBaseline:
    def test_baseline_is_committed_and_sane(self):
        latest = load_baseline("portability", REPO_BENCH).latest
        efficiency = [c for c in latest.cells
                      if c.keys["config"] == "efficiency"]
        (pp,) = [c for c in latest.cells if c.keys["config"] == "pp"]
        assert 0.0 < pp.metrics["pp"] <= 1.0
        assert [c.keys["device"] for c in efficiency] == all_device_specs()
        assert pp.extra["portable_config"] == dict(PORTABLE_CONFIG)
        for cell in efficiency:
            assert 0.0 < cell.metrics["efficiency"] <= 1.0
            assert cell.metrics["best_nsps"] > 0.0
            assert cell.metrics["portable_nsps"] > 0.0

    def test_sweep_matches_committed_baseline(self):
        # the CI drift check, in-process: deterministic clock, so the
        # recomputed sweep must land within PP_DRIFT_TOLERANCE
        report = run_regression(parse_filter(None), directory=REPO_BENCH,
                                suites=["portability"])
        assert report.passed, "\n" + report.render()


class TestMeasurePortability:
    def test_defaults_are_ci_sized(self):
        assert DEFAULT_N_PARTICLES <= 50_000

    def test_empty_device_list_raises(self):
        with pytest.raises(ConfigurationError):
            measure_portability(devices=[])

    def test_rows_carry_tuning_evidence(self):
        report = measure_portability(devices=["cuda:gpu1"],
                                     n_particles=2_000, steps=3,
                                     warmup=1)
        assert len(report.devices) == 1
        row = report.devices[0]
        assert row.backend == "cuda"
        assert row.predicted_nsps is not None
        assert row.best_label


def _two_device_baseline(directory):
    """A doctored copy of the committed baseline: two devices, a small
    ensemble, so the CLI replays a cheap sweep."""
    _record(PortabilityReport(
        pp=0.9, devices=_report(devices=("cpu", "cuda:gpu1")).devices,
        n_particles=2_000, steps=3, warmup=1), directory)


class TestPortabilityCli:
    def test_cli_check_against_committed_baseline(self, capsys):
        from repro.cli import main
        code = main(["bench", "portability", "--regress",
                     "--record-dir", str(REPO_BENCH)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "portability" in out

    def test_cli_record_writes_baseline(self, tmp_path, capsys):
        from repro.cli import main
        _two_device_baseline(tmp_path)
        for _ in range(2):
            assert main(["bench", "portability", "--record",
                         "--record-dir", str(tmp_path)]) == 0
        assert "recorded snapshot" in capsys.readouterr().out
        written = load_baseline("portability", tmp_path)
        # --record appends: the doctored snapshot plus two recordings
        assert len(written.snapshots) == 3
        assert [c.keys["device"] for c in written.latest.cells
                if c.keys["config"] == "efficiency"] \
            == ["cpu", "cuda:gpu1"]
        assert written.latest.n_particles == 2_000
        assert written.latest.params == {"steps": 3, "warmup": 1}

    def test_cli_drift_exits_1(self, tmp_path, capsys):
        from repro.cli import main
        _two_device_baseline(tmp_path)
        assert main(["bench", "portability", "--record",
                     "--record-dir", str(tmp_path)]) == 0
        # doctor the recorded PP score, then regress against it
        path = baseline_path("portability", tmp_path)
        document = json.loads(path.read_text())
        for cell in document["snapshots"][-1]["cells"]:
            if cell["config"] == "pp":
                cell["metrics"]["pp"] *= 0.5
        path.write_text(json.dumps(document))
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "portability", "--regress",
                  "--record-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "drift" in capsys.readouterr().out.lower()
