"""Tests for baseline writing and regression checking."""

import json

import pytest

from repro.core.scheduler import ScheduleReport
from repro.obs.baseline import (BASELINE_METRICS, baseline_metrics,
                                baseline_path, check_baseline, load_baseline,
                                render_history, write_baseline)


def _report(total=1.0, gpu=0.6, pim=0.3) -> ScheduleReport:
    report = ScheduleReport(label="bench")
    report.total_time = total
    report.gpu_time = gpu
    report.pim_time = pim
    report.transition_time = total - gpu - pim
    report.energy_gpu_dynamic = 5.0
    report.energy_gpu_idle = 1.0
    report.energy_pim = 2.0
    report.gpu_dram_bytes = 1e9
    return report


class TestWriteLoad:
    def test_roundtrip(self, tmp_path):
        path = write_baseline(tmp_path, "Boot", _report(),
                              config={"gpu": "A100 80GB"})
        assert path == baseline_path(tmp_path, "Boot")
        assert path.name == "BENCH_Boot.json"
        doc = load_baseline(tmp_path, "Boot")
        assert doc["workload"] == "Boot"
        assert doc["config"] == {"gpu": "A100 80GB"}
        assert doc["metrics"]["total_time"] == pytest.approx(1.0)

    def test_creates_directory(self, tmp_path):
        path = write_baseline(tmp_path / "nested" / "dir", "HELR", _report())
        assert path.exists()

    def test_metrics_cover_declared_set(self):
        metrics = baseline_metrics(_report())
        assert set(metrics) == set(BASELINE_METRICS)
        assert metrics["edp"] == pytest.approx(8.0 * 1.0)


class TestCheck:
    def test_identical_run_passes(self, tmp_path):
        write_baseline(tmp_path, "Boot", _report())
        baseline = load_baseline(tmp_path, "Boot")
        assert check_baseline(baseline, _report()) == []

    def test_perturbation_beyond_tolerance_fails(self, tmp_path):
        write_baseline(tmp_path, "Boot", _report())
        baseline = load_baseline(tmp_path, "Boot")
        regressions = check_baseline(baseline, _report(total=1.10),
                                     tolerance=0.02)
        metrics = {r.metric for r in regressions}
        assert "total_time" in metrics
        assert "edp" in metrics  # edp = energy * total_time moves too

    def test_within_tolerance_passes(self, tmp_path):
        write_baseline(tmp_path, "Boot", _report())
        baseline = load_baseline(tmp_path, "Boot")
        assert check_baseline(baseline, _report(total=1.005, gpu=0.605),
                              tolerance=0.02) == []

    def test_speedup_also_flags(self, tmp_path):
        # Deterministic model: unexplained *improvements* are drift too.
        write_baseline(tmp_path, "Boot", _report())
        baseline = load_baseline(tmp_path, "Boot")
        regressions = check_baseline(baseline, _report(total=0.5))
        assert any(r.metric == "total_time" for r in regressions)

    def test_describe_names_metric_and_values(self, tmp_path):
        write_baseline(tmp_path, "Boot", _report())
        baseline = load_baseline(tmp_path, "Boot")
        (first, *_) = check_baseline(baseline, _report(total=2.0))
        text = first.describe()
        assert first.metric in text
        assert "baseline" in text

    def test_zero_baseline_metric(self, tmp_path):
        report = _report()
        report.gpu_dram_bytes = 0.0
        write_baseline(tmp_path, "Boot", report)
        baseline = load_baseline(tmp_path, "Boot")
        assert check_baseline(baseline, report) == []
        moved = _report()
        moved.gpu_dram_bytes = 1.0
        regressions = check_baseline(baseline, moved)
        assert any(r.metric == "gpu_dram_bytes" for r in regressions)

    def test_handwritten_baseline_json(self, tmp_path):
        # A baseline edited by hand (or by CI) still checks cleanly.
        path = baseline_path(tmp_path, "X")
        path.write_text(json.dumps(
            {"workload": "X", "metrics": {"total_time": 1.0}}))
        baseline = load_baseline(tmp_path, "X")
        assert check_baseline(baseline, _report()) == []
        assert check_baseline(baseline, _report(total=1.5)) != []


class TestHistoryRender:
    METRICS = {"total_time": 1.0, "energy": 2.0, "edp": 2.0}

    def test_check_runs_marked_and_old_lines_render(self):
        entries = [{"git_sha": "abc", "metrics": self.METRICS},
                   {"git_sha": "abc", "metrics": self.METRICS,
                    "check": "pass"},
                   {"git_sha": None, "metrics": {"total_time": 2.0},
                    "check": "fail"}]
        lines = render_history(entries).splitlines()
        assert lines[0].split()[:4] == ["run", "sha", "check", "total_time"]
        assert [line.split()[:3] for line in lines[1:]] == [
            ["0", "abc", "-"], ["1", "abc", "pass"], ["2", "-", "fail"]]
        assert lines[3].split()[4] == "+100.00%"
