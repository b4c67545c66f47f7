"""Tests for the Chrome-trace and manifest exporters."""

import json
import subprocess

import pytest

from repro.core.framework import AnaheimFramework
from repro.gpu.configs import A100_80GB, CHEDDAR
from repro.obs.export import (chrome_trace_from_report,
                              chrome_trace_from_tracer, merge_traces,
                              report_dict, run_manifest, write_json)
from repro.obs import provenance
from repro.obs.provenance import config_dict, environment_info, git_sha
from repro.obs.tracer import Tracer
from repro.params import paper_params
from repro.pim.configs import A100_NEAR_BANK
from repro.workloads.linear_transform_trace import hoisted_block


@pytest.fixture(scope="module")
def result():
    params = paper_params()
    blocks = hoisted_block(params.level_count, params.aux_count,
                           params.dnum, rotations=4)
    framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                 keep_segments=True)
    return framework.run(blocks, params.degree, label="hoisted K=4")


class TestChromeTrace:
    def test_report_segments_become_complete_events(self, result):
        doc = chrome_trace_from_report(result.report)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(result.report.segments)
        for event in events:
            assert event["ts"] >= 0.0
            assert event["dur"] > 0.0
            assert event["tid"] in (1, 2)

    def test_gpu_and_pim_land_on_distinct_tracks(self, result):
        doc = chrome_trace_from_report(result.report)
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids == {1, 2}

    def test_metadata_names_threads(self, result):
        doc = chrome_trace_from_report(result.report)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"GPU", "PIM"} <= names

    def test_simulated_seconds_map_to_microseconds(self, result):
        doc = chrome_trace_from_report(result.report)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        last = max(e["ts"] + e["dur"] for e in events)
        assert last == pytest.approx(result.report.total_time * 1e6)

    def test_tracer_spans_export(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        doc = chrome_trace_from_tracer(tracer)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        assert events[1]["args"] == {"detail": 1}

    def test_merge_traces_concatenates(self, result):
        a = chrome_trace_from_report(result.report, pid=0)
        b = chrome_trace_from_report(result.report, pid=1)
        merged = merge_traces(a, b)
        assert len(merged["traceEvents"]) == (len(a["traceEvents"])
                                              + len(b["traceEvents"]))

    def test_document_is_json_serializable(self, result, tmp_path):
        path = tmp_path / "trace.json"
        write_json(path, chrome_trace_from_report(result.report))
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


class TestReportDict:
    def test_all_metrics_present(self, result):
        out = report_dict(result.report)
        for key in ("total_time", "gpu_time", "pim_time", "transitions",
                    "gpu_dram_bytes", "energy", "edp",
                    "pipelining_headroom"):
            assert key in out
        assert out["energy"] == pytest.approx(result.report.energy)
        assert "segments" not in out

    def test_segments_opt_in(self, result):
        out = report_dict(result.report, segments=True)
        assert len(out["segments"]) == len(result.report.segments)
        assert out["segments"][0]["device"] in ("gpu", "pim")

    def test_category_keys_use_figure_labels(self, result):
        out = report_dict(result.report)
        assert "(I)NTT" in out["time_by_category"]


class TestManifest:
    def test_full_provenance(self, result):
        manifest = run_manifest(result.report, gpu=A100_80GB,
                                pim=A100_NEAR_BANK, library=CHEDDAR,
                                options=result.options,
                                workload="hoisted", degree=2 ** 16)
        assert manifest["workload"] == "hoisted"
        assert manifest["config"]["gpu"]["name"] == "A100 80GB"
        assert manifest["config"]["pim"]["variant"] == "near-bank"
        assert manifest["config"]["lowering_options"]["offload"] is True
        assert manifest["config"]["lowering_level"] == result.options.describe()
        assert manifest["report"]["edp"] == pytest.approx(result.report.edp)
        json.dumps(manifest)  # must be fully serializable

    def test_environment_info(self):
        info = environment_info()
        assert info["python"]
        sha = git_sha()
        assert sha is None or len(sha) == 40

    def test_git_sha_resolved_once_per_process(self, monkeypatch):
        calls = []

        def fake_run(argv, **kwargs):
            calls.append(kwargs["cwd"])
            return subprocess.CompletedProcess(argv, 0, stdout="f" * 40 + "\n")

        monkeypatch.setattr(provenance.subprocess, "run", fake_run)
        provenance._git_sha.cache_clear()
        try:
            first = environment_info()
            second = environment_info()
            assert len(calls) == 1
            assert first["git_sha"] == second["git_sha"] == "f" * 40
            git_sha(cwd="/")
            assert calls[1:] == ["/"]      # one lookup per directory
        finally:
            provenance._git_sha.cache_clear()


class TestConfigDict:
    def test_nested_dataclasses_and_enums(self):
        out = config_dict(A100_NEAR_BANK)
        assert out["variant"] == "near-bank"
        assert isinstance(out["geometry"], dict)
        json.dumps(out)

    def test_passthrough_and_fallback(self):
        assert config_dict(3) == 3
        assert config_dict(None) is None
        assert config_dict(frozenset({"b", "a"})) == ["a", "b"]
        assert isinstance(config_dict(object()), str)
