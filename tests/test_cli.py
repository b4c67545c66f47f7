"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "Boot"])
        assert args.gpu == "a100"
        assert args.pim == "near-bank"
        assert args.library == "Cheddar"

    def test_bad_workload_rejected(self, capsys):
        # Unknown workloads are a clean one-line error (exit 1), not an
        # argparse usage dump or a traceback.
        assert main(["run", "--workload", "Nope"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown workload 'Nope'" in err
        assert "Boot" in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("Boot", "HELR", "Sort", "RNN", "ResNet20"):
            assert name in out

    def test_run_with_pim(self, capsys):
        assert main(["run", "--workload", "Boot", "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "Anaheim" in out
        assert "EDP gain" in out
        assert "Element-wise" in out

    def test_run_gpu_only(self, capsys):
        assert main(["run", "--workload", "HELR", "--pim", "none"]) == 0
        out = capsys.readouterr().out
        assert "HELR" in out

    def test_run_oom(self, capsys):
        code = main(["run", "--workload", "ResNet20", "--gpu", "rtx4090"])
        assert code == 1
        assert "OoM" in capsys.readouterr().out

    def test_gantt(self, capsys):
        assert main(["gantt", "--rotations", "4", "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "GPU |" in out
        assert "PIM |" in out

    def test_microbench(self, capsys):
        assert main(["microbench", "--buffer", "8"]) == 0
        out = capsys.readouterr().out
        assert "PAccum" in out
        assert "unsupported" not in out.split("PAccum")[0]

    def test_microbench_small_buffer_marks_unsupported(self, capsys):
        assert main(["microbench", "--buffer", "4"]) == 0
        assert "unsupported" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_run_json_is_parseable(self, capsys):
        assert main(["run", "--workload", "HELR", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "HELR"
        assert doc["anaheim"]["total_time"] > 0
        assert doc["baseline"]["total_time"] > doc["anaheim"]["total_time"]
        assert doc["edp_gain"] > 1.0

    def test_run_gpu_only_json(self, capsys):
        assert main(["run", "--workload", "HELR", "--pim", "none",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pim"] is None
        assert doc["report"]["pim_time"] == 0.0

    def test_run_trace_out_writes_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["run", "--workload", "HELR", "--trace-out",
                     str(path)]) == 0
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        assert all("ts" in e and "dur" in e for e in events)
        # Both the GPU-baseline (pid 0) and Anaheim (pid 1) schedules.
        assert {e["pid"] for e in events} == {0, 1}
        assert {e["tid"] for e in events if e["pid"] == 1} == {1, 2}

    def test_run_manifest_has_provenance(self, tmp_path):
        path = tmp_path / "manifest.json"
        assert main(["run", "--workload", "HELR", "--manifest",
                     str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["config"]["gpu"]["name"] == "A100 80GB"
        assert doc["report"]["energy"] > 0
        assert "baseline_report" in doc

    def test_gantt_json_and_trace(self, capsys, tmp_path):
        path = tmp_path / "gantt.json"
        assert main(["gantt", "--rotations", "4", "--json",
                     "--trace-out", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["segments"]
        assert json.loads(path.read_text())["traceEvents"]

    def test_unwritable_trace_path_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gantt", "--rotations", "2", "--trace-out",
                  str(tmp_path / "no" / "such" / "dir" / "t.json")])
        assert "cannot write trace" in str(err.value)

    def test_microbench_json(self, capsys):
        assert main(["microbench", "--buffer", "16", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {r["instruction"] for r in doc["instructions"]}
        assert "PAccum" in names
        assert all(r["time"] > 0 for r in doc["instructions"]
                   if r["supported"])


class TestBench:
    def test_write_then_check_passes(self, capsys, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_HELR.json").exists()
        assert main(["bench", "--workload", "HELR", "--dir", str(tmp_path),
                     "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_perturbed_baseline_fails_check(self, capsys, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path)]) == 0
        path = tmp_path / "BENCH_HELR.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["total_time"] *= 1.10
        path.write_text(json.dumps(doc))
        assert main(["bench", "--workload", "HELR", "--dir", str(tmp_path),
                     "--check"]) == 1
        assert "total_time" in capsys.readouterr().out

    def test_loose_tolerance_accepts_perturbation(self, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path)]) == 0
        path = tmp_path / "BENCH_HELR.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["total_time"] *= 1.05
        path.write_text(json.dumps(doc))
        assert main(["bench", "--workload", "HELR", "--dir", str(tmp_path),
                     "--check", "--tolerance", "0.2"]) == 0

    def test_check_without_baseline_errors(self, capsys, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir", str(tmp_path),
                     "--check"]) == 2
        assert "no baseline" in capsys.readouterr().out


class TestFunctionalBench:
    def test_write_then_check(self, capsys, tmp_path):
        assert main(["bench", "--workload", "functional", "--dir",
                     str(tmp_path), "--repeats", "1"]) == 0
        doc = json.loads((tmp_path / "BENCH_functional.json").read_text())
        metrics = doc["metrics"]
        assert metrics["ntt_batch_speedup"] > 1.0
        assert metrics["bootstrap_s"] > 0
        assert metrics["key_switch_s"] > 0
        assert doc["counters"]["ckks.batch_ntt.forward"] > 0
        assert doc["precision_max_err"] < 5e-3
        # Wall clock is noisy; the check plumbing is what's under test.
        assert main(["bench", "--workload", "functional", "--dir",
                     str(tmp_path), "--repeats", "1",
                     "--check", "--tolerance", "10.0"]) == 0
        assert "within" in capsys.readouterr().out

    def test_profile_surfaces_engine_counters(self, capsys):
        assert main(["profile", "--workload", "functional"]) == 0
        out = capsys.readouterr().out
        assert "ckks.batch_ntt.forward" in out
        assert "ckks.bconv.batched" in out
        assert "NTT batch speedup" in out


class TestFaultsCommand:
    def test_analytic_gate_passes(self, capsys):
        assert main(["faults", "--seeds", "0", "--layer", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "gate: PASS" in out
        assert "analytic" in out

    def test_json_output_parseable(self, capsys):
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gate"]["passed"]
        assert doc["analytic"][0]["summary"]["coverage"] == 1.0
        assert doc["analytic"][0]["overhead"] < 0.10

    def test_write_then_check_round_trip(self, capsys, tmp_path):
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--dir", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / "BENCH_faults.json").exists()
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--dir", str(tmp_path), "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_check_without_baseline_exits_2(self, capsys, tmp_path):
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--dir", str(tmp_path), "--check"]) == 2
        assert "no baseline" in capsys.readouterr().out

    def test_write_and_check_append_history(self, tmp_path):
        argv = ["faults", "--seeds", "0", "--layer", "analytic",
                "--dir", str(tmp_path)]
        assert main(argv + ["--write-baseline"]) == 0
        assert main(argv + ["--check"]) == 0
        history = tmp_path / "history" / "faults.jsonl"
        entries = [json.loads(line)
                   for line in history.read_text().splitlines()]
        assert [entry.get("check") for entry in entries] == [None, "pass"]
        assert entries[0]["config"]["seeds"] == [0]

    def test_corrupt_baseline_is_one_line_error(self, capsys, tmp_path):
        (tmp_path / "BENCH_faults.json").write_text("{not json")
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--dir", str(tmp_path), "--check"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "malformed JSON" in err

    def test_manifest_artifact(self, tmp_path):
        path = tmp_path / "campaign.json"
        assert main(["faults", "--seeds", "0", "--layer", "analytic",
                     "--manifest", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["gate"]["passed"]

    def test_run_with_fault_seed_reports_summary(self, capsys):
        assert main(["run", "--workload", "HELR", "--fault-seed", "3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        summary = doc["anaheim"]["fault_summary"]
        assert summary["undetected"] == 0
        assert summary["unrecovered"] == 0
        assert summary["plan_digest"]


class TestProfile:
    def test_profile_prints_span_tree(self, capsys):
        assert main(["profile", "--workload", "HELR"]) == 0
        out = capsys.readouterr().out
        assert "framework.run" in out
        assert "framework.schedule" in out
        assert "dispatch.pim.elementwise" in out
        assert "scheduler.kernels.gpu" in out
        assert "self" in out  # profile columns

    def test_profile_trace_out(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        assert main(["profile", "--workload", "HELR", "--pim", "none",
                     "--trace-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "framework.run" in names


class TestMetricsCommand:
    def test_smoke_gates(self, capsys):
        assert main(["metrics", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "metrics smoke: PASS" in out
        assert "accounting error" in out

    def test_prometheus_export_validates(self, capsys):
        from repro.obs.metrics import parse_prometheus
        assert main(["metrics", "--workload", "HELR"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        assert parsed["types"]["anaheim_kernels_total"] == "counter"
        assert parsed["types"]["anaheim_kernel_seconds"] == "histogram"
        assert parsed["types"]["anaheim_device_busy_fraction"] == "gauge"

    def test_json_digest_identical_across_runs(self, capsys):
        assert main(["metrics", "--workload", "HELR", "--format",
                     "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["metrics", "--workload", "HELR", "--format",
                     "json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["digest"] == second["digest"]
        assert first["snapshot"] == second["snapshot"]

    def test_artifacts_and_utilization_printout(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prometheus
        out = tmp_path / "metrics.prom"
        events = tmp_path / "events.jsonl"
        assert main(["metrics", "--workload", "HELR",
                     "--out", str(out), "--events-out", str(events),
                     "--utilization"]) == 0
        assert parse_prometheus(out.read_text())["samples"]
        kinds = [json.loads(line)["kind"]
                 for line in events.read_text().splitlines()]
        assert kinds == ["run", "utilization"]
        printed = capsys.readouterr().out
        assert "gpu busy" in printed and "pim busy" in printed

    def test_jsonl_format_streams_events(self, capsys):
        assert main(["metrics", "--workload", "HELR", "--format",
                     "jsonl"]) == 0
        lines = capsys.readouterr().out.splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["seq"] for d in docs] == list(range(len(docs)))
        assert docs[0]["kind"] == "run"

    def test_functional_workload_hit_rates(self, capsys):
        assert main(["metrics", "--workload", "functional",
                     "--utilization"]) == 0
        out = capsys.readouterr().out
        assert "anaheim_functional_events_total" in out
        assert "anaheim_functional_hit_rate" in out
        assert "ntt tables" in out


class TestTopCommand:
    def test_top_progress_and_latency_table(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prometheus
        prom = tmp_path / "top.prom"
        assert main(["top", "--jobs", "faults:analytic:Boot",
                     "--seeds", "0,1", "--stuck-site", "1",
                     "--stuck-site", "5", "--degraded-after", "1",
                     "--gpu-only-after", "2",
                     "--metrics-out", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "[  1/2]" in out and "[  2/2]" in out
        assert "analytic/0" in out
        assert "units 2/2" in out
        assert "unit latency (simulated)" in out
        assert "degradation:" in out
        parsed = parse_prometheus(prom.read_text())
        assert parsed["types"]["anaheim_serve_unit_seconds"] == \
            "histogram"

    def test_top_resume_marks_restored(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ck.json")
        base = ["top", "--jobs", "faults:analytic:Boot",
                "--seeds", "0,1", "--stuck-site", "1",
                "--stuck-site", "5", "--degraded-after", "1",
                "--gpu-only-after", "2"]
        assert main(base + ["--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(base + ["--resume", ckpt]) == 0
        out = capsys.readouterr().out
        assert out.count("restored") >= 2  # per-unit notes + summary
        assert "(restored 2)" in out

    def test_top_without_jobs_errors(self, capsys):
        assert main(["top"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestOverloadCommands:
    def test_serve_arrivals_json_conserves_offered_jobs(self, capsys):
        assert main(["serve", "--arrivals", "poisson:64",
                     "--duration", "0.5", "--seeds", "0",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        summary = doc["admission"]["summary"]
        assert summary["offered"] == summary["admitted"] \
            + summary["rejected_total"]
        assert summary["admitted"] == summary["completed"] \
            + summary["shed_total"]
        assert len(doc["jobs"]) == summary["completed"]

    def test_serve_arrivals_table_prints_queue_picture(self, capsys):
        assert main(["serve", "--arrivals", "poisson:64",
                     "--duration", "0.5", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "admission: offered" in out
        assert "queue: peak depth" in out
        assert "goodput" in out

    def test_soak_json_gates_green(self, capsys):
        assert main(["soak", "--duration", "0.5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gate"]["passed"]
        assert len(doc["cells"]) == 6       # 3 loads x 2 chaos kinds

    def test_soak_table(self, capsys):
        assert main(["soak", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "soak: capacity" in out
        assert "brownout" in out
        assert "gate: PASS" in out

    def test_soak_bad_chaos_kind(self, capsys):
        assert main(["soak", "--chaos", "meteor"]) == 2
        assert "chaos" in capsys.readouterr().err

    def test_bench_overload_write_then_check(self, capsys, tmp_path):
        assert main(["bench", "--workload", "overload", "--dir",
                     str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_overload.json").exists()
        assert main(["bench", "--workload", "overload", "--dir",
                     str(tmp_path), "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_bench_overload_perturbed_baseline_fails(self, capsys,
                                                     tmp_path):
        assert main(["bench", "--workload", "overload", "--dir",
                     str(tmp_path)]) == 0
        path = tmp_path / "BENCH_overload.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["goodput_qps"] *= 1.10
        path.write_text(json.dumps(doc))
        assert main(["bench", "--workload", "overload", "--dir",
                     str(tmp_path), "--check"]) == 1
        assert "goodput_qps" in capsys.readouterr().out

    def test_top_arrivals_shows_queue_columns(self, capsys):
        assert main(["top", "--arrivals", "poisson:64",
                     "--duration", "0.5", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "admission: offered" in out
        assert "queue: peak depth" in out


class TestBenchHistory:
    def test_runs_append_and_render_trend(self, capsys, tmp_path):
        for _ in range(2):
            assert main(["bench", "--workload", "HELR", "--dir",
                         str(tmp_path)]) == 0
        history = tmp_path / "history" / "HELR.jsonl"
        entries = [json.loads(line)
                   for line in history.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["metrics"]["total_time"] == \
            entries[1]["metrics"]["total_time"]
        capsys.readouterr()
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path), "--history"]) == 0
        out = capsys.readouterr().out
        assert "bench history: HELR (2 run(s))" in out
        assert "vs prev" in out and "vs base" in out
        assert "+0.00%" in out

    def test_check_runs_are_recorded_and_marked(self, capsys, tmp_path):
        argv = ["bench", "--workload", "HELR", "--dir", str(tmp_path)]
        assert main(argv + ["--check"]) == 2
        history = tmp_path / "history" / "HELR.jsonl"
        assert not history.exists()
        assert main(argv) == 0
        assert main(argv + ["--check"]) == 0
        path = tmp_path / "BENCH_HELR.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["total_time"] *= 1.10
        path.write_text(json.dumps(doc))
        assert main(argv + ["--check"]) == 1
        entries = [json.loads(line)
                   for line in history.read_text().splitlines()]
        assert [entry.get("check") for entry in entries] == \
            [None, "pass", "fail"]
        capsys.readouterr()
        assert main(argv + ["--history"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bench history: HELR (3 run(s))"
        assert lines[1].split()[:3] == ["run", "sha", "check"]
        assert [line.split()[2] for line in lines[2:]] == \
            ["-", "pass", "fail"]

    def test_history_without_runs_is_empty(self, capsys, tmp_path):
        assert main(["bench", "--workload", "HELR", "--dir",
                     str(tmp_path), "--history"]) == 0
        assert "no history recorded" in capsys.readouterr().out


class TestRasCommand:
    def test_matrix_table_and_gate(self, capsys):
        assert main(["ras", "--retention-rates", "200",
                     "--scrub-intervals", "5e-3", "--no-wall"]) == 0
        out = capsys.readouterr().out
        assert "memory RAS matrix" in out
        assert "gate: PASS" in out
        assert "functional:" in out

    def test_json_document(self, capsys):
        assert main(["ras", "--retention-rates", "200,1000",
                     "--scrub-intervals", "5e-3", "--layer", "analytic",
                     "--no-wall", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gate"]["passed"]
        assert doc["functional"] is None
        assert len(doc["cells"]) == 2

    def test_write_then_check(self, capsys, tmp_path):
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--write-baseline"]) == 0
        assert (tmp_path / "BENCH_ras.json").exists()
        assert (tmp_path / "history" / "ras.jsonl").exists()
        capsys.readouterr()
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_bench_ras_write_then_check(self, capsys, tmp_path):
        assert main(["bench", "--workload", "ras", "--dir",
                     str(tmp_path), "--workers", "1"]) == 0
        doc = json.loads((tmp_path / "BENCH_ras.json").read_text())
        assert doc["metrics"]["uncorrected"] == 0.0
        assert doc["metrics"]["overhead"] < 0.05
        assert main(["bench", "--workload", "ras", "--dir",
                     str(tmp_path), "--workers", "1", "--check"]) == 0
        assert "within" in capsys.readouterr().out

    def test_perturbed_baseline_fails_check(self, capsys, tmp_path):
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--write-baseline"]) == 0
        path = tmp_path / "BENCH_ras.json"
        doc = json.loads(path.read_text())
        doc["metrics"]["corrected"] *= 1.5
        path.write_text(json.dumps(doc))
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--check"]) == 1
        assert "corrected" in capsys.readouterr().out

    def test_check_without_baseline_errors(self, capsys, tmp_path):
        assert main(["ras", "--no-wall", "--dir", str(tmp_path),
                     "--check"]) == 2
        assert "no baseline" in capsys.readouterr().out


class TestListFlagValidation:
    """Comma-separated list flags fail as one line on stderr, exit 1."""

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("flag,argv", [
        ("--seeds", ["faults", "--seeds", "0,x", "--layer", "analytic"]),
        ("--seeds", ["faults", "--seeds", ","]),
        ("--seeds", ["serve", "--jobs", "run:Boot", "--seeds", "0,x"]),
        ("--seeds", ["top", "--jobs", "run:Boot", "--seeds", "1.5"]),
        ("--loads", ["soak", "--loads", "1,abc"]),
        ("--loads", ["soak", "--loads", "-1"]),
        ("--loads", ["soak", "--loads", "0"]),
        ("--loads", ["soak", "--loads", "inf"]),
    ])
    def test_bad_list_is_one_line_exit_1(self, capsys, flag, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ")
        assert len(err.strip().splitlines()) == 1


class TestRasFlagValidation:
    @pytest.mark.parametrize("value", ["0", "-1", "abc", "inf", "nan"])
    def test_bad_scrub_interval_is_one_line_exit_1(self, capsys, value):
        assert main(["serve", "--jobs", "run:Boot",
                     "--scrub-interval", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --scrub-interval")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["0", "-2.5", "five"])
    def test_bad_retention_rate_is_one_line_exit_1(self, capsys, value):
        assert main(["serve", "--jobs", "run:Boot",
                     "--retention-rate", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --retention-rate")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--retention-rates", "200,zero"),
        ("--retention-rates", ","),
        ("--scrub-intervals", "0"),
        ("--scrub-intervals", "1e-3,-1"),
    ])
    def test_bad_sweep_lists_rejected(self, capsys, flag, value):
        assert main(["ras", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_serve_with_ras_reports_scrub_summary(self, capsys):
        assert main(["serve", "--jobs", "run:Boot",
                     "--scrub-interval", "5e-3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        unit = doc["jobs"][0]["units"]["Boot"]
        ras = unit["result"]["report"]["fault_summary"]["ras"]
        assert ras["uncorrected"] == 0
        assert ras["corrected"] > 0
