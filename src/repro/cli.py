"""Command-line interface to the Anaheim reproduction.

Usage examples::

    anaheim-repro list
    anaheim-repro run --workload Boot --gpu a100 --pim near-bank
    anaheim-repro run --workload HELR --gpu rtx4090 --breakdown
    anaheim-repro run --workload Boot --json --trace-out trace.json
    anaheim-repro gantt --rotations 8
    anaheim-repro microbench --buffer 16
    anaheim-repro profile --workload HELR
    anaheim-repro bench --workload Boot --dir baselines
    anaheim-repro bench --workload Boot --dir baselines --check

(Equivalently: ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.reporting import (format_ratio, format_seconds,
                                      format_table)
from repro.core.framework import AnaheimFramework
from repro.core.gantt import render_breakdown, render_gantt
from repro.core.scheduler import ScheduleReport, Segment
from repro.core.trace import OpCategory, PimKernel
from repro.errors import ParameterError, ReproError
from repro.gpu.configs import A100_80GB, LIBRARIES, RTX_4090
from repro.obs.baseline import (append_history, baseline_metrics,
                                baseline_path, check_baseline_metrics,
                                load_baseline, load_history,
                                render_history, write_baseline_metrics)
from repro.obs.export import (chrome_trace_from_report,
                              chrome_trace_from_tracer, merge_traces,
                              report_dict, run_manifest, write_json)
from repro.obs.metrics import EventLog, MetricsRegistry, parse_prometheus
from repro.obs.profile import render_counters, render_span_tree
from repro.obs.tracer import Tracer
from repro.obs.utilization import UtilizationReport
from repro.params import paper_params
from repro.pim.configs import (A100_CUSTOM_HBM, A100_NEAR_BANK,
                               RTX4090_NEAR_BANK, with_buffer)
from repro.pim.executor import PimExecutor
from repro.workloads import applications as apps
from repro.workloads.linear_transform_trace import hoisted_block
from repro.workloads.metrics import edp_improvement

GPUS = {"a100": A100_80GB, "rtx4090": RTX_4090}
PIMS = {("a100", "near-bank"): A100_NEAR_BANK,
        ("a100", "custom-hbm"): A100_CUSTOM_HBM,
        ("rtx4090", "near-bank"): RTX4090_NEAR_BANK}


def _target(args):
    """(gpu, pim-or-None) named by the --gpu/--pim flags."""
    if args.pim == "none":
        return GPUS[args.gpu], None
    if (args.gpu, args.pim) not in PIMS:
        raise SystemExit(f"no PIM config for gpu={args.gpu} pim={args.pim}")
    return GPUS[args.gpu], PIMS[args.gpu, args.pim]


# -- Observability plumbing shared by the subcommands --------------------------


def _add_obs_flags(parser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit results as JSON on stdout")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write a Chrome trace-event file "
                             "(load in Perfetto / chrome://tracing)")
    parser.add_argument("--manifest", metavar="FILE",
                        help="write a full JSON run manifest "
                             "(configs, provenance, all report metrics)")


def _write_artifact(path, document, kind: str, quiet: bool) -> None:
    try:
        write_json(path, document)
    except OSError as exc:
        raise SystemExit(f"cannot write {kind} to {path}: {exc}")
    if not quiet:
        print(f"wrote {kind} to {path}")


def _write_text(path, text: str, kind: str, quiet: bool = False) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write {kind} to {path}: {exc}")
    if not quiet:
        print(f"wrote {kind} to {path}")


def _emit_artifacts(args, trace_doc=None, manifest=None) -> None:
    quiet = getattr(args, "json", False)
    if getattr(args, "trace_out", None) and trace_doc is not None:
        _write_artifact(args.trace_out, trace_doc, "trace", quiet)
    if getattr(args, "manifest", None) and manifest is not None:
        _write_artifact(args.manifest, manifest, "manifest", quiet)


def _check_memory(workload, gpu, quiet: bool = False) -> bool:
    if workload.memory.fits(gpu.dram_capacity):
        return True
    if not quiet:
        print(f"{workload.name} needs {workload.memory.describe()} but "
              f"{gpu.name} has {gpu.dram_capacity / 1e9:.0f}GB: OoM")
    return False


# -- Subcommands ---------------------------------------------------------------


def cmd_list(_args) -> int:
    rows = []
    params = paper_params()
    for name in apps.WORKLOADS:
        workload = apps.build(name, params)
        rows.append([name, workload.l_eff,
                     f"{workload.memory.total_bytes / 1e9:.0f}GB",
                     workload.description])
    print(format_table(["workload", "L_eff", "memory", "description"],
                       rows))
    return 0


def cmd_run(args) -> int:
    fault_plan = None
    if args.fault_seed is not None:
        from repro.faults.plan import default_plan
        fault_plan = default_plan(seed=args.fault_seed,
                                  scale=args.fault_scale)
    metrics = MetricsRegistry()
    built = _framework(args, keep_segments=args.trace_out is not None,
                       fault_plan=fault_plan, metrics=metrics)
    if built is None:
        return 1
    framework, pim, workload, params = built
    gpu, library = framework.gpu, LIBRARIES[args.library]
    if pim is None:
        result = framework.run(workload.blocks, params.degree,
                               label=args.workload)
        report = result.report
        manifest = run_manifest(report, gpu=gpu, pim=None, library=library,
                                options=result.options,
                                workload=args.workload,
                                degree=params.degree,
                                fault_plan=fault_plan,
                                metrics=metrics)
        _emit_artifacts(args, trace_doc=chrome_trace_from_report(report),
                        manifest=manifest)
        if args.json:
            print(json.dumps({"workload": args.workload, "gpu": gpu.name,
                              "pim": None, "library": args.library,
                              "report": report_dict(report)}, indent=2))
            return 0
        print(f"{args.workload} on {gpu.name} ({args.library}): "
              f"{format_seconds(report.total_time)}, "
              f"{report.energy:.2f}J")
        if args.breakdown:
            print(render_breakdown({args.workload: report}))
        return 0
    runs = framework.compare(workload.blocks, params.degree,
                             label=args.workload)
    base, anaheim = runs["gpu"].report, runs["pim"].report
    trace_doc = merge_traces(chrome_trace_from_report(base, pid=0),
                             chrome_trace_from_report(anaheim, pid=1))
    manifest = run_manifest(anaheim, gpu=gpu, pim=pim, library=library,
                            options=runs["pim"].options,
                            workload=args.workload, degree=params.degree,
                            fault_plan=fault_plan, metrics=metrics,
                            extra={"baseline_report": report_dict(base)})
    _emit_artifacts(args, trace_doc=trace_doc, manifest=manifest)
    if args.json:
        print(json.dumps({
            "workload": args.workload, "gpu": gpu.name, "pim": pim.name,
            "library": args.library,
            "baseline": report_dict(base),
            "anaheim": report_dict(anaheim),
            "edp_gain": edp_improvement(base, anaheim),
        }, indent=2))
        return 0
    rows = [
        ["baseline GPU", format_seconds(base.total_time),
         f"{base.energy:.2f}J", "-"],
        ["Anaheim", format_seconds(anaheim.total_time),
         f"{anaheim.energy:.2f}J",
         format_ratio(edp_improvement(base, anaheim))],
    ]
    print(format_table(["configuration", "time", "energy", "EDP gain"],
                       rows, title=f"{args.workload} on {gpu.name} + "
                                   f"{pim.name}"))
    if args.breakdown:
        print()
        print(render_breakdown({"GPU": base, "Anaheim": anaheim}))
    return 0


def cmd_gantt(args) -> int:
    params = paper_params()
    blocks = hoisted_block(params.level_count, params.aux_count,
                           params.dnum, rotations=args.rotations)
    metrics = MetricsRegistry()
    framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                 keep_segments=True, metrics=metrics)
    result = framework.run(blocks, params.degree,
                           label=f"hoisted transform K={args.rotations}")
    report = result.report
    manifest = run_manifest(report, gpu=A100_80GB, pim=A100_NEAR_BANK,
                            options=result.options,
                            workload=f"hoisted-transform-K{args.rotations}",
                            degree=params.degree, metrics=metrics)
    _emit_artifacts(args, trace_doc=chrome_trace_from_report(report),
                    manifest=manifest)
    if args.json:
        print(json.dumps({"report": report_dict(report, segments=True)},
                         indent=2))
        return 0
    print(render_gantt(report, width=args.width))
    print("  [N=(I)NTT  B=BConv  e=element-wise  A=automorphism  "
          "w=write-back  P=PIM]")
    return 0


def cmd_microbench(args) -> int:
    params = paper_params()
    limbs = params.level_count + params.aux_count
    config = with_buffer(A100_NEAR_BANK, args.buffer)
    executor = PimExecutor(config)
    rows = []
    records = []
    report = ScheduleReport(label=f"{config.name} microbench B={args.buffer}")
    clock = 0.0
    from repro.pim import isa
    for name in sorted(isa.INSTRUCTIONS):
        inst = isa.instruction(name)
        fan_in = 4 if inst.compound else 1
        if not executor.supports(name, fan_in):
            rows.append([name, "unsupported", "-", "-"])
            records.append({"instruction": name, "supported": False})
            continue
        kernel = PimKernel(name=name, instruction=name, limbs=limbs,
                           degree=params.degree, fan_in=fan_in)
        cost = executor.cost(kernel)
        rows.append([name, format_seconds(cost.time),
                     f"{cost.energy * 1e3:.2f}mJ",
                     f"{cost.activations}"])
        records.append({"instruction": name, "supported": True,
                        "time": cost.time, "energy": cost.energy,
                        "activations": cost.activations,
                        "internal_bytes": cost.internal_bytes})
        report.segments.append(Segment(
            start=clock, end=clock + cost.time, device="pim",
            name=name, category=OpCategory.ELEMENTWISE))
        clock += cost.time
        report.pim_time += cost.time
        report.energy_pim += cost.energy
    report.total_time = clock
    manifest = run_manifest(report, pim=config,
                            workload=f"microbench-B{args.buffer}",
                            degree=params.degree,
                            extra={"instructions": records})
    _emit_artifacts(args, trace_doc=chrome_trace_from_report(report),
                    manifest=manifest)
    if args.json:
        print(json.dumps({"config": config.name, "buffer": args.buffer,
                          "limbs": limbs, "instructions": records},
                         indent=2))
        return 0
    print(format_table(["instruction", "time", "energy", "ACT pairs"],
                       rows, title=f"{config.name}, B={args.buffer}, "
                                   f"{limbs} limbs"))
    return 0


def _framework(args, **options):
    """(framework, pim-or-None, workload, params) for one --workload on
    the flagged target; None when the workload overflows GPU memory."""
    params = paper_params()
    workload = apps.build(args.workload, params)
    if not _check_memory(workload, GPUS[args.gpu]):
        return None
    gpu, pim = _target(args)
    framework = AnaheimFramework(gpu, pim, library=LIBRARIES[args.library],
                                 **options)
    return framework, pim, workload, params


def _run_functional(args, tracer=None) -> dict:
    from repro.ckks.bench import run_functional_bench
    return run_functional_bench(repeats=getattr(args, "repeats", 3),
                                tracer=tracer)


def _gate_baseline(args, name, metrics, config, extra=None, summary=None,
                   check_summary=None, rerun=None) -> int:
    """Gate one bench result against ``BENCH_<name>.json`` and record it.

    With ``--check`` the metrics are compared with the stored baseline
    (exit 0 clean, 1 on regression, 2 with no baseline); otherwise the
    baseline is (re)written.  Either way the run is appended to
    ``history/<name>.jsonl``, a check run tagged ``pass``/``fail``.
    ``summary`` follows the written-baseline line, ``check_summary`` the
    clean-check line, and ``rerun`` is the command that writes the
    missing baseline.
    """
    path = baseline_path(args.dir, name)
    if args.check:
        if not path.exists():
            print(f"no baseline at {path}; run `anaheim-repro "
                  f"{rerun or 'bench --workload ' + name}` first")
            return 2
        regressions = check_baseline_metrics(load_baseline(args.dir, name),
                                             metrics,
                                             tolerance=args.tolerance)
        append_history(args.dir, name, metrics, config=config,
                       check="fail" if regressions else "pass")
        if regressions:
            print(f"{name}: {len(regressions)} metric(s) outside "
                  f"±{args.tolerance:.0%} of {path}:")
            for regression in regressions:
                print(f"  {regression.describe()}")
            return 1
        note = f" ({check_summary})" if check_summary else ""
        print(f"{name}: all metrics within ±{args.tolerance:.0%} of "
              f"{path}{note}")
        return 0
    write_baseline_metrics(args.dir, name, metrics, config=config,
                           extra=extra)
    append_history(args.dir, name, metrics, config=config)
    print(f"wrote baseline {path}" + (f" ({summary})" if summary else ""))
    return 0


def _bench_functional(args) -> int:
    """Wall-clock bench of the executable CKKS layer (no modeled run)."""
    result = _run_functional(args, tracer=Tracer())
    metrics = result["metrics"]
    return _gate_baseline(
        args, "functional", metrics, result["config"],
        extra={"counters": result["counters"],
               "precision_max_err": result["precision_max_err"]},
        summary=f"bootstrap {format_seconds(metrics['bootstrap_s'])}, "
                f"key switch {format_seconds(metrics['key_switch_s'])}, "
                f"NTT batch speedup {metrics['ntt_batch_speedup']:.2f}x")


def _bench_parallel(args) -> int:
    """Pool-throughput bench: parallel campaign vs serial, gated.

    Runs the same analytic campaign serially and across ``--workers``
    worker processes, byte-compares the two documents, and records the
    **deterministic** pool speedup — :func:`~repro.parallel.pool_timeline`
    replaying the per-unit simulated costs onto worker lanes — in
    ``BENCH_parallel.json``.  Wall clocks are reported for information
    only (``extra``), never gated: the modeled speedup is a pure
    function of (costs, workers) and reproduces exactly under
    ``bench --check`` on any host, including single-core CI runners.
    """
    import time as _time
    from repro.faults.campaign import run_matrix
    from repro.parallel import pool_timeline

    seeds = tuple(range(args.units))
    workers = args.workers

    start = _time.perf_counter()
    serial = run_matrix(seeds=seeds, functional=False,
                        record_wall=False, workload="Boot")
    wall_serial_s = _time.perf_counter() - start
    start = _time.perf_counter()
    parallel = run_matrix(seeds=seeds, functional=False,
                          record_wall=False, workload="Boot",
                          workers=workers, threads=args.threads)
    wall_parallel_s = _time.perf_counter() - start
    digest_match = (json.dumps(serial, sort_keys=True)
                    == json.dumps(parallel, sort_keys=True))

    costs = [run["faulted_time_s"] for run in serial["analytic"]]
    timeline = pool_timeline(costs, workers)
    metrics = {
        "units": float(timeline["units"]),
        "workers": float(workers),
        "serial_s": timeline["serial_s"],
        "makespan_s": timeline["makespan_s"],
        "throughput_speedup": timeline["speedup"],
        "digest_match": 1.0 if digest_match else 0.0,
    }
    config = {"units": args.units, "workers": workers,
              "threads": args.threads, "workload": "Boot"}
    extra = {"wall_serial_s": wall_serial_s,
             "wall_parallel_s": wall_parallel_s,
             "wall_speedup": (wall_serial_s / wall_parallel_s
                              if wall_parallel_s else 0.0)}
    summary = (f"{timeline['units']} units x {workers} workers: "
               f"modeled speedup {timeline['speedup']:.2f}x "
               f"({format_seconds(timeline['serial_s'])} -> "
               f"{format_seconds(timeline['makespan_s'])} simulated), "
               f"documents {'identical' if digest_match else 'DIFFER'}; "
               f"wall {wall_serial_s:.2f}s -> {wall_parallel_s:.2f}s "
               f"(informational)")
    # Never pin a baseline from a run that broke byte-identity or that
    # the pool did not speed up.
    if not args.check and not digest_match:
        print(f"parallel: FAIL — {summary}")
        return 1
    if not args.check and timeline["speedup"] < 2.0:
        print(f"parallel: FAIL — modeled speedup "
              f"{timeline['speedup']:.2f}x < 2x; {summary}")
        return 1
    code = _gate_baseline(args, "parallel", metrics, config, extra=extra)
    if code:
        return code
    print(summary)
    return 0 if digest_match else 1


def _bench_overload(args) -> int:
    """Overload-protection bench: the pinned 2x-capacity chaos cell.

    Entirely on the simulated clock, so the goodput/shed-rate numbers
    are a pure function of the seed and reproduce exactly under
    ``bench --check`` on any host.
    """
    from repro.serving.soak import (overload_bench_cell,
                                    overload_bench_metrics)
    gpu, pim = _target(args)
    cell = overload_bench_cell(gpu=gpu, pim=pim,
                               library=LIBRARIES[args.library])
    if not cell["passed"]:
        for violation in cell["violations"]:
            print(f"overload: invariant violation: {violation}")
        return 1
    metrics = overload_bench_metrics(cell)
    summary = (f"offered {metrics['offered']:.0f}, goodput "
               f"{metrics['goodput_qps']:.1f} qps, shed rate "
               f"{metrics['shed_rate']:.1%}, reject rate "
               f"{metrics['reject_rate']:.1%}")
    config = {"load": cell["load"], "chaos": cell["chaos"],
              "rate_qps": cell["rate_qps"], "gpu": gpu.name,
              "pim": pim.name if pim else None,
              "library": args.library}
    return _gate_baseline(args, "overload", metrics, config,
                          summary=summary, check_summary=summary)


def _ras_matrix(args, base, workers=None, **options) -> dict:
    """One RAS-matrix run under the --workers/--threads flags: the run
    behind ``bench --workload ras``, ``ras`` and ``ras --smoke``."""
    from repro.faults.ras_campaign import run_ras_matrix
    from repro.parallel import set_threads
    set_threads(args.threads)
    return run_ras_matrix(
        base=base, workers=args.workers if workers is None else workers,
        threads=args.threads, **options)


def _bench_ras(args) -> int:
    """Memory-RAS bench: the pinned default-cell reliability numbers.

    Wall clocks are off, so every metric is a pure function of the
    seed and reproduces exactly under ``bench --check`` on any host.
    """
    from repro.dram.reliability import ReliabilityConfig
    from repro.faults.ras_campaign import ras_baseline_metrics
    gpu, pim = _target(args)
    base = ReliabilityConfig()
    result = _ras_matrix(args, base, functional=True, record_wall=False,
                         gpu=gpu, pim=pim)
    if not result["gate"]["passed"]:
        for violation in result["gate"]["violations"]:
            print(f"ras: gate violation: {violation}")
        return 1
    metrics = ras_baseline_metrics(result)
    summary = (f"{metrics['errors_total']:.0f} errors, "
               f"{metrics['corrected']:.0f} corrected, "
               f"{metrics['uncorrected']:.0f} uncorrected, overhead "
               f"{metrics['overhead']:.2%}")
    config = {"config_digest": base.digest(), "gpu": gpu.name,
              "pim": pim.name if pim else None,
              "workload": result["workload"]}
    return _gate_baseline(args, "ras", metrics, config, summary=summary,
                          check_summary=summary)


def _bench_analytic(args) -> int:
    """Modeled time/energy/EDP of one paper application."""
    built = _framework(args)
    if built is None:
        return 1
    framework, pim, workload, params = built
    report = framework.run(workload.blocks, params.degree,
                           label=args.workload).report
    config = {"gpu": framework.gpu.name,
              "pim": pim.name if pim else None,
              "library": args.library}
    summary = (f"total {format_seconds(report.total_time)}, "
               f"{report.energy:.2f}J")
    return _gate_baseline(args, args.workload, baseline_metrics(report),
                          config, summary=summary)


#: ``bench`` workloads beyond the paper applications, which all run
#: through :func:`_bench_analytic`.
_BENCH_RUNNERS = {"functional": _bench_functional,
                  "parallel": _bench_parallel,
                  "overload": _bench_overload, "ras": _bench_ras}

#: Trend columns ``bench --history`` shows per workload; the paper
#: applications show total time, energy and EDP.
_TRENDS = {"functional": ("bootstrap_s", "key_switch_s",
                          "ntt_batch_speedup"),
           "parallel": ("throughput_speedup", "serial_s", "makespan_s"),
           "ras": ("corrected", "uncorrected", "overhead"),
           "overload": ("goodput_qps", "shed_rate", "reject_rate"),
           "faults": ("coverage", "unrecovered", "mean_overhead")}


def _bench_history(args) -> int:
    """Render the recorded run-to-run trend for one workload."""
    entries = load_history(args.dir, args.workload)
    baseline = (load_baseline(args.dir, args.workload)
                if baseline_path(args.dir, args.workload).exists()
                else None)
    print(f"bench history: {args.workload} ({len(entries)} run(s))")
    print(render_history(entries, baseline, metrics=_TRENDS.get(
        args.workload, ("total_time", "energy", "edp"))))
    return 0


def cmd_bench(args) -> int:
    if args.history:
        return _bench_history(args)
    return _BENCH_RUNNERS.get(args.workload, _bench_analytic)(args)


def _faults_baseline_metrics(result: dict) -> dict:
    """Deterministic analytic-campaign metrics for BENCH_faults.json."""
    agg = result.get("analytic_aggregate", {})
    runs = result.get("analytic", [])
    return {
        "injected": agg.get("injected", 0),
        "detected": agg.get("detected", 0),
        "coverage": agg.get("coverage", 1.0),
        "recovered_retry": agg.get("recovered_retry", 0),
        "recovered_fallback": agg.get("recovered_fallback", 0),
        "unrecovered": agg.get("unrecovered", 0),
        "mean_overhead": agg.get("mean_overhead", 0.0),
        "clean_time_s": sum(r["clean_time_s"] for r in runs),
        "faulted_time_s": sum(r["faulted_time_s"] for r in runs),
        "verify_time_s": sum(r["verify_time_s"] for r in runs),
    }


def cmd_faults(args) -> int:
    from repro.faults.campaign import run_matrix
    from repro.parallel import set_threads

    set_threads(args.threads)
    seeds = _parse_list(args.seeds, "--seeds", _parse_int)
    stuck = tuple(args.stuck_site or ())
    result = run_matrix(
        seeds=seeds, scale=args.scale, workload=args.workload,
        stuck_sites=stuck,
        functional=args.layer in ("both", "functional"),
        analytic=args.layer in ("both", "analytic"),
        record_wall=not args.no_wall,
        workers=args.workers, threads=args.threads)
    gate_ok = result["gate"]["passed"]

    _emit_artifacts(args, manifest=result)
    if args.check or args.write_baseline:
        code = _gate_baseline(
            args, "faults", _faults_baseline_metrics(result),
            {"seeds": list(seeds), "scale": args.scale,
             "workload": args.workload, "stuck_sites": list(stuck)},
            rerun="faults --write-baseline")
        if args.check:
            return code or (0 if gate_ok else 1)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
        return 0 if gate_ok else 1

    rows = []
    for key, label in (("functional_aggregate", "functional"),
                       ("analytic_aggregate", "analytic")):
        agg = result.get(key)
        if agg is None:
            continue
        extra = (f"max err {result['functional_aggregate']['max_error']:.2e}"
                 if key == "functional_aggregate"
                 else f"overhead {agg['mean_overhead']:.2%}")
        rows.append([label, agg["injected"], agg["effective"],
                     agg["detected"], f"{agg['coverage']:.1%}",
                     agg["recovered_retry"], agg["recovered_fallback"],
                     agg["unrecovered"], extra])
    print(format_table(
        ["layer", "injected", "effective", "detected", "coverage",
         "retry", "fallback", "unrecovered", "notes"],
        rows, title=f"fault campaign: seeds {list(seeds)}, "
                    f"scale {args.scale}, workload {args.workload}"))
    print(f"gate: {'PASS' if gate_ok else 'FAIL'} "
          f"(coverage >= {result['gate']['coverage_threshold']:.0%}, "
          f"no unrecovered/undetected faults, decrypt correct)")
    return 0 if gate_ok else 1


def _ras_base(args):
    from repro.dram.reliability import ReliabilityConfig
    return ReliabilityConfig(seed=args.seed)


def _pool_mismatches(serial_doc, pool_doc, serial_metrics, pool_metrics,
                     workers: int) -> list:
    """Failures of the serial-vs-pool identity a pooled smoke asserts."""
    failures = []
    if json.dumps(serial_doc, sort_keys=True) \
            != json.dumps(pool_doc, sort_keys=True):
        failures.append(f"document differs between --workers 1 and "
                        f"--workers {workers}")
    if serial_metrics.digest() != pool_metrics.digest():
        failures.append(f"metrics digest differs between --workers 1 "
                        f"and --workers {workers}")
    return failures


def _smoke_failed(name: str, failures) -> int:
    """Print a smoke's failures and its FAIL verdict; the exit code."""
    for failure in failures:
        print(f"{name} smoke: {failure}")
    print(f"{name} smoke: FAIL")
    return 1


def _ras_smoke(args) -> int:
    """Gating end-to-end memory-RAS check (``ras --smoke``).

    Runs the default RAS matrix twice — serially and across a worker
    pool — with wall clocks off, and asserts the documents and metric
    digests are byte-identical; that the gate passed with zero
    uncorrected errors in the default cell; that the scrubber and ECC
    actually engaged; and that scrub overhead stayed under the bound.
    """
    base = _ras_base(args)
    workers = args.workers if args.workers > 1 else 4

    def one_run(n_workers, registry):
        return _ras_matrix(args, base, workers=n_workers,
                           workload=args.workload, functional=True,
                           record_wall=False, metrics=registry)

    serial_metrics = MetricsRegistry()
    pool_metrics = MetricsRegistry()
    serial_doc = one_run(1, serial_metrics)
    pool_doc = one_run(workers, pool_metrics)
    cell = serial_doc["default_cell"]
    ras = cell["ras"]
    failures = _pool_mismatches(serial_doc, pool_doc, serial_metrics,
                                pool_metrics, workers)
    if not serial_doc["gate"]["passed"]:
        for violation in serial_doc["gate"]["violations"]:
            failures.append(f"gate violation: {violation}")
    if ras["uncorrected"] != 0:
        failures.append(f"default cell left {ras['uncorrected']} "
                        f"uncorrected error(s)")
    if ras["corrected"] == 0:
        failures.append("ECC never corrected anything; the retention "
                        "model did not engage")
    if sum(ras["scrub_passes"].values()) == 0:
        failures.append("the scrubber never ran a pass")
    if cell["overhead"] >= serial_doc["gate"]["overhead_bound"]:
        failures.append(f"scrub overhead {cell['overhead']:.4f} over "
                        f"bound {serial_doc['gate']['overhead_bound']}")
    if failures:
        return _smoke_failed("ras", failures)
    print(f"ras smoke: PASS ({ras['errors_total']} errors: "
          f"{ras['corrected']} corrected, {ras['detected']} detected, "
          f"{ras['escaped']} escaped, 0 uncorrected; "
          f"{sum(ras['scrub_passes'].values())} scrub pass(es), "
          f"overhead {cell['overhead']:.2%}; documents and metric "
          f"digests identical for workers 1 and {workers}; "
          f"digest {serial_metrics.digest()[:12]})")
    return 0


def cmd_ras(args) -> int:
    from repro.faults.ras_campaign import ras_baseline_metrics

    if args.smoke:
        return _ras_smoke(args)
    rates = _parse_list(args.retention_rates, "--retention-rates",
                        _parse_positive_float)
    intervals = _parse_list(args.scrub_intervals, "--scrub-intervals",
                            _parse_positive_float)
    base = _ras_base(args)
    result = _ras_matrix(
        args, base, retention_rates=rates, scrub_intervals=intervals,
        workload=args.workload, functional=args.layer == "both",
        record_wall=not args.no_wall)
    gate_ok = result["gate"]["passed"]

    _emit_artifacts(args, manifest=result)
    if args.check or args.write_baseline:
        if base.retention_rate not in rates \
                or base.scrub_interval_s not in intervals:
            print("error: baseline metrics come from the default cell; "
                  "the sweep must include the default retention rate "
                  "and scrub interval", file=sys.stderr)
            return 1
        code = _gate_baseline(
            args, "ras", ras_baseline_metrics(result),
            {"seed": args.seed, "workload": args.workload,
             "retention_rates": list(rates),
             "scrub_intervals": list(intervals),
             "config_digest": base.digest()},
            rerun="ras --write-baseline")
        if args.check:
            return code or (0 if gate_ok else 1)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
        return 0 if gate_ok else 1

    rows = []
    for cell in result["cells"]:
        ras = cell["ras"]
        rows.append([f"{cell['retention_rate']:g}",
                     f"{cell['scrub_interval_s']:g}",
                     ras["errors_total"], ras["corrected"],
                     ras["detected"], ras["escaped"],
                     ras["uncorrected"],
                     sum(ras["scrub_passes"].values()),
                     sum(ras["remaps"].values()),
                     f"{cell['overhead']:.2%}"])
    print(format_table(
        ["rate/s", "scrub s", "errors", "corrected", "detected",
         "escaped", "uncorr", "scrubs", "remaps", "overhead"],
        rows, title=f"memory RAS matrix: workload {args.workload}, "
                    f"seed {args.seed}"))
    func = result.get("functional")
    if func is not None:
        print(f"functional: {func['events']} retention event(s), "
              f"{func['ecc_corrected']} ECC-corrected, "
              f"{func['ecc_detected']} detected, "
              f"{func['checksum_caught']} escape(s) caught by checksum, "
              f"max err {func['max_error']:.2e}")
    print(f"gate: {'PASS' if gate_ok else 'FAIL'} "
          f"(zero uncorrected errors, default-cell overhead < "
          f"{result['gate']['overhead_bound']:.0%}, decrypt correct)")
    return 0 if gate_ok else 1


def _parse_positive_float(text, name: str) -> float:
    """A strictly positive float from a CLI token.

    RAS flags are declared as strings and parsed here so a bad value
    raises :class:`ParameterError` — one line on stderr and exit 1,
    not argparse's usage dump.
    """
    if text is None:
        return None
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {text!r}")
    if not value > 0 or value != value or value == float("inf"):
        raise ParameterError(f"{name} must be positive and finite, "
                             f"got {text!r}")
    return value


def _parse_int(text, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{name} must list integers, got {text!r}")


def _parse_list(text, name: str, parse) -> tuple:
    """A comma-separated CLI list, each token through ``parse(token,
    name)``; a bad token is a :class:`ParameterError`, not a traceback."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ParameterError(f"{name} must list at least one value, "
                             f"got {text!r}")
    return tuple(parse(token, name) for token in tokens)


def _serve_policy(args):
    from repro.serving import ServePolicy
    return ServePolicy(
        seed=args.seed,
        max_retries=args.max_retries,
        deadline_s=args.deadline,
        kernel_timeout_s=args.kernel_timeout,
        checkpoint_every=args.checkpoint_every,
        degraded_after=args.degraded_after,
        gpu_only_after=args.gpu_only_after,
        seeds=_parse_list(args.seeds, "--seeds", _parse_int),
        fault_seed=args.fault_seed,
        fault_scale=args.scale,
        stuck_sites=tuple(args.stuck_site or ()),
        scrub_interval_s=_parse_positive_float(
            getattr(args, "scrub_interval", None), "--scrub-interval"),
        retention_rate=_parse_positive_float(
            getattr(args, "retention_rate", None), "--retention-rate"))


def _admission_policy(args):
    from repro.serving import AdmissionPolicy
    return AdmissionPolicy(
        queue_cap=args.queue_cap,
        high_watermark=args.high_watermark,
        low_watermark=args.low_watermark,
        shed_policy=args.shed_policy,
        deadline_slack=args.deadline_slack,
        brownout_after=args.brownout_after,
        brownout_deadline_factor=args.brownout_deadline_factor)


def _overload_traffic(args):
    """(arrival spec, tenants, chaos events) from the CLI flags."""
    from repro.serving import parse_arrival_spec, parse_tenants
    from repro.serving.overload import chaos_events
    tenants = parse_tenants(args.tenants)
    spec = parse_arrival_spec(args.arrivals, args.duration,
                              seed=args.seed)
    chaos = (chaos_events(args.fault_seed, args.duration,
                          scale=args.scale)
             if args.fault_seed is not None else ())
    return spec, tenants, chaos


def _run_overload(args, workers=None, metrics=None, worker_metrics=None,
                  on_unit=None):
    """One ``serve --arrivals`` pass: simulate admission, execute."""
    from repro.parallel import set_threads
    from repro.serving import run_overload_serve
    set_threads(args.threads)
    spec, tenants, chaos = _overload_traffic(args)
    gpu, pim = _target(args)
    return run_overload_serve(
        spec, tenants, _admission_policy(args), _serve_policy(args),
        gpu=gpu, pim=pim, library=LIBRARIES[args.library], chaos=chaos,
        metrics=metrics, workers=workers if workers is not None
        else args.workers, threads=args.threads,
        checkpoint_path=getattr(args, "checkpoint", None),
        resume_path=getattr(args, "resume", None),
        checkpoint_keep=getattr(args, "checkpoint_keep", None),
        max_units=getattr(args, "max_units", None), on_unit=on_unit,
        worker_metrics=worker_metrics)


def _admission_lines(summary) -> list:
    """Human-readable admission/queue picture for serve/top output."""
    rejected = ", ".join(f"{k} {v}" for k, v in summary["rejected"].items()
                         if v)
    shed = ", ".join(f"{k} {v}" for k, v in summary["shed"].items() if v)
    queue = summary["queue"]
    lines = [
        f"admission: offered {summary['offered']} "
        f"({summary['offered_qps']:.1f} qps) -> admitted "
        f"{summary['admitted']}, rejected {summary['rejected_total']}"
        + (f" ({rejected})" if rejected else "")
        + f", shed {summary['shed_total']}"
        + (f" ({shed})" if shed else ""),
        f"queue: peak depth {queue['peak_depth']}/{queue['cap']}, wait "
        f"p50 {format_seconds(queue['wait_p50_s'])} p95 "
        f"{format_seconds(queue['wait_p95_s'])}; goodput "
        f"{summary['goodput_qps']:.1f} qps, shed rate "
        f"{summary['shed_rate']:.1%}",
    ]
    if summary["brownout"] is not None:
        lines.append(f"brownout: {summary['brownout']['state']} "
                     f"({len(summary['brownout']['events'])} "
                     f"escalation(s))")
    return lines


def _serve_overload(args) -> int:
    """serve --arrivals: the end-to-end overload-protected pipeline."""
    metrics = MetricsRegistry()
    worker_metrics = MetricsRegistry() if args.workers > 1 else None
    document, runner = _run_overload(args, metrics=metrics,
                                     worker_metrics=worker_metrics)
    summary = document["admission"]["summary"]
    _emit_artifacts(args, manifest=document)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        rows = []
        for job in document["jobs"]:
            done = sum(1 for u in job["units"].values()
                       if u.get("status") == "ok")
            rows.append([job["id"], job["kind"], job["status"],
                         f"{done}/{len(job['units'])}", job["retries"]])
        print(format_table(
            ["job", "kind", "status", "units", "retries"], rows,
            title=f"serve: {len(document['jobs'])} dispatched job(s), "
                  f"resumed {runner.resumed_units} unit(s)"))
        for line in _admission_lines(summary):
            print(line)
        if document["interrupted"]:
            print("interrupted by --max-units; progress checkpointed")
    if document["interrupted"]:
        return 2
    return 0 if document["ok"] else 1


def _overload_smoke(args) -> int:
    """Gating end-to-end overload check (serve --smoke --arrivals).

    Runs the same arrival stream through admission + execution twice —
    serially and across a worker pool — and asserts the decisions,
    documents, and metric digests are byte-identical; that the
    overload actually engaged (something rejected or shed); and that
    the admit/complete/shed accounting conserves every offered job.
    """
    serial_metrics = MetricsRegistry()
    pool_metrics = MetricsRegistry()
    workers = args.workers if args.workers > 1 else 4
    serial_doc, _ = _run_overload(args, workers=1,
                                  metrics=serial_metrics)
    pool_doc, _ = _run_overload(args, workers=workers,
                                metrics=pool_metrics,
                                worker_metrics=MetricsRegistry())
    summary = serial_doc["admission"]["summary"]
    failures = _pool_mismatches(serial_doc, pool_doc, serial_metrics,
                                pool_metrics, workers)
    if summary["rejected_total"] + summary["shed_total"] == 0:
        failures.append("overload never engaged (nothing rejected or "
                        "shed); raise --arrivals rate")
    if summary["offered"] != summary["admitted"] \
            + summary["rejected_total"]:
        failures.append("offered != admitted + rejected")
    if summary["admitted"] != summary["completed"] \
            + summary["shed_total"]:
        failures.append("admitted != completed + shed")
    if len(serial_doc["jobs"]) != summary["completed"]:
        failures.append(f"executed {len(serial_doc['jobs'])} job(s) but "
                        f"the simulation dispatched "
                        f"{summary['completed']}")
    if failures:
        return _smoke_failed("overload", failures)
    print(f"overload smoke: PASS (offered {summary['offered']}, "
          f"admitted {summary['admitted']}, rejected "
          f"{summary['rejected_total']}, shed {summary['shed_total']}, "
          f"completed {summary['completed']}; decisions, documents, "
          f"and metric digests identical for workers 1 and {workers}; "
          f"digest {serial_metrics.digest()[:12]})")
    return 0


def cmd_soak(args) -> int:
    """Chaos soak campaign: overload x chaos grid on the sim clock."""
    from repro.serving import parse_tenants
    from repro.serving.soak import run_soak
    gpu, pim = _target(args)
    loads = _parse_list(args.loads, "--loads", _parse_positive_float)
    chaos_kinds = tuple(args.chaos.split(","))
    for kind in chaos_kinds:
        if kind not in ("none", "faults"):
            print(f"error: unknown chaos kind {kind!r} (expected "
                  f"none/faults)", file=sys.stderr)
            return 2
    document = run_soak(
        seed=args.seed, duration_s=args.duration, loads=loads,
        chaos_kinds=chaos_kinds, process=args.process,
        tenants=parse_tenants(args.tenants),
        policy=_admission_policy(args), gpu=gpu, pim=pim,
        library=LIBRARIES[args.library],
        fault_seed=args.fault_seed if args.fault_seed is not None else 0,
        fault_scale=args.scale)
    gate = document["gate"]
    _emit_artifacts(args, manifest=document)
    if args.json:
        print(json.dumps(document, indent=2))
        return 0 if gate["passed"] else 1
    rows = []
    for cell in document["cells"]:
        summary = cell["summary"]
        rows.append([
            f"{cell['load']:g}x", cell["chaos"], summary["offered"],
            summary["admitted"], summary["completed"],
            summary["rejected_total"], summary["shed_total"],
            f"{summary['goodput_qps']:.1f}",
            summary["brownout"]["state"],
            "ok" if cell["passed"] else "FAIL"])
    print(format_table(
        ["load", "chaos", "offered", "admitted", "completed", "rejected",
         "shed", "goodput", "brownout", "invariants"],
        rows, title=f"soak: capacity {document['capacity_qps']:.1f} qps, "
                    f"{args.duration:g}s per cell, seed {args.seed}"))
    for violation in gate["violations"]:
        print(f"  violation: {violation}")
    print(f"gate: {'PASS' if gate['passed'] else 'FAIL'} "
          f"(conservation + bounded queue in every cell; overloaded "
          f"cells must shed or reject)")
    return 0 if gate["passed"] else 1


def _serve_runner(args, jobs, policy, checkpoint=None, resume=None,
                  max_units=None, metrics=None, worker_metrics=None,
                  on_unit=None):
    from repro.parallel import set_threads
    from repro.serving import JobRunner
    set_threads(args.threads)
    gpu, pim = _target(args)
    return JobRunner(jobs, policy, gpu=gpu, pim=pim,
                     library=LIBRARIES[args.library],
                     checkpoint_path=checkpoint, resume_path=resume,
                     checkpoint_keep=getattr(args, "checkpoint_keep",
                                             None),
                     max_units=max_units, metrics=metrics,
                     on_unit=on_unit, workers=args.workers,
                     threads=args.threads, worker_metrics=worker_metrics)


def _serve_smoke(args) -> int:
    """Gating end-to-end exercise of the resilience stack.

    Runs a tiny analytic fault campaign with two stuck PIM sites and a
    degradation threshold low enough that quarantines drive the health
    monitor to GPU_ONLY; kills the campaign after one unit; resumes it
    from the checkpoint; and asserts the resumed document is
    byte-identical to the uninterrupted run's, with the degradation
    events present in both.
    """
    import dataclasses
    import os
    import tempfile
    from repro.serving import parse_jobs

    jobs = parse_jobs(["faults:analytic:Boot"])
    policy = _serve_policy(args)
    # Tiny matrix with faults aggressive enough to exercise degradation:
    # two stuck PIM sites and GPU_ONLY after two quarantines.
    policy = dataclasses.replace(
        policy,
        seeds=policy.seeds if args.seeds != "0,1,2" else (0, 1),
        stuck_sites=policy.stuck_sites or (1, 5),
        degraded_after=1,
        gpu_only_after=min(policy.gpu_only_after, 2))
    clean = _serve_runner(args, jobs, policy).run()

    with tempfile.TemporaryDirectory(prefix="anaheim-serve-") as tmp:
        ckpt = os.path.join(tmp, "smoke.ckpt.json")
        killed = _serve_runner(args, jobs, policy, checkpoint=ckpt,
                               max_units=1).run()
        if not killed["interrupted"]:
            return _smoke_failed("serve", [
                "kill at --max-units 1 did not interrupt the campaign"])
        runner = _serve_runner(args, jobs, policy, checkpoint=ckpt,
                               resume=ckpt)
        resumed = runner.run()

    clean_text = json.dumps(clean, indent=2)
    resumed_text = json.dumps(resumed, indent=2)
    if clean_text != resumed_text:
        return _smoke_failed("serve", [
            "resumed document differs from the uninterrupted run"])
    if runner.resumed_units == 0:
        return _smoke_failed("serve", [
            "resume replayed every unit; the checkpoint was not used"])
    states = [unit["result"]["summary"]["degradation"]["state"]
              for unit in clean["jobs"][0]["units"].values()
              if unit.get("status") == "ok"]
    if "gpu-only" not in states:
        return _smoke_failed("serve", [
            f"expected GPU_ONLY degradation under stuck sites "
            f"{list(policy.stuck_sites)}; got {states}"])
    _emit_artifacts(args, manifest=clean)
    n = len(clean["jobs"][0]["units"])
    pool = f"; {args.workers} workers" if args.workers > 1 else ""
    print(f"serve smoke: PASS ({n} units; resumed {runner.resumed_units} "
          f"from checkpoint, byte-identical document; degradation "
          f"states {states}{pool})")
    return 0 if clean["ok"] else 1


def cmd_serve(args) -> int:
    from repro.serving import parse_jobs

    if args.arrivals:
        return _overload_smoke(args) if args.smoke \
            else _serve_overload(args)
    if args.smoke:
        return _serve_smoke(args)
    if not args.jobs:
        print("error: serve needs --jobs, --arrivals, or --smoke",
              file=sys.stderr)
        return 2
    jobs = parse_jobs(args.jobs)
    runner = _serve_runner(args, jobs, _serve_policy(args),
                           checkpoint=args.checkpoint, resume=args.resume,
                           max_units=args.max_units)
    document = runner.run()
    _emit_artifacts(args, manifest=document)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        rows = []
        for job in document["jobs"]:
            done = sum(1 for u in job["units"].values()
                       if u.get("status") == "ok")
            rows.append([job["id"], job["kind"], job["status"],
                         f"{done}/{len(job['units'])}", job["retries"],
                         format_seconds(job["service_time_s"])])
        print(format_table(
            ["job", "kind", "status", "units", "retries", "backoff"],
            rows, title=f"serve: {len(document['jobs'])} job(s), "
                        f"resumed {runner.resumed_units} unit(s)"))
        if document["interrupted"]:
            print("interrupted by --max-units; progress checkpointed")
    if document["interrupted"]:
        return 2
    return 0 if document["ok"] else 1


# -- Metrics & telemetry -------------------------------------------------------


def _metrics_smoke(args) -> int:
    """Gating metrics self-check (the CI step).

    Runs the small hoisted-transform workload twice with fresh
    registries and asserts: the Prometheus exposition parses and passes
    the format/monotonicity validation; the utilization accounting
    closes within 1e-9 of the report timeline; and the two runs produce
    byte-identical snapshot digests.
    """
    def one_run():
        registry = MetricsRegistry()
        params = paper_params()
        blocks = hoisted_block(params.level_count, params.aux_count,
                               params.dnum, rotations=4)
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK,
                                     keep_segments=True, metrics=registry)
        report = framework.run(blocks, params.degree,
                               label="metrics-smoke").report
        util = UtilizationReport.from_report(report, gpu=A100_80GB,
                                             pim=A100_NEAR_BANK)
        util.record(registry)
        return registry, util

    first, util = one_run()
    second, _ = one_run()
    failures = []
    parsed = None
    text = first.render_prometheus()
    try:
        parsed = parse_prometheus(text)
    except ReproError as exc:
        failures.append(f"exposition failed validation: {exc}")
    if parsed is not None and not parsed["samples"]:
        failures.append("exposition contains no samples")
    if not util.accounting_error < 1e-9:
        failures.append(f"utilization accounting error "
                        f"{util.accounting_error:.3e} >= 1e-9")
    if first.digest() != second.digest():
        failures.append("two identical runs produced different snapshot "
                        "digests")
    if failures:
        return _smoke_failed("metrics", failures)
    print(f"metrics smoke: PASS ({len(parsed['samples'])} samples, "
          f"digest {first.digest()[:12]}, accounting error "
          f"{util.accounting_error:.2e})")
    return 0


#: (display label, tracer-counter prefix) of the functional engine's
#: cache-style counters, reported as hit rates.
_FUNCTIONAL_RATES = (("diag cache", "ckks.diag_cache"),
                     ("monomial cache", "ckks.monomial_cache"),
                     ("bconv tables", "ckks.bconv_tables"),
                     ("ntt tables", "ckks.ntt_tables"))


def _metrics_functional(args, registry, events):
    """Fold the functional CKKS engine counters into the registry."""
    tracer = Tracer()
    result = _run_functional(args, tracer=tracer)
    counters = result["counters"]
    family = registry.counter("anaheim_functional_events_total",
                              "Functional CKKS engine counters",
                              labelnames=("event",))
    for name in sorted(counters):
        if counters[name]:
            family.inc(counters[name], event=name)
    rates = registry.gauge("anaheim_functional_hit_rate",
                           "Engine cache hit rates (0..1)",
                           labelnames=("cache",))
    lines = ["functional CKKS engine utilization:"]
    for label, prefix in _FUNCTIONAL_RATES:
        hit = counters.get(f"{prefix}.hit", 0)
        total = hit + counters.get(f"{prefix}.miss", 0)
        rate = hit / total if total else 0.0
        rates.set(rate, cache=prefix.split(".", 1)[1])
        lines.append(f"  {label:<16} {rate:7.2%}  ({hit}/{total} lookups)")
    bench = result["metrics"]
    lines.append(f"  bootstrap {format_seconds(bench['bootstrap_s'])}, "
                 f"NTT batch speedup {bench['ntt_batch_speedup']:.2f}x")
    events.emit("functional_bench", metrics=bench,
                precision_max_err=result["precision_max_err"])
    return lines


def cmd_metrics(args) -> int:
    """One instrumented run, exported as prom text / JSON / JSONL."""
    if args.smoke:
        return _metrics_smoke(args)
    registry = MetricsRegistry()
    events = EventLog()
    util = None
    if args.workload == "functional":
        util_lines = _metrics_functional(args, registry, events)
    else:
        built = _framework(args, keep_segments=True, metrics=registry)
        if built is None:
            return 1
        framework, pim, workload, params = built
        report = framework.run(workload.blocks, params.degree,
                               label=args.workload).report
        util = UtilizationReport.from_report(report, gpu=framework.gpu,
                                             pim=pim)
        util.record(registry)
        events.emit("run", workload=args.workload, gpu=framework.gpu.name,
                    pim=pim.name if pim else None,
                    total_time=report.total_time, energy=report.energy)
        events.emit("utilization", **util.as_dict())
        util_lines = util.render().splitlines()
    if args.format == "prom":
        output = registry.render_prometheus()
    elif args.format == "json":
        output = json.dumps({"digest": registry.digest(),
                             "snapshot": registry.snapshot()},
                            indent=2) + "\n"
    else:
        output = events.to_jsonl()
    if args.out:
        _write_text(args.out, output, f"metrics ({args.format})")
    else:
        print(output, end="")
    if args.events_out:
        _write_text(args.events_out, events.to_jsonl(), "event log")
    if args.utilization:
        print("\n".join(util_lines))
    return 0


def _top_overload(args) -> int:
    """top --arrivals: per-unit progress, then the queue columns."""
    from repro.serving.jobs import _unit_seconds

    done = {"n": 0}

    def on_unit(job, unit, doc, fresh):
        done["n"] += 1
        status = doc.get("status", "ok")
        seconds = _unit_seconds(job.kind, doc)
        note = ("restored" if not fresh
                else f"{format_seconds(seconds)} sim"
                if seconds is not None else "-")
        print(f"[{done['n']:>3}] {job.id:<16} {unit:<20} {status:<18} "
              f"{note}")

    registry = MetricsRegistry()
    worker_registry = MetricsRegistry() if args.workers > 1 else None
    document, runner = _run_overload(args, metrics=registry,
                                     worker_metrics=worker_registry,
                                     on_unit=on_unit)
    summary = document["admission"]["summary"]
    queue = summary["queue"]
    print()
    print(format_table(
        ["depth (peak)", "cap", "admitted", "rejected", "shed",
         "wait p50", "wait p95"],
        [[queue["peak_depth"], queue["cap"], summary["admitted"],
          summary["rejected_total"], summary["shed_total"],
          format_seconds(queue["wait_p50_s"]),
          format_seconds(queue["wait_p95_s"])]],
        title="queue"))
    for line in _admission_lines(summary):
        print(line)
    if args.metrics_out:
        _write_text(args.metrics_out, registry.render_prometheus(),
                    "metrics (prom)")
    if document["interrupted"]:
        return 2
    return 0 if document["ok"] else 1


def cmd_top(args) -> int:
    """Live-ish serve progress: a line per unit as it lands, then the
    latency/retry/degradation picture from the metrics registry."""
    from repro.serving import JobRunner, parse_jobs
    from repro.serving.jobs import _unit_seconds

    if args.arrivals:
        return _top_overload(args)
    if not args.jobs:
        print("error: top needs --jobs or --arrivals", file=sys.stderr)
        return 2
    jobs = parse_jobs(args.jobs)
    policy = _serve_policy(args)
    registry = MetricsRegistry()
    total = sum(len(job.units(policy.seeds)) for job in jobs)
    done = {"n": 0}

    def on_unit(job, unit, doc, fresh):
        done["n"] += 1
        status = doc.get("status", "ok")
        seconds = _unit_seconds(job.kind, doc)
        note = ("restored" if not fresh
                else f"{format_seconds(seconds)} sim"
                if seconds is not None else "-")
        print(f"[{done['n']:>3}/{total}] {job.id:<10} {unit:<20} "
              f"{status:<18} {note}")

    import time as _time
    worker_registry = MetricsRegistry() if args.workers > 1 else None
    runner = _serve_runner(args, jobs, policy,
                           checkpoint=args.checkpoint,
                           resume=args.resume, metrics=registry,
                           worker_metrics=worker_registry,
                           on_unit=on_unit)
    wall_start = _time.perf_counter()
    document = runner.run()
    wall_s = _time.perf_counter() - wall_start

    def value(name, **labels):
        metric = registry.get(name)
        return metric.value(**labels) if metric is not None else 0.0

    print()
    print(f"units {done['n']}/{total} "
          f"(restored {int(value('anaheim_serve_units_restored_total'))})"
          f"  retries {int(value('anaheim_serve_retries_total'))}"
          f"  backoff {format_seconds(value('anaheim_serve_backoff_seconds_total'))}"
          f"  deadline skips "
          f"{int(value('anaheim_serve_deadline_skips_total'))}")
    hist = registry.get("anaheim_serve_unit_seconds")
    if hist is not None and hist.snapshot_samples():
        rows = []
        for sample in hist.snapshot_samples():
            labels = sample["labels"]
            rows.append([labels["kind"], labels["workload"],
                         sample["count"],
                         format_seconds(hist.quantile(0.5, **labels)),
                         format_seconds(hist.quantile(0.95, **labels))])
        print(format_table(["kind", "workload", "units", "p50", "p95"],
                           rows, title="unit latency (simulated)"))
    state = registry.get("anaheim_degradation_state")
    if state is not None and state.snapshot_samples():
        names = ("healthy", "pim-degraded", "gpu-only", "failed")
        level = int(state.value())
        print(f"degradation: {names[min(level, 3)]}")
    if runner.worker_status:
        rows = []
        for label in sorted(runner.worker_status):
            status = runner.worker_status[label]
            busy = status["busy_s"] / wall_s if wall_s > 0 else 0.0
            rows.append([label, status["units"], f"{busy:.0%}",
                         status["last_unit"]])
        print(format_table(["worker", "units", "busy", "last unit"],
                           rows, title=f"pool: {args.workers} workers, "
                                       f"{wall_s:.2f}s wall"))
    if args.metrics_out:
        export = registry
        if worker_registry is not None:
            # Worker telemetry (wall-clock based) lives in its own
            # registry so the serve families stay digest-identical to
            # a serial run; fold it in only for this export.
            export = MetricsRegistry()
            export.merge(registry)
            export.merge(worker_registry)
        _write_text(args.metrics_out, export.render_prometheus(),
                    "metrics (prom)")
    if document["interrupted"]:
        return 2
    return 0 if document["ok"] else 1


def cmd_profile(args) -> int:
    tracer = Tracer()
    if args.workload == "functional":
        result = _run_functional(args, tracer=tracer)
        metrics = result["metrics"]
        print(f"functional CKKS layer: bootstrap "
              f"{format_seconds(metrics['bootstrap_s'])}, key switch "
              f"{format_seconds(metrics['key_switch_s'])}, NTT batch "
              f"speedup {metrics['ntt_batch_speedup']:.2f}x")
        print()
        print(render_counters(tracer))
        return 0
    built = _framework(args, keep_segments=args.trace_out is not None,
                       tracer=tracer)
    if built is None:
        return 1
    framework, pim, workload, params = built
    report = framework.run(workload.blocks, params.degree,
                           label=args.workload).report
    target = f"{framework.gpu.name}" + (f" + {pim.name}" if pim else "")
    print(f"{args.workload} on {target}: simulated "
          f"{format_seconds(report.total_time)}, modeled in "
          f"{format_seconds(tracer.total_time())} wall clock")
    print()
    print(render_span_tree(tracer))
    print()
    print(render_counters(tracer))
    if args.trace_out:
        print()
        _write_artifact(args.trace_out,
                        merge_traces(chrome_trace_from_tracer(tracer),
                                     chrome_trace_from_report(report)),
                        "trace", quiet=False)
    return 0


# -- Parser --------------------------------------------------------------------


def _add_device_flags(parser) -> None:
    """--gpu/--pim/--library, read back by :func:`_target`."""
    parser.add_argument("--gpu", default="a100", choices=sorted(GPUS))
    parser.add_argument("--pim", default="near-bank",
                        choices=["near-bank", "custom-hbm", "none"])
    parser.add_argument("--library", default="Cheddar",
                        choices=sorted(LIBRARIES))


def _add_target_flags(parser, extra_workloads=()) -> None:
    # Workload names are validated by apps.build (a clean one-line
    # error), not by argparse choices — the workload table is data, and
    # an unknown name should not dump a usage traceback.
    names = sorted(apps.WORKLOADS) + sorted(extra_workloads)
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(names)}")
    _add_device_flags(parser)


def _add_serve_flags(parser) -> None:
    """Target + ServePolicy flags shared by ``serve`` and ``top``."""
    _add_device_flags(parser)
    parser.add_argument("--seed", type=int, default=0,
                        help="service seed (drives backoff jitter)")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retry budget per unit (default 2)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock deadline; overrunning "
                             "jobs stop between units")
    parser.add_argument("--kernel-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-kernel simulated-time timeout (hung PIM "
                             "kernels are killed and rerouted to the GPU)")
    parser.add_argument("--seeds", default="0,1,2",
                        help="campaign seeds for faults jobs")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fault-rate multiplier for attached plans")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="attach a fault plan to run/bench jobs")
    parser.add_argument("--stuck-site", type=int, action="append",
                        help="persistent stuck-at PIM site (repeatable)")
    parser.add_argument("--scrub-interval", metavar="SECONDS",
                        help="attach the memory RAS layer with this "
                             "scrub interval (simulated seconds)")
    parser.add_argument("--retention-rate", metavar="RATE",
                        help="attach the memory RAS layer with this "
                             "retention error rate (errors/s/region)")
    parser.add_argument("--degraded-after", type=int, default=1,
                        help="quarantined sites before PIM_DEGRADED")
    parser.add_argument("--gpu-only-after", type=int, default=3,
                        help="quarantined sites before GPU_ONLY")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        help="units between checkpoint writes (default 1)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for fresh units (documents "
                             "and digests byte-identical to --workers 1)")
    parser.add_argument("--threads", type=int, default=1,
                        help="kernel threads per worker (threaded "
                             "limb-plane NTT/BConv)")


def _add_admission_flags(parser) -> None:
    """AdmissionPolicy knobs shared by serve/top/soak."""
    parser.add_argument("--queue-cap", type=int, default=16,
                        help="bounded-queue capacity (default 16)")
    parser.add_argument("--high-watermark", type=int, default=None,
                        help="queue depth that triggers shedding "
                             "(default 3*cap/4)")
    parser.add_argument("--low-watermark", type=int, default=None,
                        help="depth shedding drains down to "
                             "(default cap/2)")
    parser.add_argument("--shed-policy", default="priority",
                        choices=["priority", "none"],
                        help="watermark shedding: drop lowest-priority-"
                             "newest jobs, or never shed")
    parser.add_argument("--deadline-slack", type=float, default=1.0,
                        help="margin on predicted completion vs deadline "
                             "at admission (default 1.0)")
    parser.add_argument("--brownout-after", type=int, default=8,
                        help="arrivals under sustained queue pressure "
                             "before brownout (default 8)")
    parser.add_argument("--brownout-deadline-factor", type=float,
                        default=2.0,
                        help="deadline widening per brownout level "
                             "(default 2.0)")
    parser.add_argument("--tenants", default="",
                        help="tenant weights as name:weight[,..] over "
                             "premium/standard/batch (default: all, "
                             "paper mix)")


def _add_arrivals_flags(parser) -> None:
    """Open-loop traffic flags shared by serve and top."""
    parser.add_argument("--arrivals", metavar="SPEC",
                        help="open-loop arrival process: poisson:<qps> "
                             "or burst:<qps>[:<factor>[:<period_s>]] "
                             "(enables admission control)")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="simulated seconds of traffic (default 2)")
    _add_admission_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anaheim-repro",
        description="Anaheim (HPCA 2025) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the evaluation workloads")

    run = sub.add_parser("run", help="model a workload on a configuration")
    _add_target_flags(run)
    run.add_argument("--breakdown", action="store_true",
                     help="print the per-category time breakdown")
    run.add_argument("--fault-seed", type=int, default=None,
                     help="attach a default fault plan with this seed "
                          "(resilient scheduling; summary in manifest)")
    run.add_argument("--fault-scale", type=float, default=1.0,
                     help="multiplier on the default fault rates")
    _add_obs_flags(run)

    gantt = sub.add_parser("gantt",
                           help="Gantt chart of a hoisted linear transform")
    gantt.add_argument("--rotations", type=int, default=8)
    gantt.add_argument("--width", type=int, default=100)
    _add_obs_flags(gantt)

    micro = sub.add_parser("microbench",
                           help="per-instruction PIM cost table")
    micro.add_argument("--buffer", type=int, default=16)
    _add_obs_flags(micro)

    bench = sub.add_parser(
        "bench", help="write or check a BENCH_<workload>.json baseline")
    _add_target_flags(bench, extra_workloads=_BENCH_RUNNERS)
    bench.add_argument("--dir", default=".",
                       help="directory holding baseline files")
    bench.add_argument("--workers", type=int, default=4,
                       help="worker processes for the `parallel` "
                            "workload (default 4)")
    bench.add_argument("--threads", type=int, default=1,
                       help="kernel threads per worker for the "
                            "`parallel` workload")
    bench.add_argument("--units", type=int, default=8,
                       help="analytic campaign units for the `parallel` "
                            "workload (default 8)")
    bench.add_argument("--check", action="store_true",
                       help="compare a fresh run against the stored "
                            "baseline; exit nonzero on regression")
    bench.add_argument("--tolerance", type=float, default=0.02,
                       help="relative tolerance per metric (default 0.02; "
                            "use a generous value for the wall-clock "
                            "`functional` workload)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing trials per metric for the `functional` "
                            "workload (best-of; default 3)")
    bench.add_argument("--history", action="store_true",
                       help="print the recorded run-to-run trend "
                            "(every bench run appends to "
                            "history/<workload>.jsonl under --dir)")

    profile = sub.add_parser(
        "profile", help="span-tree wall-clock profile of one modeled run")
    _add_target_flags(profile, extra_workloads=("functional",))
    profile.add_argument("--trace-out", metavar="FILE",
                         help="also write wall-clock spans + simulated "
                              "schedule as a Chrome trace file")

    faults = sub.add_parser(
        "faults", help="run a fault-injection campaign matrix "
                       "(coverage + overhead; nonzero exit on gate fail)")
    faults.add_argument("--seeds", default="0,1,2",
                        help="comma-separated campaign seeds")
    faults.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on the default fault rates")
    faults.add_argument("--workload", default="Boot",
                        help="analytic-campaign workload (default Boot)")
    faults.add_argument("--stuck-site", type=int, action="append",
                        help="add a persistent stuck-at fault at this "
                             "PIM site (repeatable)")
    faults.add_argument("--layer", default="both",
                        choices=["both", "functional", "analytic"])
    faults.add_argument("--no-wall", action="store_true",
                        help="omit the functional layer's wall-clock "
                             "field; the document becomes a pure "
                             "function of seeds/scale/workload")
    faults.add_argument("--workers", type=int, default=1,
                        help="worker processes for campaign units "
                             "(results byte-identical to --workers 1)")
    faults.add_argument("--threads", type=int, default=1,
                        help="kernel threads per worker (threaded "
                             "limb-plane NTT/BConv)")
    faults.add_argument("--dir", default=".",
                        help="directory holding BENCH_faults.json")
    faults.add_argument("--write-baseline", action="store_true",
                        help="record the analytic campaign metrics as "
                             "BENCH_faults.json")
    faults.add_argument("--check", action="store_true",
                        help="compare against the stored BENCH_faults.json")
    faults.add_argument("--tolerance", type=float, default=0.02)
    faults.add_argument("--json", action="store_true",
                        help="emit the full campaign document as JSON")
    faults.add_argument("--manifest", metavar="FILE",
                        help="write the campaign document to a file")

    ras = sub.add_parser(
        "ras", help="run the memory RAS campaign matrix (retention "
                    "rate x scrub interval; nonzero exit on gate fail)")
    ras.add_argument("--seed", type=int, default=0,
                     help="reliability model seed (default 0)")
    ras.add_argument("--workload", default="Boot",
                     help="analytic workload to guard (default Boot)")
    ras.add_argument("--retention-rates", default="200,1000,5000",
                     help="comma-separated retention error rates "
                          "(errors/s/region) to sweep")
    ras.add_argument("--scrub-intervals", default="2e-4,1e-3,5e-3",
                     help="comma-separated scrub intervals (simulated "
                          "seconds) to sweep")
    ras.add_argument("--layer", default="both",
                     choices=["both", "analytic"],
                     help="run the functional ECC validation cell too "
                          "(both) or the analytic grid only")
    ras.add_argument("--no-wall", action="store_true",
                     help="omit the functional layer's wall-clock "
                          "field; the document becomes a pure "
                          "function of the seed and grid")
    ras.add_argument("--workers", type=int, default=1,
                     help="worker processes for campaign cells "
                          "(results byte-identical to --workers 1)")
    ras.add_argument("--threads", type=int, default=1,
                     help="kernel threads per worker")
    ras.add_argument("--dir", default=".",
                     help="directory holding BENCH_ras.json")
    ras.add_argument("--write-baseline", action="store_true",
                     help="record the default-cell metrics as "
                          "BENCH_ras.json")
    ras.add_argument("--check", action="store_true",
                     help="compare against the stored BENCH_ras.json")
    ras.add_argument("--tolerance", type=float, default=0.02)
    ras.add_argument("--smoke", action="store_true",
                     help="gating self-check: serial vs pool documents "
                          "and metric digests byte-identical, gate "
                          "passed, zero uncorrected errors, scrub "
                          "overhead under the bound")
    ras.add_argument("--json", action="store_true",
                     help="emit the full campaign document as JSON")
    ras.add_argument("--manifest", metavar="FILE",
                     help="write the campaign document to a file")

    serve = sub.add_parser(
        "serve", help="execute jobs resiliently: deadlines, retries, "
                      "circuit breakers, checkpoint/resume, PIM-to-GPU "
                      "degradation")
    serve.add_argument("--jobs", nargs="+", metavar="SPEC",
                       help="job specs: run:<wl>[,..], bench:<wl>[,..], "
                            "faults[:layer[:workload]]")
    _add_serve_flags(serve)
    _add_arrivals_flags(serve)
    serve.add_argument("--checkpoint", metavar="FILE",
                       help="record finished units to this file "
                            "(crash-safe atomic writes)")
    serve.add_argument("--resume", metavar="FILE",
                       help="resume from a checkpoint; replays only the "
                            "missing units, output is byte-identical to "
                            "an uninterrupted run")
    serve.add_argument("--checkpoint-keep", type=int, default=None,
                       metavar="N",
                       help="also retain the N most recent checkpoint "
                            "generations as <file>.<seq>, pruning older "
                            "ones atomically")
    serve.add_argument("--max-units", type=int, default=None,
                       help="stop after this many fresh units "
                            "(simulates a mid-campaign kill; exit 2)")
    serve.add_argument("--smoke", action="store_true",
                       help="gating end-to-end check: clean run vs "
                            "kill + resume must match byte-for-byte, "
                            "with GPU_ONLY degradation recorded; with "
                            "--arrivals, serial vs pool overload runs "
                            "must match byte-for-byte with shedding "
                            "active")
    serve.add_argument("--json", action="store_true",
                       help="emit the serve document as JSON")
    serve.add_argument("--manifest", metavar="FILE",
                       help="write the serve document to a file")

    metrics_p = sub.add_parser(
        "metrics", help="run one instrumented workload and export its "
                        "metrics (Prometheus text, JSON snapshot+digest, "
                        "or JSONL events)")
    metrics_p.add_argument("--workload", default="HELR",
                           help=f"one of {', '.join(sorted(apps.WORKLOADS))}"
                                f", functional (default HELR)")
    _add_device_flags(metrics_p)
    metrics_p.add_argument("--format", default="prom",
                           choices=["prom", "json", "jsonl"],
                           help="export format (default: Prometheus text)")
    metrics_p.add_argument("--out", metavar="FILE",
                           help="write the export here instead of stdout")
    metrics_p.add_argument("--events-out", metavar="FILE",
                           help="also write the JSONL event log here")
    metrics_p.add_argument("--utilization", action="store_true",
                           help="print the derived utilization report")
    metrics_p.add_argument("--repeats", type=int, default=1,
                           help="timing trials for the `functional` "
                                "workload (default 1)")
    metrics_p.add_argument("--smoke", action="store_true",
                           help="gating self-check: exposition parses, "
                                "utilization accounting closes within "
                                "1e-9, snapshots are run-to-run "
                                "byte-identical")

    top = sub.add_parser(
        "top", help="serve a job matrix with a live-ish progress line "
                    "per unit, then the latency/retry/degradation "
                    "summary from the metrics registry")
    top.add_argument("--jobs", nargs="+", metavar="SPEC",
                     help="job specs: run:<wl>[,..], bench:<wl>[,..], "
                          "faults[:layer[:workload]]")
    _add_serve_flags(top)
    _add_arrivals_flags(top)
    top.add_argument("--checkpoint", metavar="FILE",
                     help="record finished units to this file")
    top.add_argument("--resume", metavar="FILE",
                     help="resume from a checkpoint")
    top.add_argument("--metrics-out", metavar="FILE",
                     help="write the final Prometheus exposition here")

    soak = sub.add_parser(
        "soak", help="chaos soak: overload x chaos campaign grid on the "
                     "simulated clock, gated on admit/shed conservation "
                     "invariants")
    _add_device_flags(soak)
    soak.add_argument("--seed", type=int, default=0,
                      help="traffic seed (default 0)")
    soak.add_argument("--duration", type=float, default=2.0,
                      help="simulated seconds per cell (default 2)")
    soak.add_argument("--loads", default="0.5,1,2",
                      help="load factors (multiples of capacity) to "
                           "sweep (default 0.5,1,2)")
    soak.add_argument("--chaos", default="none,faults",
                      help="chaos kinds to sweep: none,faults")
    soak.add_argument("--process", default="poisson",
                      choices=["poisson", "burst"],
                      help="arrival process shape (default poisson)")
    soak.add_argument("--fault-seed", type=int, default=0,
                      help="seed of the fault plan behind chaos cells")
    soak.add_argument("--scale", type=float, default=1.0,
                      help="fault-rate multiplier for chaos cells")
    _add_admission_flags(soak)
    soak.add_argument("--json", action="store_true",
                      help="emit the campaign document as JSON")
    soak.add_argument("--manifest", metavar="FILE",
                      help="write the campaign document to a file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "gantt": cmd_gantt,
                "microbench": cmd_microbench, "bench": cmd_bench,
                "profile": cmd_profile, "faults": cmd_faults,
                "ras": cmd_ras, "serve": cmd_serve, "metrics": cmd_metrics,
                "top": cmd_top, "soak": cmd_soak}
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
