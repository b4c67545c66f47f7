"""Benchmark entry point.

    python3 perfbench/run.py --workload bootstrap --seed 0 --seconds 30 --trace 0

Runs one workload of ``suite.py`` in a closed loop from one client for
``--seconds`` and prints every metric with its unit, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
  measured with no wrapper installed.
* ``--trace 1`` first times the workload untraced for a third of the
  time, then installs the outside-in layer wrappers (``layertrace.py``)
  and reports the per-layer metrics per op, plus the tracing overhead.

Every sample is preceded by one run of the host reference loop
(``calib.py``) and reported in *cal*: op seconds / loop seconds, the
loop seconds being the median of the loops nearest the sample.
``setup_s`` is calibrated the same way against loops timed around each
set-up and converted back to seconds of the reference host
(``calib.NOMINAL_SECONDS`` per loop).  Raw seconds are reported
alongside (``host.op_p50_s``, ``# setup_raw_s``) so cal can be
audited.  Details (sample counts, the tail percentile used, every
sample, spans) go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

# One process, one client, one thread: a BLAS pool would make the
# timings depend on what else the host is running.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calib  # noqa: E402
from measure import check_pending, closed_loop  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: Set-ups per run, spread over it; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Reference loops timed on each side of a set-up to calibrate it.
SETUP_REFS = 3
#: Share of a traced run spent timing the untraced baseline.
UNTRACED_SHARE = 1 / 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path and import the
    workloads; exits non-zero when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src}/repro")
    sys.path.insert(0, str(src))
    import repro
    import suite
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {src}")
    return suite


class NothingMeasured(Exception):
    """Every sample of a phase failed, so there is no metric to report."""

    def __init__(self, run):
        super().__init__("every sample failed")
        self.run = run


def _require_samples(run, *others) -> None:
    """Raise :class:`NothingMeasured` for ``run`` unless it and every
    other phase in ``others`` has a successful sample."""
    if not all(phase.order for phase in (run, *others)):
        raise NothingMeasured(run)


def untraced(workload, seed: int, seconds: float) -> tuple:
    """Set up, then time the closed loop with the other
    :data:`SETUP_REPEATS` - 1 set-ups spread over it (their states are
    discarded)."""
    setup_times, setup_refs = [], []

    def timed_setup():
        refs = [calib.reference_seconds() for _ in range(SETUP_REFS)]
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
        refs += [calib.reference_seconds() for _ in range(SETUP_REFS)]
        setup_refs.append(statistics.median(refs))
        return state

    state = timed_setup()
    run = closed_loop(workload, state, seconds, interlude=timed_setup,
                      interludes=SETUP_REPEATS - 1)
    _require_samples(run)
    # Set-up in seconds of the reference host (see NOTES.md, Units).
    setup_cal = [t / ref for t, ref in zip(setup_times, setup_refs)]
    metrics = {"setup_s": (
        statistics.median(setup_cal) * calib.NOMINAL_SECONDS, "s")}
    extra, details = workload.end_to_end(state, run)
    metrics.update(extra)
    details.update(setup_raw_s=statistics.median(setup_times),
                   setup_raw_s_samples=setup_times,
                   setup_ref_s_samples=setup_refs,
                   calibration_s=statistics.median(run.refs()))
    return metrics, details, run


def traced(workload, seed: int, seconds: float) -> tuple:
    """Untraced baseline for a third of the time, then the traced loop."""
    from layertrace import LayerTrace
    from repro.ckks import instrument
    from repro.obs.export import chrome_trace_from_tracer, write_json
    from repro.obs.tracer import Tracer

    state = workload.setup(seed)
    keys = workload.sample_keys(state)
    base = closed_loop(workload, state, seconds * UNTRACED_SHARE)
    tracer = Tracer()
    trace = LayerTrace(tracer)
    previous = instrument.get_tracer()
    try:
        workload.install_trace(trace, state)
        workload.traced_setup(state)
        instrument.set_tracer(tracer)
        run = closed_loop(workload, state, seconds * (1 - UNTRACED_SHARE),
                          timer=trace.measure)
    finally:
        instrument.set_tracer(previous)
        trace.uninstall()
    check_pending(workload, state, run)
    run.attempted += base.attempted
    run.failed += base.failed
    _require_samples(run, base)
    metrics = {
        "trace.overhead": (run.op_median(keys) / base.op_median(keys),
                           "ratio"),
        "host.calibration_s": (statistics.median(base.refs() + run.refs()),
                               "s"),
        "host.op_p50_s": (base.op_median(keys, cal=False), "s"),
    }
    metrics.update(workload.layers(trace, tracer, state, run, base))
    OUT_DIR.mkdir(exist_ok=True)
    write_json(OUT_DIR / f"{workload.name}-seed{seed}-spans.json",
               chrome_trace_from_tracer(tracer))
    details = {"traced_ops": run.ops, "untraced_ops": base.ops,
               "traced_op_p50_s": run.op_median(keys, cal=False),
               "spans": len(tracer.spans)}
    return metrics, details, run


def main(argv=None) -> int:
    args = parse_args(argv)
    suite = import_program()
    if args.workload not in suite.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(suite.WORKLOADS)}")
    workload = suite.WORKLOADS[args.workload]
    measure = traced if args.trace else untraced
    try:
        metrics, details, run = measure(workload, args.seed, args.seconds)
    except NothingMeasured as exc:
        metrics, details, run = {}, {}, exc.run
    details.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   metrics={k: v for k, (v, _) in metrics.items()},
                   samples_in_order=run.order, final_ref=run.final_ref)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    for name in ("samples", "tail_percentile", "max_error", "setup_raw_s",
                 "passes", "traced_ops"):
        if name in details:
            print(f"# {name} = {details[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
