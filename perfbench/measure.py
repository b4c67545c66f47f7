"""The closed loop and the statistics every workload's metrics use."""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time

import calib

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Reference loops per side of a sample that calibrate it.
REF_WINDOW = 3


def tail(values: list) -> tuple:
    """``(percentile, value)``: the highest whole percentile with at
    least :data:`TAIL_BEYOND` samples beyond it (nearest rank); the
    median when that percentile would lie below it."""
    n = len(values)
    ordered = sorted(values)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    if pct <= 50:
        return 50, statistics.median(ordered)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]


class Run:
    """The samples of one phase, in the order they ran.

    Each sample records its key, raw seconds, and the reference-loop
    seconds measured right before it; ``final_ref`` is one more loop
    after the last sample, so every sample has loops on both sides.
    """

    def __init__(self):
        self.order: list = []      # (key, op_s, ref_s)
        self.final_ref = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.ops = 0
        self.pending: list = []

    def cal(self, key) -> list:
        """Calibrated samples of ``key``: op seconds over the median of
        the :data:`REF_WINDOW` reference loops on each side of it.

        Host interference drifts over seconds while one ~20 ms loop is
        itself noisy; the windowed median follows the drift without
        inheriting one loop's noise."""
        refs = [ref for _, _, ref in self.order] + [self.final_ref]
        return [op / statistics.median(
                    refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
                for i, (k, op, _) in enumerate(self.order) if k == key]

    def raw(self, key) -> list:
        return [op for k, op, _ in self.order if k == key]

    def refs(self) -> list:
        return [ref for _, _, ref in self.order]

    def op_median(self, keys, cal: bool = True) -> float:
        """Median time of one op: the sum of its samples' medians."""
        pick = self.cal if cal else self.raw
        return sum(statistics.median(pick(k)) for k in keys)


def _fail(run: Run, workload, key, exc: Exception) -> None:
    run.failed += 1
    print(f"FAILED {workload.name}[{key}]: {type(exc).__name__}: {exc}",
          file=sys.stderr)


def closed_loop(workload, state, seconds: float, timer=None,
                interlude=None, interludes: int = 0) -> Run:
    """Run samples back to back until ``seconds`` have passed, and at
    least one whole op.

    ``interlude()`` runs ``interludes`` times, after each further
    ``1 / interludes`` of the run (the last once the loop has ended),
    outside the samples and off the run's clock; the garbage it leaves
    is collected before the next sample.  Host interference changes over
    seconds, so work measured this way is sampled across the whole run.

    Each sample is preceded by one reference loop.  Outputs are checked
    outside the timed region: right away, or -- with a ``timer``, i.e.
    under the layer wrappers -- by :func:`check_pending` once the
    wrappers are gone, so decryption never counts as layer work.  A
    traced loop also stops only at an op boundary, so its per-op counts
    are exact.  A sample that raises or fails its check counts as
    failed and is not timed.
    """
    keys = workload.sample_keys(state)
    run = Run()
    opened = time.perf_counter()
    due = [seconds * (j + 1) / interludes for j in range(interludes)]
    paused = 0.0

    def pause(until: float) -> float:
        """Run the interludes due by ``until`` run seconds; their time."""
        begin = time.perf_counter()
        while due and due[0] <= until:
            due.pop(0)
            interlude()
            gc.collect()
        return time.perf_counter() - begin

    done = 0
    while done < len(keys) \
            or time.perf_counter() - opened - paused < seconds \
            or (timer is not None and done % len(keys)):
        paused += pause(time.perf_counter() - opened - paused)
        key = keys[done % len(keys)]
        done += 1
        run.attempted += 1
        ref = calib.reference_seconds()
        try:
            if timer is None:
                start = time.perf_counter()
                output = workload.sample(state, key)
                elapsed = time.perf_counter() - start
                run.errors.append(workload.check(state, key, output))
            else:
                output, elapsed = timer(f"{workload.name}.sample",
                                        lambda: workload.sample(state, key))
                run.pending.append((key, output))
        except Exception as exc:  # counted, reported, never hidden
            _fail(run, workload, key, exc)
            continue
        run.order.append((key, elapsed, ref))
    run.ops = done // len(keys)
    run.final_ref = calib.reference_seconds()
    pause(math.inf)
    return run


def check_pending(workload, state, run: Run) -> None:
    """Check the outputs a traced loop kept back."""
    for key, output in run.pending:
        try:
            run.errors.append(workload.check(state, key, output))
        except Exception as exc:  # counted, reported, never hidden
            _fail(run, workload, key, exc)
    run.pending = []
