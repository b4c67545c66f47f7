"""The shared grid runner: cells, then pool, then ordered merge.

Cell functions are module-level (they are pickled into worker
processes).  The crash cell calls ``os._exit`` only in a *child*
process — the parent pid is captured at import time and inherited by
forked workers — so the inline re-run in the parent succeeds.
"""

import multiprocessing
import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import run_cells

PARENT_PID = os.getpid()

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

TASKS = [(0, "a"), (1, "b"), (2, "c"), (3, "d")]


def _record(metrics, index: int) -> None:
    if metrics is not None:
        metrics.counter("cells_total", "cells run",
                        labelnames=("cell",)).inc(index + 0.1,
                                                  cell=str(index))


def pid_cell(index, name, metrics=None):
    _record(metrics, index)
    return name, os.getpid()


def crash_cell(index, name, metrics=None):
    if name == "b" and os.getpid() != PARENT_PID:
        os._exit(1)
    _record(metrics, index)
    return f"{name}:{index}"


class TestRunCells:
    def test_one_worker_runs_every_cell_in_the_parent(self):
        results = run_cells(pid_cell, TASKS, workers=1)
        assert [name for name, _ in results] == ["a", "b", "c", "d"]
        assert all(pid == os.getpid() for _, pid in results)

    def test_every_cell_records_into_the_merged_registry(self):
        metrics = MetricsRegistry()
        run_cells(pid_cell, TASKS, workers=1, metrics=metrics)
        samples = metrics.get("cells_total").snapshot_samples()
        assert {s["labels"]["cell"]: s["value"] for s in samples} == {
            "0": 0.1, "1": 1.1, "2": 2.1, "3": 3.1}

    def test_no_registry_without_metrics(self):
        def check(index, name, metrics=None):
            assert metrics is None
            return index
        assert run_cells(check, TASKS) == [0, 1, 2, 3]

    @pytest.mark.skipif(not HAVE_FORK, reason="crash scripting needs fork")
    def test_crashed_cell_reruns_inline(self):
        serial_metrics = MetricsRegistry()
        serial = run_cells(crash_cell, TASKS, workers=1,
                           metrics=serial_metrics)
        pooled_metrics = MetricsRegistry()
        pooled = run_cells(crash_cell, TASKS, workers=2,
                           metrics=pooled_metrics)
        assert pooled == serial == ["a:0", "b:1", "c:2", "d:3"]
        assert pooled_metrics.digest() == serial_metrics.digest()
