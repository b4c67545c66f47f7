"""Shape-keyed pricing: exact figures and per-kernel counters.

The scheduler prices each distinct kernel shape once per run.  Every
simulated figure must still be bit-identical to pricing each kernel on
its own, so the reports of the five model applications are compared
with ``==`` against ``data/schedule_reports.json`` (recorded from the
scheduler that priced every kernel individually), and the device
models' counters must still fire once per dispatched kernel.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import blocks as B
from repro.core.framework import AnaheimFramework
from repro.core.fusion import PIM_FULL, lower
from repro.core.scheduler import Scheduler
from repro.core.trace import GpuKernel, OpCategory, PimKernel, Trace
from repro.gpu.cache import CacheModel
from repro.gpu.configs import A100_80GB
from repro.gpu.model import GpuModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.params import paper_params
from repro.pim.configs import A100_NEAR_BANK
from repro.pim.executor import PimExecutor
from repro.workloads import applications

EXPECTED = json.loads(
    (Path(__file__).parent / "data" / "schedule_reports.json").read_text())
APPS = ("Boot", "HELR", "RNN", "ResNet20", "ResNet18-AESPA")
FIELDS = ("total_time", "gpu_time", "pim_time", "transition_time",
          "transitions", "gpu_dram_bytes", "transfer_bytes",
          "pim_internal_bytes", "pim_activations", "energy_gpu_dynamic",
          "energy_gpu_idle", "energy_pim")


@pytest.mark.parametrize("app", APPS)
def test_reports_bit_identical(app):
    params = paper_params()
    blocks = applications.build(app, params).blocks
    runs = AnaheimFramework(A100_80GB, A100_NEAR_BANK).compare(
        blocks, params.degree, label=app)
    assert set(runs) == set(EXPECTED[app])
    for side, result in runs.items():
        report, want = result.report, EXPECTED[app][side]
        for name in FIELDS:
            assert getattr(report, name) == want[name], (app, side, name)
        got_categories = [[category.value, seconds] for category, seconds
                          in report.time_by_category.items()]
        assert got_categories == want["time_by_category"], (app, side)


def repetitive_trace() -> Trace:
    """A few distinct shapes repeated many times, plus transfers."""
    params = paper_params()
    limbs, aux, dnum = params.level_count, params.aux_count, params.dnum
    block = [B.mod_up(limbs, aux, dnum), B.key_mult(limbs, aux, dnum),
             B.key_mult(limbs, aux, dnum), B.mod_down(limbs, aux),
             B.pmult_pair(limbs), B.caccum(limbs, 4), B.tensor(limbs),
             B.rescale_pair(limbs)]
    return lower(block, params.degree, PIM_FULL).repeated(40)


SUMMED = ("gpu_time", "gpu_dram_bytes", "transfer_bytes",
          "energy_gpu_dynamic", "pim_time", "energy_pim",
          "pim_internal_bytes", "pim_activations")


def per_kernel(kernels) -> dict:
    """The reference: price every kernel on its own and add report
    fields and counter totals one kernel at a time, in order."""
    gpu, pim = GpuModel(A100_80GB), PimExecutor(A100_NEAR_BANK)
    cache = CacheModel(l2_bytes=A100_80GB.l2_cache_bytes)
    out = dict.fromkeys(SUMMED, 0.0)
    out["pim_activations"] = 0
    out.update(time_by_category={}, gpu_counts={}, pim_counts={})
    for kernel in kernels:
        if isinstance(kernel, PimKernel):
            cost = pim.cost(kernel)
            out["pim_time"] += cost.time
            out["energy_pim"] += cost.energy
            out["pim_internal_bytes"] += cost.internal_bytes
            out["pim_activations"] += cost.activations
            counts, label = out["pim_counts"], kernel.instruction
        else:
            cost = gpu.kernel_cost(kernel, dram_bytes=cache.dram_bytes(kernel))
            out["gpu_time"] += cost.time
            out["gpu_dram_bytes"] += cost.dram_bytes
            if kernel.category is OpCategory.TRANSFER:
                out["transfer_bytes"] += cost.dram_bytes
            out["energy_gpu_dynamic"] += gpu.kernel_energy(kernel, cost)
            counts, label = out["gpu_counts"], kernel.category.value
        counts[label] = counts.get(label, 0) + 1
        by_category = out["time_by_category"]
        by_category[kernel.category] = (
            by_category.get(kernel.category, 0.0) + cost.time)
    return out


def summed(report) -> dict:
    return {name: getattr(report, name) for name in SUMMED}


class TestPerKernelAccounting:
    @pytest.fixture(scope="class")
    def run(self):
        trace = repetitive_trace()
        tracer, metrics = Tracer(), MetricsRegistry()
        gpu = GpuModel(A100_80GB, tracer=tracer, metrics=metrics)
        pim = PimExecutor(A100_NEAR_BANK, tracer=tracer, metrics=metrics)
        report = Scheduler(gpu, pim, tracer=tracer, metrics=metrics).run(trace)
        return trace, tracer, metrics, report, per_kernel(trace)

    def test_trace_repeats_shapes(self, run):
        trace = run[0]
        shapes = {(k.category, k.mod_ops, k.bytes_read, k.bytes_written,
                   k.streaming_bytes) if isinstance(k, GpuKernel)
                  else (k.instruction, k.limbs, k.fan_in) for k in trace}
        assert len(trace) >= 20 * len(shapes)

    def test_tracer_counts_every_kernel(self, run):
        trace, tracer, _, _, want = run
        c = tracer.counters
        assert c["gpu.kernel_costs"] == sum(want["gpu_counts"].values())
        for label, n in want["gpu_counts"].items():
            assert c[f"gpu.kernel_costs.{label}"] == n
        assert c["gpu.dram_bytes"] == want["gpu_dram_bytes"]
        assert c["pim.kernel_costs"] == sum(want["pim_counts"].values())
        for instruction, n in want["pim_counts"].items():
            assert c[f"pim.kernel_costs.{instruction}"] == n
        assert c["pim.activations"] == want["pim_activations"]
        assert c["pim.internal_bytes"] == want["pim_internal_bytes"]
        assert c["gpu.kernel_costs"] + c["pim.kernel_costs"] == len(trace)

    def test_metric_families_count_every_kernel(self, run):
        _, _, metrics, _, want = run
        costs = metrics.get("anaheim_gpu_kernel_costs_total")
        for label, n in want["gpu_counts"].items():
            assert costs.value(category=label) == n
        assert (metrics.get("anaheim_gpu_dram_bytes_total").value()
                == want["gpu_dram_bytes"])
        instructions = metrics.get("anaheim_pim_instructions_total")
        for instruction, n in want["pim_counts"].items():
            assert instructions.value(instruction=instruction) == n
        assert (metrics.get("anaheim_pim_activations_total").value()
                == want["pim_activations"])
        assert (metrics.get("anaheim_pim_internal_bytes_total").value()
                == want["pim_internal_bytes"])

    def test_report_matches_per_kernel_sums(self, run):
        _, _, _, report, want = run
        assert summed(report) == {name: want[name] for name in SUMMED}
        assert list(report.time_by_category) == list(want["time_by_category"])
        assert report.time_by_category == want["time_by_category"]
        assert OpCategory.TRANSFER in report.time_by_category


BASE_GPU = GpuKernel("k", OpCategory.ELEMENTWISE, mod_ops=1e6,
                     bytes_read=4e8, bytes_written=2e8, streaming_bytes=1e8)
BASE_PIM = PimKernel("p", "PAccum", limbs=20, degree=2 ** 16, fan_in=4)


@pytest.mark.parametrize("base,change", [
    (BASE_GPU, {"category": OpCategory.AUTOMORPHISM}),
    (BASE_GPU, {"mod_ops": 5e10}),
    (BASE_GPU, {"bytes_read": 8e8}),
    (BASE_GPU, {"bytes_written": 9e8}),
    (BASE_GPU, {"streaming_bytes": 3e8}),
    (BASE_PIM, {"instruction": "CAccum"}),
    (BASE_PIM, {"limbs": 60}),
    (BASE_PIM, {"degree": 2 ** 15}),
    (BASE_PIM, {"fan_in": 2}),
    (BASE_PIM, {"column_partitioned": False}),
])
def test_every_key_field_splits_the_memo(base, change):
    other = dataclasses.replace(base, name="other", **change)
    alone = [{name: per_kernel([k])[name] for name in SUMMED}
             for k in (base, other)]
    assert alone[0] != alone[1]
    kernels = [base, other, base, other]
    report = Scheduler(GpuModel(A100_80GB), PimExecutor(A100_NEAR_BANK)).run(
        Trace(kernels=kernels))
    assert summed(report) == {name: per_kernel(kernels)[name]
                              for name in SUMMED}


def test_each_run_prices_afresh():
    """Nothing carries between runs: a second run of the same scheduler
    reproduces the first, and the counters double exactly."""
    trace = repetitive_trace()
    tracer = Tracer()
    scheduler = Scheduler(GpuModel(A100_80GB, tracer=tracer),
                          PimExecutor(A100_NEAR_BANK, tracer=tracer))
    first = scheduler.run(trace)
    once = dict(tracer.counters)
    second = scheduler.run(trace)
    assert first.total_time == second.total_time
    assert first.time_by_category == second.time_by_category
    assert tracer.counters["gpu.kernel_costs"] == 2 * once["gpu.kernel_costs"]
    assert tracer.counters["pim.kernel_costs"] == 2 * once["pim.kernel_costs"]
