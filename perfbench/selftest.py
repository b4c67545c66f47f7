"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py   # or: python3 -m pytest perfbench/selftest.py

Each workload runs at the smallest sample count (one op per phase) and
must emit exactly the metrics ``BENCHMARK.json`` names, every one of
them in both modes; two traced runs must give identical call, limb and
kernel counts; the layers of the other side (the model for the CKKS
workloads, the CKKS engine for the model) must read zero calls; a
corrupted expected output must be counted as a failure; and a traced
run must leave every ``repro`` module and class attribute as it found
it.  Takes about two minutes, most of it the model's passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402

suite = run.import_program()

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

WORKLOADS = sorted(w["name"] for w in SPEC["workloads"])
#: Per-layer metrics that are counts of work, which must repeat exactly.
COUNT_SUFFIXES = (".calls", ".limbs", ".total", ".gpu", ".pim")
#: Layers of the analytic model, which no CKKS workload reaches.
MODEL_FAMILIES = ("core.", "gpu.", "pim.", "model.kernels.")


def expected_names(trace: int) -> dict:
    """``{name: unit}`` every workload must emit in the given mode."""
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def run_once(workload: str, seed: int, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def attribute_snapshot() -> dict:
    """Identity of every attribute of every loaded ``repro`` module and
    of every class those modules define."""
    snap = {}
    for modname, module in list(sys.modules.items()):
        if not (modname == "repro" or modname.startswith("repro.")):
            continue
        for key, value in vars(module).items():
            snap[(modname, key)] = id(value)
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    snap[(modname, key, attr)] = id(member)
    return snap


@pytest.fixture(scope="module")
def results():
    """One untraced and two traced runs per workload, with attribute
    snapshots taken around the traced ones."""
    out = {}
    for name in suite.WORKLOADS:
        out[(name, 0)] = run_once(name, 1, 0)
        before = attribute_snapshot()
        out[(name, 1)] = run_once(name, 1, 1)
        out[(name, "again")] = run_once(name, 2, 1)
        out[(name, "attrs")] = (before, attribute_snapshot())
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_named_metric(results, workload, trace):
    doc = results[(workload, trace)]
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == expected_names(trace)
    if trace == 0:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_declared_workloads_are_the_suite(results):
    assert WORKLOADS == sorted(suite.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_side_layers_read_zero(results, workload):
    """The no-change pairs at their root: the model never reaches the
    CKKS engine, and the CKKS workloads never reach the model."""
    metrics = results[(workload, 1)]["metrics"]
    counts = {n: m["value"] for n, m in metrics.items()
              if n.endswith(COUNT_SUFFIXES)}
    model = {n: v for n, v in counts.items()
             if n.startswith(MODEL_FAMILIES)}
    ckks = {n: v for n, v in counts.items() if n.startswith("ckks.")}
    idle, busy = (ckks, model) if workload == "model" else (model, ckks)
    assert set(idle.values()) == {0}
    assert any(busy.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(results, workload):
    first = results[(workload, 1)]["metrics"]
    second = results[(workload, "again")]["metrics"]
    counts = [n for n in first if n.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_module_attributes(results, workload):
    before, after = results[(workload, "attrs")]
    changed = [k for k in before if after.get(k) != before[k]]
    assert changed == []


def test_wrappers_reach_names_imported_by_other_modules():
    from layertrace import LayerTrace
    from repro.ckks import evaluator, linear_transform
    from repro.core import framework
    from repro.obs.tracer import Tracer

    def names():
        return (evaluator.key_switch, linear_transform.decompose_digits,
                linear_transform.mod_down, framework.lower)

    originals = names()
    trace = LayerTrace(Tracer())
    try:
        suite.WORKLOADS["hoisted_lt"].install_trace(trace, None)
        wrapped = names()
    finally:
        trace.uninstall()
    assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert all(a is b for a, b in zip(names(), originals))


class _OneSample:
    """A workload restricted to its first sample key, checked against a
    corrupted copy of the expected output."""

    def __init__(self, workload, corrupt):
        self.inner = workload
        self.name = workload.name
        self.corrupt = corrupt

    def sample_keys(self, state):
        return self.inner.sample_keys(state)[:1]

    def sample(self, state, key):
        return self.inner.sample(state, key)

    def check(self, state, key, output):
        return self.inner.check(state, key, output,
                                expected=self.corrupt(state, key))


def _corrupt_bootstrap(state, key):
    wrong = state.pool.expected[0].copy()
    wrong[0] += 0.01
    return wrong


def _corrupt_hoisted(state, key):
    wrong = state.pool.expected[0].copy()
    wrong[-1] -= 0.001j
    return wrong


def _corrupt_model(state, key):
    pinned = json.loads(suite.EXPECTED_MODEL.read_text())[key]
    pinned["pim"]["energy"] *= 1 + 1e-12
    return pinned


@pytest.mark.parametrize("workload,corrupt", [
    ("bootstrap", _corrupt_bootstrap),
    ("hoisted_lt", _corrupt_hoisted),
    ("model", _corrupt_model),
])
def test_corrupted_expected_output_counts_as_failure(workload, corrupt):
    inner = suite.WORKLOADS[workload]
    state = inner.setup(3)
    loop = measure.closed_loop(_OneSample(inner, corrupt), state, 0)
    assert loop.attempted == 1
    assert loop.failed == 1
    assert loop.order == []


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 41))
    pct, value = measure.tail(values)
    assert pct == 75
    assert sum(v > value for v in values) >= measure.TAIL_BEYOND
    assert measure.tail(values[:15]) == (50, 8)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
