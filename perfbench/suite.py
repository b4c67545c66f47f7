"""The benchmark's three workloads: set-up, one timed sample, output
checks, the layer wrappers of the traced run, and the metrics.

Each workload turns ``--seed`` into its inputs in :meth:`setup`; the
program only ever receives those inputs.  Every workload reports the
same metrics: the end-to-end ones of one op, and in the traced run
every layer of both the CKKS engine and the analytic model, so a layer
a workload never reaches reads zero calls there.  Why each workload was
chosen, and which numbers each layer should move, is written down in
``NOTES.md`` next to this file.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from measure import tail
from repro.ckks import automorphism, bootstrap, keyswitch
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.fixture import BENCH_PARAMS, bootstrap_fixture
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear_transform import (LinearTransform,
                                         generate_hoisting_keys)
from repro.ckks.ntt import BatchNttContext
from repro.ckks.polyeval import ChebyshevEvaluator
from repro.ckks.rns import RnsPolynomial
from repro.core import fusion
from repro.core.framework import AnaheimFramework
from repro.core.fusion import GPU_ALL_FUSE, PIM_FULL
from repro.core.scheduler import Scheduler
from repro.core.trace import OpCategory, PimKernel
from repro.gpu.configs import A100_80GB
from repro.gpu.model import GpuModel
from repro.params import CkksParams, paper_params
from repro.pim.configs import A100_NEAR_BANK
from repro.pim.executor import PimExecutor
from repro.workloads import applications
from repro.workloads.metrics import edp_improvement

#: Largest slot error a bootstrap may leave (6.59e-4 at seed 7 today).
BOOTSTRAP_ERROR_BOUND = 2e-3
#: Largest slot error of the hoisted transform against numpy ``M @ x``.
HOISTED_LT_ERROR_BOUND = 1e-4
#: Key material is fixed; the seed picks the messages and the matrix.
KEY_SEED = 11
#: Distinct inputs a functional workload cycles through.
POOL_SIZE = 4

EXPECTED_MODEL = Path(__file__).with_name("model_expected.json")


class Workload:
    """Interface of one benchmark workload.  Metric methods return
    ``{name: (value, unit)}``; the metrics are the same for every
    workload."""

    name = ""

    def sample_keys(self, state) -> list:
        """The samples making up one op, the unit of per-op figures."""
        return ["op"]

    def setup(self, seed: int):
        raise NotImplementedError

    def sample(self, state, key):
        raise NotImplementedError

    def check(self, state, key, output, expected=None) -> float:
        """Raise ``AssertionError`` on a wrong output; return the error
        ``check.max_error`` is the worst of."""
        raise NotImplementedError

    def install_trace(self, trace, state) -> None:
        """Wrap every layer of every workload (``state`` may be None)."""
        install_layers(trace)

    def traced_setup(self, state) -> None:
        """Set-up work re-run under the wrappers (none by default)."""

    def end_to_end(self, state, run) -> tuple:
        """``(metrics, details)`` of an untraced run, ``setup_s`` aside:
        median and tail of one op's calibrated time."""
        keys = self.sample_keys(state)
        per_op = [sum(op) for op in zip(*(run.cal(key) for key in keys))]
        pct, tail_value = tail(per_op)
        metrics = {"op_p50_cal": (run.op_median(keys), "cal"),
                   "op_tail_cal": (tail_value, "cal")}
        details = {"samples": len(per_op), "tail_percentile": pct,
                   "max_error": max(run.errors),
                   "op_p50_s": run.op_median(keys, cal=False)}
        return metrics, details

    def layers(self, trace, tracer, state, run, base) -> dict:
        """Per-op metrics of every layer in the traced ``run``."""
        out = {"check.max_error": (max(run.errors), "abs")}
        out.update(ckks_layers(trace, tracer, run))
        out.update(model_layers(trace, run, base,
                                self.sample_keys(state)))
        return out


def _ratio(part: float, whole: float) -> float:
    """``part / whole``; 1.0 when nothing was asked (nothing missed)."""
    return part / whole if whole else 1.0


# -- CKKS workloads -----------------------------------------------------------

#: Element-wise kernels of the RNS layer (the paper's "element-wise").
_ELEMENTWISE = ("__add__", "__sub__", "__mul__", "__neg__", "scalar_mul")


def install_layers(trace) -> None:
    """Wrap the public functions of every layer the metrics name."""
    trace.wrap(LinearTransform, "apply", "ckks.linear_transform.apply",
               span=True)
    for stage in ("key_switch", "decompose_digits", "mod_up",
                  "mod_down", "basis_convert"):
        trace.wrap(keyswitch, stage, f"ckks.keyswitch.{stage}", span=True)
    trace.wrap(automorphism, "apply_automorphism", "ckks.automorphism",
               span=True)
    trace.wrap(BatchNttContext, "forward", "ckks.ntt.forward",
               post=_count_limbs)
    trace.wrap(BatchNttContext, "inverse", "ckks.ntt.inverse",
               post=_count_limbs)
    for attr in _ELEMENTWISE:
        trace.wrap(RnsPolynomial, attr, "ckks.rns.elementwise")
    trace.wrap(RnsPolynomial, "restrict", "ckks.rns.restrict")
    trace.wrap(bootstrap, "mod_raise", "ckks.bootstrap.mod_raise", span=True)
    trace.wrap(ChebyshevEvaluator, "evaluate", "ckks.bootstrap.eval_mod",
               span=True)
    trace.wrap(applications, "build", "workloads.applications.build",
               span=True)
    trace.wrap(fusion, "lower", "core.fusion.lower", span=True,
               post=_count_kernels)
    trace.wrap(AnaheimFramework, "run", "core.framework.run", span=True)
    trace.wrap(Scheduler, "run", "core.scheduler.run", span=True)
    trace.wrap(GpuModel, "kernel_cost", "gpu.model.kernel_cost")
    trace.wrap(GpuModel, "kernel_energy", "gpu.model.kernel_energy")
    trace.wrap(PimExecutor, "cost", "pim.executor.cost")


def ckks_layers(trace, tracer, run) -> dict:
    """Per-op metrics of the CKKS engine's layers."""
    ops = run.ops
    op_s = sum(op for _, op, _ in run.order) / ops
    st = trace.stat
    out = {f"ckks.bootstrap.{phase}_s": (
               st(f"ckks.bootstrap.{phase}").total / ops, "s")
           for phase in ("mod_raise", "coeff_to_slot", "eval_mod",
                         "slot_to_coeff")}
    out["ckks.linear_transform.apply_s"] = (
        st("ckks.linear_transform.apply").total / ops, "s")
    ks = "ckks.keyswitch"
    out[f"{ks}.key_switch.calls"] = (st(f"{ks}.key_switch").calls / ops,
                                     "count")
    # key_switch runs its KeyMult loop inline: its self time is KeyMult.
    out[f"{ks}.key_switch.self_s"] = (st(f"{ks}.key_switch").self / ops,
                                      "s")
    out[f"{ks}.decompose_digits_s"] = (
        st(f"{ks}.decompose_digits").total / ops, "s")
    for stage in ("mod_up", "mod_down", "basis_convert"):
        out[f"{ks}.{stage}.calls"] = (st(f"{ks}.{stage}").calls / ops,
                                      "count")
        out[f"{ks}.{stage}.s"] = (st(f"{ks}.{stage}").total / ops, "s")
    for direction in ("forward", "inverse"):
        s = st(f"ckks.ntt.{direction}")
        out[f"ckks.ntt.{direction}.calls"] = (s.calls / ops, "count")
        out[f"ckks.ntt.{direction}.limbs"] = (
            s.extra.get("limbs", 0) / ops, "count")
        out[f"ckks.ntt.{direction}.s"] = (s.total / ops, "s")
    aut = st("ckks.automorphism")
    out["ckks.automorphism.calls"] = (aut.calls / ops, "count")
    out["ckks.automorphism.self_s"] = (aut.self / ops, "s")
    out["ckks.automorphism.total_s"] = (aut.total / ops, "s")
    for layer in ("elementwise", "restrict"):
        s = st(f"ckks.rns.{layer}")
        out[f"ckks.rns.{layer}.calls"] = (s.calls / ops, "count")
        out[f"ckks.rns.{layer}.s"] = (s.total / ops, "s")
    # Kernel classes as shares of op time (the paper's Fig. 2 view).
    classes = {"ntt": [st("ckks.ntt.forward"), st("ckks.ntt.inverse")],
               "bconv": [st(f"{ks}.basis_convert")],
               "elementwise": [st("ckks.rns.elementwise")],
               "automorphism": [aut]}
    for name, stats in classes.items():
        out[f"ckks.share.{name}"] = (
            sum(s.self for s in stats) / ops / op_s, "ratio")
    out["ckks.dispatch.total"] = (
        sum(s.calls for stats in classes.values() for s in stats) / ops,
        "count")
    counters = tracer.counters
    shoup = counters.get("ckks.modmath.shoup", 0.0)
    out["ckks.modmath.shoup_share"] = (_ratio(
        shoup, shoup + counters.get("ckks.modmath.strict_fallback", 0.0)),
        "ratio")
    for cache in ("scratch", "diag_cache", "bconv_tables", "ntt_tables"):
        hit = counters.get(f"ckks.{cache}.hit", 0.0)
        miss = counters.get(f"ckks.{cache}.miss", 0.0)
        out[f"ckks.{cache}.hit_ratio"] = (_ratio(hit, hit + miss), "ratio")
    return out


def _count_limbs(args, result, stat) -> None:
    stat.extra["limbs"] = stat.extra.get("limbs", 0) + args[1].shape[0]


class Pool:
    """Inputs a functional workload cycles through, one per sample, so
    ``check.max_error`` is the worst case over several messages rather
    than the luck of one."""

    def __init__(self, inputs: list, expected: list):
        self.inputs = inputs
        self.expected = expected
        self.cursor = 0

    def next(self) -> int:
        index = self.cursor
        self.cursor = (index + 1) % len(self.inputs)
        return index


def _slot_message(rng, n: int) -> np.ndarray:
    return 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))


class CkksWorkload(Workload):
    """A functional-engine workload: one op is one sample on the next
    input of ``state.pool``; the output is checked after decryption."""

    #: Largest slot error a correct output may have.
    error_bound = 0.0

    def run_op(self, state, ct):
        raise NotImplementedError

    def sample(self, state, key):
        index = state.pool.next()
        return index, self.run_op(state, state.pool.inputs[index])

    def check(self, state, key, output, expected=None) -> float:
        index, ct = output
        want = state.pool.expected[index] if expected is None else expected
        got = state.ev.decrypt_message(ct, want.size)
        error = float(np.abs(got - want).max())
        if not error < self.error_bound:
            raise AssertionError(f"{self.name} slot error {error:.3g} "
                                 f"exceeds {self.error_bound:g}")
        return error


class BootstrapWorkload(CkksWorkload):
    """Warm full-slot bootstrap of seeded level-0 ciphertexts."""

    name = "bootstrap"
    error_bound = BOOTSTRAP_ERROR_BOUND

    def setup(self, seed: int):
        # Key generation, rotation keys, and one warm-up bootstrap that
        # fills the diagonal, monomial and table caches.
        fx = bootstrap_fixture(key_seed=KEY_SEED, message_seed=seed,
                               warmup=True)
        rng = np.random.default_rng([seed, 1])
        messages = [fx.message] + [_slot_message(rng, fx.params.slot_count)
                                   for _ in range(POOL_SIZE - 1)]
        base = tuple(fx.params.moduli[:1])
        cts = [fx.ct_low] + [
            fx.ev.drop_to_basis(fx.ev.encrypt_message(m), base)
            for m in messages[1:]]
        fx.pool = Pool(cts, messages)
        return fx

    def run_op(self, state, ct):
        return state.bts.bootstrap(ct)

    def install_trace(self, trace, state) -> None:
        super().install_trace(trace, state)
        if state is not None:
            trace.wrap_instance(state.bts.coeff_to_slot, "apply",
                                "ckks.bootstrap.coeff_to_slot")
            trace.wrap_instance(state.bts.slot_to_coeff, "apply",
                                "ckks.bootstrap.slot_to_coeff")


class HoistedState:
    def __init__(self, ev, transform, pool):
        self.ev = ev
        self.transform = transform
        self.pool = pool


class HoistedLtWorkload(CkksWorkload):
    """One dense seeded slot-matrix transform by the hoisted flow."""

    name = "hoisted_lt"
    error_bound = HOISTED_LT_ERROR_BOUND

    def setup(self, seed: int):
        params = CkksParams.create(**BENCH_PARAMS)
        keygen = KeyGenerator(params, seed=KEY_SEED)
        keys = keygen.generate(sparse_secret=True)
        ev = CkksEvaluator(params, keys)
        rng = np.random.default_rng(seed)
        n = params.slot_count
        # Unit-norm rows keep |M x| at the scale of |x|.
        matrix = (rng.normal(size=(n, n))
                  + 1j * rng.normal(size=(n, n))) / math.sqrt(2 * n)
        messages = [_slot_message(rng, n) for _ in range(POOL_SIZE)]
        transform = LinearTransform.from_matrix(ev, matrix)
        keys.hoisting_rotations.update(generate_hoisting_keys(
            keygen, keys.secret, transform.required_rotations("hoisting")))
        pool = Pool([ev.encrypt_message(m) for m in messages],
                    [matrix @ m for m in messages])
        state = HoistedState(ev, transform, pool)
        # Warm-up: encodes and caches every diagonal plaintext.
        self.sample(state, "op")
        pool.cursor = 0
        return state

    def run_op(self, state, ct):
        return state.transform.apply(ct, method="hoisting")


# -- Analytic model workload --------------------------------------------------

#: Sort is left out: one compare takes about twice the other five
#: together and runs the same lowering/scheduling path.
MODEL_APPS = ("Boot", "HELR", "RNN", "ResNet20", "ResNet18-AESPA")


class ModelState:
    def __init__(self, order, params, programs, kernels, framework):
        self.order = order
        self.params = params
        self.programs = programs
        self.kernels = kernels
        self.framework = framework


def model_outputs(runs) -> dict:
    """The simulated figures pinned in ``model_expected.json``."""
    gpu, pim = runs["gpu"].report, runs["pim"].report
    return {"gpu": {"total_time": gpu.total_time, "energy": gpu.energy},
            "pim": {"total_time": pim.total_time, "energy": pim.energy},
            "edp_gain": edp_improvement(gpu, pim)}


def _count_kernels(args, result, stat) -> None:
    pim = sum(1 for kernel in result if isinstance(kernel, PimKernel))
    stat.extra["pim"] = stat.extra.get("pim", 0) + pim
    stat.extra["gpu"] = stat.extra.get("gpu", 0) + len(result) - pim


class ModelWorkload(Workload):
    """``AnaheimFramework.compare`` of five paper applications at paper
    parameters on A100 + near-bank PIM; one sample is one application,
    one op is a pass over all five."""

    name = "model"

    def sample_keys(self, state) -> list:
        return list(state.order)

    def setup(self, seed: int):
        # The seed only permutes the application order: the inputs of
        # an analytic projection are the paper's parameters.
        order = list(MODEL_APPS)
        random.Random(seed).shuffle(order)
        params = paper_params()
        programs = {name: applications.build(name, params).blocks
                    for name in order}
        # Trace build: lower every program once under both option sets,
        # which is also where the kernel count per pass comes from.
        kernels = 0
        for blocks in programs.values():
            for options in (GPU_ALL_FUSE, PIM_FULL):
                kernels += len(fusion.lower(blocks, params.degree, options))
        framework = AnaheimFramework(A100_80GB, A100_NEAR_BANK)
        return ModelState(order, params, programs, kernels, framework)

    def sample(self, state, key):
        return state.framework.compare(state.programs[key],
                                       state.params.degree, label=key)

    def check(self, state, key, output, expected=None) -> float:
        if expected is None:
            expected = json.loads(EXPECTED_MODEL.read_text())[key]
        got = model_outputs(output)
        if got != expected:
            raise AssertionError(f"{key}: simulated outputs {got} differ "
                                 f"from pinned {expected}")
        return 0.0

    def traced_setup(self, state) -> None:
        for name in state.order:
            applications.build(name, state.params)

    def end_to_end(self, state, run) -> tuple:
        metrics, details = super().end_to_end(state, run)
        details.update(kernels_per_pass=state.kernels, passes=run.ops)
        return metrics, details


def _boot_elementwise_share() -> float:
    """Simulated element-wise share of the GPU-only Boot run (the
    paper's 45-48% on A100); a property of the model, not of the host."""
    params = paper_params()
    blocks = applications.build("Boot", params).blocks
    runs = AnaheimFramework(A100_80GB, A100_NEAR_BANK).compare(
        blocks, params.degree, label="Boot")
    return runs["gpu"].report.category_share(OpCategory.ELEMENTWISE)


def model_layers(trace, run, base, keys) -> dict:
    """Per-op metrics of the analytic model's layers."""
    ops = run.ops
    st = trace.stat
    lower = st("core.fusion.lower")
    kernels = (lower.extra.get("gpu", 0) + lower.extra.get("pim", 0)) / ops
    untraced_op_s = base.op_median(keys, cal=False)
    return {
        "workloads.applications.build_s": (
            st("workloads.applications.build").total, "s"),
        "core.fusion.lower.calls": (lower.calls / ops, "count"),
        "core.fusion.lower.s": (lower.total / ops, "s"),
        "core.scheduler.run.self_s": (
            st("core.scheduler.run").self / ops, "s"),
        "gpu.model.kernel_cost.calls": (
            st("gpu.model.kernel_cost").calls / ops, "count"),
        "gpu.model.kernel_cost.s": (
            st("gpu.model.kernel_cost").total / ops, "s"),
        "gpu.model.kernel_energy.s": (
            st("gpu.model.kernel_energy").total / ops, "s"),
        "pim.executor.cost.calls": (
            st("pim.executor.cost").calls / ops, "count"),
        "pim.executor.cost.s": (st("pim.executor.cost").total / ops, "s"),
        "model.kernels.gpu": (lower.extra.get("gpu", 0) / ops, "count"),
        "model.kernels.pim": (lower.extra.get("pim", 0) / ops, "count"),
        # No kernel lowered (a CKKS workload): nothing to divide by.
        "model.host_us_per_kernel": (
            untraced_op_s / kernels * 1e6 if kernels else 0.0, "us"),
        "model.Boot.gpu_elementwise_share": (_boot_elementwise_share(),
                                             "ratio"),
    }


WORKLOADS = {w.name: w for w in (BootstrapWorkload(), HoistedLtWorkload(),
                                 ModelWorkload())}
