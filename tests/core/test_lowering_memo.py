"""The lowering memo: each distinct block is lowered once per call.

``Lowering.lower`` hands every repeat of a block the kernel list of its
first occurrence.  These tests pin that this changes nothing a caller
can see: the trace equals lowering every block on its own, and a traced
lowering counts exactly the ``lower.*`` values recorded in
``data/lowering_counters.json`` (captured from the lowering that called
a handler for every block).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import blocks as B
from repro.core import fusion
from repro.core.fusion import Lowering, lower
from repro.core.trace import GpuKernel, PimKernel
from repro.obs.tracer import Tracer
from repro.params import paper_params
from repro.workloads import applications

EXPECTED = json.loads(
    (Path(__file__).parent / "data" / "lowering_counters.json").read_text())

ALL_PRESETS = ("GPU_BASE", "GPU_BASIC_FUSE", "GPU_EXTRA_FUSE",
               "GPU_ALL_FUSE", "PIM_BASE", "PIM_BASIC_FUSE", "PIM_FULL",
               "PIM_NO_CP")
CASES = ([(app, preset) for app in ("Boot", "HELR")
          for preset in ALL_PRESETS]
         + [(app, preset) for app in ("RNN", "ResNet20", "ResNet18-AESPA")
            for preset in ("GPU_ALL_FUSE", "PIM_FULL")])

PARAMS = paper_params()
_PROGRAMS: dict = {}


def program(app: str) -> list:
    if app not in _PROGRAMS:
        _PROGRAMS[app] = applications.build(app, PARAMS).blocks
    return _PROGRAMS[app]


def lower_each_block(blocks, options) -> list:
    """The reference: one handler call per block, no sharing."""
    lowering = Lowering(PARAMS.degree, options)
    out = []
    for block in blocks:
        out.extend(getattr(lowering, f"_lower_{block.kind}")(block))
    return out


@pytest.mark.parametrize("app,preset", CASES)
def test_memo_matches_per_block_lowering(app, preset):
    blocks = program(app)
    options = getattr(fusion, preset)
    got = lower(blocks, PARAMS.degree, options).kernels
    want = lower_each_block(blocks, options)
    assert len(got) == len(want)
    assert got == want


@pytest.mark.parametrize("app,preset", CASES)
def test_traced_lowering_counts_unchanged(app, preset):
    tracer = Tracer()
    trace = lower(program(app), PARAMS.degree, getattr(fusion, preset),
                  tracer=tracer)
    counts = {k: v for k, v in tracer.counters.items()
              if k.startswith("lower.")}
    assert counts == EXPECTED[app][preset]
    assert counts["lower.blocks"] == len(program(app))
    assert (counts.get("lower.kernels.gpu", 0)
            + counts.get("lower.kernels.pim", 0)) == len(trace)
    assert len(tracer.find("lower.modup")) == counts["lower.blocks.modup"]


class TestSharing:
    N = 2 ** 16

    def test_repeats_share_kernel_objects(self):
        block = B.mod_up(20, 14, 4)
        trace = lower([block, B.mod_up(20, 14, 4)], self.N,
                      fusion.PIM_FULL)
        half = len(trace) // 2
        assert all(a is b for a, b in zip(trace.kernels[:half],
                                          trace.kernels[half:]))

    def test_unread_fields_do_not_split_the_memo(self):
        # ``streaming`` and ``note`` are read by no handler.
        plain = B.Block(kind="keymult", limbs=20, aux=14, dnum=4)
        marked = B.Block(kind="keymult", limbs=20, aux=14, dnum=4,
                         streaming=True, note="evk")
        trace = lower([plain, marked], self.N, fusion.GPU_ALL_FUSE)
        assert trace.kernels[0] is trace.kernels[1]

    @pytest.mark.parametrize("a,b", [
        (B.raw_ntt(20), B.raw_ntt(20, inverse=True)),                # kind
        (B.mod_up(20, 14, 4), B.mod_up(24, 14, 4)),                  # limbs
        (B.mod_up(8, 14, 4), B.mod_up(8, 10, 4)),                    # aux
        (B.mod_up(20, 14, 4), B.mod_up(20, 14, 2)),                  # dnum
        (B.caccum(20, 4), B.caccum(20, 8)),                          # count
        (B.mod_up(20, 14, 4), B.mod_up(20, 14, 4, polys=2)),         # polys
        (B.raw_bconv(20, 14), B.raw_bconv(20, 10)),                  # attrs
    ])
    def test_every_key_field_splits_the_memo(self, a, b):
        for options in (fusion.GPU_BASE, fusion.PIM_FULL):
            alone = [lower([a], self.N, options).kernels,
                     lower([b], self.N, options).kernels]
            assert alone[0] != alone[1]
            assert (lower([a, b], self.N, options).kernels
                    == alone[0] + alone[1])

    def test_memo_is_per_call(self):
        blocks = [B.tensor(20)]
        first = lower(blocks, self.N, fusion.PIM_FULL)
        second = lower(blocks, self.N, fusion.PIM_FULL)
        assert first.kernels == second.kernels
        assert first.kernels[0] is not second.kernels[0]

    def test_unknown_kind_still_rejected(self):
        from repro.errors import ParameterError
        with pytest.raises(ParameterError):
            lower([B.Block(kind="nope", limbs=1)], self.N,
                  fusion.GPU_ALL_FUSE)


class TestFrozenKernels:
    """Shared kernels must not be editable in place."""

    def test_gpu_kernel_is_frozen(self):
        kernel = lower([B.tensor(20)], 2 ** 16, fusion.GPU_ALL_FUSE).kernels[0]
        assert isinstance(kernel, GpuKernel)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.mod_ops = 0.0

    def test_pim_kernel_is_frozen(self):
        kernel = lower([B.tensor(20)], 2 ** 16, fusion.PIM_FULL).kernels[0]
        assert isinstance(kernel, PimKernel)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.limbs = 1

    def test_tagged_derives_a_new_kernel(self):
        kernel = lower([B.tensor(20)], 2 ** 16, fusion.GPU_ALL_FUSE).kernels[0]
        tagged = kernel.tagged("fusible")
        assert tagged.has_tag("fusible") and not kernel.has_tag("fusible")
