"""Wall-clock benchmarks of the executable CKKS layer.

Unlike the analytical performance model (``repro.core``), these numbers
time the *functional* implementation actually running: the batched
limb-plane NTT against the per-limb reference, a full hybrid key
switch, and an end-to-end bootstrap.  ``anaheim-repro bench --workload
functional`` records them as a ``BENCH_functional.json`` baseline so
numeric-layer regressions show up in wall-clock terms.

Wall time is noisy, so every metric is the best of ``repeats`` trials
— the minimum is the standard estimator for "how fast can this code
run" on a machine with background load.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ckks import instrument
from repro.ckks.fixture import BENCH_PARAMS, bootstrap_fixture
from repro.ckks.keyswitch import key_switch
from repro.ckks.ntt import NttContext
from repro.ckks.rns import batch_ntt_context

#: NTT transforms per timing trial; one transform of a (19, 128) limb
#: matrix is microseconds, far below timer resolution.
NTT_LOOPS = 200


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_functional_bench(repeats: int = 3, tracer=None) -> dict:
    """Time the executable numeric layer; returns a metrics document.

    ``tracer`` (a ``repro.obs.tracer.Tracer``) is attached to the CKKS
    instrumentation hooks for the duration of the run, so the returned
    ``counters`` record batched-NTT calls, Shoup limb rows, and cache
    hits alongside the wall-clock metrics.
    """
    fx = bootstrap_fixture()
    params, keys, ev, bts = fx.params, fx.keys, fx.ev, fx.bts

    full_basis = tuple(params.moduli) + tuple(params.aux_moduli)
    rng = np.random.default_rng(7)
    limbs = np.stack([rng.integers(0, q, size=params.degree, dtype=np.int64)
                      for q in full_basis])

    batch_ctx = batch_ntt_context(params.degree, full_basis)
    per_limb = [NttContext(params.degree, q) for q in full_basis]

    def batched_forward():
        for _ in range(NTT_LOOPS):
            batch_ctx.forward(limbs)

    def batched_inverse():
        for _ in range(NTT_LOOPS):
            batch_ctx.inverse(limbs)

    def reference_forward():
        for _ in range(NTT_LOOPS):
            for i, ctx in enumerate(per_limb):
                ctx.forward(limbs[i])

    # Key switch of a full-basis NTT polynomial under the relin key —
    # the decompose → ModUp → KeyMult → ModDown pipeline end to end.
    ct = ev.encrypt_message(0.3 * rng.normal(size=params.slot_count))

    def one_key_switch():
        key_switch(ct.a, keys.relin, ev.decomp)

    # End-to-end bootstrap from the lowest level.  The fixture's
    # construction already ran the untimed warmup (CtS/StC rotation
    # keys, diagonal-plaintext caches — one-time setup cost).
    ct_low = fx.ct_low
    refreshed = bts.bootstrap(ct_low)

    old_tracer = instrument.get_tracer()
    instrument.set_tracer(tracer)
    try:
        metrics = {
            "ntt_forward_batched_s": _best_of(batched_forward, repeats),
            "ntt_inverse_batched_s": _best_of(batched_inverse, repeats),
            "ntt_forward_reference_s": _best_of(reference_forward, repeats),
            "key_switch_s": _best_of(one_key_switch, repeats),
            "bootstrap_s": _best_of(
                lambda: bts.bootstrap(ct_low), repeats),
        }
    finally:
        instrument.set_tracer(old_tracer)
    metrics["ntt_batch_speedup"] = (metrics["ntt_forward_reference_s"]
                                    / metrics["ntt_forward_batched_s"])

    return {
        "metrics": metrics,
        "counters": dict(tracer.counters) if tracer is not None else {},
        "precision_max_err": fx.decrypt_error(refreshed),
        "config": {"params": dict(BENCH_PARAMS), "repeats": repeats,
                   "ntt_loops": NTT_LOOPS,
                   "limb_count": len(full_basis)},
    }
