"""Verify -> retry -> fallback guard for the functional numeric layer.

A :class:`FaultSession` wraps every element-wise RNS kernel
(:mod:`repro.ckks.rns` calls :meth:`FaultSession.elementwise` right
after computing a result).  The session plays the PIM side of the
story: it injects faults per the plan (bit flips in the buffered
operands or on the MMAC lane outputs, stuck cells at a site), verifies
the result against the residue-checksum algebra of the op, retries the
kernel a bounded number of times on transient failure, and falls back
to a clean "GPU" re-execution when retries are exhausted or the site's
fault is persistent.  Sites that keep failing are quarantined: later
kernels mapped there skip the PIM path entirely.

With no session attached the hot path pays a single ``is None`` check
per kernel (the module-level ``ACTIVE`` slot), keeping the PR-2 fast
kernels at full speed.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.ckks import instrument
from repro.errors import FaultError
from repro.faults import checksum as cks
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultModel, FaultPlan

#: The active functional-layer session, or None (the fast path).
ACTIVE: "FaultSession | None" = None


class FaultSession:
    """Injection + verification state for one functional campaign."""

    def __init__(self, plan: FaultPlan, injector: FaultInjector | None = None):
        self.plan = plan
        self.injector = injector if injector is not None else FaultInjector(
            plan)
        self._op_index = 0

    @property
    def log(self):
        return self.injector.log

    # -- Checksum algebra per op --------------------------------------------

    def _expected(self, op: str, inputs, q_col: np.ndarray, scalars):
        if op == "add":
            return cks.checksum_add(cks.limb_checksum(inputs[0], q_col),
                                    cks.limb_checksum(inputs[1], q_col),
                                    q_col)
        if op == "sub":
            return cks.checksum_sub(cks.limb_checksum(inputs[0], q_col),
                                    cks.limb_checksum(inputs[1], q_col),
                                    q_col)
        if op == "neg":
            return cks.checksum_neg(cks.limb_checksum(inputs[0], q_col),
                                    q_col)
        if op == "mul":
            return cks.checksum_mul_pairs(inputs[0], inputs[1], q_col)
        if op == "scalar":
            return cks.checksum_scalar_mul(scalars,
                                           cks.limb_checksum(inputs[0],
                                                             q_col), q_col)
        raise FaultError(f"no checksum algebra for op {op!r}")

    # -- Injection per attempt ----------------------------------------------

    def _inject(self, out: np.ndarray, op: str, site: int):
        injector = self.injector
        if injector.is_stuck(site):
            detail = injector.stick_word(out, site)
            if detail is None:
                return None        # latent: stored bits equal the stuck value
            return injector.event(FaultModel.PIM_STUCK_AT, op,
                                  "functional", site=site, **detail)
        for model in (FaultModel.PIM_BITFLIP_BUFFER,
                      FaultModel.PIM_BITFLIP_MMAC):
            if injector.draw(model):
                detail = injector.flip_word(out, model)
                return injector.event(model, op, "functional", site=site,
                                      **detail)
        return None

    # -- The guard ----------------------------------------------------------

    @property
    def kernels(self) -> int:
        """Element-wise kernels guarded so far (one per batch plane)."""
        return self._op_index

    def elementwise(self, op: str, inputs, out: np.ndarray,
                    q_col: np.ndarray, recompute, scalars=None) -> None:
        """Guard one element-wise dispatch whose clean result is ``out``.

        ``recompute`` re-fills an ``out``-shaped buffer with the clean
        result (the simulated re-execution).  A batched ``(..., L, N)``
        result is guarded plane by plane, each plane as its own kernel
        with its own site, injection draws and checksum, so running
        independent polynomials as one batch leaves the campaign's
        exposure per polynomial unchanged.  ``out`` must be C-ordered:
        faults are injected through a flat view of each plane.
        """
        if not out.flags.c_contiguous:
            raise FaultError("guarded results must be C-ordered")
        if out.ndim == 2:
            self._guard(op, inputs, out, q_col, recompute, scalars)
            return
        for index in np.ndindex(out.shape[:-2]):
            def recompute_plane(buf, index=index):
                full = np.empty_like(out)
                recompute(full)
                buf[...] = full[index]
            planes = tuple(x if x.ndim == 2 else x[index] for x in inputs)
            self._guard(op, planes, out[index], q_col, recompute_plane,
                        scalars)

    def _guard(self, op: str, inputs, out: np.ndarray, q_col: np.ndarray,
               recompute, scalars) -> None:
        """Inject, verify, retry and fall back for one ``(L, N)`` kernel.

        Injection draws are fresh per attempt, so retried kernels can
        fault again.
        """
        plan = self.plan
        injector = self.injector
        site = injector.site_for(self._op_index)
        self._op_index += 1
        if injector.is_quarantined(site):
            # PIM site is out of rotation: the clean result stands in
            # for the rerouted GPU execution.
            injector.note_reroute()
            instrument.count("faults.rerouted")
            return
        expected = self._expected(op, inputs, q_col, scalars)
        event = None
        attempts = 0
        while True:
            injected = self._inject(out, op, site)
            if injected is not None:
                event = injected
                instrument.count("faults.injected")
            if not cks.mismatched_limbs(out, expected, q_col).any():
                if event is not None and event.recovery is None \
                        and not event.detected:
                    # A corruption that left every checksum intact would
                    # be a silent escape; single-word faults cannot, but
                    # account for the path anyway.
                    event.benign = True
                break
            # Mismatch: the fault (this attempt's or a persistent one)
            # is detected.
            if event is not None:
                event.detected = True
                event.attempts = attempts + 1
            instrument.count("faults.detected")
            attempts += 1
            if (attempts <= plan.max_attempts
                    and not injector.is_stuck(site)):
                recompute(out)
                if event is not None:
                    event.recovery = "retry"
                instrument.count("faults.retries")
                continue
            if not plan.allow_fallback:
                raise FaultError(
                    f"kernel {op!r} at site {site} failed "
                    f"{attempts} attempt(s) and fallback is disabled")
            recompute(out)
            if event is not None:
                event.recovery = "fallback"
            instrument.count("faults.fallbacks")
            if injector.record_site_failure(site):
                instrument.count("faults.quarantined_sites")
            break


@contextmanager
def session(plan, injector: FaultInjector | None = None):
    """Attach a functional fault session for the duration of a block:
    ``plan`` itself when it is a ready-built :class:`FaultSession`
    (such as a RAS session), else a fresh session over the plan."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = (plan if isinstance(plan, FaultSession)
              else FaultSession(plan, injector=injector))
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous
