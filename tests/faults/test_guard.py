"""Functional-layer guard: detect, retry, fall back, quarantine."""

import numpy as np
import pytest

from repro.ckks import modmath
from repro.ckks.rns import RnsPolynomial
from repro.errors import FaultError
from repro.faults import guard
from repro.faults.guard import FaultSession
from repro.faults.plan import (FaultModel, FaultPlan, FaultSpec,
                               default_plan)

BASIS = tuple(modmath.generate_primes(3, 64, bits=26))
Q_COL = np.array(BASIS, dtype=np.int64).reshape(-1, 1)
N = 64


def _residues(seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, q, size=N, dtype=np.int64)
                     for q in BASIS])


def _guarded(session, op, inputs, clean, scalars=None):
    """Run one guarded kernel whose clean result is ``clean``."""
    out = clean.copy()
    session.elementwise(op, inputs, out, Q_COL,
                        lambda buf: np.copyto(buf, clean), scalars=scalars)
    return out


class TestCleanPath:
    def test_no_session_is_fast_path(self):
        assert guard.ACTIVE is None

    def test_session_restores_active(self):
        with guard.session(default_plan()) as s:
            assert guard.ACTIVE is s
        assert guard.ACTIVE is None

    def test_session_installs_a_ready_built_session(self):
        outer = FaultSession(FaultPlan(seed=1))
        inner = FaultSession(FaultPlan(seed=2))
        with guard.session(outer):
            with pytest.raises(RuntimeError):
                with guard.session(inner) as s:
                    assert s is inner and guard.ACTIVE is inner
                    raise RuntimeError("body failed")
            assert guard.ACTIVE is outer
        assert guard.ACTIVE is None

    def test_zero_rate_plan_leaves_results_untouched(self):
        session = FaultSession(FaultPlan(seed=1))
        a, b = _residues(1), _residues(2)
        for op, inputs, clean in [
            ("add", (a, b), (a + b) % Q_COL),
            ("sub", (a, b), (a - b) % Q_COL),
            ("neg", (a,), (-a) % Q_COL),
            ("mul", (a, b), (a * b) % Q_COL),
        ]:
            assert (_guarded(session, op, inputs, clean) == clean).all()
        assert not session.log.events

    def test_scalar_op(self):
        session = FaultSession(FaultPlan(seed=1))
        a = _residues(3)
        col = np.array([17, 23, 99], dtype=np.int64).reshape(-1, 1) % Q_COL
        clean = (a * col) % Q_COL
        assert (_guarded(session, "scalar", (a,), clean,
                         scalars=col) == clean).all()

    def test_unknown_op_rejected(self):
        session = FaultSession(FaultPlan(seed=1))
        a = _residues(4)
        with pytest.raises(FaultError):
            _guarded(session, "ntt", (a,), a)


class TestRecovery:
    def test_always_faulting_kernel_retries_then_falls_back(self):
        plan = FaultPlan(seed=2, specs=(
            FaultSpec(FaultModel.PIM_BITFLIP_BUFFER, rate=1.0),),
            max_attempts=3, n_sites=1)
        session = FaultSession(plan)
        a, b = _residues(5), _residues(6)
        clean = (a + b) % Q_COL
        out = _guarded(session, "add", (a, b), clean)
        assert (out == clean).all()         # corruption never escapes
        summary = session.log.summary()
        assert summary["injected"] == plan.max_attempts + 1
        assert summary["detected"] == summary["injected"]
        assert summary["recovered_retry"] == plan.max_attempts
        assert summary["recovered_fallback"] == 1
        assert summary["unrecovered"] == 0
        assert summary["coverage"] == 1.0

    def test_stuck_site_skips_retry_then_quarantines(self):
        plan = default_plan(seed=3, scale=0.0, stuck_sites=(0,),
                            n_sites=1, quarantine_threshold=1)
        session = FaultSession(plan)
        a = np.zeros_like(_residues(0))     # bit 12 clear: the fault bites
        clean = a.copy()
        out = _guarded(session, "neg", (a,), clean)
        assert (out == clean).all()
        [event] = session.log.events
        assert event.model == "pim-stuck-at"
        assert event.detected and event.recovery == "fallback"
        assert event.attempts == 1          # persistent fault: no retry
        assert session.injector.is_quarantined(0)
        # The quarantined site is now skipped entirely.
        out2 = _guarded(session, "neg", (a,), clean)
        assert (out2 == clean).all()
        assert session.log.rerouted == 1
        assert len(session.log.events) == 1

    def test_fallback_disabled_raises(self):
        plan = default_plan(seed=4, scale=0.0, stuck_sites=(0,),
                            n_sites=1, max_attempts=0, allow_fallback=False)
        session = FaultSession(plan)
        a = np.zeros_like(_residues(0))
        with pytest.raises(FaultError):
            _guarded(session, "neg", (a,), a.copy())

    def test_campaign_results_match_clean_reference(self):
        """A hot campaign over many guarded kernels never lets a
        corrupted result escape, and detects every effective fault."""
        plan = default_plan(seed=7, scale=40.0, n_sites=8)
        session = FaultSession(plan)
        rng = np.random.default_rng(11)
        for i in range(300):
            a, b = _residues(2 * i), _residues(2 * i + 1)
            op = ("add", "sub", "mul")[int(rng.integers(3))]
            clean = {"add": (a + b) % Q_COL, "sub": (a - b) % Q_COL,
                     "mul": (a * b) % Q_COL}[op]
            assert (_guarded(session, op, (a, b), clean) == clean).all()
        summary = session.log.summary()
        assert summary["injected"] > 20
        assert summary["undetected"] == 0
        assert summary["unrecovered"] == 0
        assert summary["coverage"] == 1.0


class TestRnsIntegration:
    def test_rns_ops_under_session_match_clean(self):
        a = RnsPolynomial(_residues(8), BASIS)
        b = RnsPolynomial(_residues(9), BASIS)
        clean = [(a + b).coeffs, (a - b).coeffs, (-a).coeffs]
        with guard.session(default_plan(seed=6, scale=40.0)) as s:
            faulted = [(a + b).coeffs, (a - b).coeffs, (-a).coeffs]
        assert s.log.events                 # the campaign actually injected
        for got, want in zip(faulted, clean):
            assert (got == want).all()


class TestBatchedPlanes:
    def test_each_plane_is_its_own_kernel(self):
        """A ``(2, L, N)`` dispatch is two guarded kernels on two sites,
        with the per-plane checksum catching a fault in either plane."""
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(FaultModel.PIM_BITFLIP_BUFFER, rate=1.0),),
            max_attempts=1, n_sites=4)
        xs = [RnsPolynomial(_residues(20 + i), BASIS) for i in range(2)]
        ys = [RnsPolynomial(_residues(30 + i), BASIS) for i in range(2)]
        x = RnsPolynomial(np.stack([p.coeffs for p in xs]), BASIS)
        y = RnsPolynomial(np.stack([p.coeffs for p in ys]), BASIS)
        clean = np.stack([(a + b).coeffs for a, b in zip(xs, ys)])
        with guard.session(plan) as session:
            out = (x + y).coeffs
        assert (out == clean).all()
        assert session.kernels == 2
        sites = [event.site for event in session.log.events]
        assert sites == [0, 0, 1, 1]        # fault + fallback per plane
        summary = session.log.summary()
        assert summary["undetected"] == 0 and summary["unrecovered"] == 0

    def test_plane_against_one_limb_matrix_operand(self):
        """A batch times an ``(L, N)`` operand guards each plane with
        that operand's checksum algebra."""
        a = RnsPolynomial(np.stack([_residues(40), _residues(41)]), BASIS,
                          is_ntt=True)
        b = RnsPolynomial(_residues(42), BASIS, is_ntt=True)
        clean = (a * b).coeffs
        with guard.session(default_plan(seed=9, scale=200.0)) as s:
            got = (a * b).coeffs
        assert s.kernels == 2
        assert s.log.events                 # the campaign actually injected
        assert (got == clean).all()

    def test_non_c_ordered_result_refused(self):
        """Faults are injected through a flat view of each plane; on a
        strided result that view would be a copy and the fault lost."""
        session = FaultSession(FaultPlan(seed=1))
        strided = np.stack([_residues(50), _residues(51)], axis=-1)[..., 0]
        with pytest.raises(FaultError):
            session.elementwise("neg", (strided,), strided, Q_COL,
                                lambda buf: None)

    def test_bootstrap_guards_one_kernel_per_plane(self):
        """Lockstep EvalMod batches the two halves, yet the guard sees
        one kernel per polynomial: 5121 per warm bootstrap, as many as
        when the halves ran one after the other."""
        from repro.ckks.fixture import bootstrap_fixture

        fx = bootstrap_fixture()
        with guard.session(FaultPlan(seed=0)) as s:
            fx.bts.bootstrap(fx.ct_low)
        assert s.kernels == 5121
