"""Tests for CKKS bootstrapping at reduced ring degree."""

import hashlib
import sys
from collections import Counter

import numpy as np
import pytest

from repro.ckks import instrument, keyswitch
from repro.ckks.bootstrap import (Bootstrapper, mod_raise,
                                  special_fft_matrix)
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.fixture import bootstrap_fixture
from repro.ckks.keys import KeyGenerator
from repro.ckks.rns import RnsPolynomial
from repro.errors import LevelError, ParameterError
from repro.obs.tracer import Tracer
from repro.params import CkksParams


@pytest.fixture(scope="module")
def boot_setup():
    params = CkksParams.create(degree=2 ** 7, level_count=15, aux_count=4,
                               prime_bits=28, base_prime_bits=31)
    keygen = KeyGenerator(params, seed=11)
    keys = keygen.generate(sparse_secret=True)
    ev = CkksEvaluator(params, keys)
    bts = Bootstrapper(ev, keygen)
    return params, ev, bts


class TestSpecialFft:
    def test_matrix_matches_encoder_embedding(self):
        from repro.ckks.encoder import embed
        degree = 64
        n = degree // 2
        e0 = special_fft_matrix(degree)
        rng = np.random.default_rng(0)
        c = np.zeros(degree)
        c[:n] = rng.normal(size=n)
        assert np.allclose(embed(c, degree), e0 @ c[:n], atol=1e-9)

    def test_second_half_contributes_i_times_e0(self):
        from repro.ckks.encoder import embed
        degree = 64
        n = degree // 2
        e0 = special_fft_matrix(degree)
        rng = np.random.default_rng(1)
        c = np.zeros(degree)
        c[n:] = rng.normal(size=n)
        assert np.allclose(embed(c, degree), 1j * (e0 @ c[n:]), atol=1e-9)

    def test_invertible(self):
        e0 = special_fft_matrix(64)
        assert np.linalg.cond(e0) < 1e3


class TestModRaise:
    def test_requires_single_limb(self, boot_setup):
        params, ev, _ = boot_setup
        ct = ev.encrypt_message(np.ones(params.slot_count))
        with pytest.raises(ParameterError):
            mod_raise(ct, tuple(params.moduli))

    def test_raised_decrypts_to_message_plus_q0_multiple(self, boot_setup):
        params, ev, _ = boot_setup
        rng = np.random.default_rng(2)
        m = 0.3 * rng.normal(size=params.slot_count)
        ct = ev.drop_to_basis(ev.encrypt_message(m), tuple(params.moduli[:1]))
        raised = mod_raise(ct, tuple(params.moduli))
        coeffs = ev.decrypt(raised).poly.to_int_coeffs().astype(np.float64)
        q0 = params.moduli[0]
        residue = coeffs - q0 * np.round(coeffs / q0)
        # The residue mod q0 is the plaintext (plus noise), and I is small.
        assert np.abs(coeffs / q0).max() < 16
        expect = ev.decrypt(ct).poly.to_int_coeffs().astype(np.float64)
        expect = expect - q0 * np.round(expect / q0)
        assert np.abs(residue - expect).max() < 2


class TestBootstrap:
    def test_end_to_end_precision(self, boot_setup):
        params, ev, bts = boot_setup
        rng = np.random.default_rng(9)
        m = 0.3 * (rng.normal(size=params.slot_count)
                   + 1j * rng.normal(size=params.slot_count))
        ct_low = ev.drop_to_basis(ev.encrypt_message(m),
                                  tuple(params.moduli[:1]))
        out = bts.bootstrap(ct_low)
        dec = ev.decrypt_message(out)
        assert np.abs(dec - m).max() < 5e-3

    def test_restores_levels(self, boot_setup):
        params, ev, bts = boot_setup
        rng = np.random.default_rng(10)
        m = 0.2 * rng.normal(size=params.slot_count)
        ct_low = ev.drop_to_basis(ev.encrypt_message(m),
                                  tuple(params.moduli[:1]))
        out = bts.bootstrap(ct_low)
        assert out.level_count >= 2
        assert out.level_count == params.level_count - bts.depth()

    def test_output_supports_multiplication(self, boot_setup):
        params, ev, bts = boot_setup
        rng = np.random.default_rng(11)
        m = 0.3 * rng.normal(size=params.slot_count)
        ct_low = ev.drop_to_basis(ev.encrypt_message(m),
                                  tuple(params.moduli[:1]))
        out = bts.bootstrap(ct_low)
        squared = ev.multiply(out, out)
        got = ev.decrypt_message(squared).real
        assert np.abs(got - m * m).max() < 5e-3

    def test_insufficient_levels_raises(self):
        params = CkksParams.create(degree=2 ** 7, level_count=6, aux_count=2,
                                   prime_bits=28, base_prime_bits=31)
        keygen = KeyGenerator(params, seed=1)
        keys = keygen.generate(sparse_secret=True)
        ev = CkksEvaluator(params, keys)
        bts = Bootstrapper(ev, keygen)
        m = np.ones(params.slot_count) * 0.1
        ct = ev.drop_to_basis(ev.encrypt_message(m), tuple(params.moduli[:1]))
        with pytest.raises(LevelError):
            bts.bootstrap(ct)

    def test_depth_matches_config(self, boot_setup):
        _, _, bts = boot_setup
        # CtS + StC + normalize(2) + ceil(log2(79)) + combination
        assert bts.depth() == 2 + 2 + 7 + 1


#: sha256 over the little-endian int64 ``b`` then ``a`` coefficients of
#: one warm bootstrap of ``bootstrap_fixture()`` (key seed 11, message
#: seed 7), and the output scale.  Recorded when EvalMod still ran its
#: two halves one after the other: running them in lockstep must not
#: move a single bit.
WARM_BOOTSTRAP_SHA256 = (
    "95861e813f92f03515a97af681530f22a1a78b763fb69d56f7d1d7eeb4ccce3a")
WARM_BOOTSTRAP_SCALE = 269059518.7408929

_PHASES = ("_coeff_to_slot", "_eval_mod", "_slot_to_coeff")
_STAGES = ("key_switch", "mod_up", "mod_down")
_ELEMENTWISE = ("__add__", "__sub__", "__mul__", "__neg__", "scalar_mul")


def _counting(monkeypatch, counts, phase):
    """Count calls per bootstrap phase of the key-switch stages (under
    every name they were imported by) and of the element-wise ops."""

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            counts[phase[0], name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _STAGES:
        original = getattr(keyswitch, name)
        wrapper = counted(original, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    for attr in _ELEMENTWISE:
        monkeypatch.setattr(RnsPolynomial, attr, counted(
            getattr(RnsPolynomial, attr), "elementwise"))

    def in_phase(fn, name):
        def wrapper(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = None
        return wrapper

    for name in _PHASES:
        monkeypatch.setattr(Bootstrapper, name,
                            in_phase(getattr(Bootstrapper, name), name))


class TestWarmBootstrapPinned:
    """One warm bootstrap at the bench parameters, pinned exactly: its
    output bits and its deterministic kernel counts."""

    @pytest.fixture(scope="class")
    def fixture(self):
        return bootstrap_fixture(key_seed=11, message_seed=7)

    @pytest.fixture()
    def run(self, fixture, monkeypatch):
        counts, phase = Counter(), [None]
        _counting(monkeypatch, counts, phase)
        tracer = Tracer()
        instrument.set_tracer(tracer)
        try:
            out = fixture.bts.bootstrap(fixture.ct_low)
        finally:
            instrument.set_tracer(None)
        return out, counts, tracer.counters

    def test_output_bits_and_scale(self, run, fixture):
        out, _, _ = run
        digest = hashlib.sha256()
        for half in (out.b, out.a):
            digest.update(np.ascontiguousarray(half.coeffs,
                                               dtype="<i8").tobytes())
        assert digest.hexdigest() == WARM_BOOTSTRAP_SHA256
        assert out.scale == WARM_BOOTSTRAP_SCALE
        assert fixture.decrypt_error(out) < 1e-3

    def test_key_switches_per_phase(self, run):
        _, counts, _ = run
        for stage in _STAGES:
            assert {phase: counts[phase, stage] for phase in _PHASES} == {
                "_coeff_to_slot": 15, "_eval_mod": 59,
                "_slot_to_coeff": 14}, stage
            assert counts[None, stage] == 0

    def test_kernel_dispatches(self, run):
        _, counts, counters = run
        assert sum(n for (_, name), n in counts.items()
                   if name == "elementwise") == 3043
        assert counts["_eval_mod", "elementwise"] == 2078
        assert counters["ckks.bconv.batched"] == 451
        assert counters["ckks.batch_ntt.forward"] == 435
        assert counters["ckks.batch_ntt.inverse"] == 334
        assert counters["ckks.batch_ntt.limbs"] == 12889
