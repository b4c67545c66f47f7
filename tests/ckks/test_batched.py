"""Batched ``(B, L, N)`` polynomials equal their planes run one by one.

Every op that bootstrapping's lockstep EvalMod sends through a batch
must give, bit for bit, ``np.stack`` of the per-plane results — with
the kernel thread pool off and on (the row split must not see the
batch axis).
"""

import numpy as np
import pytest

from repro.ckks import modmath
from repro.ckks.cipher import Ciphertext
from repro.ckks.keyswitch import (basis_convert, key_switch, mod_down,
                                  rescale_poly)
from repro.ckks.rns import RnsPolynomial, stacked_ntt
from repro.errors import ParameterError
from repro.parallel.threads import thread_scope

N = 64
BASIS = tuple(modmath.generate_primes(6, N, bits=28))
AUX = tuple(modmath.generate_primes(8, N, bits=28))[6:]

pytestmark = pytest.mark.parametrize("threads", [1, 2])


@pytest.fixture(autouse=True)
def _threads(threads):
    with thread_scope(threads):
        yield


def _planes(seed, basis=BASIS, is_ntt=True, count=2):
    rng = np.random.default_rng(seed)
    return [RnsPolynomial.random_uniform(N, basis, rng, is_ntt=is_ntt)
            for _ in range(count)]


def _batch(polys) -> RnsPolynomial:
    return RnsPolynomial(np.stack([p.coeffs for p in polys]),
                         polys[0].basis, polys[0].is_ntt)


def _assert_batch(batched: RnsPolynomial, singles) -> None:
    assert batched.coeffs.shape == (len(singles),) + singles[0].coeffs.shape
    assert batched.basis == singles[0].basis
    assert batched.is_ntt == singles[0].is_ntt
    assert batched.coeffs.flags.c_contiguous
    assert np.array_equal(batched.coeffs,
                          np.stack([p.coeffs for p in singles]))


class TestElementwise:
    def test_add_sub_mul_of_two_batches(self, threads):
        xs, ys = _planes(1), _planes(2)
        x, y = _batch(xs), _batch(ys)
        _assert_batch(x + y, [a + b for a, b in zip(xs, ys)])
        _assert_batch(x - y, [a - b for a, b in zip(xs, ys)])
        _assert_batch(x * y, [a * b for a, b in zip(xs, ys)])

    @pytest.mark.parametrize("shoup", [False, True])
    def test_batch_against_one_plane_operand(self, threads, shoup):
        xs = _planes(3)
        (p,) = _planes(4, count=1)
        if shoup:
            p.ensure_shoup()
        x = _batch(xs)
        _assert_batch(x * p, [a * p for a in xs])
        _assert_batch(p * x, [p * a for a in xs])
        _assert_batch(x + p, [a + p for a in xs])
        _assert_batch(p - x, [p - a for a in xs])

    def test_neg_and_scalar_mul(self, threads):
        xs = _planes(5)
        x = _batch(xs)
        _assert_batch(-x, [-a for a in xs])
        constants = [3 + 7 * i for i in range(len(BASIS))]
        _assert_batch(x.scalar_mul(constants),
                      [a.scalar_mul(constants) for a in xs])
        _assert_batch(x.scalar_mul(5), [a.scalar_mul(5) for a in xs])


class TestBasisAndDomain:
    @pytest.mark.parametrize("target", [BASIS[:4], (BASIS[4], BASIS[1])],
                             ids=["prefix", "non-prefix"])
    def test_restrict(self, threads, target):
        xs = _planes(6)
        _assert_batch(_batch(xs).restrict(target),
                      [a.restrict(target) for a in xs])

    def test_concat(self, threads):
        xs, ys = _planes(7, BASIS[:3]), _planes(8, BASIS[3:])
        _assert_batch(_batch(xs).concat(_batch(ys)),
                      [a.concat(b) for a, b in zip(xs, ys)])

    def test_to_and_from_ntt(self, threads):
        coeff = _planes(9, is_ntt=False)
        evals = _planes(10)
        _assert_batch(_batch(coeff).to_ntt(), [a.to_ntt() for a in coeff])
        _assert_batch(_batch(evals).from_ntt(),
                      [a.from_ntt() for a in evals])

    def test_stacked_ntt_mixes_batches_and_single_planes(self, threads):
        xs = _planes(11, is_ntt=False)
        (single,) = _planes(12, BASIS[:2], is_ntt=False, count=1)
        batched, alone = stacked_ntt([_batch(xs), single])
        _assert_batch(batched, [a.to_ntt() for a in xs])
        assert np.array_equal(alone.coeffs, single.to_ntt().coeffs)

    def test_basis_convert(self, threads):
        xs = _planes(13, BASIS[:3], is_ntt=False)
        _assert_batch(basis_convert(_batch(xs), AUX),
                      [basis_convert(a, AUX) for a in xs])


class TestKeySwitchStages:
    @pytest.mark.parametrize("is_ntt", [True, False])
    def test_rescale_poly(self, threads, is_ntt):
        bs, as_ = _planes(14, is_ntt=is_ntt), _planes(15, is_ntt=is_ntt)
        b, a = rescale_poly((_batch(bs), _batch(as_)))
        singles = [rescale_poly((pb, pa)) for pb, pa in zip(bs, as_)]
        _assert_batch(b, [s[0] for s in singles])
        _assert_batch(a, [s[1] for s in singles])

    def test_mod_down(self, threads):
        full = BASIS + AUX
        bs, as_ = _planes(16, full), _planes(17, full)
        b, a = mod_down((_batch(bs), _batch(as_)), BASIS, AUX)
        singles = [mod_down((pb, pa), BASIS, AUX)
                   for pb, pa in zip(bs, as_)]
        _assert_batch(b, [s[0] for s in singles])
        _assert_batch(a, [s[1] for s in singles])

    @pytest.mark.parametrize("levels", [None, 3], ids=["full", "leveled"])
    def test_key_switch(self, threads, levels, small_context):
        ev = small_context
        basis = ev.decomp.moduli[:levels]
        rng = np.random.default_rng(18)
        d2s = [RnsPolynomial.random_uniform(ev.params.degree, basis, rng)
               for _ in range(2)]
        b, a = key_switch(_batch(d2s), ev.keys.relin, ev.decomp)
        singles = [key_switch(d2, ev.keys.relin, ev.decomp) for d2 in d2s]
        _assert_batch(b, [s[0] for s in singles])
        _assert_batch(a, [s[1] for s in singles])


class TestStackedCiphertext:
    def _pair(self, ev, params):
        rng = np.random.default_rng(19)
        return [ev.encrypt_message(0.3 * rng.normal(size=params.slot_count))
                for _ in range(2)]

    def test_multiply_equals_per_ciphertext(self, threads, small_context,
                                            small_params):
        ev = small_context
        cts = self._pair(ev, small_params)
        stacked = Ciphertext.stack(cts)
        out = ev.multiply(stacked, stacked)
        singles = [ev.multiply(ct, ct) for ct in cts]
        assert out.scale == singles[0].scale
        for got, want in zip(out.unstack(), singles):
            assert np.array_equal(got.b.coeffs, want.b.coeffs)
            assert np.array_equal(got.a.coeffs, want.a.coeffs)

    def test_unstack_inverts_stack(self, threads, small_context,
                                   small_params):
        cts = self._pair(small_context, small_params)
        for got, want in zip(Ciphertext.stack(cts).unstack(), cts):
            assert got.scale == want.scale and got.basis == want.basis
            assert np.array_equal(got.b.coeffs, want.b.coeffs)
            assert np.array_equal(got.a.coeffs, want.a.coeffs)

    def test_stack_requires_one_scale(self, threads, small_context,
                                      small_params):
        x, y = self._pair(small_context, small_params)
        y.scale *= 1.0 + 1e-12
        with pytest.raises(ParameterError):
            Ciphertext.stack([x, y])
        with pytest.raises(ParameterError):
            x.unstack()
