"""Batched limb-plane NTT engine vs. the per-limb reference.

The batched path must be *bit-identical* to looping :class:`NttContext`
over the primes — not merely equal up to CKKS noise — because the two
implementations share twiddle tables and perform the same element-wise
operations in the same order.  These tests pin that contract across
random bases, mixed prime widths, and leading axes, and check the
batched transform still realizes negacyclic convolution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import modmath
from repro.ckks.keyswitch import basis_convert
from repro.ckks.ntt import BatchNttContext, NttContext, negacyclic_convolution
from repro.ckks.rns import RnsPolynomial, batch_ntt_context, modulus_column
from repro.errors import ParameterError

DEGREE = 128

#: A deliberately mixed-width basis: 20-, 24-, 28-, and 31-bit primes.
MIXED_BASIS = tuple(
    modmath.generate_primes(1, DEGREE, bits=bits)[0]
    for bits in (20, 24, 28, 31, 30, 26))


def reference_forward(basis, coeffs):
    """Per-limb forward NTT over the trailing (L, N) axes."""
    out = np.empty_like(coeffs)
    for i, q in enumerate(basis):
        out[..., i, :] = NttContext(coeffs.shape[-1], q).forward(
            coeffs[..., i, :])
    return out


def reference_inverse(basis, values):
    out = np.empty_like(values)
    for i, q in enumerate(basis):
        out[..., i, :] = NttContext(values.shape[-1], q).inverse(
            values[..., i, :])
    return out


def random_limbs(basis, degree, rng, lead=()):
    limbs = np.empty(lead + (len(basis), degree), dtype=np.int64)
    for i, q in enumerate(basis):
        limbs[..., i, :] = rng.integers(0, q, size=lead + (degree,),
                                        dtype=np.int64)
    return limbs


class TestBitIdentical:
    def test_forward_matches_reference(self):
        rng = np.random.default_rng(0)
        a = random_limbs(MIXED_BASIS, DEGREE, rng)
        ctx = BatchNttContext(DEGREE, MIXED_BASIS)
        assert np.array_equal(ctx.forward(a),
                              reference_forward(MIXED_BASIS, a))

    def test_inverse_matches_reference(self):
        rng = np.random.default_rng(1)
        a = random_limbs(MIXED_BASIS, DEGREE, rng)
        ctx = BatchNttContext(DEGREE, MIXED_BASIS)
        assert np.array_equal(ctx.inverse(a),
                              reference_inverse(MIXED_BASIS, a))

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        a = random_limbs(MIXED_BASIS, DEGREE, rng)
        ctx = BatchNttContext(DEGREE, MIXED_BASIS)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    def test_leading_axes(self):
        rng = np.random.default_rng(3)
        a = random_limbs(MIXED_BASIS, DEGREE, rng, lead=(3, 2))
        ctx = BatchNttContext(DEGREE, MIXED_BASIS)
        assert np.array_equal(ctx.forward(a),
                              reference_forward(MIXED_BASIS, a))
        assert np.array_equal(ctx.inverse(a),
                              reference_inverse(MIXED_BASIS, a))

    def test_single_limb_basis(self):
        q = MIXED_BASIS[0]
        rng = np.random.default_rng(4)
        a = rng.integers(0, q, size=(1, DEGREE), dtype=np.int64)
        ctx = BatchNttContext(DEGREE, (q,))
        assert np.array_equal(ctx.forward(a), reference_forward((q,), a))

    @given(st.integers(0, 2 ** 32), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_random_bases_property(self, seed, limb_count):
        rng = np.random.default_rng(seed)
        pool = [modmath.generate_primes(2, 64, bits=bits)
                for bits in (20, 26, 31)]
        primes = sorted({q for sub in pool for q in sub})
        basis = tuple(rng.choice(primes, size=min(limb_count, len(primes)),
                                 replace=False).tolist())
        a = random_limbs(basis, 64, rng)
        ctx = BatchNttContext(64, basis)
        assert np.array_equal(ctx.forward(a), reference_forward(basis, a))
        assert np.array_equal(ctx.inverse(a), reference_inverse(basis, a))

    def test_scratch_reused_across_calls(self):
        """Each compiled plan (work buffer + staging scratch) is built
        once per (transform, shape) and reused by later calls."""
        rng = np.random.default_rng(5)
        ctx = BatchNttContext(DEGREE, MIXED_BASIS)
        a = random_limbs(MIXED_BASIS, DEGREE, rng)
        ctx.forward(a)
        plans = dict(ctx._plans)
        ctx.forward(a)
        assert ctx._plans == plans
        ctx.inverse(a)
        ctx.inverse(a)
        assert len(ctx._plans) == 2 * len(plans)
        assert all(ctx._plans[key] is plan for key, plan in plans.items())

    def test_rejects_wrong_limb_count(self):
        ctx = BatchNttContext(DEGREE, MIXED_BASIS)
        bad = np.zeros((2, DEGREE), dtype=np.int64)
        with pytest.raises(ParameterError):
            ctx.forward(bad)

    def test_rejects_wrong_degree(self):
        ctx = BatchNttContext(DEGREE, MIXED_BASIS)
        bad = np.zeros((len(MIXED_BASIS), 64), dtype=np.int64)
        with pytest.raises(ParameterError):
            ctx.inverse(bad)

    def test_empty_basis_rejected(self):
        with pytest.raises(ParameterError):
            BatchNttContext(DEGREE, ())

    def test_prime_above_cap_rejected(self):
        """The single Shoup path needs ``2q < 2^32``: q ≥ 2^31 is refused."""
        wide = 2147483713  # prime, ≡ 1 (mod 32), just above 2^31
        assert wide > 1 << modmath.MAX_PRIME_BITS and modmath.is_prime(wide)
        with pytest.raises(ParameterError, match="2\\^31"):
            BatchNttContext(16, (modmath.generate_primes(1, 16)[0], wide))


class TestNegacyclicConsistency:
    def test_pointwise_product_is_negacyclic_convolution(self):
        degree = 32
        basis = tuple(modmath.generate_primes(3, degree, bits=24))
        rng = np.random.default_rng(6)
        a = random_limbs(basis, degree, rng)
        b = random_limbs(basis, degree, rng)
        ctx = BatchNttContext(degree, basis)
        prod = ctx.forward(a) * ctx.forward(b) % modulus_column(basis)
        got = ctx.inverse(prod)
        for i, q in enumerate(basis):
            assert np.array_equal(
                got[i], negacyclic_convolution(a[i], b[i], q))

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=10, deadline=None)
    def test_convolution_property(self, seed):
        degree = 16
        basis = tuple(modmath.generate_primes(2, degree, bits=20))
        rng = np.random.default_rng(seed)
        a = random_limbs(basis, degree, rng)
        b = random_limbs(basis, degree, rng)
        ctx = BatchNttContext(degree, basis)
        prod = ctx.forward(a) * ctx.forward(b) % modulus_column(basis)
        got = ctx.inverse(prod)
        for i, q in enumerate(basis):
            assert np.array_equal(
                got[i], negacyclic_convolution(a[i], b[i], q))


class TestRnsPolynomialPaths:
    """The RnsPolynomial fast paths agree with the per-limb originals."""

    def test_to_from_ntt_match_per_limb(self):
        rng = np.random.default_rng(7)
        coeffs = random_limbs(MIXED_BASIS, DEGREE, rng)
        poly = RnsPolynomial(coeffs.copy(), MIXED_BASIS, is_ntt=False)
        assert np.array_equal(poly.to_ntt().coeffs,
                              reference_forward(MIXED_BASIS, coeffs))
        values = RnsPolynomial(coeffs.copy(), MIXED_BASIS, is_ntt=True)
        assert np.array_equal(values.from_ntt().coeffs,
                              reference_inverse(MIXED_BASIS, coeffs))

    def test_cached_context_shares_tables(self):
        ctx = batch_ntt_context(DEGREE, MIXED_BASIS)
        assert ctx is batch_ntt_context(DEGREE, MIXED_BASIS)

    def test_arithmetic_matches_per_limb(self):
        rng = np.random.default_rng(8)
        a = RnsPolynomial(random_limbs(MIXED_BASIS, DEGREE, rng),
                          MIXED_BASIS, is_ntt=True)
        b = RnsPolynomial(random_limbs(MIXED_BASIS, DEGREE, rng),
                          MIXED_BASIS, is_ntt=True)
        for op, ref in (
                (lambda: (a + b).coeffs, modmath.mod_add),
                (lambda: (a - b).coeffs, modmath.mod_sub),
                (lambda: (a * b).coeffs, modmath.mod_mul)):
            got = op()
            for i, q in enumerate(MIXED_BASIS):
                assert np.array_equal(got[i], ref(a.coeffs[i],
                                                  b.coeffs[i], q))
        neg = (-a).coeffs
        scaled = a.scalar_mul([3 * q // 4 for q in MIXED_BASIS]).coeffs
        for i, q in enumerate(MIXED_BASIS):
            assert np.array_equal(neg[i], modmath.mod_neg(a.coeffs[i], q))
            assert np.array_equal(
                scaled[i],
                modmath.mod_mul_scalar(a.coeffs[i], 3 * q // 4, q))


class TestBasisConvertVectorized:
    def reference_convert(self, poly, dst_basis):
        """The original per-limb / per-prime double loop."""
        src_basis = poly.basis
        src_prod = 1
        for q in src_basis:
            src_prod *= q
        y = np.empty_like(poly.coeffs)
        frac = np.zeros(poly.degree, dtype=np.float64)
        for i, q in enumerate(src_basis):
            q_hat = src_prod // q
            q_hat_inv = modmath.mod_inverse(q_hat % q, q)
            y[i] = modmath.mod_mul_scalar(poly.coeffs[i], q_hat_inv, q)
            frac += y[i] / q
        u = np.round(frac).astype(np.int64)
        out = np.empty((len(dst_basis), poly.degree), dtype=np.int64)
        for j, p in enumerate(dst_basis):
            acc = np.zeros(poly.degree, dtype=np.int64)
            for i, q in enumerate(src_basis):
                acc = (acc + y[i] * ((src_prod // q) % p)) % p
            out[j] = (acc - u % p * (src_prod % p)) % p
        return out

    def test_matches_reference_double_loop(self):
        degree = 64
        src = tuple(modmath.generate_primes(4, degree, bits=28))
        dst = tuple(modmath.generate_primes(7, degree, bits=26)[4:])
        rng = np.random.default_rng(9)
        poly = RnsPolynomial(random_limbs(src, degree, rng), src,
                             is_ntt=False)
        got = basis_convert(poly, dst)
        assert got.basis == dst
        assert not got.is_ntt
        assert np.array_equal(got.coeffs, self.reference_convert(poly, dst))

    def test_31_bit_primes_do_not_overflow(self):
        """Worst-case widths: one chunked reduction per limb."""
        degree = 32
        src = tuple(modmath.generate_primes(4, degree, bits=31))
        dst = tuple(modmath.generate_primes(6, degree, bits=31)[4:])
        coeffs = np.stack([np.full(degree, q - 1, dtype=np.int64)
                           for q in src])
        poly = RnsPolynomial(coeffs, src, is_ntt=False)
        got = basis_convert(poly, dst)
        assert np.array_equal(got.coeffs, self.reference_convert(poly, dst))
        assert np.all(got.coeffs >= 0)
        for j, p in enumerate(dst):
            assert np.all(got.coeffs[j] < p)
