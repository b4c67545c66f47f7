"""Shoup/Harvey lazy-reduction kernels vs. the exact ``%`` oracle.

The lazy numeric layer (``repro.ckks.modmath`` Shoup kernels and the
Harvey butterflies inside ``BatchNttContext``) must be *bit-identical*
to the divide-based reference for every limb — including the 31-bit
base prime, which runs the same Shoup path once each multiplicand is
folded into ``[0, 2q)`` — because all pinned digests and baseline
counters assume canonical ``[0, q)`` residues.  These properties pin
the kernels against big-int arithmetic and the batched NTT against the
per-limb ``NttContext`` oracle across random NTT-friendly primes
spanning 20–31 bits and degrees 16–256.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import instrument, modmath
from repro.ckks.ntt import BatchNttContext, NttContext
from repro.ckks.rns import RnsPolynomial, modulus_column
from repro.obs.tracer import Tracer

DEGREES = (16, 32, 64, 128, 256)

#: Up to the ``MAX_PRIME_BITS`` cap: 31-bit primes have ``4q > 2^32``,
#: so only the fold to ``[0, 2q)`` keeps their Shoup multiplies exact.
PRIME_BITS = (20, 22, 24, 26, 28, 29, 30, 31)


def ntt_prime(degree: int, bits: int) -> int:
    return modmath.generate_primes(1, degree, bits=bits)[0]


def largest_ntt_prime(degree: int) -> int:
    """The largest NTT-friendly prime below ``2^MAX_PRIME_BITS``."""
    return ntt_prime(degree, modmath.MAX_PRIME_BITS)


def random_limbs(basis, degree, rng, lead=()):
    limbs = np.empty(lead + (len(basis), degree), dtype=np.int64)
    for i, q in enumerate(basis):
        limbs[..., i, :] = rng.integers(0, q, size=lead + (degree,),
                                        dtype=np.int64)
    return limbs


def reference_forward(basis, coeffs):
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


class TestShoupKernels:
    @given(st.sampled_from((20, 22, 24, 26, 28, 29, 30, 31)),
           st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_shoup_mul_matches_bigint_oracle(self, bits, seed):
        """Lazy product lands in [0, 2q) and is ≡ x·s (mod q)."""
        q = ntt_prime(64, bits)
        rng = np.random.default_rng(seed)
        # x may be any folded lazy intermediate in [0, 2q) — the range
        # a Harvey butterfly feeds every Shoup multiply.
        x = rng.integers(0, 2 * q, size=64, dtype=np.int64)
        s = int(rng.integers(0, q))
        s_shoup = modmath.shoup_precompute(s, q)
        out = modmath.shoup_mul(x, s, s_shoup, q)
        assert np.all(out >= 0) and np.all(out < 2 * q)
        expected = (x.astype(object) * s) % q
        assert np.array_equal(out % q, expected.astype(np.int64))

    @given(st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_shoup_precompute_array_matches_scalar(self, seed):
        q = ntt_prime(64, 28)
        rng = np.random.default_rng(seed)
        s = rng.integers(0, q, size=(1, 64), dtype=np.int64)
        dual = modmath.shoup_precompute(s, np.int64(q))
        expected = [(int(v) << modmath.SHOUP_SHIFT) // q for v in s[0]]
        assert dual.dtype == np.uint64
        assert list(dual[0].astype(int)) == expected

    @given(st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_lazy_add_sub_reduce_roundtrip(self, seed):
        """Deferred add/sub stay in [0, 2q); reduce_final canonicalizes."""
        q = ntt_prime(64, 28)
        two_q = np.int64(2 * q)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2 * q, size=64, dtype=np.int64)
        b = rng.integers(0, 2 * q, size=64, dtype=np.int64)
        out = np.empty(64, dtype=np.int64)
        mask = np.empty(64, dtype=bool)
        modmath.lazy_add_into(a, b, two_q, out, mask)
        assert np.all((out >= 0) & (out < 2 * q))
        assert np.array_equal(modmath.reduce_final(out, q) % q,
                              (a + b) % q)
        modmath.lazy_sub_into(a, b, two_q, out, mask)
        assert np.all((out >= 0) & (out < 2 * q))
        assert np.array_equal(modmath.reduce_final(out, q) % q,
                              (a - b) % q)

    def test_reduce_final_into_matches_pure(self):
        q = ntt_prime(16, 20)
        a = np.arange(0, 2 * q, q // 7, dtype=np.int64)
        mask = np.empty(a.shape, dtype=bool)
        expected = modmath.reduce_final(a, q)
        assert np.array_equal(
            modmath.reduce_final_into(a.copy(), q, mask), expected)


class TestDispatchBoundary:
    @given(st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_strict_fallback_rows_stay_exact(self, seed):
        """31-bit rows through the Shoup path ≡ the ``mod_mul`` oracle."""
        q = ntt_prime(64, 31)
        assert q >= 1 << 30
        basis = (ntt_prime(64, 28), q)
        rng = np.random.default_rng(seed)
        x = random_limbs(basis, 64, rng)
        s = random_limbs(basis, 64, rng)
        q_col = modulus_column(basis)
        dual = modmath.shoup_precompute(s, q_col)
        out = np.empty_like(x)
        modmath.shoup_mod_mul_into(x, s, dual, q_col, out)
        assert np.array_equal(out, modmath.mod_mul(x, s, q_col))

    @pytest.mark.parametrize("degree", DEGREES)
    def test_worst_case_at_largest_prime(self, degree):
        """All-(q−1) inputs and x = 2q−1, s = q−1 at the 2^31 cap."""
        q = largest_ntt_prime(degree)
        assert q < 1 << modmath.MAX_PRIME_BITS
        basis = (q,)
        a = np.full((1, degree), q - 1, dtype=np.int64)
        ctx = BatchNttContext(degree, basis)
        assert np.array_equal(ctx.forward(a), reference_forward(basis, a))
        assert np.array_equal(ctx.inverse(a), reference_inverse(basis, a))
        s = q - 1
        x = np.array([2 * q - 1], dtype=np.int64)
        out = modmath.shoup_mul(x, s, modmath.shoup_precompute(s, q), q)
        assert 0 <= int(out[0]) < 2 * q
        assert int(out[0]) % q == (2 * q - 1) * s % q


class TestShoupModMul:
    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_matches_mod_mul_on_mixed_basis(self, seed):
        basis = tuple(ntt_prime(128, b) for b in (20, 24, 28, 31, 30, 26))
        rng = np.random.default_rng(seed)
        x = random_limbs(basis, 128, rng)
        s = random_limbs(basis, 128, rng)
        q_col = modulus_column(basis)
        dual = modmath.shoup_precompute(s, q_col)
        out = np.empty_like(x)
        modmath.shoup_mod_mul_into(x, s, dual, q_col, out)
        assert np.array_equal(out, modmath.mod_mul(x, s, q_col))

    def test_counts_dispatch_per_limb_row(self):
        basis = tuple(ntt_prime(64, b) for b in (28, 28, 31, 30))
        rng = np.random.default_rng(3)
        x = random_limbs(basis, 64, rng)
        s = random_limbs(basis, 64, rng)
        q_col = modulus_column(basis)
        dual = modmath.shoup_precompute(s, q_col)
        out = np.empty_like(x)
        tracer = Tracer()
        old = instrument.get_tracer()
        instrument.set_tracer(tracer)
        try:
            modmath.shoup_mod_mul_into(x, s, dual, q_col, out)
        finally:
            instrument.set_tracer(old)
        # (28, 28, 31, 30): every row, the 31-bit one included, takes
        # the Shoup path.
        assert tracer.counters["ckks.modmath.shoup"] == 4


class TestLazyNttBitIdentity:
    @given(st.sampled_from(DEGREES), st.sampled_from(PRIME_BITS),
           st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_single_prime_forward_inverse(self, degree, bits, seed):
        """Harvey batched passes ≡ the %-based per-limb oracle."""
        basis = (ntt_prime(degree, bits),)
        rng = np.random.default_rng(seed)
        a = random_limbs(basis, degree, rng)
        ctx = BatchNttContext(degree, basis)
        fwd = ctx.forward(a)
        assert np.array_equal(fwd, reference_forward(basis, a))
        assert np.array_equal(ctx.inverse(fwd), a)
        assert np.array_equal(ctx.inverse(fwd),
                              reference_inverse(basis, fwd))

    @given(st.sampled_from((16, 64, 256)), st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_mixed_basis_spanning_dispatch_boundary(self, degree, seed):
        basis = tuple(ntt_prime(degree, b) for b in (20, 28, 29, 30, 31))
        rng = np.random.default_rng(seed)
        a = random_limbs(basis, degree, rng, lead=(2,))
        ctx = BatchNttContext(degree, basis)
        fwd = ctx.forward(a)
        assert np.array_equal(fwd, reference_forward(basis, a))
        assert np.array_equal(ctx.inverse(fwd), a)


class TestRnsShoupDuals:
    BASIS = tuple(ntt_prime(64, b) for b in (28, 26, 31, 30))

    def _random_poly(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = random_limbs(self.BASIS, 64, rng)
        return RnsPolynomial(coeffs=coeffs, basis=self.BASIS, is_ntt=True)

    def test_ensure_shoup_mul_is_bit_identical(self):
        a = self._random_poly(0)
        b = self._random_poly(1)
        plain = (a * b).coeffs
        b.ensure_shoup()
        assert b.shoup is not None
        assert np.array_equal((a * b).coeffs, plain)
        assert np.array_equal((b * a).coeffs, plain)

    def test_ensure_shoup_is_idempotent(self):
        a = self._random_poly(2)
        a.ensure_shoup()
        dual = a.shoup
        assert a.ensure_shoup() is a
        assert a.shoup is dual

    def test_restrict_propagates_dual(self):
        a = self._random_poly(3)
        assert a.restrict(self.BASIS[:2]).shoup is None
        a.ensure_shoup()
        sub = a.restrict(self.BASIS[:2])
        assert sub.shoup is not None
        assert np.array_equal(sub.shoup, a.shoup[:2])

    def test_mul_with_lazy_disabled_matches(self):
        """The Shoup product ≡ the ``mod_mul`` oracle on every limb."""
        a = self._random_poly(4)
        b = self._random_poly(5)
        b.ensure_shoup()
        expected = modmath.mod_mul(a.coeffs, b.coeffs,
                                   modulus_column(self.BASIS))
        assert np.array_equal((a * b).coeffs, expected)
        assert np.array_equal((b * a).coeffs, expected)
