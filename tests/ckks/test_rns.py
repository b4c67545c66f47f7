"""Tests for RNS polynomial representation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import modmath, rns
from repro.ckks.ntt import TWIDDLE_CACHE_SIZE
from repro.ckks.rns import RnsPolynomial, basis_product
from repro.errors import ParameterError

BASIS = tuple(modmath.generate_primes(3, 64, bits=26))
N = 64


def _poly_from(values):
    return RnsPolynomial.from_int_coeffs(list(values), BASIS)


class TestConstruction:
    def test_zero(self):
        z = RnsPolynomial.zero(N, BASIS)
        assert z.limb_count == 3
        assert np.all(z.coeffs == 0)

    def test_limb_prime_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            RnsPolynomial(np.zeros((2, N), dtype=np.int64), BASIS)

    def test_from_signed_ints(self):
        p = _poly_from([-5] + [0] * (N - 1))
        for i, q in enumerate(BASIS):
            assert p.coeffs[i, 0] == q - 5

    def test_big_int_reduction(self):
        big = basis_product(BASIS) + 7
        p = RnsPolynomial.from_int_coeffs([big] + [0] * (N - 1), BASIS)
        assert all(p.coeffs[i, 0] == 7 for i in range(3))


class TestCrtRoundtrip:
    @given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=N, max_size=N))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_centered(self, values):
        p = _poly_from(values)
        assert [int(v) for v in p.to_int_coeffs()] == values

    def test_roundtrip_through_ntt(self):
        values = list(range(-32, 32))
        p = _poly_from(values).to_ntt()
        assert [int(v) for v in p.to_int_coeffs()] == values


class TestArithmetic:
    def test_add_sub_neg(self):
        rng = np.random.default_rng(0)
        a_vals = rng.integers(-100, 100, N)
        b_vals = rng.integers(-100, 100, N)
        a = _poly_from(a_vals)
        b = _poly_from(b_vals)
        assert [int(v) for v in (a + b).to_int_coeffs()] == list(a_vals + b_vals)
        assert [int(v) for v in (a - b).to_int_coeffs()] == list(a_vals - b_vals)
        assert [int(v) for v in (-a).to_int_coeffs()] == list(-a_vals)

    def test_mul_requires_ntt(self):
        a = _poly_from([1] * N)
        with pytest.raises(ParameterError):
            _ = a * a

    def test_mul_is_negacyclic(self):
        # (1 + X) * (1 - X) = 1 - X^2
        a = _poly_from([1, 1] + [0] * (N - 2)).to_ntt()
        b = _poly_from([1, -1] + [0] * (N - 2)).to_ntt()
        prod = (a * b).to_int_coeffs()
        expect = [1, 0, -1] + [0] * (N - 3)
        assert [int(v) for v in prod] == expect

    def test_scalar_mul_per_limb(self):
        a = _poly_from([1] * N)
        constants = [2, 3, 5]
        out = a.scalar_mul(constants)
        for i in range(3):
            assert np.all(out.coeffs[i] == constants[i])

    def test_domain_mismatch_rejected(self):
        a = _poly_from([1] * N)
        b = _poly_from([1] * N).to_ntt()
        with pytest.raises(ParameterError):
            _ = a + b


class TestBasisManipulation:
    def test_restrict_and_concat(self):
        a = _poly_from(list(range(N)))
        front = a.restrict(BASIS[:2])
        back = a.restrict(BASIS[2:])
        combined = front.concat(back)
        assert combined.basis == BASIS
        assert np.array_equal(combined.coeffs, a.coeffs)

    def test_restrict_reorders(self):
        a = _poly_from(list(range(N)))
        swapped = a.restrict((BASIS[1], BASIS[0]))
        assert np.array_equal(swapped.coeffs[0], a.coeffs[1])

    def test_restrict_unknown_prime_rejected(self):
        a = _poly_from([0] * N)
        with pytest.raises(ParameterError):
            a.restrict((7,))

    def test_concat_overlapping_rejected(self):
        a = _poly_from([0] * N)
        with pytest.raises(ParameterError):
            a.concat(a)


class TestBasisCaches:
    """The basis-keyed caches are bounded: stacked planes multiply the
    distinct bases a run touches, and a long run sweeping many parameter
    sets must not grow memory without bound."""

    def test_sweep_of_distinct_bases_stays_at_bound(self):
        primes = tuple(modmath.generate_primes(12, 16, bits=20))
        bases = [c for k in (3, 4) for c in itertools.combinations(primes, k)]
        assert len(bases) > rns.BASIS_CACHE_SIZE
        try:
            for basis in bases:
                rns.modulus_column(basis)
                rns.batch_ntt_context(16, basis)
            for cached in (rns.modulus_column, rns.batch_ntt_context):
                info = cached.cache_info()
                assert info.maxsize == rns.BASIS_CACHE_SIZE
                assert info.currsize == rns.BASIS_CACHE_SIZE
        finally:
            rns.modulus_column.cache_clear()
            rns.batch_ntt_context.cache_clear()

    def test_sweep_of_distinct_primes_stays_at_bound(self):
        degrees = (16, 32, 64, 128)
        count = TWIDDLE_CACHE_SIZE // len(degrees) + 8
        primes = modmath.generate_primes(count, max(degrees), bits=24)
        try:
            for q in primes:
                for degree in degrees:
                    rns.ntt_context(degree, q)
            info = rns.ntt_context.cache_info()
            assert info.maxsize == TWIDDLE_CACHE_SIZE
            assert info.currsize == TWIDDLE_CACHE_SIZE
        finally:
            rns.ntt_context.cache_clear()

    def test_stacked_ntt_matches_one_call_each(self):
        rng = np.random.default_rng(9)
        polys = [RnsPolynomial.random_uniform(N, basis, rng, is_ntt=False)
                 for basis in (BASIS, BASIS[:2], BASIS)]
        stacked = rns.stacked_ntt(polys)
        for out, poly in zip(stacked, polys):
            assert out.is_ntt and out.basis == poly.basis
            assert np.array_equal(out.coeffs, poly.to_ntt().coeffs)
        back = rns.stacked_ntt(stacked, inverse=True)
        for out, poly in zip(back, polys):
            assert not out.is_ntt
            assert np.array_equal(out.coeffs, poly.coeffs)
        with pytest.raises(ParameterError):
            rns.stacked_ntt(polys, inverse=True)
