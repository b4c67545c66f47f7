"""Tests for basis conversion, ModUp/ModDown, rescaling, key switching."""

import numpy as np
import pytest

from repro.ckks import instrument, modmath
from repro.ckks.keyswitch import (DigitDecomposition, basis_convert,
                                  key_switch, mod_down, mod_up, rescale_poly)
from repro.ckks.rns import RnsPolynomial, basis_product
from repro.errors import ParameterError
from repro.obs.tracer import Tracer

N = 64
SRC = tuple(modmath.generate_primes(3, N, bits=26))
DST = tuple(modmath.generate_primes(6, N, bits=28))[3:]


class TestBasisConvert:
    def test_exact_for_centered_values(self):
        rng = np.random.default_rng(0)
        values = [int(v) for v in rng.integers(-10 ** 9, 10 ** 9, N)]
        poly = RnsPolynomial.from_int_coeffs(values, SRC)
        converted = basis_convert(poly, DST)
        assert [int(v) for v in converted.to_int_coeffs()] == values

    def test_exact_near_half_product(self):
        bound = basis_product(SRC) // 2
        values = [bound // 3, -(bound // 3)] + [0] * (N - 2)
        poly = RnsPolynomial.from_int_coeffs(values, SRC)
        converted = basis_convert(poly, DST)
        assert [int(v) for v in converted.to_int_coeffs()] == values

    def test_requires_coefficient_domain(self):
        poly = RnsPolynomial.zero(N, SRC, is_ntt=True)
        with pytest.raises(ParameterError):
            basis_convert(poly, DST)


class TestRescale:
    def test_divides_by_last_prime(self):
        rng = np.random.default_rng(1)
        last = SRC[-1]
        values = [int(v) * last for v in rng.integers(-1000, 1000, N)]
        poly = RnsPolynomial.from_int_coeffs(values, SRC)
        out, = rescale_poly((poly,))
        assert out.basis == SRC[:-1]
        expect = [v // last for v in values]
        assert [int(v) for v in out.to_int_coeffs()] == expect

    def test_rounding_error_bounded(self):
        rng = np.random.default_rng(2)
        values = [int(v) for v in rng.integers(-10 ** 12, 10 ** 12, N)]
        poly = RnsPolynomial.from_int_coeffs(values, SRC)
        out, = rescale_poly((poly,))
        last = SRC[-1]
        for got, original in zip(out.to_int_coeffs(), values):
            assert abs(int(got) - original / last) <= 1.0

    def test_single_limb_rejected(self):
        poly = RnsPolynomial.zero(N, SRC[:1], is_ntt=False)
        with pytest.raises(ParameterError):
            rescale_poly((poly,))


@pytest.fixture(scope="module")
def decomp():
    moduli = tuple(modmath.generate_primes(6, N, bits=26))
    aux = tuple(modmath.generate_primes(8, N, bits=28))[6:]
    return DigitDecomposition(moduli=moduli, aux_moduli=aux, aux_count=2)


class TestDigitDecomposition:
    def test_dnum(self, decomp):
        assert decomp.dnum == 3
        assert decomp.group(0) == decomp.moduli[:2]
        assert decomp.group(2) == decomp.moduli[4:6]

    def test_gadget_congruences(self, decomp):
        p_prod = basis_product(decomp.aux_moduli)
        for j in range(decomp.dnum):
            gadget = decomp.gadget_values(j)
            for idx, q in enumerate(decomp.full_basis):
                if q in decomp.group(j):
                    assert gadget[idx] == p_prod % q
                elif q in decomp.moduli:
                    assert gadget[idx] == 0
                else:  # aux primes: P ≡ 0
                    assert gadget[idx] == 0


class TestModUpDown:
    def test_mod_up_preserves_digit_values(self, decomp):
        rng = np.random.default_rng(3)
        values = [int(v) for v in rng.integers(-10 ** 6, 10 ** 6, N)]
        poly = RnsPolynomial.from_int_coeffs(values, decomp.moduli).to_ntt()
        target = decomp.full_basis
        extended = mod_up(poly, decomp.groups(), target)
        assert len(extended) == decomp.dnum
        for group, digit_poly in zip(decomp.groups(), extended):
            assert digit_poly.basis == target
            assert digit_poly.is_ntt
            # Each digit is the centered representative mod its group
            # product.
            group_prod = basis_product(group)
            digit = [((v + group_prod // 2) % group_prod) - group_prod // 2
                     for v in values]
            assert [int(v) for v in digit_poly.to_int_coeffs()] == digit

    def test_mod_down_divides_by_p(self, decomp):
        rng = np.random.default_rng(4)
        p_prod = basis_product(decomp.aux_moduli)
        base = [int(v) for v in rng.integers(-1000, 1000, N)]
        values = [v * p_prod for v in base]
        poly = RnsPolynomial.from_int_coeffs(
            values, decomp.full_basis).to_ntt()
        out, = mod_down((poly,), decomp.moduli, decomp.aux_moduli)
        assert out.basis == decomp.moduli
        assert [int(v) for v in out.to_int_coeffs()] == base

    def test_mod_down_rounds_small_remainder(self, decomp):
        p_prod = basis_product(decomp.aux_moduli)
        values = [5 * p_prod + 17] + [0] * (N - 1)
        poly = RnsPolynomial.from_int_coeffs(
            values, decomp.full_basis).to_ntt()
        out, = mod_down((poly,), decomp.moduli, decomp.aux_moduli)
        assert abs(int(out.to_int_coeffs()[0]) - 5) <= 1


def _counting(fn):
    """Run ``fn`` with a tracer attached; returns its engine counters."""
    tracer = Tracer()
    old = instrument.get_tracer()
    instrument.set_tracer(tracer)
    try:
        fn()
    finally:
        instrument.set_tracer(old)
    return tracer.counters


class TestStackedPlanes:
    """A ciphertext's b and a share one INTT, BConv and NTT — bit for bit
    the same as one polynomial at a time."""

    @pytest.mark.parametrize("level", range(1, 7))
    def test_mod_down_pair_matches_single(self, decomp, level):
        rng = np.random.default_rng(20 + level)
        moduli = decomp.moduli[:level]
        basis = moduli + decomp.aux_moduli
        pair = [RnsPolynomial.random_uniform(N, basis, rng)
                for _ in range(2)]
        stacked = mod_down(tuple(pair), moduli, decomp.aux_moduli)
        assert len(stacked) == 2
        for out, poly in zip(stacked, pair):
            alone, = mod_down((poly,), moduli, decomp.aux_moduli)
            assert out.basis == alone.basis == moduli
            assert out.is_ntt and alone.is_ntt
            assert np.array_equal(out.coeffs, alone.coeffs)

    @pytest.mark.parametrize("is_ntt", [True, False])
    @pytest.mark.parametrize("level", range(2, 7))
    def test_rescale_pair_matches_single(self, decomp, level, is_ntt):
        rng = np.random.default_rng(30 + level)
        basis = decomp.moduli[:level]
        pair = [RnsPolynomial.random_uniform(N, basis, rng, is_ntt=is_ntt)
                for _ in range(2)]
        stacked = rescale_poly(tuple(pair))
        assert len(stacked) == 2
        for out, poly in zip(stacked, pair):
            alone, = rescale_poly((poly,))
            assert out.basis == alone.basis == basis[:-1]
            assert out.is_ntt == alone.is_ntt == is_ntt
            assert np.array_equal(out.coeffs, alone.coeffs)

    def test_stacked_bases_must_match(self, decomp):
        rng = np.random.default_rng(40)
        b = RnsPolynomial.random_uniform(N, decomp.moduli, rng)
        a = RnsPolynomial.random_uniform(N, decomp.moduli[:-1], rng)
        with pytest.raises(ParameterError):
            rescale_poly((b, a))

    def test_key_switch_dispatches(self, small_context, small_params):
        """One key switch: 2 INTT + 2 forward NTT calls, whatever dnum.

        ModUp runs one INTT and one stacked forward NTT for every
        digit; ModDown one INTT and one NTT for b and a together.  BConv
        runs once per digit plus once for the stacked ModDown.
        """
        ev = small_context
        assert ev.decomp.dnum > 1
        ct = ev.encrypt_message(
            np.full(small_params.slot_count, 0.25, dtype=np.complex128))
        counts = _counting(
            lambda: key_switch(ct.a, ev.keys.relin, ev.decomp))
        assert counts["ckks.batch_ntt.inverse"] == 2
        assert counts["ckks.batch_ntt.forward"] == 2
        assert counts["ckks.bconv.batched"] == ev.decomp.dnum + 1
