"""Plaintext and ciphertext containers with scale/level bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ckks.rns import RnsPolynomial, modulus_column
from repro.errors import (ParameterError, ScaleMismatchError,
                          VerificationError)
from repro.faults.checksum import residues_in_range

#: Relative tolerance when comparing the floating-point scales of two
#: operands.  Scales drift because rescaling divides by primes that only
#: approximate Δ, and the drift roughly doubles per multiplicative
#: level; operands reaching the same level along different paths can
#: disagree by ~1e-3 in deep circuits (e.g. the EvalMod Chebyshev
#: chain).  Mismatches below this bound are absorbed as noise
#: (HEAAN-style approximate scale management); genuinely wrong operand
#: pairings differ by a full prime factor (~2^25) and are still caught.
SCALE_RTOL = 5e-2


@dataclass
class Plaintext:
    """An encoded (but not encrypted) message ⟨u⟩: one polynomial."""

    poly: RnsPolynomial
    scale: float

    @property
    def basis(self) -> tuple:
        return self.poly.basis

    @property
    def level_count(self) -> int:
        return self.poly.limb_count


@dataclass
class Ciphertext:
    """An encryption [⟨u⟩] = (b, a) of a message under secret ``s``.

    Decryption computes ``b + a*s``.  ``scale`` is the current encoding
    scale Δ'; ``basis`` (from the polynomials) tracks the remaining
    level budget.  A *stacked* ciphertext (:meth:`stack`) holds a batch
    of ciphertexts as ``(B, L, N)`` halves that share one basis and one
    scale; every evaluator op then serves the whole batch per dispatch.
    """

    b: RnsPolynomial
    a: RnsPolynomial
    scale: float

    def __post_init__(self):
        if self.b.basis != self.a.basis:
            raise ParameterError("ciphertext halves have different bases")
        if self.b.coeffs.shape != self.a.coeffs.shape:
            raise ParameterError("ciphertext halves have different shapes")

    @staticmethod
    def stack(cts) -> "Ciphertext":
        """Batch ciphertexts into one ``(B, L, N)`` ciphertext.

        Running the batch through an op sequence is bit-identical to
        running each input through it, so the inputs must agree on
        basis, domain and — exactly — scale: the batch carries one.
        """
        cts = list(cts)
        first = cts[0]
        for ct in cts[1:]:
            if (ct.basis != first.basis or ct.scale != first.scale
                    or ct.b.is_ntt != first.b.is_ntt):
                raise ParameterError(
                    "stacked ciphertexts must share basis, domain and scale")

        def planes(half: str) -> RnsPolynomial:
            return RnsPolynomial(
                np.stack([getattr(ct, half).coeffs for ct in cts]),
                first.basis, first.b.is_ntt)

        return Ciphertext(b=planes("b"), a=planes("a"), scale=first.scale)

    def unstack(self) -> list:
        """The ciphertexts of a :meth:`stack` batch, in order."""
        if self.b.coeffs.ndim != 3:
            raise ParameterError("not a stacked ciphertext")
        return [Ciphertext(b=RnsPolynomial(b, self.basis, self.b.is_ntt),
                           a=RnsPolynomial(a, self.basis, self.a.is_ntt),
                           scale=self.scale)
                for b, a in zip(self.b.coeffs, self.a.coeffs)]

    @property
    def basis(self) -> tuple:
        return self.b.basis

    @property
    def level_count(self) -> int:
        return self.b.limb_count

    @property
    def degree(self) -> int:
        return self.b.degree

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.b.copy(), self.a.copy(), self.scale)

    def check_invariants(self) -> None:
        """Raise :class:`VerificationError` on a structurally broken
        ciphertext.

        The checks are the cheap sanity guards a resilient runtime runs
        after recovery: the scale must be a positive finite number, both
        halves must live in the same domain, and every residue must lie
        in its prime's canonical range ``[0, q)`` — an out-of-range word
        is proof of datapath corruption, not of any valid CKKS state.
        """
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise VerificationError(
                f"ciphertext scale {self.scale!r} is not a positive "
                "finite number")
        if self.b.is_ntt != self.a.is_ntt:
            raise VerificationError(
                "ciphertext halves are in different domains")
        q_col = modulus_column(self.basis)
        for name, poly in (("b", self.b), ("a", self.a)):
            if not residues_in_range(poly.coeffs, q_col):
                raise VerificationError(
                    f"ciphertext half {name!r} holds residues outside "
                    "the canonical range [0, q)")


def check_same_scale(x, y) -> None:
    """Raise unless the two operands carry (numerically) equal scales."""
    if abs(x.scale - y.scale) > SCALE_RTOL * max(abs(x.scale), abs(y.scale)):
        raise ScaleMismatchError(
            f"scales differ: {x.scale:.6g} vs {y.scale:.6g}")


def check_same_basis(x, y) -> None:
    """Raise unless the two operands share the same RNS basis."""
    if x.basis != y.basis:
        raise ParameterError(
            f"bases differ: {len(x.basis)} vs {len(y.basis)} limbs")
