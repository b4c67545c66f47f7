"""CKKS bootstrapping: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff.

Follows the standard full-slot construction ([17] and §II-C of the
paper): after raising the modulus, the ciphertext decrypts to
``m + q_0·I`` with a small integer polynomial ``I``; CoeffToSlot moves
coefficients into slots, a Chebyshev approximation of
``(q_0/2π)·sin(2πx/q_0)`` removes the ``q_0·I`` term, and SlotToCoeff
returns to coefficient form.

The homomorphic DFTs run as BSGS diagonal linear transforms.  The
*performance* model of bootstrapping (including the fftIter
decomposition sweep of Fig. 3) lives in
:mod:`repro.workloads.bootstrap_trace`; this module provides the
executable, precision-validated counterpart at reduced ring degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.encoder import _slot_exponents
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear_transform import LinearTransform
from repro.ckks.polyeval import ChebyshevEvaluator, chebyshev_coefficients
from repro.ckks.rns import RnsPolynomial
from repro.errors import LevelError, ParameterError


def special_fft_matrix(degree: int) -> np.ndarray:
    """``E0[t, k] = ζ^{5^t·k}`` — slots from the first N/2 coefficients.

    The full decode map is ``z = E0·(c_lo + i·c_hi)`` because
    ``ζ^{5^t·N/2} = i`` for every slot index t.
    """
    n = degree // 2
    exps = _slot_exponents(degree)
    k = np.arange(n)
    angles = np.pi / degree * (exps[:, None] * k[None, :] % (2 * degree))
    return np.exp(1j * angles)


def mod_raise(ct: Ciphertext, target_basis: tuple,
              base_limbs: int = 1) -> Ciphertext:
    """Reinterpret a base-modulus ciphertext over the full basis.

    The centered residues mod the base modulus ``q_0`` (a single prime,
    or a prime *pair* under double-prime scaling) are re-reduced against
    every prime of ``target_basis``; decryption afterwards yields
    ``m + q_0·I`` for a small integer polynomial ``I``.
    """
    if ct.level_count != base_limbs:
        raise ParameterError(
            f"mod_raise expects a {base_limbs}-limb ciphertext, got "
            f"{ct.level_count}")

    def raise_poly(poly: RnsPolynomial) -> RnsPolynomial:
        centered = poly.to_int_coeffs(centered=True)
        return RnsPolynomial.from_int_coeffs(
            [int(v) for v in centered], target_basis).to_ntt()

    return Ciphertext(b=raise_poly(ct.b), a=raise_poly(ct.a), scale=ct.scale)


@dataclass
class BootstrapConfig:
    """Knobs of the functional bootstrapper.

    ``modulus_range`` is the bound K on the integer polynomial ``I``
    (grows with the secret Hamming weight — hence the paper's
    sparse-secret encapsulation [9]); ``sine_degree`` is the Chebyshev
    degree approximating the scaled sine.
    """

    modulus_range: int = 8
    sine_degree: int = 79
    transform_method: str = "bsgs"


class Bootstrapper:
    """Executable bootstrapping bound to an evaluator.

    Generates any missing rotation/conjugation keys through the supplied
    :class:`KeyGenerator` at construction time (the static key planning
    the Anaheim framework performs ahead of execution, §V-C).

    CoeffToSlot yields two ciphertexts (real and imaginary coefficient
    halves) that EvalMod treats identically; :meth:`bootstrap` stacks
    them into one ciphertext with ``(2, L, N)`` halves and evaluates
    the sine once, so each multiply, rescale and key switch of the
    Chebyshev evaluation is one dispatch for both (the paper's §V
    fusion of independent polynomials, at ciphertext level).  The
    result is bit-identical to evaluating each half on its own.
    """

    def __init__(self, evaluator, keygen: KeyGenerator,
                 config: BootstrapConfig | None = None):
        self.evaluator = evaluator
        self.config = config or BootstrapConfig()
        params = evaluator.params
        degree = params.degree
        #: Limbs forming the base modulus: one prime classically, a
        #: prime pair under double-prime scaling.
        self.base_limbs = getattr(params, "primes_per_level", 1)
        self.base_modulus = 1
        for q in params.moduli[:self.base_limbs]:
            self.base_modulus *= q
        e0 = special_fft_matrix(degree)
        self.coeff_to_slot = LinearTransform.from_matrix(
            evaluator, 0.5 * np.linalg.inv(e0))
        self.slot_to_coeff = LinearTransform.from_matrix(evaluator, e0)
        self.chebyshev = ChebyshevEvaluator(evaluator)
        self._ensure_keys(keygen)

    def _ensure_keys(self, keygen: KeyGenerator) -> None:
        method = self.config.transform_method
        needed = set(self.coeff_to_slot.required_rotations(method))
        needed |= set(self.slot_to_coeff.required_rotations(method))
        keys = self.evaluator.keys
        for distance in sorted(needed - set(keys.rotations)):
            keys.rotations[distance] = keygen.rotation_key(
                keys.secret, distance)
        if keys.conjugation is None:
            keys.conjugation = keygen.conjugation_key(keys.secret)

    def depth(self) -> int:
        """Multiplicative levels one bootstrap consumes."""
        eval_mod = self.chebyshev.depth(self.config.sine_degree)
        return 2 + eval_mod  # CtS + StC + (normalize + Chebyshev)

    # -- Pipeline stages ------------------------------------------------------

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh a base-level ciphertext back to a high level."""
        params = self.evaluator.params
        full_basis = tuple(params.moduli)
        if ct.level_count != self.base_limbs:
            ct = self.evaluator.drop_to_basis(
                ct, ct.basis[:self.base_limbs])
        raised = mod_raise(ct, full_basis, base_limbs=self.base_limbs)
        budget = (raised.level_count - self.base_limbs) // self.base_limbs
        if budget <= self.depth():
            raise LevelError(
                f"parameter set affords {budget} levels but "
                f"bootstrapping consumes {self.depth()}")
        # EvalMod runs the real and imaginary halves in lockstep: one
        # (2, L, N) batch, so every kernel and key switch serves both.
        halves = Ciphertext.stack(self._coeff_to_slot(raised))
        c0, c1 = self._eval_mod(halves, raised.scale).unstack()
        return self._slot_to_coeff(c0, c1)

    def _coeff_to_slot(self, ct: Ciphertext):
        ev = self.evaluator
        half = self.coeff_to_slot.apply(ct, self.config.transform_method)
        conj = ev.conjugate(half)
        c0 = ev.add(half, conj)
        c1 = ev.mul_by_i(ev.sub(conj, half))
        return c0, c1

    def _eval_mod(self, ct: Ciphertext, coeff_scale: float) -> Ciphertext:
        """Approximate ``x mod q_0`` via the scaled sine on slot values.

        ``ct`` may be stacked (:meth:`Ciphertext.stack`): the bootstrap
        passes both CoeffToSlot halves as one ``(2, L, N)`` batch.

        ``coeff_scale`` is the scale of the ModRaised ciphertext — the
        factor relating slot values to raw coefficients; using the
        (slightly drifted) post-CoeffToSlot scale instead would shift
        the sine argument by enough to dominate the error.
        """
        q0 = self.base_modulus
        scale = coeff_scale
        k = self.config.modulus_range
        radius = (k + 0.5) * q0 / scale

        def target(y):
            return (q0 / (2.0 * np.pi * scale)) * np.sin(
                2.0 * np.pi * scale * np.asarray(y) / q0)

        coeffs = chebyshev_coefficients(
            target, self.config.sine_degree, (-radius, radius))
        return self.chebyshev.evaluate(ct, coeffs, (-radius, radius))

    def _slot_to_coeff(self, c0: Ciphertext, c1: Ciphertext) -> Ciphertext:
        ev = self.evaluator
        c0, c1 = ev.match_levels(c0, c1)
        combined = ev.add(c0, ev.mul_by_i(c1))
        return self.slot_to_coeff.apply(
            combined, self.config.transform_method)
