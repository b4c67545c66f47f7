"""Galois automorphisms of the cyclotomic ring (HROT's permutation).

The automorphism ``φ_g : a(X) -> a(X^g)`` for odd ``g`` permutes the
coefficients of each limb with sign flips (§II-B), and permutes the
evaluation slots of an NTT-form limb with no sign flips at all; either
pattern is the same for every limb and depends only on the Galois
element ``g``.
Rotation by ``r`` slots corresponds to ``g = 5^r mod 2N``; complex
conjugation corresponds to ``g = 2N - 1``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ckks.ntt import bit_reverse_indices
from repro.ckks.rns import RnsPolynomial, modulus_column
from repro.errors import ParameterError


def galois_element(rotation: int, degree: int) -> int:
    """Galois element ``5^rotation mod 2N`` for a slot rotation."""
    two_n = 2 * degree
    return pow(5, rotation % (degree // 2), two_n)


def conjugation_element(degree: int) -> int:
    """Galois element for complex conjugation."""
    return 2 * degree - 1


@lru_cache(maxsize=None)
def _permutation(degree: int, galois: int):
    """(target indices, sign) for the coefficient permutation of φ_g.

    Coefficient ``i`` of the input lands at index ``i*g mod 2N``; if that
    index is ≥ N it wraps to ``i*g - N`` with a sign flip (because
    ``X^N = -1``).
    """
    if galois % 2 == 0:
        raise ParameterError("Galois element must be odd")
    two_n = 2 * degree
    src = np.arange(degree, dtype=np.int64)
    dest = src * galois % two_n
    flip = dest >= degree
    dest = np.where(flip, dest - degree, dest)
    return dest, flip


@lru_cache(maxsize=None)
def _ntt_gather(degree: int, galois: int) -> np.ndarray:
    """Source slot of every output slot of φ_g on NTT-form limbs.

    Forward-NTT slot ``j`` holds ``a(ψ^(2·brv(j)+1))`` and
    ``φ_g(a)(ψ^e) = a(ψ^(e·g))``, so output slot ``j`` reads the input
    slot whose odd exponent is ``(2·brv(j)+1)·g mod 2N`` — a pure
    permutation, with no sign flips and the same for every prime.
    """
    if galois % 2 == 0:
        raise ParameterError("Galois element must be odd")
    rev = bit_reverse_indices(degree)
    exponent = (2 * rev + 1) * galois % (2 * degree)
    index = rev[(exponent - 1) // 2]
    index.flags.writeable = False
    return index


def apply_automorphism(poly: RnsPolynomial, galois: int) -> RnsPolynomial:
    """Apply ``φ_g`` to a polynomial (any domain; returns same domain).

    Evaluation-domain input is one gather of every limb through a cached
    slot index map — no (I)NTT, bit-identical to the coefficient round
    trip (the AutAccum data movement of §V).  Coefficient-domain input
    takes the signed coefficient permutation, which also serves as the
    test reference for the gather.
    """
    if poly.is_ntt:
        out = np.take(poly.coeffs, _ntt_gather(poly.degree, galois), axis=-1)
        return RnsPolynomial(out, poly.basis, is_ntt=True)
    dest, flip = _permutation(poly.degree, galois)
    coeffs = poly.coeffs
    q_col = modulus_column(poly.basis)
    values = np.where(flip[None, :] & (coeffs != 0), q_col - coeffs, coeffs)
    out = np.empty_like(coeffs)
    out[..., dest] = values
    return RnsPolynomial(out, poly.basis, is_ntt=False)
