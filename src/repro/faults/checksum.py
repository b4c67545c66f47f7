"""Residue checksums over RNS limb planes.

The checksum of a limb is the sum of its residues mod the limb's prime
— a linear functional, so it commutes with the element-wise ops the PIM
offloads (Table II): the expected output checksum of an add/sub/neg/
scalar-mul is computable from the *input* checksums alone, and for the
bilinear ops (mul/MAC) from one multiply-accumulate reduction over the
inputs — O(N) lane work with no extra DRAM writes, which is why the
checksum lanes can ride the existing MMAC stream.

Detection guarantee: a single-word corruption replaces residue ``v``
with ``v ^ 2^k``; the limb checksum shifts by ``±2^k mod q``, which is
nonzero for every odd prime ``q``, so any single bit flip (hence any
single-word corruption that changes the residue class) is caught.

All helpers are vectorized over the limb axis: ``coeffs`` is the usual
``(L, N)`` int64 matrix (or a ``(..., L, N)`` batch of them — sums run
over the coefficient axis -1) and ``q_col`` the ``(L, 1)`` modulus
column.
Sums of up to 2^35 residues of < 2^31 each stay below 2^63, so the
reductions are exact in int64.
"""

from __future__ import annotations

import numpy as np


def limb_checksum(coeffs: np.ndarray, q_col: np.ndarray) -> np.ndarray:
    """``(..., L)``: sum of each limb's residues mod its prime."""
    return coeffs.sum(axis=-1, dtype=np.int64) % q_col[:, 0]


def checksum_add(cs_a: np.ndarray, cs_b: np.ndarray,
                 q_col: np.ndarray) -> np.ndarray:
    return (cs_a + cs_b) % q_col[:, 0]


def checksum_sub(cs_a: np.ndarray, cs_b: np.ndarray,
                 q_col: np.ndarray) -> np.ndarray:
    return (cs_a - cs_b) % q_col[:, 0]


def checksum_neg(cs_a: np.ndarray, q_col: np.ndarray) -> np.ndarray:
    return (-cs_a) % q_col[:, 0]


def checksum_scalar_mul(scalars: np.ndarray, cs_a: np.ndarray,
                        q_col: np.ndarray) -> np.ndarray:
    """Expected checksum of a per-limb scalar multiply.

    ``scalars`` is the ``(L, 1)`` (or ``(L,)``) reduced constant column.
    """
    col = np.asarray(scalars, dtype=np.int64).reshape(-1)
    return (col * cs_a) % q_col[:, 0]


def checksum_mul_pairs(a: np.ndarray, b: np.ndarray,
                       q_col: np.ndarray) -> np.ndarray:
    """Expected checksum of the element-wise product ``a ⊙ b``.

    Bilinear ops don't factor through the input checksums, so the
    verifier accumulates ``sum_j a_j * b_j mod q`` directly from the
    operands — the independent reduction a MAC-side checksum unit
    computes while the product streams past it.
    """
    prods = (a * b) % q_col          # residues < 2^31: products fit int64
    return prods.sum(axis=-1, dtype=np.int64) % q_col[:, 0]


def mismatched_limbs(coeffs: np.ndarray, expected: np.ndarray,
                     q_col: np.ndarray) -> np.ndarray:
    """Boolean ``(..., L)`` mask of limbs whose checksum disagrees."""
    return limb_checksum(coeffs, q_col) != expected


def residues_in_range(coeffs: np.ndarray, q_col: np.ndarray) -> bool:
    """Whether every residue lies in the canonical range ``[0, q)``."""
    return bool(((coeffs >= 0) & (coeffs < q_col)).all())
