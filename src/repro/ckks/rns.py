"""RNS polynomial representation.

A polynomial ``a ∈ R_Q`` is stored as an ``(L, N)`` ``int64`` matrix of
residues — one row (limb) per prime of the RNS basis, exactly the view
the paper uses (§II-A).  Polynomials can live in coefficient or NTT
(evaluation) form; most CKKS ops keep them NTT-applied.

An ``RnsPolynomial`` may also hold a *batch* of polynomials over one
basis as ``(..., L, N)`` coefficients — the limb axis is always -2 and
the coefficient axis -1.  Every op treats the leading planes
independently and bit-identically to running it per plane, so
independent polynomials (e.g. the two halves of bootstrapping's
EvalMod) share each kernel dispatch.  An ``(L, N)`` operand (a
plaintext, monomial or key limb) broadcasts against a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.ckks import modmath
from repro.ckks.ntt import TWIDDLE_CACHE_SIZE, BatchNttContext, NttContext
from repro.errors import ParameterError
from repro.faults import guard as _fault_guard


#: Bound on the basis-keyed caches below (batched NTT engines and
#: modulus columns).  A leveled computation wants one entry per level
#: and per stacking pattern — a ciphertext's ``Q+Q`` b/a planes, the
#: ``P+P`` ModDown input, every level's ``rest_0+rest_1+…`` ModUp
#: digits — so the working set is O(levels): a warm bootstrap plus a
#: hoisted transform at the bench parameters touch 50 bases.  512 keeps
#: a paper-scale working set resident (no rebuild per bootstrap) while
#: capping growth when a long serve run sweeps many parameter sets.
BASIS_CACHE_SIZE = 512


@lru_cache(maxsize=TWIDDLE_CACHE_SIZE)
def ntt_context(degree: int, q: int) -> NttContext:
    """Shared, cached NTT tables per (degree, prime).

    Keyed like the twiddle-table cache it reads from, so it shares that
    cache's bound.
    """
    return NttContext(degree, q)


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def batch_ntt_context(degree: int, basis: tuple) -> BatchNttContext:
    """Shared, cached batched NTT engine per (degree, basis).

    Built from the cached per-prime contexts so both paths share the
    exact same twiddle tables.  ``basis`` may repeat primes: stacked
    polynomials are transformed as rows over their concatenated basis.
    """
    return BatchNttContext(
        degree, basis, contexts=[ntt_context(degree, q) for q in basis])


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def modulus_column(basis: tuple) -> np.ndarray:
    """``(L, 1)`` int64 column of the basis primes for broadcasting."""
    return np.array(basis, dtype=np.int64).reshape(len(basis), 1)


def _limb_rows(array: np.ndarray, rows: list) -> np.ndarray:
    """Fresh C-ordered copy of limb rows ``rows`` (axis -2) of every
    plane (``a[..., rows, :]`` would not be C-ordered for a batch)."""
    if array.ndim == 2:
        return array[rows]
    return np.take(array, rows, axis=-2)


def basis_product(basis: tuple) -> int:
    """Product of all primes in a basis (an exact Python int)."""
    prod = 1
    for q in basis:
        prod *= q
    return prod


def _row_basis(poly: "RnsPolynomial") -> tuple:
    """The prime of every row of ``poly.coeffs`` flattened to 2-D."""
    if poly.coeffs.ndim == 2:
        return poly.basis
    return poly.basis * (poly.coeffs.size // (poly.limb_count
                                             * poly.degree))


def stacked_ntt(polys, inverse: bool = False) -> list:
    """(I)NTT of several same-degree polynomials in one batched call.

    The limb planes (of every batch plane) are stacked as the rows of
    one 2-D ``(ΣL_i, N)`` matrix over the concatenated basis (repeated
    primes are fine — each row carries its own twiddle plane), so the
    call keeps the thread pool's row split and pays the per-call
    overhead once.  Every row transforms exactly as in its own call:
    the results are bit-identical to ``[p.to_ntt() for p in polys]``
    (or ``from_ntt``).
    """
    polys = list(polys)
    if any(p.is_ntt != inverse for p in polys):
        raise ParameterError("stacked operands are in the wrong domain")
    degree = polys[0].degree
    basis = tuple(q for p in polys for q in _row_basis(p))
    ctx = batch_ntt_context(degree, basis)
    planes = np.concatenate([p.coeffs.reshape(-1, degree) for p in polys])
    out = ctx.inverse(planes) if inverse else ctx.forward(planes)
    bounds = np.cumsum([p.coeffs.size // degree for p in polys])[:-1]
    return [RnsPolynomial(rows.reshape(p.coeffs.shape), p.basis,
                          is_ntt=not inverse)
            for rows, p in zip(np.split(out, bounds), polys)]


@dataclass
class RnsPolynomial:
    """A polynomial (or a batch of them) in RNS form over one basis.

    ``coeffs`` has shape ``(..., len(basis), degree)``;
    ``coeffs[..., i, :]`` is the limb modulo ``basis[i]``.  Leading axes,
    if any, index independent polynomials over the same basis.
    ``is_ntt`` tracks whether limbs hold evaluation-domain values.
    """

    coeffs: np.ndarray
    basis: tuple
    is_ntt: bool = False
    #: Cached Shoup dual ``floor(coeffs · 2^32 / q)`` (uint64), computed
    #: by :meth:`ensure_shoup` for constant operands that are multiplied
    #: many times (plaintext diagonals, monomials, key limbs).  Never
    #: recomputed on mutation — only set on polynomials used as
    #: immutable cached constants.
    shoup: np.ndarray | None = field(default=None, repr=False,
                                     compare=False)

    def __post_init__(self):
        if self.coeffs.ndim < 2:
            raise ParameterError(
                "RNS coefficients need a limb and a coefficient axis")
        if self.coeffs.shape[-2] != len(self.basis):
            raise ParameterError(
                f"{self.coeffs.shape[-2]} limbs but {len(self.basis)} primes")
        if self.coeffs.dtype != np.int64:
            self.coeffs = self.coeffs.astype(np.int64)

    # -- Constructors --------------------------------------------------------

    @staticmethod
    def zero(degree: int, basis: tuple, is_ntt: bool = True) -> "RnsPolynomial":
        """The zero polynomial (zero in both domains)."""
        return RnsPolynomial(
            np.zeros((len(basis), degree), dtype=np.int64), basis, is_ntt)

    @staticmethod
    def from_int_coeffs(values, basis: tuple) -> "RnsPolynomial":
        """Reduce arbitrary (possibly signed / big) integer coefficients.

        ``values`` may be a Python-int sequence or an object-dtype array;
        residues are taken per prime, so values larger than 63 bits are
        handled exactly.
        """
        arr = np.asarray(values, dtype=object)
        limbs = np.empty((len(basis), arr.shape[0]), dtype=np.int64)
        for i, q in enumerate(basis):
            limbs[i] = (arr % q).astype(np.int64)
        return RnsPolynomial(limbs, tuple(basis), is_ntt=False)

    @staticmethod
    def random_uniform(degree: int, basis: tuple,
                       rng: np.random.Generator,
                       is_ntt: bool = True) -> "RnsPolynomial":
        """Uniformly random polynomial (fresh randomness per limb)."""
        limbs = np.empty((len(basis), degree), dtype=np.int64)
        for i, q in enumerate(basis):
            limbs[i] = rng.integers(0, q, size=degree, dtype=np.int64)
        return RnsPolynomial(limbs, tuple(basis), is_ntt)

    # -- Domain changes -------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def limb_count(self) -> int:
        return self.coeffs.shape[-2]

    def to_ntt(self) -> "RnsPolynomial":
        """Return the NTT-applied copy (no-op if already applied).

        All limbs are transformed in one batched butterfly pass
        (bit-identical to looping :class:`NttContext` over the primes).
        """
        if self.is_ntt:
            return self.copy()
        return self._transformed(inverse=False)

    def from_ntt(self) -> "RnsPolynomial":
        """Return the coefficient-domain copy (no-op if already there)."""
        if not self.is_ntt:
            return self.copy()
        return self._transformed(inverse=True)

    def _transformed(self, inverse: bool) -> "RnsPolynomial":
        """(I)NTT of every limb of every plane as one 2-D row matrix
        over the (repeated) basis — the thread pool splits its rows."""
        ctx = batch_ntt_context(self.degree, _row_basis(self))
        rows = self.coeffs.reshape(-1, self.degree)
        out = ctx.inverse(rows) if inverse else ctx.forward(rows)
        return RnsPolynomial(out.reshape(self.coeffs.shape), self.basis,
                             is_ntt=not inverse)

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.coeffs.copy(), self.basis, self.is_ntt,
                             self.shoup)

    def ensure_shoup(self) -> "RnsPolynomial":
        """Precompute and cache the Shoup dual of every limb.

        Residue rows whose prime exceeds the lazy bound get a dual too
        (it is computable for any ``q < 2^31``) — the per-limb dispatch
        simply never reads those rows.  Returns ``self`` for chaining.
        """
        if self.shoup is None:
            self.shoup = modmath.shoup_precompute(
                self.coeffs, modulus_column(self.basis))
        return self

    # -- Element-wise arithmetic ----------------------------------------------
    #
    # Results are fresh C-ordered buffers shaped like the operand of
    # higher rank, so a batch against an ``(L, N)`` operand broadcasts
    # (the fault guard injects through flat views of those buffers).

    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ParameterError("RNS bases differ")
        if self.is_ntt != other.is_ntt:
            raise ParameterError("operands are in different domains")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        q_col = modulus_column(self.basis)
        a, b = self.coeffs, other.coeffs
        out = np.empty(a.shape if a.ndim >= b.ndim else b.shape,
                       dtype=np.int64)
        modmath.mod_add_into(a, b, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "add", (a, b), out, q_col,
                lambda buf: modmath.mod_add_into(a, b, q_col, buf))
        return RnsPolynomial(out, self.basis, self.is_ntt)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        q_col = modulus_column(self.basis)
        a, b = self.coeffs, other.coeffs
        out = np.empty(a.shape if a.ndim >= b.ndim else b.shape,
                       dtype=np.int64)
        modmath.mod_sub_into(a, b, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "sub", (a, b), out, q_col,
                lambda buf: modmath.mod_sub_into(a, b, q_col, buf))
        return RnsPolynomial(out, self.basis, self.is_ntt)

    def __neg__(self) -> "RnsPolynomial":
        q_col = modulus_column(self.basis)
        out = np.empty(self.coeffs.shape, dtype=np.int64)
        modmath.mod_neg_into(self.coeffs, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "neg", (self.coeffs,), out, q_col,
                lambda buf: modmath.mod_neg_into(self.coeffs, q_col, buf))
        return RnsPolynomial(out, self.basis, self.is_ntt)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Polynomial product — requires both operands NTT-applied."""
        self._check_compatible(other)
        if not self.is_ntt:
            raise ParameterError("polynomial mult requires NTT form")
        q_col = modulus_column(self.basis)
        a, b = self.coeffs, other.coeffs
        out = np.empty(a.shape if a.ndim >= b.ndim else b.shape,
                       dtype=np.int64)
        # A precomputed Shoup dual on either operand turns the per-limb
        # ``%`` into the divide-free mul/shift/sub pipeline —
        # bit-identical either way.
        if other.shoup is not None:
            modmath.shoup_mod_mul_into(a, b, other.shoup, q_col, out)
        elif self.shoup is not None:
            modmath.shoup_mod_mul_into(b, a, self.shoup, q_col, out)
        else:
            modmath.mod_mul_into(a, b, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "mul", (a, b), out, q_col,
                lambda buf: modmath.mod_mul_into(a, b, q_col, buf))
        return RnsPolynomial(out, self.basis, self.is_ntt)

    def scalar_mul(self, constants) -> "RnsPolynomial":
        """Multiply by per-limb scalar constants (or one shared int)."""
        if isinstance(constants, int):
            constants = [constants] * self.limb_count
        if len(constants) != self.limb_count:
            raise ParameterError("need one constant per limb")
        q_col = modulus_column(self.basis)
        col = np.array([int(c) % q for c, q in zip(constants, self.basis)],
                       dtype=np.int64).reshape(-1, 1)
        out = np.empty(self.coeffs.shape, dtype=np.int64)
        modmath.mod_mul_into(self.coeffs, col, q_col, out)
        if _fault_guard.ACTIVE is not None:
            _fault_guard.ACTIVE.elementwise(
                "scalar", (self.coeffs,), out, q_col,
                lambda buf: modmath.mod_mul_into(self.coeffs, col, q_col,
                                                 buf),
                scalars=col)
        return RnsPolynomial(out, self.basis, self.is_ntt)

    # -- Basis manipulation -----------------------------------------------------

    def restrict(self, basis: tuple) -> "RnsPolynomial":
        """Keep only the limbs whose primes appear in ``basis`` (in order)."""
        index = {q: i for i, q in enumerate(self.basis)}
        try:
            rows = [index[q] for q in basis]
        except KeyError as exc:
            raise ParameterError(f"prime {exc} not in source basis") from exc
        dual = None if self.shoup is None else _limb_rows(self.shoup, rows)
        return RnsPolynomial(_limb_rows(self.coeffs, rows), tuple(basis),
                             self.is_ntt, dual)

    def concat(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Stack limbs of two polynomials over disjoint bases."""
        if self.is_ntt != other.is_ntt:
            raise ParameterError("operands are in different domains")
        if set(self.basis) & set(other.basis):
            raise ParameterError("bases overlap")
        return RnsPolynomial(
            np.concatenate([self.coeffs, other.coeffs], axis=-2),
            self.basis + other.basis, self.is_ntt)

    # -- Exact reconstruction ----------------------------------------------------

    def to_int_coeffs(self, centered: bool = True) -> np.ndarray:
        """CRT-recompose to exact big-int coefficients (object dtype).

        With ``centered`` the result lies in ``(-Q/2, Q/2]``, the signed
        representative used when decoding.
        """
        poly = self.from_ntt()
        big_q = basis_product(self.basis)
        out = np.zeros(self.coeffs.shape[:-2] + (self.degree,),
                       dtype=object)
        for i, q in enumerate(self.basis):
            q_hat = big_q // q
            q_hat_inv = modmath.mod_inverse(q_hat % q, q)
            weight = q_hat * q_hat_inv
            out = (out + poly.coeffs[..., i, :].astype(object)
                   * weight) % big_q
        if centered:
            out = np.where(out > big_q // 2, out - big_q, out)
        return out
