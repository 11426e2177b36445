"""Exact Cayley-Dickson arithmetic for the algebras A_r, 2 <= r <= 6.

A_2 is the quaternion skew field H, A_3 the octonion algebra O; higher
levels (sedenions and up) keep the ring and conjugation laws but lose the
division property, so only r = 2, 3 are used by the analytic modules.

Elements are stored as flat coefficient vectors over the standard
generators i_0 = 1, i_1, ..., i_{2^r-1}.  Generators multiply by the XOR
rule i_i i_j = +-i_{i^j}, so coefficient k of a product is the signed sum
of x_i y_{i^k} over i: dim terms, not dim^2.  The product kernel gathers
y with its signs folded in, then contracts with x in a two-operand einsum
that sums the terms in index order.  The signs come from the
doubling rule

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

applied recursively down to the reals.  All coefficient arrays are float64
and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DimensionError, DivisionByZeroError, DomainError, EvaluationError,
                     IndexRangeError)

__all__ = [
    "CdNumber",
    "PolarForm",
    "ALGEBRA_TOL",
    "cd",
    "mul",
    "conj",
    "re",
    "norm",
    "inv",
    "proj",
    "exp",
    "ln_principal",
    "ln_branch",
    "pow_real",
    "polar",
    "mul_coeffs",
    "conj_coeffs",
    "leads_negative",
    "require_unit",
    "require_unit_imaginary",
    "row_dots",
    "row_norms",
    "basis_product",
    "real_array",
    "real_number",
]

# Default absolute tolerance for algebraic identities on unit-scale inputs.
ALGEBRA_TOL = 1e-11
UNIT_SLACK = 1e-12  # slack of the unit norm and unit imaginary tests

_VALID_DIMS = (4, 8, 16, 32, 64)
_KERNEL_DIMS = (1, 2) + _VALID_DIMS  # the product kernel also takes R and C


@lru_cache(maxsize=None)
def basis_product(dim: int, i: int, j: int) -> tuple[int, int]:
    """Return (k, s) with i_i * i_j = s * i_k in the algebra of dimension dim.

    Recursive form of the doubling rule on basis elements: an index below
    dim/2 encodes (e, 0), an index at or above encodes (0, e).
    """
    if i == 0:
        return j, 1
    if j == 0:
        return i, 1
    half = dim // 2
    if half == 0:
        raise ValueError("dimension must be a positive power of two")
    if i < half and j < half:
        return basis_product(half, i, j)
    if i < half:  # (e_i, 0)(0, e_j') -> (0, e_j' e_i)
        k, s = basis_product(half, j - half, i)
        return k + half, s
    if j < half:  # (0, e_i')(e_j, 0) -> (0, e_i' conj(e_j))
        k, s = basis_product(half, i - half, j)
        return k + half, (s if j == 0 else -s)
    # (0, e_i')(0, e_j') -> (-conj(e_j') e_i', 0)
    k, s = basis_product(half, j - half, i - half)
    return k, (s if j - half == 0 else -s) * -1


@lru_cache(maxsize=None)
def _xor_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, index) with i_i i_{index[i,k]} = signs[i,k] i_k, index[i,k] = i^k."""
    index = np.arange(dim)[:, None] ^ np.arange(dim)
    signs = np.empty((dim, dim))
    for i, k in np.ndindex(dim, dim):
        signs[i, k] = basis_product(dim, i, i ^ k)[1]
    signs.flags.writeable = index.flags.writeable = False  # shared by every caller
    return signs, index


def mul_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Multiply coefficient arrays of length 2^r, r <= 6; leading axes broadcast.

    (x y)_k = sum_i x_i (signs[i,k] y_{i^k}): a signed gather of y, then a
    two-operand einsum that adds the i terms in index order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dim = x.shape[-1]
    if y.shape[-1] != dim:
        raise DimensionError(f"cannot multiply elements of dimension {dim} and {y.shape[-1]}")
    if dim not in _KERNEL_DIMS:  # before _xor_rule builds and caches a table
        raise DimensionError(f"coefficient arrays must have length in {_KERNEL_DIMS}, got {dim}")
    signs, index = _xor_rule(dim)
    terms = y.take(index, axis=-1)
    terms *= signs  # exact: every sign is +1 or -1
    return np.einsum("...i,...ik->...k", x, terms)


def conj_coeffs(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def leads_negative(coeffs) -> bool:
    """Whether the first nonzero entry of coeffs is negative (False when
    all are zero): the sign that fixes the -1 in a sign-invariant answer."""
    nz = np.flatnonzero(coeffs)
    return bool(nz.size and coeffs[nz[0]] < 0)


def require_unit(x: CdNumber, message: str) -> None:
    """Raise DomainError(message) unless |x| is 1 within UNIT_SLACK."""
    if abs(x.norm() - 1.0) > UNIT_SLACK:
        raise DomainError(message)


def require_unit_imaginary(m: CdNumber, message: str) -> None:
    """Raise DomainError(message) unless m is unit and imaginary, both
    within UNIT_SLACK."""
    if abs(m.re) > UNIT_SLACK:
        raise DomainError(message)
    require_unit(m, message)


def row_dots(x, y) -> np.ndarray:
    """The dot product of each pair of (..., dim) rows, bit for bit np.dot
    on the pair: a (1, dim) @ (dim, 1) matmul makes the same dot call.
    norm(axis=-1), einsum and (x * y).sum(-1) sum in another order and miss
    the last bit on 8-25 % of rows."""
    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def row_norms(rows) -> np.ndarray:
    """|x| of each (..., dim) row, bit for bit CdNumber.norm(): the square
    root of the row's dot product with itself (row_dots)."""
    return np.sqrt(row_dots(rows, rows))


def real_array(values) -> np.ndarray:
    """values as a float array; TypeError unless numpy reads them as ints
    or floats (a numeric string is not a number)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" and not (
            arr.dtype.kind == "O" and all(type(v) in (int, float) for v in arr.flat)):
        raise TypeError(f"expected real numbers, got {arr.dtype} values")
    return arr.astype(float, copy=False)


def real_number(value) -> float:
    """value as a float; TypeError unless it is one int or float."""
    arr = real_array(value)
    if arr.ndim:
        raise TypeError(f"expected one real number, got shape {arr.shape}")
    return float(arr)


@dataclass(frozen=True)
class CdNumber:
    """One element of A_r as 2^r real coefficients (coefficient k = i_k part)."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        arr = real_array(coeffs)
        if arr.ndim != 1 or arr.shape[0] not in _VALID_DIMS:
            raise DimensionError(
                f"coefficient vector must have length in {_VALID_DIMS}, got shape {arr.shape}"
            )
        # contiguous, so norm2() and row_dots sum in the same order
        object.__setattr__(self, "coeffs", np.ascontiguousarray(arr))

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def level(self) -> int:
        return self.dim.bit_length() - 1

    @classmethod
    def zero(cls, level: int = 2) -> "CdNumber":
        return cls(np.zeros(1 << level))

    @classmethod
    def one(cls, level: int = 2) -> "CdNumber":
        return cls.real(1.0, level)

    @classmethod
    def real(cls, value: float, level: int = 2) -> "CdNumber":
        c = np.zeros(1 << level)
        c[0] = value
        return cls(c)

    @classmethod
    def basis(cls, index: int, level: int = 2) -> "CdNumber":
        dim = 1 << level
        if not 0 <= index < dim:
            raise IndexRangeError(f"generator index {index} out of range for level {level}")
        c = np.zeros(dim)
        c[index] = 1.0
        return cls(c)

    def __repr__(self):
        body = ", ".join(format(v, ".12g") for v in self.coeffs)
        return f"CdNumber([{body}])"

    def __eq__(self, other):
        if isinstance(other, CdNumber):
            return self.dim == other.dim and bool(np.array_equal(self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            return self == CdNumber.real(float(other), self.level)
        return NotImplemented

    def __hash__(self):
        return hash((self.dim, self.coeffs.tobytes()))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "CdNumber":
        if isinstance(other, CdNumber):
            if other.dim != self.dim:
                raise DimensionError(f"level mismatch: {self.level} vs {other.level}")
            return other
        if isinstance(other, (int, float)):
            return CdNumber.real(float(other), self.level)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CdNumber(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CdNumber(self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CdNumber(other.coeffs - self.coeffs)

    def __neg__(self):
        return CdNumber(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return CdNumber(self.coeffs * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CdNumber(mul_coeffs(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return CdNumber(self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise DivisionByZeroError("division by zero scalar")
            return CdNumber(self.coeffs / float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * inv(other)

    # -- conveniences ------------------------------------------------------

    @property
    def re(self) -> float:
        return float(self.coeffs[0])

    def conj(self) -> "CdNumber":
        return CdNumber(conj_coeffs(self.coeffs))

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def norm2(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def imag(self) -> "CdNumber":
        c = self.coeffs.copy()
        c[0] = 0.0
        return CdNumber(c)

    def to_json(self) -> list[float]:
        return [float(v) for v in self.coeffs]

    @classmethod
    def from_json(cls, values) -> "CdNumber":
        return cls(values)


def cd(values) -> CdNumber:
    """Shorthand constructor: level inferred from the coefficient count."""
    if isinstance(values, CdNumber):
        return values
    return CdNumber(values)


# ---------------------------------------------------------------------------
# operations named by the public contract
# ---------------------------------------------------------------------------

def mul(x: CdNumber, y: CdNumber) -> CdNumber:
    """Product in A_r; raises DimensionError on level mismatch."""
    if x.dim != y.dim:
        raise DimensionError(f"level mismatch: {x.level} vs {y.level}")
    return CdNumber(mul_coeffs(x.coeffs, y.coeffs))


def conj(x: CdNumber) -> CdNumber:
    return x.conj()


def re(x: CdNumber) -> float:
    return x.re


def norm(x: CdNumber) -> float:
    return x.norm()


def inv(x: CdNumber) -> CdNumber:
    """Multiplicative inverse conj(x) / |x|^2."""
    n2 = x.norm2()
    if n2 == 0.0:
        raise DivisionByZeroError("inverse of zero")
    return CdNumber(conj_coeffs(x.coeffs) / n2)


def proj(j: int, h: CdNumber) -> float:
    """j-th real coefficient of h, evaluated through the algebraic identity

        pi_j(h) = (-h i_j + i_j W) / 2          (j >= 1)
        pi_0(h) = ( h      +     W) / 2
        W      = (2^r - 2)^{-1} ( -h + sum_{l>=1} i_l (h conj(i_l)) )

    rather than by coefficient lookup, so the identity itself is exercised.
    """
    dim = h.dim
    if not 0 <= j < dim:
        raise IndexRangeError(f"coefficient index {j} out of range for dimension {dim}")
    acc = np.zeros(dim)
    for l in range(1, dim):
        il = np.zeros(dim)
        il[l] = 1.0
        acc += mul_coeffs(il, mul_coeffs(h.coeffs, conj_coeffs(il)))
    w = (-h.coeffs + acc) / (dim - 2)
    if j == 0:
        value = (h.coeffs + w) / 2.0
    else:
        ij = np.zeros(dim)
        ij[j] = 1.0
        value = (-mul_coeffs(h.coeffs, ij) + mul_coeffs(ij, w)) / 2.0
    # both identities evaluate to the real scalar h_j
    return float(value[0])


def exp(x: CdNumber) -> CdNumber:
    """exp via the polar form e^{Re x} (cos|v| + (v/|v|) sin|v|), v = Im x;
    EvaluationError when |v| or e^{Re x} overflows."""
    v = x.imag()
    t = v.norm()
    try:
        scale = math.exp(x.re)
    except OverflowError:
        scale = math.inf
    if not (math.isfinite(t) and math.isfinite(scale)):
        raise EvaluationError("exp overflows: |Im x| or e^(Re x) is not finite")
    out = np.zeros(x.dim)
    out[0] = math.cos(t)
    if t > 0.0:
        out += v.coeffs * (math.sin(t) / t)
    return CdNumber(out * scale)


def _arg_direction(x: CdNumber) -> CdNumber:
    """Unit imaginary direction of x; i_1 by convention for real inputs."""
    v = x.imag()
    t = v.norm()
    if t == 0.0:
        return CdNumber.basis(1, x.level)
    return CdNumber(v.coeffs / t)


def _arg(x: CdNumber) -> CdNumber:
    """Principal Arg: unit imaginary direction times the angle in [0, pi]."""
    v = x.imag()
    t = v.norm()
    theta = math.atan2(t, x.re)
    return _arg_direction(x) * theta


def ln_principal(x: CdNumber) -> CdNumber:
    """Principal branch ln|x| + Arg(x); domain error at zero.

    For negative reals the direction of Arg is fixed to i_1 (any unit
    imaginary direction satisfies exp(result) = x; see ln_branch).
    """
    n = x.norm()
    if n == 0.0:
        raise DomainError("logarithm of zero")
    return CdNumber.real(math.log(n), x.level) + _arg(x)


def ln_branch(x: CdNumber, k: int) -> CdNumber:
    """Branch k of Ln: principal value plus 2 pi k times the Arg direction."""
    out = ln_principal(x)
    if k:
        out = out + _arg_direction(x) * (2.0 * math.pi * k)
    return out


def pow_real(x: CdNumber, alpha: float, branch: int = 0) -> CdNumber:
    """x^alpha = exp(alpha Ln x) on the selected logarithm branch."""
    return exp(ln_branch(x, branch) * float(alpha))


@dataclass(frozen=True)
class PolarForm:
    """|z| and the principal Arg, with |z| exp(Arg z) reconstructing z."""

    modulus: float
    arg: CdNumber

    def reconstruct(self) -> CdNumber:
        return exp(self.arg) * self.modulus


def polar(x: CdNumber) -> PolarForm:
    n = x.norm()
    if n == 0.0:
        raise DomainError("polar form of zero")
    return PolarForm(n, _arg(x))
