"""Numerical super-differentiation and derivative factorization.

The derivative of a map f: A_r -> A_r at a point is an R-linear operator,
held here as its real 2^r x 2^r matrix (column k = directional derivative
along the generator i_k).  A map is accepted as pseudoconformal at a point
when that operator has no conjugation-anticommuting part, is nonzero, and
is a positive-determinant similarity lambda * (rotation).  Over H the
rotation factors into unit-quaternion left/right multiplications (the
isoclinic decomposition of SO(4)); over O it factors into at most 28
coordinate-plane rotations via a Givens sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import CdNumber, leads_negative, mul_coeffs
from .errors import (
    DimensionError,
    EvaluationError,
    NonproperRotationError,
    NotSimilarityError,
)

__all__ = [
    "RealJacobian",
    "QuatFactorization",
    "OctGivensFactorization",
    "Verdict",
    "DEFAULT_STEP",
    "finite_value",
    "values_at",
    "jacobian",
    "left_mul_matrix",
    "right_mul_matrix",
    "dzbar_norm",
    "is_pseudoconformal_at",
    "factor_quaternion",
    "factor_octonion_givens",
    "givens_matrix",
    "givens_product",
]

DEFAULT_STEP = 1e-5
GIVENS_DROP_BELOW = 1e-12  # factor_octonion_givens omits angles this small


@dataclass(frozen=True)
class RealJacobian:
    """Real matrix of a directional-derivative operator."""

    level: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        dim = 1 << self.level
        if m.shape != (dim, dim):
            raise DimensionError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise EvaluationError("non-finite Jacobian entries")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return 1 << self.level


def _conj_matrix(dim: int) -> np.ndarray:
    c = np.eye(dim)
    c[1:, 1:] *= -1.0
    return c


def left_mul_matrix(a: CdNumber) -> np.ndarray:
    """Matrix of h -> a h on coefficient vectors."""
    return mul_coeffs(a.coeffs, np.eye(a.dim)).T


def right_mul_matrix(b: CdNumber) -> np.ndarray:
    """Matrix of h -> h b on coefficient vectors."""
    return mul_coeffs(np.eye(b.dim), b.coeffs).T


def finite_value(f, z: CdNumber, what: str) -> CdNumber:
    """f(z), or EvaluationError(what) carrying z when that is not a finite element."""
    w = f(z)
    if not isinstance(w, CdNumber) or not np.all(np.isfinite(w.coeffs)):
        raise EvaluationError(what, point=z)
    return w


def values_at(f, pts: np.ndarray, value) -> np.ndarray:
    """The (..., dim) values of the map f on an (..., dim) array of points.

    A map is any callable on CdNumber.  It may add `apply_many`, f on an
    (..., 2^r) array in one call with the bits of f point by point
    (MoebiusWord, AffineMap, and a Phrase, which is a map of z).  Its values
    are returned when the call does not raise and every one is finite;
    otherwise the points are evaluated in C order by the caller's
    `value(idx)`, the coefficients of f at pts[idx], which raises the
    caller's error at the first bad point and handles the point at infinity
    exactly.  Consumers of derivatives also read `jacobian_at(z)`, an exact
    RealJacobian, and `constant_jacobian`, which keeps one Jacobian per map.
    """
    if hasattr(f, "apply_many"):
        try:
            with np.errstate(all="ignore"):
                out = f.apply_many(pts)
            if np.all(np.isfinite(out)):
                return out
        except Exception:  # value() raises it again at its point
            pass
    out = np.empty(pts.shape)
    for idx in np.ndindex(pts.shape[:-1]):
        out[idx] = value(idx)
    return out


def central_stencil(pts: np.ndarray, step: float) -> np.ndarray:
    """The (..., dim, 2, dim) points pts + step e_k and pts - step e_k
    around each (..., dim) point, in the order +e_0, -e_0, +e_1, ..."""
    shift = np.eye(pts.shape[-1]) * step
    x = pts[..., None, :]
    return np.stack([x + shift, x - shift], axis=-2)


def central_differences(samples: np.ndarray, step: float) -> np.ndarray:
    """(..., dim, dim) Jacobians from a map's values on central_stencil:
    column k is (f(x + step e_k) - f(x - step e_k)) / (2 step)."""
    diff = (samples[..., 0, :] - samples[..., 1, :]) / (2.0 * step)
    return np.ascontiguousarray(np.swapaxes(diff, -1, -2))


def jacobian(f, z: CdNumber, step: float = DEFAULT_STEP) -> RealJacobian:
    """Second-order central-difference Jacobian of f at z, from one
    values_at call on the 2 dim stencil points.  f must be defined on a ball
    of radius 2*step around z; a non-finite sample raises EvaluationError
    carrying the offending point."""
    if step <= 0:
        raise ValueError("step must be positive")
    pts = central_stencil(z.coeffs, step)
    samples = values_at(f, pts, lambda idx: finite_value(
        f, CdNumber(pts[idx]), "non-finite sample in jacobian").coeffs)
    return RealJacobian(z.level, central_differences(samples, step))


@dataclass(frozen=True)
class Verdict:
    """Outcome of the pointwise pseudoconformality test."""

    status: str  # Pseudoconformal | ZeroDerivative | AntiholomorphicPart | NotSimilarity
    lam: float | None = None
    residual: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "Pseudoconformal"

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.residual is not None:
            out["residual"] = self.residual
        return out


def _spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def dzbar_norm(j: RealJacobian) -> float:
    """Spectral norm of the conjugated (dz-bar) part of J.

    Sandwich operators h -> a h b span the whole operator space once the
    algebra is noncommutative (conj(h) itself is such a sum), so no linear
    projection separates a dz part from a dz-bar part.  What distinguishes
    a derivative with a z-only shortest representation from one that needs
    the conjugated variable is orientation: z-only derivatives compose
    proper rotations, conjugated ones improper.  So the dz-bar part is zero
    when det J >= 0 and otherwise the whole operator, J o C with
    C = diag(1, -1, ..., -1).
    """
    if np.linalg.det(j.entries) >= 0.0:
        return 0.0
    return _spectral_norm(j.entries @ _conj_matrix(j.dim))


def _similarity(j: np.ndarray) -> tuple[float, float]:
    """(lambda^2, ||J^T J - lambda^2 I||_2 / lambda^2) with lambda^2 = tr(J^T J) / dim;
    NotSimilarityError when lambda^2 is zero (J is, or underflows to, zero)."""
    dim = j.shape[0]
    g = j.T @ j
    lam2 = float(np.trace(g)) / dim
    if lam2 <= 0:
        raise NotSimilarityError("zero operator is not a similarity", residual=0.0)
    return lam2, _spectral_norm(g - lam2 * np.eye(dim)) / lam2


def is_pseudoconformal_at(f, z: CdNumber, tol: float = 1e-6) -> Verdict:
    """Test whether the derivative of f at z is a positive similarity.

    Checks: nonzero derivative, then J^T J = lambda^2 I within tol, then
    orientation.  An improper similarity reports AntiholomorphicPart with
    the magnitude of the conjugated component as residual; a proper one
    returns Pseudoconformal with the dilation lambda.  f may be a callable
    on CdNumber (at DEFAULT_STEP) or a RealJacobian, e.g. jacobian(f, z, step).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    jac = f if isinstance(f, RealJacobian) else jacobian(f, z)
    scale = _spectral_norm(jac.entries)
    if scale <= tol:
        return Verdict("ZeroDerivative", residual=scale)
    lam2, sim_res = _similarity(jac.entries)
    if sim_res >= tol:
        return Verdict("NotSimilarity", residual=sim_res)
    anti = dzbar_norm(jac)
    if anti >= tol:
        return Verdict("AntiholomorphicPart", residual=anti)
    return Verdict("Pseudoconformal", lam=math.sqrt(lam2), residual=sim_res)


# ---------------------------------------------------------------------------
# quaternion factorization: J = lambda * L_a R_b
# ---------------------------------------------------------------------------

def _similarity_scale(j: np.ndarray, tol: float) -> float:
    """Validate J = lambda * (proper rotation) and return lambda."""
    lam2, res = _similarity(j)
    if res > tol:
        raise NotSimilarityError(f"J^T J deviates from lambda^2 I by {res:.3e}", residual=res)
    if np.linalg.det(j) < 0:
        raise NonproperRotationError("negative determinant: improper rotation")
    return math.sqrt(lam2)


def _reconstructs(fac, j: RealJacobian, tol: float):
    """fac if its matrix() is within max(tol, 1e-8) max(lambda, 1) of J; else NotSimilarityError."""
    err = _spectral_norm(fac.matrix() - j.entries) / max(fac.lam, 1.0)
    if err > max(tol, 1e-8):
        raise NotSimilarityError(f"reconstruction residual {err:.3e}", residual=err)
    return fac


@dataclass(frozen=True)
class QuatFactorization:
    """Dilation and unit quaternion pair with J h = lambda * a h b."""

    a: CdNumber
    b: CdNumber
    lam: float

    def matrix(self) -> np.ndarray:
        return self.lam * left_mul_matrix(self.a) @ right_mul_matrix(self.b)


def factor_quaternion(j: RealJacobian, tol: float = 1e-8) -> QuatFactorization:
    """Recover (a, b, lambda) from a positive quaternion similarity.

    Uses the isoclinic decomposition of SO(4): the Frobenius projections
    A_pq = <J, L_{i_p} R_{i_q}> / 4 assemble the rank-one matrix
    lambda * a b^T, whose leading singular triple yields the factors.
    """
    if j.level != 2:
        raise DimensionError("quaternion factorization requires level 2")
    lam = _similarity_scale(j.entries, tol)
    basis = [CdNumber.basis(k, 2) for k in range(4)]
    assoc = np.empty((4, 4))
    for p in range(4):
        lp = left_mul_matrix(basis[p])
        for q in range(4):
            assoc[p, q] = np.tensordot(j.entries, lp @ right_mul_matrix(basis[q])) / 4.0
    u, s, vt = np.linalg.svd(assoc)
    if s[0] <= 0 or (s.size > 1 and s[1] > tol * max(s[0], 1.0)):
        raise NotSimilarityError("associate matrix is not rank one", residual=float(s[1]))
    a = CdNumber(u[:, 0])
    b = CdNumber(vt[0, :])
    # the SVD can only flip (a, b) -> (-a, -b), the kernel: a's lead fixes it
    if leads_negative(a.coeffs):
        a, b = -a, -b
    return _reconstructs(QuatFactorization(a, b, lam), j, tol)


# ---------------------------------------------------------------------------
# octonion factorization: Givens sweep over coordinate planes
# ---------------------------------------------------------------------------

def givens_matrix(k: int, m: int, t: float) -> np.ndarray:
    """Octonion plane rotation acting on coefficients by
    h_k -> cos(t) h_k + sin(t) h_m,  h_m -> -sin(t) h_k + cos(t) h_m."""
    if not 0 <= k < m < 8:
        raise IndexError(f"plane indices ({k},{m}) out of range")
    g = np.eye(8)
    c, s = math.cos(t), math.sin(t)
    g[[k, k, m, m], [k, m, k, m]] = c, s, -s, c
    return g


def givens_product(angles) -> np.ndarray:
    """Ordered product G(k_1, m_1, t_1) G(k_2, m_2, t_2) ... of plane rotations."""
    out = np.eye(8)
    for k, m, t in angles:
        out = out @ givens_matrix(k, m, t)
    return out


@dataclass(frozen=True)
class OctGivensFactorization:
    """Dilation and plane angles with J = lambda * prod G(k, m, t).

    Angles are listed in lexicographic (k, m) order; the matrix product is
    taken in that order (rightmost factor acts first on a vector).
    """

    lam: float
    angles: tuple

    def matrix(self) -> np.ndarray:
        return self.lam * givens_product(self.angles)


def factor_octonion_givens(j: RealJacobian, tol: float = 1e-8) -> OctGivensFactorization:
    """QR-style Givens sweep of an 8x8 positive similarity.

    Eliminates the below-diagonal entries column by column; the inverse
    rotations, read back in lexicographic plane order, reconstruct J/lambda.
    At most 28 angles; angles of at most GIVENS_DROP_BELOW are omitted.
    """
    if j.level != 3:
        raise DimensionError("octonion Givens factorization requires level 3")
    lam = _similarity_scale(j.entries, tol)
    a = j.entries / lam
    angles = []
    for k in range(7):
        for m in range(k + 1, 8):
            t = math.atan2(a[m, k], a[k, k])
            if t != 0.0:
                a = givens_matrix(k, m, t) @ a
            if abs(t) > GIVENS_DROP_BELOW:
                angles.append((k, m, -t))
    return _reconstructs(OctGivensFactorization(lam, tuple(angles)), j, tol)
