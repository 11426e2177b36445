"""Automorphisms of the canonical domains and their verifiers.

The unit-ball involutions S_a, the coordinatewise polydisc maps, and the
half-space <-> ball Cayley transform are implemented with the printed
bracket order kept left to right, since octonion products reassociate.
Two numerical verifiers accompany them: the norm-shrinking check for maps
of the unit ball fixing the origin, and the identity certification for
self-maps with unit derivative at a fixed base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import CdNumber, conj, inv, mul, require_unit, require_unit_imaginary
from .calculus import DEFAULT_STEP, jacobian
from .errors import DomainError, PreconditionError
from .moebius import INF

__all__ = [
    "HomogeneousNorm",
    "BallAutomorphism",
    "PolydiscAutomorphism",
    "ball_apply",
    "polydisc_apply",
    "polydisc_zero_preimage",
    "cayley_to_ball",
    "ball_to_halfspace",
    "halfspace_coordinate",
    "schwarz_check",
    "SchwarzResult",
    "cartan_check",
    "CartanResult",
]


# ---------------------------------------------------------------------------
# homogeneous norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousNorm:
    """A norm on K^n with ||c z|| = |c| ||z|| for every c in K.

    kind 'euclidean' is (sum |z_j|^2)^{1/2}; kind 'max' is max_j |z_j|
    (the polydisc norm).
    """

    kind: str = "euclidean"

    def __post_init__(self):
        if self.kind not in ("euclidean", "max"):
            raise ValueError("kind must be 'euclidean' or 'max'")

    def __call__(self, z) -> float:
        mods = [zj.norm() for zj in _as_tuple(z)]
        if self.kind == "euclidean":
            return math.sqrt(sum(m * m for m in mods))
        return max(mods)


def _as_tuple(z):
    if isinstance(z, CdNumber):
        return (z,)
    return tuple(z)


def _hermitian_product(z, a) -> CdNumber:
    """<z, a> = sum_j z_j conj(a_j)."""
    zs, bs = _as_tuple(z), _as_tuple(a)
    out = mul(zs[0], conj(bs[0]))
    for zj, aj in zip(zs[1:], bs[1:]):
        out = out + mul(zj, conj(aj))
    return out


# ---------------------------------------------------------------------------
# unit ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallAutomorphism:
    """The involution S_a of the unit ball, optionally framed.

    S_a(z) = (1 - <z,a>)^{-1} (a - pi_a(z) - (1-|a|^2)^{1/2} zeta_a(z)),
    pi_a(z) = (<z,a>) a / |a|^2, zeta_a = z - pi_a(z), S_0 = id.

    frame: per-coordinate unit pairs (l_j, r_j) applied as z_j -> l_j z_j r_j
    before S_a (the rotational factors of the full automorphism group are
    user data; the involutive core is S_a itself).
    """

    a: tuple
    frame: tuple | None = None

    def __init__(self, a, frame=None):
        a = _as_tuple(a)
        if sum(x.norm2() for x in a) >= 1.0:
            raise DomainError("the parameter point must lie in the open unit ball")
        if frame is not None:
            frame = tuple((l, r) for l, r in frame)
            for pair in frame:
                for x in pair:
                    require_unit(x, "frame multipliers must have unit norm")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "frame", frame)

    @property
    def n(self) -> int:
        return len(self.a)

    def __call__(self, z):
        return ball_apply(self, z)


def ball_apply(phi: BallAutomorphism, z):
    """Apply the ball automorphism; input must lie in the open unit ball."""
    zs = _as_tuple(z)
    if len(zs) != phi.n:
        raise DomainError(f"expected {phi.n} coordinates, got {len(zs)}")
    if sum(x.norm2() for x in zs) >= 1.0:
        raise DomainError("input outside the open unit ball")
    if phi.frame is not None:
        zs = tuple(mul(mul(l, zj), r) for zj, (l, r) in zip(zs, phi.frame))
    a = phi.a
    a2 = sum(x.norm2() for x in a)
    if a2 == 0.0:
        out = zs
    else:
        za = _hermitian_product(zs, a)
        lead = inv(CdNumber.one(zs[0].level) - za)
        root = math.sqrt(1.0 - a2)
        out = []
        for zj, aj in zip(zs, a):
            pi_j = mul(za, aj) * (1.0 / a2)
            zeta_j = zj - pi_j
            out.append(mul(lead, aj - pi_j - zeta_j * root))
        out = tuple(out)
    return out[0] if isinstance(z, CdNumber) else out


# ---------------------------------------------------------------------------
# polydisc
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolydiscAutomorphism:
    """Coordinatewise disc maps with a coordinate permutation.

    Coordinate j receives zeta = (c3 ((c1 z_sigma(j)) c2)) c4 built from
    unit multipliers, then maps to (1 - zeta conj(b))^{-1} (b - zeta) with
    |b| < 1.  Over the quaternions c3 = c4 = 1.  Note the disc involution
    at b = 0 is zeta -> -zeta, so the identity map is realized with
    c1 = -1, not with all multipliers equal to 1.
    """

    b: tuple
    multipliers: tuple  # per coordinate: (c1, c2, c3, c4)
    sigma: tuple  # permutation of 0..n-1

    def __init__(self, b, multipliers, sigma=None):
        b = _as_tuple(b)
        multipliers = tuple(tuple(ms) for ms in multipliers)
        if len(multipliers) != len(b):
            raise DomainError("need one multiplier tuple per coordinate")
        for bj in b:
            if bj.norm() >= 1.0:
                raise DomainError("|b_j| must be < 1")
        for ms in multipliers:
            if len(ms) != 4:
                raise DomainError("each coordinate carries 4 unit multipliers")
            for c in ms:
                require_unit(c, "multipliers must have unit norm")
            if b[0].level == 2:
                if (ms[2] - CdNumber.one(2)).norm() > 0 or (ms[3] - CdNumber.one(2)).norm() > 0:
                    raise DomainError("over H the outer multipliers are fixed to 1")
        sigma = tuple(sigma) if sigma is not None else tuple(range(len(b)))
        if not all(isinstance(j, (int, np.integer)) for j in sigma):
            raise TypeError(f"sigma {sigma!r} must hold integers")
        if sorted(sigma) != list(range(len(b))):
            raise DomainError("sigma must be a permutation")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "multipliers", multipliers)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return len(self.b)

    def __call__(self, z):
        return polydisc_apply(self, z)


def polydisc_apply(psi: PolydiscAutomorphism, z):
    """Apply the polydisc automorphism on the open max-norm polydisc."""
    zs = _as_tuple(z)
    if len(zs) != psi.n:
        raise DomainError(f"expected {psi.n} coordinates, got {len(zs)}")
    if max(x.norm() for x in zs) >= 1.0:
        raise DomainError("input outside the open polydisc")
    one = CdNumber.one(zs[0].level)
    out = []
    for j in range(psi.n):
        k = psi.sigma[j]
        c1, c2, c3, c4 = psi.multipliers[k]
        zeta = mul(mul(c3, mul(mul(c1, zs[k]), c2)), c4)
        bj = psi.b[k]
        out.append(mul(inv(one - mul(zeta, conj(bj))), bj - zeta))
    return out[0] if isinstance(z, CdNumber) else tuple(out)


def polydisc_zero_preimage(psi: PolydiscAutomorphism, j: int = 0) -> CdNumber:
    """The point sent to 0 in coordinate j: solves zeta = b by unwinding
    the unit multipliers (inverse properties hold in alternative algebras)."""
    k = psi.sigma[j]
    c1, c2, c3, c4 = psi.multipliers[k]
    x = mul(inv(c3), mul(psi.b[k], inv(c4)))
    return mul(inv(c1), mul(x, inv(c2)))


# ---------------------------------------------------------------------------
# half space <-> ball (scalar case)
# ---------------------------------------------------------------------------

_NOT_UNIT_IMAGINARY = "M must be unit imaginary"


def cayley_to_ball(z: CdNumber, m: CdNumber):
    """W(z) = (z + M)^{-1} (z - M), mapping Re(conj(M) z) > 0 into |W| < 1.

    The pole z = -M returns the infinity sentinel.
    """
    require_unit_imaginary(m, _NOT_UNIT_IMAGINARY)
    denom = z + m
    if denom.norm() == 0.0:
        return INF
    return mul(inv(denom), z - m)


def ball_to_halfspace(w: CdNumber, m: CdNumber):
    """Inverse transform z = (M (1 + w)) (1 - w)^{-1}; w = 1 returns INF."""
    require_unit_imaginary(m, _NOT_UNIT_IMAGINARY)
    one = CdNumber.one(w.level)
    denom = one - w
    if denom.norm() == 0.0:
        return INF
    return mul(mul(m, one + w), inv(denom))


def halfspace_coordinate(z: CdNumber, m: CdNumber) -> float:
    """Re(conj(M) z), positive exactly on the domain of cayley_to_ball.

    For imaginary M this is the plain coefficient pairing sum_k M_k z_k
    (the real parts of i_j i_k are -delta_jk on the imaginary block).
    """
    return float(np.dot(m.coeffs[1:], z.coeffs[1:]))


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchwarzResult:
    holds: bool
    worst_ratio: float
    witness: object


def schwarz_check(f, norm_in: HomogeneousNorm, norm_out: HomogeneousNorm,
                  samples, tol: float = 1e-9) -> SchwarzResult:
    """Verify ||f(z)||_out <= ||z||_in + tol over the samples.

    Requires f(0) = 0 within tol; reports the worst ratio and the first
    violating sample if any.
    """
    first = _as_tuple(samples[0])
    level = first[0].level
    zero = tuple(CdNumber.zero(level) for _ in first)
    f0 = f(zero[0] if isinstance(samples[0], CdNumber) else zero)
    if norm_out(f0) > tol:
        raise PreconditionError(f"f(0) != 0 (norm {norm_out(f0):.3e})", witness=f0)
    worst = 0.0
    witness = None
    for zv in samples:
        nin = norm_in(zv)
        nout = norm_out(f(zv))
        if nin > 0:
            worst = max(worst, nout / nin)
        if nout > nin + tol and witness is None:
            witness = zv
    return SchwarzResult(witness is None, worst, witness)


@dataclass(frozen=True)
class CartanResult:
    is_identity: bool
    max_deviation: float


def cartan_check(f, base: CdNumber, samples, tol: float = 1e-8) -> CartanResult:
    """Certify f = id from f(base) = base and f'(base) = I (central
    differences at DEFAULT_STEP).  Precondition failures are reported
    distinctly: which of the two conditions broke, with its residual.  On
    success the maximal sample deviation |f(z) - z| is returned and
    compared against tol.
    """
    fb = f(base)
    if (fb - base).norm() > tol:
        raise PreconditionError(
            f"base point moves: |f(b) - b| = {(fb - base).norm():.3e}", witness=base)
    jac = jacobian(f, base)
    dev = float(np.max(np.abs(jac.entries - np.eye(jac.dim))))
    if dev > max(tol, 100.0 * DEFAULT_STEP * DEFAULT_STEP):
        raise PreconditionError(
            f"derivative at base differs from identity by {dev:.3e}", witness=base)
    worst = max(((f(zv) - zv).norm() for zv in samples), default=0.0)
    return CartanResult(worst < tol, worst)
