"""Fractional R-linear maps on the compactified algebra and hypersphere geometry.

Words are finite generator sequences applied left to right: shifts z + c,
the inversion z^{-1}, two-sided unit-free multiplications a z b over H,
and ordered products of coordinate-plane rotations over O.  Each generator
has a `level` (None for Inv) and one array kernel `apply_coeffs` on
(..., 2^r) finite points, run in turn by `apply_many`.  `apply_word` is its
exact edge at the point at infinity, with the same bits elsewhere, making
every word a bijection of the one-point compactification; the reflection
fixes INF too, so `schwarz_extend` gives INF at a pole (CLI: "inf").

Hyperspheres are the solution sets of

    E z conj(z) + J conj(z) + z conj(J) + D = 0,   E, D real, J in K,

spheres for E != 0 (center -J/E, R^2 = (|J|^2 - E D)/E^2) and hyperplanes
for E = 0.  Every word maps hyperspheres to hyperspheres; the parameter
updates below are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (CdNumber, cd, conj_coeffs, inv, leads_negative, mul, mul_coeffs,
                      real_number, row_dots)
from .calculus import givens_product
from .errors import DimensionError, DomainError, EvaluationError

__all__ = [
    "INF",
    "Shift",
    "Inv",
    "MulQ",
    "RotO",
    "MoebiusWord",
    "Hypersphere",
    "apply_word",
    "compose",
    "inverse",
    "sphere_residual",
    "map_hypersphere",
    "symmetric_point",
    "reflect_conjugate",
    "schwarz_extend",
]


class _Infinity:
    """The added point of the one-point compactification."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shift:
    c: CdNumber

    level = property(lambda self: self.c.level)

    def apply_coeffs(self, x):
        return x + self.c.coeffs

    def inverted(self):
        return Shift(-self.c)

    def to_json(self):
        return {"op": "shift", "c": self.c.to_json()}


@dataclass(frozen=True)
class Inv:
    # 0 <-> INF lives in apply_word, which knows the level
    level = None

    def apply_coeffs(self, x):
        return conj_coeffs(x) / row_dots(x, x)[..., None]

    def inverted(self):
        return Inv()

    def to_json(self):
        return {"op": "inv"}


@dataclass(frozen=True)
class MulQ:
    a: CdNumber
    b: CdNumber
    level = 2

    def __post_init__(self):
        if self.a.level != 2 or self.b.level != 2:
            raise DimensionError("MulQ is a quaternion generator")
        if self.a.norm() == 0.0 or self.b.norm() == 0.0:
            raise DomainError("MulQ coefficients must be nonzero")

    def apply_coeffs(self, x):
        return mul_coeffs(mul_coeffs(self.a.coeffs, x), self.b.coeffs)

    def inverted(self):
        return MulQ(inv(self.a), inv(self.b))

    def to_json(self):
        return {"op": "mulq", "a": self.a.to_json(), "b": self.b.to_json()}


@dataclass(frozen=True)
class RotO:
    """Ordered product of octonion coordinate-plane rotations."""

    angles: tuple  # ((k, m, t), ...) with integer planes k < m
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    level = 3

    def __post_init__(self):
        for k, m, _ in self.angles:
            if not isinstance(k, (int, np.integer)) or not isinstance(m, (int, np.integer)):
                raise TypeError(f"rotation plane ({k!r}, {m!r}) must be two integers")
            if not 0 <= k < m <= 7:
                raise DomainError(f"invalid rotation plane ({k}, {m})")
        object.__setattr__(self, "matrix", givens_product(self.angles))

    def apply_coeffs(self, x):
        # M @ column, not x @ M.T: the batched rows keep M @ x's bits
        return (self.matrix @ x[..., None])[..., 0]

    def inverted(self):
        return RotO(tuple((k, m, -t) for k, m, t in reversed(self.angles)))

    def to_json(self):
        return {"op": "roto", "angles": [[k, m, t] for k, m, t in self.angles]}


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoebiusWord:
    """Generator sequence, applied left to right as written."""

    generators: tuple
    level: int

    def __init__(self, generators, level=None):
        generators = tuple(generators)
        inferred = {g.level for g in generators if g.level is not None}
        if len(inferred) > 1:
            raise DimensionError(f"generators of mixed levels {sorted(inferred)}")
        if level is None:
            if not inferred:
                raise DimensionError("cannot infer the level of a shift-free word")
            level = inferred.pop()
        elif inferred and level not in inferred:
            raise DimensionError("stated level contradicts the generators")
        elif not 2 <= level <= 6:
            raise DimensionError(f"word level {level} outside 2..6")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "level", level)

    def __call__(self, z):
        return apply_word(self, z)

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized application to an (..., 2^r) array of finite points;
        each row equals apply_word at that point, bit for bit.

        The caller is responsible for keeping the orbit clear of the
        infinity point (an inversion at zero produces inf entries).
        """
        out = np.array(pts, dtype=float)
        if out.shape[-1:] != (1 << self.level,):
            raise DimensionError(f"a level-{self.level} word cannot act on shape {out.shape}")
        for gen in self.generators:
            out = gen.apply_coeffs(out)
        return out

    def poles(self):
        """Preimages of INF, one candidate per inversion, skipping escapes."""
        out = []
        for idx, gen in enumerate(self.generators):
            if isinstance(gen, Inv):
                prefix = MoebiusWord(self.generators[:idx], self.level)
                p = apply_word(inverse(prefix), CdNumber.zero(self.level))
                if p is not INF:
                    out.append(p)
        return out

    def to_json(self):
        return [g.to_json() for g in self.generators]

    @classmethod
    def from_json(cls, payload, level=None):
        gens = []
        for item in payload:
            op = item["op"]
            if op == "shift":
                gens.append(Shift(cd(item["c"])))
            elif op == "inv":
                gens.append(Inv())
            elif op == "mulq":
                gens.append(MulQ(cd(item["a"]), cd(item["b"])))
            elif op == "roto":
                gens.append(RotO(tuple((k, m, real_number(t)) for k, m, t in item["angles"])))
            else:
                raise DomainError(f"unknown generator {op!r}")
        return cls(gens, level)


def apply_word(word: MoebiusWord, z):
    """Apply the word with exact infinity bookkeeping (Inv swaps 0 and INF,
    the others fix INF) and apply_many's kernels everywhere else."""
    if z is not INF and z.dim != 1 << word.level:
        raise DimensionError(f"a level-{word.level} word cannot act on {z.dim} coefficients")
    x = INF if z is INF else z.coeffs
    for gen in word.generators:
        if isinstance(gen, Inv) and (x is INF or np.dot(x, x) == 0.0):
            x = np.zeros(1 << word.level) if x is INF else INF
        elif x is not INF:
            x = gen.apply_coeffs(x)
    return INF if x is INF else CdNumber(x)


def compose(w1: MoebiusWord, w2: MoebiusWord) -> MoebiusWord:
    """Word running w1 first, then w2 (concatenation in written order)."""
    if w1.level != w2.level:
        raise DimensionError("cannot compose words of different levels")
    return MoebiusWord(w1.generators + w2.generators, w1.level)


def inverse(word: MoebiusWord) -> MoebiusWord:
    return MoebiusWord(
        tuple(g.inverted() for g in reversed(word.generators)), word.level
    )


# ---------------------------------------------------------------------------
# hyperspheres
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypersphere:
    """Parameters (E, J, D) of E z conj(z) + J conj(z) + z conj(J) + D = 0."""

    e: float
    j: CdNumber
    d: float

    def __post_init__(self):
        if self.e == 0.0 and self.d == 0.0 and self.j.norm() == 0.0:
            raise DomainError("all hypersphere parameters are zero")
        if self.e != 0.0 and self.radius2() <= 0.0:
            raise DomainError("empty hypersphere: |J|^2 - E D must exceed 0")
        if self.e == 0.0 and self.j.norm() == 0.0:
            raise DomainError("degenerate hyperplane with J = 0")

    @classmethod
    def from_center_radius(cls, center: CdNumber, radius: float) -> "Hypersphere":
        return cls(1.0, -center, center.norm2() - radius * radius)

    def is_plane(self) -> bool:
        return self.e == 0.0

    def center(self) -> CdNumber:
        if self.is_plane():
            raise DomainError("a hyperplane has no center")
        return self.j * (-1.0 / self.e)

    def radius2(self) -> float:
        e2 = self.e * self.e
        if e2 == 0.0:  # E below about 1e-162 underflows
            raise EvaluationError("E*E underflows to 0: the hypersphere radius is not computable")
        return (self.j.norm2() - self.e * self.d) / e2

    def radius(self) -> float:
        return math.sqrt(self.radius2())

    def normalized(self) -> "Hypersphere":
        """Scale so max(|E|, |J|, |D|) = 1, with a canonical overall sign:
        E > 0 for proper spheres, first nonzero J coefficient positive for
        hyperplanes (the equation is sign and scale invariant)."""
        scale = max(abs(self.e), self.j.norm(), abs(self.d))
        if leads_negative(np.r_[self.e, self.j.coeffs]):
            scale = -scale
        return Hypersphere(self.e / scale, self.j * (1.0 / scale), self.d / scale)

    def sample(self, n: int, rng) -> np.ndarray:
        """n points on the hypersphere as an (n, 2^r) coefficient array."""
        dim = self.j.dim
        if self.is_plane():
            base = self.j * (-self.d / (2.0 * self.j.norm2()))
            vecs = rng.normal(size=(n, dim))
            jdir = self.j.coeffs / self.j.norm()
            vecs -= np.outer(vecs @ jdir, jdir)
            return base.coeffs + vecs
        vecs = rng.normal(size=(n, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return self.center().coeffs + self.radius() * vecs

    def to_json(self):
        return {"E": self.e, "J": self.j.to_json(), "D": self.d}

    @classmethod
    def from_json(cls, payload):
        return cls(real_number(payload["E"]), cd(payload["J"]), real_number(payload["D"]))


def sphere_residual(s: Hypersphere, z) -> float:
    """Scale-free residual of the defining equation at z.

    Re(J conj(z)) reduces to the coefficient dot product, so the equation
    value is E |z|^2 + 2 <J, z> + D.  Accepts a CdNumber or an (..., 2^r)
    array; arrays return the worst residual.
    """
    zc = z.coeffs if isinstance(z, CdNumber) else np.asarray(z, dtype=float)
    n2 = np.sum(zc * zc, axis=-1)
    val = s.e * n2 + 2.0 * (zc @ s.j.coeffs) + s.d
    scale = max(abs(s.e), s.j.norm(), abs(s.d)) * (1.0 + n2)
    out = val / scale
    return float(np.max(np.abs(out))) if out.ndim else float(out)


def map_hypersphere(word: MoebiusWord, s: Hypersphere) -> Hypersphere:
    """Image hypersphere under the word, parameter by parameter.

    Shift(c):  (E, J - E c, D + E |c|^2 - 2 Re(J conj(c)))
    Inv:       (D, conj(J), E)
    MulQ(a,b): (E / |a b|^2, conj(a)^{-1} J conj(b)^{-1}, D)
    RotO(Y):   (E, Y J, D)

    The result is normalized so max(|E|, |J|, |D|) = 1.
    """
    e, j, d = s.e, s.j, s.d
    for gen in word.generators:
        if isinstance(gen, Shift):
            c = gen.c
            d = d + e * c.norm2() - 2.0 * float(np.dot(j.coeffs, c.coeffs))
            j = j - c * e
        elif isinstance(gen, Inv):
            e, j, d = d, j.conj(), e
        elif isinstance(gen, MulQ):
            e = e / (gen.a.norm2() * gen.b.norm2())
            j = mul(mul(inv(gen.a.conj()), j), inv(gen.b.conj()))
        elif isinstance(gen, RotO):
            j = CdNumber(gen.matrix @ j.coeffs)
        Hypersphere(e, j, d)  # each intermediate sphere must be valid
    return Hypersphere(e, j, d).normalized()


def symmetric_point(z1: CdNumber, s: Hypersphere):
    """Inversion partner z0 + R^2 (conj(z1) - conj(z0))^{-1}; INF at the center."""
    if s.is_plane():
        raise DomainError("symmetric points need a proper sphere (E != 0)")
    z0 = s.center()
    diff = z1.conj() - z0.conj()
    if diff.norm() == 0.0:
        return INF
    return z0 + inv(diff) * s.radius2()


# ---------------------------------------------------------------------------
# reflection extension
# ---------------------------------------------------------------------------

def reflect_conjugate(z):
    """Reflection across the hyperplane of vanishing last coefficient; fixes INF."""
    if z is INF:
        return INF
    c = z.coeffs.copy()
    c[-1] = -c[-1]
    return CdNumber(c)


def schwarz_extend(f, z: CdNumber, domain=None):
    """Extension theta(f(theta(z))) of f through the last-coefficient hyperplane
    (INF at a pole); raises DomainError when theta(z) falls outside f's domain."""
    zr = reflect_conjugate(z)
    if domain is not None and not domain(zr):
        raise DomainError("reflected point lies outside the declared domain")
    return reflect_conjugate(f(zr))
