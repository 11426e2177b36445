"""The C^1 proximity metric on compact grids and a normal-family classifier.

rho(f, g) over a compact node set is the maximum of the value distance
plus the operator-norm distance of the derivatives; the spectral norm of
the Jacobian difference realizes the inner maximum over unit directions
exactly.  classify_sequence applies the metric at a fixed finite
resolution: its verdicts are evidence at that resolution, not proofs
(finite grids cannot certify a limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import CdNumber
from .calculus import (DEFAULT_STEP, RealJacobian, finite_value, jacobian, left_mul_matrix,
                       right_mul_matrix)
from .errors import DomainError

__all__ = [
    "CompactGrid",
    "RhoValue",
    "AffineMap",
    "rho",
    "classify_sequence",
    "Classification",
]

# Largest coefficient lattice a grid may build (per_axis ** dim points).
MAX_LATTICE_POINTS = 1 << 18


@dataclass(frozen=True)
class CompactGrid:
    """Closed ball in A_r sampled by a centered coefficient lattice.

    resolution is the minimal number of nodes; the lattice is grown until
    at least that many points fall inside the ball.  refined() doubles the
    lattice density keeping every existing node (odd per-axis counts nest),
    so grid refinement can only add maxima.  A lattice of more than
    MAX_LATTICE_POINTS points is refused with DomainError before it is built.
    """

    center: CdNumber
    radius: float
    resolution: int = 256
    step: float = DEFAULT_STEP
    per_axis: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"grid radius must be finite and positive, got {self.radius}")
        if self.resolution < 1:
            raise DomainError(f"grid resolution must be at least 1, got {self.resolution}")

    def _per_axis(self) -> int:
        if self.per_axis is not None:
            return self.per_axis
        per_axis = 2
        while len(self._lattice(per_axis)) < self.resolution:
            per_axis += 1
        return per_axis

    def _lattice(self, per_axis: int) -> np.ndarray:
        dim = self.center.dim
        if per_axis ** dim > MAX_LATTICE_POINTS:
            raise DomainError(f"a {per_axis}^{dim}-point lattice exceeds "
                              f"{MAX_LATTICE_POINTS} points")
        axes = [np.linspace(-self.radius, self.radius, per_axis)] * dim
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        return mesh[np.linalg.norm(mesh, axis=1) <= self.radius + 1e-12]

    def nodes(self) -> np.ndarray:
        return self.center.coeffs + self._lattice(self._per_axis())

    def refined(self) -> "CompactGrid":
        p = self._per_axis()
        return CompactGrid(self.center, self.radius, self.resolution,
                           self.step, 2 * p - 1)

    def to_json(self):
        return {
            "center": self.center.to_json(),
            "radius": self.radius,
            "resolution": self.resolution,
        }


@dataclass(frozen=True)
class RhoValue:
    """Grid maximum of |f-g| + ||f'-g'||; a lower bound of the true sup
    metric, nondecreasing under grid refinement."""

    value: float
    resolution: int


class AffineMap:
    """z -> (a z) b + c with exact constant Jacobian L_a R_b."""

    def __init__(self, a: CdNumber, b: CdNumber, c: CdNumber):
        self.a, self.b, self.c = a, b, c

    def __call__(self, z: CdNumber) -> CdNumber:
        from .algebra import mul

        return mul(mul(self.a, z), self.b) + self.c

    def jacobian_at(self, z: CdNumber) -> RealJacobian:
        return RealJacobian(z.level, left_mul_matrix(self.a) @ right_mul_matrix(self.b))


def _features(f, nodes: np.ndarray, step: float):
    """Values and Jacobians of f on all nodes."""
    vals = np.empty_like(nodes)
    jacs = np.empty((len(nodes), nodes.shape[1], nodes.shape[1]))
    analytic = getattr(f, "jacobian_at", None)
    for k, row in enumerate(nodes):
        z = CdNumber(row)
        vals[k] = finite_value(f, z, "map not evaluable on a grid node").coeffs
        jacs[k] = (analytic(z) if analytic else jacobian(f, z, step)).entries
    return vals, jacs


def _rho_from_features(fa, fb) -> float:
    dv = np.linalg.norm(fa[0] - fb[0], axis=1)
    dj = np.linalg.norm(fa[1] - fb[1], ord=2, axis=(1, 2))
    return float(np.max(dv + dj))


def rho(f, g, grid: CompactGrid) -> RhoValue:
    """Pointwise-plus-derivative proximity of f and g over the grid.

    Maps may expose `jacobian_at(z)` for exact derivatives; otherwise
    central differences at the grid's step are used.
    """
    nodes = grid.nodes()
    fa = _features(f, nodes, grid.step)
    fb = _features(g, nodes, grid.step)
    return RhoValue(_rho_from_features(fa, fb), len(nodes))


@dataclass(frozen=True)
class Classification:
    kind: str  # ConvergesTo | DivergesToInfinity | Extracted | NotNormalEvidence
    indices: tuple = ()
    limit_samples: np.ndarray | None = None
    witness: tuple | None = None

    def to_json(self):
        out = {"kind": self.kind}
        if self.indices:
            out["indices"] = list(self.indices)
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def classify_sequence(fs, grid: CompactGrid, tol: float,
                      divergence_threshold: float = 1e6) -> Classification:
    """Classify a finite function sequence at the grid's resolution.

    Order of verdicts:

    1. ConvergesTo -- the second half of the sequence has rho-diameter
       below tol (limit samples are those of the last member);
    2. DivergesToInfinity -- the minimal node modulus exceeds the
       threshold and increases monotonically over the last quarter;
    3. Extracted -- a subsequence of at least len(fs)//8 members lies in a
       common rho-ball of radius tol/2 (hence pairwise within tol): the
       densest such ball is located through the full distance matrix;
    4. NotNormalEvidence -- none of the above; the witness is the most
       separated pair.
    """
    n = len(fs)
    if n < 8:
        raise ValueError("classification needs at least 8 functions")
    nodes = grid.nodes()
    feats = [_features(f, nodes, grid.step) for f in fs]

    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = _rho_from_features(feats[i], feats[j])

    tail = range(n // 2, n)
    if max(dist[i, j] for i in tail for j in tail) < tol:
        return Classification("ConvergesTo", tuple(tail), feats[-1][0])

    min_mod = np.array([float(np.min(np.linalg.norm(v[0], axis=1))) for v in feats])
    quarter = min_mod[3 * n // 4:]
    if quarter[-1] > divergence_threshold and np.all(np.diff(quarter) > 0):
        return Classification("DivergesToInfinity")

    within = dist < tol / 2.0
    sizes = within.sum(axis=1)
    seed = int(np.argmax(sizes))
    members = tuple(int(i) for i in np.nonzero(within[seed])[0])
    if len(members) >= max(2, n // 8):
        return Classification("Extracted", members)

    worst = np.unravel_index(int(np.argmax(dist)), dist.shape)
    return Classification("NotNormalEvidence", witness=(int(worst[0]), int(worst[1])))
