"""The C^1 proximity metric on compact grids and a normal-family classifier.

rho(f, g) over a compact node set is the maximum of the value distance
plus the operator-norm distance of the derivatives; the spectral norm of
the Jacobian difference realizes the inner maximum over unit directions
exactly.  classify_sequence applies the metric at a fixed finite
resolution: its verdicts are evidence at that resolution, not proofs
(finite grids cannot certify a limit).

A grid builds only the part of its coefficient lattice inside the ball,
and the metric takes an SVD only on the nodes whose bounds leave them a
chance to hold the maximum; both give the bits of the full computation.

Maps follow the protocol of calculus.values_at: `apply_many` evaluates
all nodes (and their stencils) at once, `jacobian_at` gives exact
derivatives, and `constant_jacobian` keeps one Jacobian per map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import CdNumber, mul, mul_coeffs
from .calculus import (DEFAULT_STEP, RealJacobian, central_differences, central_stencil,
                       finite_value, left_mul_matrix, right_mul_matrix, values_at)
from .errors import DimensionError, DomainError, EvaluationError

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
    so grid refinement can only add maxima.  Only the lattice points near
    the ball are built (see _lattice), and the nodes once per grid.  A
    lattice of more than MAX_LATTICE_POINTS points is refused with
    DomainError before it is built; nodes() refuses one with no node in the
    ball (an explicit per_axis of 0, 1 or 2) the same way, and a negative
    per_axis, or a radius whose square overflows, is refused on construction.
    """

    center: CdNumber
    radius: float
    resolution: int = 256
    step: float = DEFAULT_STEP
    per_axis: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"grid radius must be finite and positive, got {self.radius}")
        if not math.isfinite((self.radius + 1e-12) * (self.radius + 1e-12)):
            raise DomainError(f"grid radius {self.radius} is too large: its square overflows")
        if self.resolution < 1:
            raise DomainError(f"grid resolution must be at least 1, got {self.resolution}")
        if self.per_axis is not None and self.per_axis < 0:
            raise DomainError(f"grid per_axis must not be negative, got {self.per_axis}")

    def _lattice(self, per_axis: int) -> np.ndarray:
        """The points of the centered per_axis^dim lattice in the ball, in
        the row order of an 'ij' meshgrid.  Coordinates are added one at a
        time, and a prefix is dropped once its sum of squares is past the
        ball by a relative 1e-9, far above the rounding of any norm; the
        survivors then meet the meshgrid's own norm test, so the kept rows
        and their bits are those of the full lattice.  The ball is the
        radius plus 1e-12, or below a radius of 1 the radius times
        1 + 1e-12: there the tests run in units of the radius, so the
        slack scales with the ball and no square underflows."""
        dim = self.center.dim
        if per_axis ** dim > MAX_LATTICE_POINTS:
            raise DomainError(f"a {per_axis}^{dim}-point lattice exceeds "
                              f"{MAX_LATTICE_POINTS} points")
        axis = np.linspace(-self.radius, self.radius, per_axis)
        unit = min(self.radius, 1.0)
        scaled = axis / unit
        bound = self.radius / unit + 1e-12
        limit = bound * bound * (1.0 + 1e-9)
        index = np.zeros((1, 0), dtype=np.intp)  # the kept prefixes, as axis indices
        partial = np.zeros(1)  # their sums of squares
        with np.errstate(over="ignore"):  # an overflowing sum is past the ball
            for _ in range(dim):
                sums = (partial[:, None] + scaled * scaled).ravel()
                keep = sums <= limit
                index = np.column_stack([np.repeat(index, per_axis, axis=0),
                                         np.tile(np.arange(per_axis), len(index))])[keep]
                partial = sums[keep]
            points = axis[index]
            return points[np.linalg.norm(points / unit, axis=1) <= bound]

    @cached_property
    def _built(self) -> tuple[int, np.ndarray]:
        """(per_axis, nodes): the explicit per_axis, or the smallest count
        from 2 up whose lattice has `resolution` points in the ball, and
        that lattice shifted to the center (read-only, shared by every caller)."""
        per_axis = 2 if self.per_axis is None else self.per_axis
        lattice = self._lattice(per_axis)
        while self.per_axis is None and len(lattice) < self.resolution:
            per_axis += 1
            lattice = self._lattice(per_axis)
        if not len(lattice):
            raise DomainError(f"a lattice of {per_axis} points per axis "
                              "has no node in the ball")
        nodes = self.center.coeffs + lattice
        nodes.flags.writeable = False
        return per_axis, nodes

    def nodes(self) -> np.ndarray:
        """The (N, 2^r) lattice points in the ball, built once per grid (read-only)."""
        return self._built[1]

    def refined(self) -> "CompactGrid":
        per_axis = self._built[0] if self.per_axis is None else self.per_axis
        return CompactGrid(self.center, self.radius, self.resolution,
                           self.step, 2 * per_axis - 1)

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

    constant_jacobian = True

    def __init__(self, a: CdNumber, b: CdNumber, c: CdNumber):
        self.a, self.b, self.c = a, b, c

    def __call__(self, z: CdNumber) -> CdNumber:
        return mul(mul(self.a, z), self.b) + self.c

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        """The map on an (..., 2^r) array of points; each row has __call__'s bits."""
        if self.c.dim != self.a.dim:
            raise DimensionError(f"level mismatch: {self.a.level} vs {self.c.level}")
        return mul_coeffs(mul_coeffs(self.a.coeffs, pts), self.b.coeffs) + self.c.coeffs

    def jacobian_at(self, z: CdNumber) -> RealJacobian:
        return RealJacobian(z.level, left_mul_matrix(self.a) @ right_mul_matrix(self.b))


def _features(f, nodes: np.ndarray, step: float):
    """Values (N, dim) and Jacobians (N, dim, dim) of f on all nodes; a
    constant Jacobian is kept once, as a (1, dim, dim) stack.  Without
    `jacobian_at`, f is evaluated on each node followed by its central
    stencil, the order in which a per-node pass meets a bad point."""
    analytic = getattr(f, "jacobian_at", None)
    n, dim = nodes.shape
    pts = nodes if analytic else np.concatenate(
        [nodes[:, None], central_stencil(nodes, step).reshape(n, 2 * dim, dim)], axis=1)

    stencil = np.empty((2 * dim, dim))  # the point-by-point samples of one node

    def value(idx):
        on_node = analytic or idx[1] == 0
        what = "map not evaluable on a grid node" if on_node else "non-finite sample in jacobian"
        w = finite_value(f, CdNumber(pts[idx]), what).coeffs
        if not on_node:  # a node's Jacobian is checked once its stencil is in
            stencil[idx[1] - 1] = w
            if idx[1] == 2 * dim:
                _stencil_jacobians(stencil.reshape(dim, 2, dim), step)
        return w

    out = values_at(f, pts, value)
    if analytic:
        rows = nodes[:1] if getattr(f, "constant_jacobian", False) else nodes
        return out, np.array([analytic(CdNumber(row)).entries for row in rows])
    return np.ascontiguousarray(out[:, 0]), _stencil_jacobians(
        out[:, 1:].reshape(n, dim, 2, dim), step)


def _stencil_jacobians(samples: np.ndarray, step: float) -> np.ndarray:
    """central_differences of stencil samples; EvaluationError unless finite."""
    with np.errstate(all="ignore"):
        jacs = central_differences(samples, step)
    if not np.all(np.isfinite(jacs)):
        raise EvaluationError("non-finite Jacobian entries")
    return jacs


def _rho_from_features(fa, fb) -> np.ndarray:
    """Grid maxima of |f-g| + ||f'-g'|| over the last node axis; leading
    member axes and a (1, dim, dim) constant Jacobian broadcast.

    With a Jacobian per node, an SVD is taken only on the candidate nodes.
    The Frobenius norm bounds ||f'-g'|| from above (widened so that it
    also bounds LAPACK's rounded value) and the largest column norm from
    below.  The exact value at the node with the largest lower bound is a
    value of the row, and a node whose upper bound stays below it cannot
    hold the maximum.  Rounding is monotone, so every maximizing node is a
    candidate and the maximum is the float of the full computation.
    """
    dv = np.linalg.norm(fa[0] - fb[0], axis=-1)
    diff = fa[1] - fb[1]
    if diff.shape[-3] == 1 or not np.isfinite(diff).all():  # no bound past an overflow
        return np.max(dv + np.linalg.norm(diff, ord=2, axis=(-2, -1)), axis=-1)
    shape = np.broadcast_shapes(dv.shape, diff.shape[:-2])
    dim = diff.shape[-1]
    dv = np.broadcast_to(dv, shape).reshape(-1, shape[-1])
    diff = np.broadcast_to(diff, shape + (dim, dim)).reshape(dv.shape + (dim, dim))
    scale = np.abs(diff).max(axis=(-2, -1))  # scaled sums of squares cannot overflow
    unit = diff / np.where(scale > 0, scale, 1.0)[..., None, None]
    cols = (unit * unit).sum(axis=-2)  # squared column norms over scale^2
    with np.errstate(over="ignore"):
        # LAPACK may exceed the exact norm by a few ulps, and by a few
        # subnormal steps below 1e-300; both margins are far wider
        upper = dv + (scale * np.sqrt(cols.sum(axis=-1)) * (1.0 + 1e-12) + 1e-300)
        guess = np.argmax(dv + scale * np.sqrt(cols.max(axis=-1)), axis=-1)
    rows = np.arange(len(dv))
    best = dv[rows, guess] + np.linalg.norm(diff[rows, guess], ord=2, axis=(-2, -1))
    r, c = np.nonzero(upper >= best[:, None])
    values = np.full(dv.shape, -np.inf)
    values[r, c] = dv[r, c] + np.linalg.norm(diff[r, c], ord=2, axis=(-2, -1))
    return np.max(values.reshape(shape), axis=-1)


def _distances(feats) -> np.ndarray:
    """Symmetric matrix of rho between the members' features, one batched
    row at a time: member i against members i+1 ... n-1."""
    vals = np.stack([v for v, _ in feats])
    depth = max(len(j) for _, j in feats)  # 1 when every Jacobian is constant
    jacs = np.stack([np.broadcast_to(j, (depth,) + j.shape[1:]) for _, j in feats])
    n = len(feats)
    dist = np.zeros((n, n))
    for i in range(n - 1):
        dist[i, i + 1:] = dist[i + 1:, i] = _rho_from_features((vals[i], jacs[i]),
                                                               (vals[i + 1:], jacs[i + 1:]))
    return dist


def rho(f, g, grid: CompactGrid) -> RhoValue:
    """Pointwise-plus-derivative proximity of f and g over the grid.

    Derivatives come from `jacobian_at` when the map has it, else from
    central differences at the grid's step (see calculus.values_at).
    """
    nodes = grid.nodes()
    fa = _features(f, nodes, grid.step)
    fb = _features(g, nodes, grid.step)
    return RhoValue(float(_rho_from_features(fa, fb)), len(nodes))


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
    dist = _distances(feats)

    if dist[n // 2:, n // 2:].max() < tol:
        return Classification("ConvergesTo", tuple(range(n // 2, n)), feats[-1][0])

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
